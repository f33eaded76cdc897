//! The batch query execution engine.
//!
//! [`QueryEngine`] is the one place that owns query-time state: it holds
//! the [`QueryScratch`] buffers every index borrows during execution, and
//! it centralises the accounting every harness used to hand-roll — wall
//! clock, result totals and the thread-local predicate-counter deltas of
//! [`simspatial_geom::stats`] — into one [`QueryStats`] per batch.
//!
//! The unit of work is **a batch of queries**, per the paper's workloads
//! (hundreds of range/kNN probes per simulation step) and per the
//! roadmap's sharding/async direction: anything that can run a batch
//! against a [`SpatialIndex`] through a [`RangeSink`] — or against a
//! [`KnnIndex`] through a [`KnnSink`] — composes with every index in the
//! crate.
//!
//! Both query families are symmetric:
//!
//! * **Range**: [`QueryEngine::range_batch`] drives
//!   [`SpatialIndex::range_batch`] into a [`RangeSink`]
//!   ([`BatchResults`] collects, [`CountSink`] counts).
//! * **kNN**: [`QueryEngine::knn_probes_into`] runs a batch of
//!   `(point, k)` probes, each with its own `k`, through
//!   [`KnnIndex::knn_into`] into a [`KnnSink`] ([`KnnBatchResults`]
//!   collects); [`QueryEngine::knn_batch_into`] is the same loop with one
//!   `k` for every point. One scratch carries the best-k heap, traversal
//!   queue and batched lower-bound buffers across every probe of the
//!   batch.
//!
//! Steady-state guarantee: repeat `range_batch`/`knn_batch_into` calls
//! through one engine (with a reused sink) perform zero per-query heap
//! allocations on the grid/R-Tree/FLAT hot paths — scratch and sink
//! buffers grow to a high-water mark and stay there.
//!
//! Scaling out happens **above** the engine: [`sharded::ShardedEngine`]
//! partitions the dataset by region across K shards, each owning its own
//! `QueryEngine` + index, and merges per-shard results through the same
//! sink traits (see the [`sharded`] module docs).

pub mod sharded;

use crate::traits::{KnnIndex, KnnSink, QueryStats, RangeSink, SpatialIndex};
use simspatial_geom::{stats, Aabb, Element, ElementId, Point3, QueryScratch};
use std::time::Instant;

/// A reusable per-query result collector.
///
/// Keeps one id list per query of the batch; [`BatchResults::reset`] clears
/// the lists without freeing them, so a collector reused across batches
/// allocates only until every list reaches its high-water capacity.
#[derive(Debug, Default)]
pub struct BatchResults {
    lists: Vec<Vec<ElementId>>,
    used: usize,
}

impl BatchResults {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all per-query lists, keeping their allocations.
    pub fn reset(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        self.used = 0;
    }

    /// Number of queries that have produced (possibly empty) result lists.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no query has been announced yet.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Results of query `qi`, in emission order.
    pub fn query_results(&self, qi: usize) -> &[ElementId] {
        &self.lists[qi]
    }

    /// Iterates the per-query result lists in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[ElementId]> {
        self.lists[..self.used].iter().map(Vec::as_slice)
    }

    /// Total results across all queries.
    pub fn total(&self) -> usize {
        self.lists[..self.used].iter().map(Vec::len).sum()
    }
}

impl RangeSink for BatchResults {
    fn begin_query(&mut self, qi: u32) {
        let qi = qi as usize;
        while self.used <= qi {
            if self.used == self.lists.len() {
                self.lists.push(Vec::new());
            }
            self.lists[self.used].clear();
            self.used += 1;
        }
    }

    #[inline]
    fn push(&mut self, id: ElementId) {
        if self.used == 0 {
            // Driven directly by a single-query `range_into` (which never
            // announces queries): results belong to query 0.
            self.begin_query(0);
        }
        self.lists[self.used - 1].push(id);
    }

    fn push_all(&mut self, ids: &[ElementId]) {
        if self.used == 0 {
            self.begin_query(0);
        }
        self.lists[self.used - 1].extend_from_slice(ids);
    }
}

/// A sink that only counts results (total and per query) — the cheapest
/// way to drive a batch for timing or selectivity measurements. Driving
/// several batches through one instance without [`CountSink::reset`]
/// accumulates counts per query index.
#[derive(Debug, Default)]
pub struct CountSink {
    /// Total results across the batch.
    pub total: u64,
    /// Results per query, in batch order.
    pub per_query: Vec<u64>,
    /// Slot of the last-announced query.
    current: usize,
}

impl CountSink {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the counts, keeping the per-query allocation.
    pub fn reset(&mut self) {
        self.total = 0;
        self.per_query.clear();
        self.current = 0;
    }
}

impl RangeSink for CountSink {
    fn begin_query(&mut self, qi: u32) {
        let qi = qi as usize;
        while self.per_query.len() <= qi {
            self.per_query.push(0);
        }
        self.current = qi;
    }

    #[inline]
    fn push(&mut self, _id: ElementId) {
        self.total += 1;
        if self.per_query.is_empty() {
            // Driven directly by a single-query `range_into`.
            self.per_query.push(0);
            self.current = 0;
        }
        self.per_query[self.current] += 1;
    }
}

/// Forwarding sink that tallies pushes — how the engine counts results
/// without imposing a sink type on callers.
struct TallySink<'a> {
    inner: &'a mut dyn RangeSink,
    results: u64,
}

impl RangeSink for TallySink<'_> {
    fn begin_query(&mut self, qi: u32) {
        self.inner.begin_query(qi);
    }

    #[inline]
    fn push(&mut self, id: ElementId) {
        self.results += 1;
        self.inner.push(id);
    }

    fn push_all(&mut self, ids: &[ElementId]) {
        self.results += ids.len() as u64;
        self.inner.push_all(ids);
    }
}

/// Executes query batches against any index, owning the scratch buffers
/// and the per-batch accounting. Create once, reuse across batches.
#[derive(Debug, Default)]
pub struct QueryEngine {
    scratch: QueryScratch,
}

impl QueryEngine {
    /// A fresh engine with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held by the engine's scratch buffers (the steady-state
    /// query-time memory of this engine, grown to its high-water mark).
    pub fn memory_bytes(&self) -> usize {
        self.scratch.memory_bytes()
    }

    /// Runs `queries` against `index` through the index's batched plan,
    /// streaming results into `sink` and returning the batch accounting.
    pub fn range_batch<I: SpatialIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        queries: &[Aabb],
        sink: &mut dyn RangeSink,
    ) -> QueryStats {
        let before = stats::snapshot();
        let mut tally = TallySink {
            inner: sink,
            results: 0,
        };
        let start = Instant::now();
        index.range_batch(data, queries, &mut self.scratch, &mut tally);
        let elapsed_s = start.elapsed().as_secs_f64();
        QueryStats {
            elapsed_s,
            results: tally.results,
            counts: stats::snapshot().since(&before),
        }
    }

    /// Runs the batch and collects per-query result lists into `out`
    /// (reset first, allocations kept).
    pub fn range_collect<I: SpatialIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        queries: &[Aabb],
        out: &mut BatchResults,
    ) -> QueryStats {
        out.reset();
        self.range_batch(index, data, queries, out)
    }

    /// Runs the batch for its accounting alone (results are counted, not
    /// kept) — the timing loop every experiment harness needs.
    pub fn range_count<I: SpatialIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        queries: &[Aabb],
    ) -> QueryStats {
        struct Discard;
        impl RangeSink for Discard {
            #[inline]
            fn push(&mut self, _id: ElementId) {}
        }
        self.range_batch(index, data, queries, &mut Discard)
    }

    /// Runs a batch of kNN probes, each `(point, k)` with its own `k`,
    /// streaming results into `sink` and returning the batch accounting —
    /// wall clock, result totals and the kNN predicate counters
    /// (lower-bound and exact distance evaluations) alongside the classic
    /// tree/element test counts.
    pub fn knn_probes_into<I: KnnIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        probes: &[(Point3, usize)],
        sink: &mut dyn KnnSink,
    ) -> QueryStats {
        self.knn_loop(index, data, probes.iter().copied(), sink)
    }

    /// [`QueryEngine::knn_probes_into`] with the same `k` for every point.
    pub fn knn_batch_into<I: KnnIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        points: &[Point3],
        k: usize,
        sink: &mut dyn KnnSink,
    ) -> QueryStats {
        self.knn_loop(index, data, points.iter().map(|&p| (p, k)), sink)
    }

    /// Runs the kNN batch and collects per-probe result lists into `out`
    /// (reset first, allocations kept).
    pub fn knn_collect<I: KnnIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        points: &[Point3],
        k: usize,
        out: &mut KnnBatchResults,
    ) -> QueryStats {
        out.reset();
        self.knn_batch_into(index, data, points, k, out)
    }

    /// The one kNN loop: announces each probe to the sink and runs
    /// [`KnnIndex::knn_into`] over the engine's scratch, so heaps and
    /// candidate buffers are reused across probes.
    fn knn_loop<I: KnnIndex + ?Sized>(
        &mut self,
        index: &I,
        data: &[Element],
        probes: impl Iterator<Item = (Point3, usize)>,
        sink: &mut dyn KnnSink,
    ) -> QueryStats {
        let before = stats::snapshot();
        let mut tally = KnnTallySink {
            inner: sink,
            results: 0,
        };
        let start = Instant::now();
        for (qi, (p, k)) in probes.enumerate() {
            tally.begin_query(qi as u32);
            index.knn_into(data, &p, k, &mut self.scratch, &mut tally);
        }
        QueryStats {
            elapsed_s: start.elapsed().as_secs_f64(),
            results: tally.results,
            counts: stats::snapshot().since(&before),
        }
    }
}

/// Forwarding sink that tallies kNN pushes — how the engine counts results
/// without imposing a sink type on callers.
struct KnnTallySink<'a> {
    inner: &'a mut dyn KnnSink,
    results: u64,
}

impl KnnSink for KnnTallySink<'_> {
    fn begin_query(&mut self, qi: u32) {
        self.inner.begin_query(qi);
    }

    #[inline]
    fn push(&mut self, id: ElementId, dist: f32) {
        self.results += 1;
        self.inner.push(id, dist);
    }
}

/// A reusable per-probe kNN result collector — the kNN mirror of
/// [`BatchResults`]: one `(id, distance)` list per probe of the batch,
/// cleared but not freed by [`KnnBatchResults::reset`], so a collector
/// reused across batches allocates only until every list reaches its
/// high-water capacity.
#[derive(Debug, Default)]
pub struct KnnBatchResults {
    lists: Vec<Vec<(ElementId, f32)>>,
    used: usize,
}

impl KnnBatchResults {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all per-probe lists, keeping their allocations.
    pub fn reset(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        self.used = 0;
    }

    /// Number of probes that have produced (possibly empty) result lists.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no probe has been announced yet.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Results of probe `qi`, nearest first.
    pub fn query_results(&self, qi: usize) -> &[(ElementId, f32)] {
        &self.lists[qi]
    }

    /// Iterates the per-probe result lists in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[(ElementId, f32)]> {
        self.lists[..self.used].iter().map(Vec::as_slice)
    }

    /// Total results across all probes.
    pub fn total(&self) -> usize {
        self.lists[..self.used].iter().map(Vec::len).sum()
    }
}

impl KnnSink for KnnBatchResults {
    fn begin_query(&mut self, qi: u32) {
        let qi = qi as usize;
        while self.used <= qi {
            if self.used == self.lists.len() {
                self.lists.push(Vec::new());
            }
            self.lists[self.used].clear();
            self.used += 1;
        }
    }

    #[inline]
    fn push(&mut self, id: ElementId, dist: f32) {
        if self.used == 0 {
            // Driven directly by a single-probe `knn_into` (which never
            // announces probes): results belong to probe 0.
            self.begin_query(0);
        }
        self.lists[self.used - 1].push((id, dist));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridConfig, LinearScan, UniformGrid};
    use simspatial_geom::{Shape, Sphere};

    fn line_data(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                Element::new(
                    i,
                    Shape::Sphere(Sphere::new(Point3::new(i as f32, 0.0, 0.0), 0.25)),
                )
            })
            .collect()
    }

    fn line_queries() -> Vec<Aabb> {
        (0..6)
            .map(|i| {
                let x = (i * 12) as f32;
                Aabb::new(Point3::new(x, -1.0, -1.0), Point3::new(x + 7.0, 1.0, 1.0))
            })
            .collect()
    }

    #[test]
    fn collect_matches_legacy_range() {
        let data = line_data(80);
        let idx = LinearScan::build(&data);
        let queries = line_queries();
        let mut engine = QueryEngine::new();
        let mut results = BatchResults::new();
        let s = engine.range_collect(&idx, &data, &queries, &mut results);
        assert_eq!(results.len(), queries.len());
        assert_eq!(s.results as usize, results.total());
        for (qi, q) in queries.iter().enumerate() {
            let mut got = results.query_results(qi).to_vec();
            let mut want = idx.range(&data, q);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi}");
        }
    }

    #[test]
    fn count_sink_and_collect_agree() {
        let data = line_data(60);
        let grid = UniformGrid::build(&data, GridConfig::auto(&data));
        let queries = line_queries();
        let mut engine = QueryEngine::new();
        let mut counts = CountSink::new();
        let s1 = engine.range_batch(&grid, &data, &queries, &mut counts);
        let mut results = BatchResults::new();
        let s2 = engine.range_collect(&grid, &data, &queries, &mut results);
        assert_eq!(s1.results, s2.results);
        assert_eq!(counts.total, s1.results);
        assert_eq!(counts.per_query.len(), queries.len());
        for (qi, &n) in counts.per_query.iter().enumerate() {
            assert_eq!(n as usize, results.query_results(qi).len());
        }
    }

    #[test]
    fn knn_batch_collects_per_point() {
        let data = line_data(50);
        let idx = LinearScan::build(&data);
        let points: Vec<Point3> = (0..5)
            .map(|i| Point3::new(i as f32 * 9.0, 0.0, 0.0))
            .collect();
        let mut engine = QueryEngine::new();
        let mut out = KnnBatchResults::new();
        let s = engine.knn_collect(&idx, &data, &points, 3, &mut out);
        assert_eq!(out.len(), points.len());
        assert_eq!(s.results, 15);
        for (p, got) in points.iter().zip(out.iter()) {
            assert_eq!(got, idx.knn(&data, p, 3));
        }
    }

    #[test]
    fn batch_results_reuse_keeps_capacity() {
        let data = line_data(100);
        let idx = LinearScan::build(&data);
        let queries = line_queries();
        let mut engine = QueryEngine::new();
        let mut results = BatchResults::new();
        engine.range_collect(&idx, &data, &queries, &mut results);
        let caps: Vec<usize> = results.lists.iter().map(Vec::capacity).collect();
        engine.range_collect(&idx, &data, &queries, &mut results);
        for (list, cap) in results.lists.iter().zip(caps) {
            assert!(list.capacity() >= cap, "reuse must not shrink buffers");
        }
    }
}
