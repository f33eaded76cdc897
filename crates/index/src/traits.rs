//! Common index traits and query instrumentation.
//!
//! The query contract is **batch-first and sink-based**: the required
//! method of [`SpatialIndex`] is [`SpatialIndex::range_into`], which emits
//! result ids into a caller-supplied [`RangeSink`] using caller-supplied
//! [`QueryScratch`] buffers — no allocation per call. Batches go through
//! [`SpatialIndex::range_batch`] (indexes with genuinely batched plans,
//! like the linear scan's one-pass envelope plan, override it). The
//! allocating [`SpatialIndex::range`] remains as a thin compatibility
//! wrapper. See [`crate::engine::QueryEngine`] for the harness that owns
//! scratch, wall-clock and predicate-counter accounting.

use simspatial_geom::scratch::with_scratch;
use simspatial_geom::{stats, Aabb, Element, ElementId, Point3, QueryScratch, Shape};

/// A consumer of range-query results.
///
/// Results of one query arrive as a [`RangeSink::begin_query`] call
/// followed by zero or more [`RangeSink::push`] calls; batches announce
/// queries in ascending order. Sinks are how the batch execution layer
/// stays allocation-free: counting, collecting, streaming to a network
/// socket and feeding a join are all just different sinks over the same
/// index plans.
pub trait RangeSink {
    /// Marks the start of results for query `qi` of the batch. Single-query
    /// entry points call this with `qi = 0` exactly once.
    fn begin_query(&mut self, qi: u32) {
        let _ = qi;
    }

    /// Emits one result id for the current query.
    fn push(&mut self, id: ElementId);

    /// Emits a run of result ids for the current query, in order — one
    /// call for a whole list a shard merge copies through. Defaults to one
    /// [`RangeSink::push`] per id.
    fn push_all(&mut self, ids: &[ElementId]) {
        for &id in ids {
            self.push(id);
        }
    }
}

/// Collecting sink: appends every result, ignoring query boundaries.
impl RangeSink for Vec<ElementId> {
    #[inline]
    fn push(&mut self, id: ElementId) {
        self.push(id);
    }
}

/// A spatial index over a dataset of [`Element`]s.
///
/// Indexes never own the element data: queries receive the live slice so
/// exact refinement always sees current geometry, and so that structures in
/// the FLAT/DLS family — which *depend* on the dataset for execution (§4.3
/// of the paper) — fit the same interface as classic indexes.
///
/// Implementations must emit exactly the ids of elements whose exact
/// geometry intersects the query box (filter + refine), in unspecified
/// order and without duplicates — except where a structure is documented as
/// approximate ([`crate::Lsh`]).
pub trait SpatialIndex {
    /// Short, stable name used by the benchmark harness ("R-Tree", "Grid", …).
    fn name(&self) -> &'static str;

    /// Number of indexed elements.
    fn len(&self) -> usize;

    /// True when no elements are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emits into `sink` the ids of all elements whose exact geometry
    /// intersects `query` — the core query path every index implements.
    ///
    /// `scratch` provides every transient buffer (candidate lists,
    /// traversal stacks, dedupe tables); implementations clear the buffers
    /// they use on entry, so a caller may reuse one scratch across an
    /// entire batch without resetting between queries. Implementations do
    /// **not** call [`RangeSink::begin_query`]; batch drivers do.
    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    );

    /// Executes a whole batch of range queries, announcing each query to
    /// the sink via [`RangeSink::begin_query`] in ascending order.
    ///
    /// The default loops [`SpatialIndex::range_into`]; indexes with
    /// genuinely batched plans (e.g. [`crate::LinearScan`]'s single-pass
    /// envelope plan) override it.
    fn range_batch(
        &self,
        data: &[Element],
        queries: &[Aabb],
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        for (qi, q) in queries.iter().enumerate() {
            sink.begin_query(qi as u32);
            self.range_into(data, q, scratch, sink);
        }
    }

    /// Allocating convenience wrapper over [`SpatialIndex::range_into`],
    /// kept for compatibility and one-off queries. Uses the thread-local
    /// scratch pool, so repeat calls reuse buffers.
    fn range(&self, data: &[Element], query: &Aabb) -> Vec<ElementId> {
        with_scratch(|scratch| {
            let mut out = Vec::new();
            self.range_into(data, query, scratch, &mut out);
            out
        })
    }

    /// Approximate bytes of memory the index structure occupies (excluding
    /// the element data itself). Used for the index-size comparisons the
    /// paper makes about replication-based schemes.
    fn memory_bytes(&self) -> usize;

    /// Applies a **membership change** in place, renumbering the survivors:
    /// drop the entries of `removed` (elements under their *old* ids, with
    /// the geometry the index last saw), rewrite every remaining stored id
    /// `i` to `remap[i]`, then add `inserted` (elements under their *new*
    /// ids). `remap` covers every old id and is monotone — survivors keep
    /// their relative order, a departing id's entry is ignored — so a
    /// dataset kept sorted by some outer key (a shard's global ids) stays
    /// dense and sorted without a rebuild.
    ///
    /// Returns `false`, **leaving the index untouched**, when the structure
    /// cannot do this (the default); the caller then rebuilds. An
    /// implementation that returns `true` must answer every later query
    /// exactly as a fresh build over the new dataset would, and must be a
    /// pure function of `(self, removed, remap, inserted)`: equal indexes
    /// spliced with equal arguments end up equal, entry order included
    /// (the incremental differential suites compare two engines fed the
    /// same lanes byte for byte).
    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        let _ = (removed, remap, inserted);
        false
    }

    /// Applies a **geometry write** in place: each `(id, shape)` entry
    /// replaces `data[id]`'s geometry (`id == position`; out-of-range ids
    /// are skipped, duplicates resolve last-write-wins) and the index
    /// absorbs the move. The sharded engine passes a shard's element clone
    /// and the lane under its post-[`SpatialIndex::splice`] local ids.
    ///
    /// Returns `None`, **touching neither the index nor `data`**, when the
    /// structure cannot do this (the default); the caller then writes the
    /// shapes and rebuilds. An implementation that returns `Some` must
    /// answer every later query as a fresh build over the written `data`
    /// would, and must be a pure function of `(self, data, updates)` —
    /// entry order included, no clocks, random numbers or hash-seeded
    /// iteration: a service's shards and a serial engine fed the same lanes
    /// must answer byte for byte, range emission order and kNN ties too.
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        let _ = (data, updates);
        None
    }
}

/// A consumer of k-nearest-neighbour results — the kNN mirror of
/// [`RangeSink`].
///
/// Results of one probe arrive as a [`KnnSink::begin_query`] call followed
/// by the probe's results in ascending `(distance, id)` order; batches
/// announce probes in ascending order. Collecting, counting and
/// shard-merging are all just different sinks over the same index plans.
pub trait KnnSink {
    /// Marks the start of results for probe `qi` of the batch. Single-probe
    /// entry points call this with `qi = 0` exactly once.
    fn begin_query(&mut self, qi: u32) {
        let _ = qi;
    }

    /// Emits one result for the current probe: `id` at exact element-surface
    /// distance `dist`. Within a probe, pushes arrive nearest first.
    fn push(&mut self, id: ElementId, dist: f32);
}

/// Collecting sink: appends every result, ignoring probe boundaries.
impl KnnSink for Vec<(ElementId, f32)> {
    #[inline]
    fn push(&mut self, id: ElementId, dist: f32) {
        self.push((id, dist));
    }
}

/// A structure that answers k-nearest-neighbour queries.
///
/// Deliberately *not* a subtrait of [`SpatialIndex`]: §3.3 of the paper
/// proposes LSH precisely because kNN and range workloads may want different
/// structures, and LSH has no meaningful range interface.
///
/// The contract is **batch-first and sink-based**, mirroring
/// [`SpatialIndex`]: the required method is [`KnnIndex::knn_into`], which
/// emits the `k` nearest elements into a caller-supplied [`KnnSink`] using
/// caller-supplied [`QueryScratch`] buffers (best-k heap storage, traversal
/// queues, batched lower-bound distances) — no allocation per probe once
/// the buffers have grown. Results are selected and emitted under the total
/// order *ascending `(distance, id)`*, which makes ties deterministic and
/// shard merges byte-identical to single-engine execution — ties included,
/// because every exact index prunes by one bound rule that allows for the
/// rounding a lower bound and its exact distance differ by. There is no
/// batched kNN plan: [`crate::engine::QueryEngine`] drives a batch as one
/// `knn_into` per probe over one shared scratch, each probe with its own `k`.
pub trait KnnIndex {
    /// Emits into `sink` the `k` elements nearest to `p` by exact
    /// element-surface distance, nearest first (ties broken by ascending
    /// id). Emits fewer than `k` results only when the dataset is smaller
    /// than `k`. Implementations do **not** call [`KnnSink::begin_query`];
    /// batch drivers do.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    );

    /// Allocating convenience wrapper over [`KnnIndex::knn_into`], kept for
    /// compatibility and one-off probes. Uses the thread-local scratch pool,
    /// so repeat calls reuse buffers.
    fn knn(&self, data: &[Element], p: &Point3, k: usize) -> Vec<(ElementId, f32)> {
        with_scratch(|scratch| {
            let mut out = Vec::new();
            self.knn_into(data, p, k, scratch, &mut out);
            out
        })
    }
}

impl<T: SpatialIndex + ?Sized> SpatialIndex for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        (**self).range_into(data, query, scratch, sink);
    }

    fn range_batch(
        &self,
        data: &[Element],
        queries: &[Aabb],
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        (**self).range_batch(data, queries, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        (**self).splice(removed, remap, inserted)
    }

    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        (**self).update_in_place(data, updates)
    }
}

impl<T: KnnIndex + ?Sized> KnnIndex for Box<T> {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        (**self).knn_into(data, p, k, scratch, sink);
    }
}

/// Instrumented result of executing a query batch: wall-clock plus the
/// predicate-counter deltas the paper's Figure 3 breakdown needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Wall-clock seconds spent executing the batch.
    pub elapsed_s: f64,
    /// Total results returned.
    pub results: u64,
    /// Predicate counters accumulated during the batch.
    pub counts: stats::PredicateCounts,
}

impl QueryStats {
    /// Tree-level share of all intersection tests, in `\[0, 1\]`.
    pub fn tree_test_share(&self) -> f64 {
        let total = self.counts.total_tests();
        if total == 0 {
            0.0
        } else {
            self.counts.tree_tests as f64 / total as f64
        }
    }
}

/// Cost report of one in-place write ([`SpatialIndex::update_in_place`],
/// which is also how an update strategy maintains itself): how much index
/// structure the batch's writes actually dirtied, versus how many of them
/// were absorbed in place for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardApplyCost {
    /// Structural index modifications: grid cell switches, R-Tree
    /// reinsertions/repairs — the nodes/cells the writes dirtied.
    pub structural: u64,
    /// Updates absorbed with no structural work (same cell, inside a
    /// buffered batch or grace window).
    pub absorbed: u64,
    /// Full rebuilds the *strategy itself* chose to perform (a buffered
    /// strategy flushing, a rebuild strategy) — distinct from the
    /// executor-level fallback rebuild, which this path avoids.
    pub rebuilds: u64,
}

/// Instrumented result of applying one coalesced write batch — the update
/// mirror of [`QueryStats`], shared by every write path (sharded update
/// lanes, engine-backend updaters, the service's update dispatches).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Wall-clock seconds spent applying the batch.
    pub elapsed_s: f64,
    /// Element updates applied (after last-write-wins coalescing of
    /// duplicate ids within the batch).
    pub applied: u64,
    /// Elements whose placement in the structure changed: shard migrations
    /// for the sharded engine, structural modifications (cell switches,
    /// reinserted entries, rebuild-touched elements) for strategy-backed
    /// single engines.
    pub migrations: u64,
    /// Updates not applied: ids outside the dataset, plus duplicates
    /// superseded by a later update to the same id in the same batch.
    pub skipped: u64,
    /// Write operations shipped to the storage layer after routing:
    /// per-shard lane entries (updates + migrations in/out) for the
    /// sharded engine, batch entries for a single engine. `shipped /
    /// applied` is the write-amplification factor replication introduces.
    pub shipped: u64,
    /// Structural index work performed while applying the batch: grid cell
    /// switches, R-Tree reinsertions/repairs, and — for shards or
    /// strategies that fell back to a rebuild — every element the rebuild
    /// touched. The denominator of "how much index did K updates dirty".
    pub structural: u64,
    /// Updates absorbed with **no** structural work (same grid cell, inside
    /// a buffered batch or grace window) — the incremental write path's
    /// best case.
    pub absorbed: u64,
    /// Full index (re)builds performed while applying the batch (one per
    /// shard lane in rebuild mode; strategy-internal rebuilds count too).
    pub rebuilds: u64,
    /// Shard lanes applied incrementally that rebuild mode would have
    /// rebuilt — the rebuilds the incremental write path saved.
    pub rebuilds_avoided: u64,
    /// Elements newly inserted into the dataset (planner-allocated ids).
    pub inserted: u64,
    /// Elements removed from the dataset (tombstoned ids).
    pub removed: u64,
    /// Membership changes applied **in place**: elements a shard lane took
    /// in or gave up (migrations, inserts, removals) by splicing its index
    /// ([`SpatialIndex::splice`]) instead of rebuilding the shard.
    pub spliced: u64,
}

impl UpdateStats {
    /// Accumulates another batch's accounting into `self`.
    pub fn add(&mut self, other: &UpdateStats) {
        self.elapsed_s += other.elapsed_s;
        self.applied += other.applied;
        self.migrations += other.migrations;
        self.skipped += other.skipped;
        self.shipped += other.shipped;
        self.structural += other.structural;
        self.absorbed += other.absorbed;
        self.rebuilds += other.rebuilds;
        self.rebuilds_avoided += other.rebuilds_avoided;
        self.inserted += other.inserted;
        self.removed += other.removed;
        self.spliced += other.spliced;
    }
}

/// Runs a batch of range queries against `index`, collecting wall-clock and
/// predicate-counter deltas. The thread-local counters are reset first.
///
/// Drives the index's **batched plan** ([`SpatialIndex::range_batch`]), so
/// structures with a genuinely batched override — notably
/// [`crate::LinearScan`]'s one-pass envelope plan — are measured on that
/// plan, not on repeated single queries (timings and predicate counts
/// reflect the batch execution the engine would perform in production).
///
/// Compatibility shim over [`crate::engine::QueryEngine`]; new code should
/// hold an engine and reuse its scratch across batches.
pub fn measure_range<I: SpatialIndex + ?Sized>(
    index: &I,
    data: &[Element],
    queries: &[Aabb],
) -> QueryStats {
    stats::reset();
    crate::engine::QueryEngine::new().range_count(index, data, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;
    use simspatial_geom::{Point3, Shape, Sphere};

    fn tiny_data() -> Vec<Element> {
        (0..10)
            .map(|i| {
                Element::new(
                    i,
                    Shape::Sphere(Sphere::new(Point3::new(i as f32, 0.0, 0.0), 0.25)),
                )
            })
            .collect()
    }

    #[test]
    fn measure_range_counts_results_and_tests() {
        let data = tiny_data();
        let idx = LinearScan::build(&data);
        let q = Aabb::new(Point3::new(-0.5, -1.0, -1.0), Point3::new(2.5, 1.0, 1.0));
        let s = measure_range(&idx, &data, &[q]);
        assert_eq!(s.results, 3); // spheres at 0, 1, 2
        assert!(s.counts.element_tests >= 10, "scan must test every element");
        assert_eq!(s.counts.tree_tests, 0, "a scan has no tree");
        assert_eq!(s.tree_test_share(), 0.0);
    }

    #[test]
    fn empty_batch() {
        let data = tiny_data();
        let idx = LinearScan::build(&data);
        let s = measure_range(&idx, &data, &[]);
        assert_eq!(s.results, 0);
        assert_eq!(s.counts.total_tests(), 0);
    }

    #[test]
    fn range_wrapper_equals_sink_path() {
        let data = tiny_data();
        let idx = LinearScan::build(&data);
        let q = Aabb::new(Point3::new(1.5, -1.0, -1.0), Point3::new(6.5, 1.0, 1.0));
        let legacy = idx.range(&data, &q);
        let mut scratch = QueryScratch::default();
        let mut sunk = Vec::new();
        idx.range_into(&data, &q, &mut scratch, &mut sunk);
        assert_eq!(legacy, sunk);
    }
}
