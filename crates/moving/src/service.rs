//! Strategy adapters into the concurrent service's write path.
//!
//! Every serving layer executes queries through `SpatialIndex`/`KnnIndex`
//! and absorbs writes through one contract: a rebuild function, optionally
//! an in-place apply function, and `SpatialIndex::splice`. An
//! [`UpdateStrategy`] is *all of it at once* — it answers range/kNN
//! queries against its maintained structure and knows how to absorb
//! movement — so this module adapts any strategy into those slots:
//!
//! * [`StrategyIndex`] wraps a boxed strategy as a `SpatialIndex +
//!   KnnIndex`, forwarding the sink-based query paths and `splice`.
//! * [`strategy_backend`] serves it from a writable
//!   [`EngineBackend`] (a one-shard engine run inline),
//!   [`sharded_strategy_engine`] from a [`ShardedEngine`]; both rebuild
//!   with [`StrategyIndex::build`] and — the sharded engine in
//!   [`ShardWriteMode::Incremental`] — apply write batches in place with
//!   one and the same function, which routes them into
//!   [`UpdateStrategy::update_batch`]. So a simulation's maintenance
//!   strategy (grid migration, bottom-up R-Tree updates, buffering, …)
//!   serves concurrent clients directly — the paper's alternating
//!   update/query workload through one admission path.
//!
//! ```
//! use simspatial_datagen::ElementSoupBuilder;
//! use simspatial_geom::{Aabb, Point3};
//! use simspatial_moving::service::strategy_backend;
//! use simspatial_moving::UpdateStrategyKind;
//! use simspatial_service::{Request, ServiceConfig, SpatialService};
//!
//! let data = ElementSoupBuilder::new().count(500).seed(21).build();
//! let backend = strategy_backend(data.elements().to_vec(), UpdateStrategyKind::GridMigrate);
//! let service = SpatialService::spawn(backend, ServiceConfig::default());
//! let handle = service.handle();
//! // Move element 4 into a known box, then range-query it back.
//! let target = Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(3.0, 3.0, 3.0));
//! handle.submit(Request::Update(vec![(4, target)])).unwrap().recv().unwrap();
//! let hits = handle
//!     .submit(Request::Range(vec![target]))
//!     .unwrap()
//!     .recv()
//!     .unwrap()
//!     .into_range()
//!     .unwrap();
//! assert!(hits[0].contains(&4));
//! let stats = service.shutdown();
//! assert_eq!(stats.updates_applied, 1);
//! ```

use crate::strategy::{UpdateStrategy, UpdateStrategyKind};
use simspatial_geom::{Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{KnnIndex, KnnSink, RangeSink, ShardApplyCost, ShardedEngine, SpatialIndex};
use simspatial_service::EngineBackend;

/// An [`UpdateStrategy`] adapted to the index traits, so strategy-backed
/// structures run everywhere an index does — in particular inside the
/// service's `EngineBackend`. Queries forward to the strategy's sink-based
/// paths; the element count is tracked by the wrapper (strategies never own
/// the dataset).
pub struct StrategyIndex {
    strategy: Box<dyn UpdateStrategy>,
    len: usize,
}

impl StrategyIndex {
    /// Builds the strategy `kind` over `elements` and wraps it.
    pub fn build(kind: UpdateStrategyKind, elements: &[Element]) -> Self {
        Self {
            strategy: kind.create(elements),
            len: elements.len(),
        }
    }
}

impl SpatialIndex for StrategyIndex {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.strategy.range_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.strategy.memory_bytes()
    }

    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        let spliced = self.strategy.splice(removed, remap, inserted);
        if spliced {
            self.len = self.len - removed.len() + inserted.len();
        }
        spliced
    }
}

impl KnnIndex for StrategyIndex {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.strategy.knn_into(data, p, k, scratch, sink);
    }
}

/// The in-place write path of a strategy-backed index — the one apply
/// function both [`strategy_backend`] and [`sharded_strategy_engine`]
/// attach: the batch goes through [`UpdateStrategy::update_batch`] — grid
/// migration absorbs cell switches, buffered strategies park the moves,
/// rebuild strategies rebuild.
fn apply_strategy(
    index: &mut StrategyIndex,
    data: &mut [Element],
    updates: &[(ElementId, Shape)],
) -> ShardApplyCost {
    let cost = index.strategy.update_batch(data, updates);
    ShardApplyCost {
        structural: cost.structural_updates,
        absorbed: cost.absorbed,
        rebuilds: cost.rebuilds,
    }
}

/// A writable service backend over the update strategy `kind`: queries run
/// through the strategy's structure, write batches through its maintenance
/// path — the inline twin of a one-shard incremental
/// [`sharded_strategy_engine`]; a panic mid-write is recovered by
/// recreating the strategy from the planner's element store, which already
/// holds the write. `data` must follow the dataset convention
/// (`element.id == position`).
pub fn strategy_backend(
    data: Vec<Element>,
    kind: UpdateStrategyKind,
) -> EngineBackend<StrategyIndex> {
    EngineBackend::build_writable(data, move |els| StrategyIndex::build(kind, els))
        .with_apply(apply_strategy)
}

/// The in-shard write mode of a strategy-backed sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardWriteMode {
    /// Every write lane rebuilds the shard's strategy structure from its
    /// (updated) element clone — the differential oracle, and the only
    /// mode that handles membership changes inside the lane itself.
    Rebuild,
    /// Lanes whose ids agree with the shard are applied in place:
    /// geometry through [`UpdateStrategy::update_batch`], touching only
    /// the dirty cells/nodes, and — for a strategy that implements
    /// [`UpdateStrategy::splice`] (grid migration) — migrations, inserts
    /// and removals spliced into the structure. Other strategies' membership
    /// lanes, bulk membership changes and supervised restarts fall back to
    /// the rebuild path.
    Incremental,
}

/// A strategy-backed [`ShardedEngine`]: each shard holds its own instance
/// of the update strategy `kind` over the shard's element clone, and write
/// lanes are applied per `mode`. `data` must follow the dataset convention
/// (`element.id == position`); shard-local re-identification restores that
/// convention inside every shard, which is what lets position-addressed
/// strategies run there.
pub fn sharded_strategy_engine(
    data: &[Element],
    shards: usize,
    kind: UpdateStrategyKind,
    mode: ShardWriteMode,
) -> ShardedEngine<StrategyIndex> {
    let engine = ShardedEngine::build(data, shards, move |els| StrategyIndex::build(kind, els))
        .with_rebuild(move |els| StrategyIndex::build(kind, els));
    match mode {
        ShardWriteMode::Rebuild => engine,
        ShardWriteMode::Incremental => engine.with_apply(apply_strategy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_index::{LinearScan, QueryEngine};
    use simspatial_service::{Request, ServiceConfig, SpatialService};

    fn soup(n: u32) -> Vec<Element> {
        use simspatial_geom::{Shape, Sphere};
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 20.0;
                let y = ((h >> 10) % 997) as f32 / 20.0;
                let z = ((h >> 20) % 997) as f32 / 20.0;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.3)))
            })
            .collect()
    }

    #[test]
    fn every_strategy_serves_reads_and_writes() {
        let data = soup(400);
        let probe = Aabb::new(Point3::new(70.0, 70.0, 70.0), Point3::new(71.0, 71.0, 71.0));
        for kind in UpdateStrategyKind::ALL {
            let service = SpatialService::spawn(
                strategy_backend(data.clone(), kind),
                ServiceConfig::default(),
            );
            let handle = service.handle();
            assert!(handle.capabilities().updates, "{kind:?}");
            // Move three elements into the probe box, one superseded.
            let updates = vec![
                (11u32, probe),
                (11u32, Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0))),
                (12u32, probe),
                (13u32, probe),
            ];
            handle
                .submit(Request::Update(updates.clone()))
                .unwrap()
                .recv()
                .unwrap();
            let hits = handle
                .submit(Request::Range(vec![probe]))
                .unwrap()
                .recv()
                .unwrap()
                .into_range()
                .unwrap();
            // Element 11's later update moved it away again.
            let mut got = hits[0].clone();
            got.sort_unstable();
            assert_eq!(got, vec![12, 13], "{kind:?}");
            // Oracle: linear scan over the serially updated data.
            let mut updated = data.clone();
            for &(id, bb) in &updates {
                updated[id as usize].shape = Shape::Box(bb);
            }
            let scan = LinearScan::build(&updated);
            let mut engine = QueryEngine::new();
            let mut want = simspatial_index::BatchResults::new();
            engine.range_collect(&scan, &updated, &[probe], &mut want);
            let mut want: Vec<u32> = want.query_results(0).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "{kind:?}");
            let stats = service.shutdown();
            assert_eq!(stats.updates_applied, 3, "{kind:?}");
            assert_eq!(stats.updates_skipped, 1, "{kind:?}");
        }
    }

    #[test]
    fn update_batch_default_skips_unknown_ids() {
        let mut data = soup(50);
        let mut strategy = UpdateStrategyKind::NoIndexScan.create(&data);
        let cost = strategy.update_batch(
            &mut data,
            &[(999, Shape::Box(Aabb::new(Point3::ORIGIN, Point3::ORIGIN)))],
        );
        let _ = cost;
        assert_eq!(data.len(), 50);
    }
}
