//! Strategy-backed serving: the concurrent service's write path.
//!
//! Every serving layer executes queries through `SpatialIndex`/`KnnIndex`
//! and absorbs writes through one contract: a rebuild function, optionally
//! an in-place apply function, and `SpatialIndex::splice`. An
//! [`UpdateStrategy`] is an index that also absorbs movement, so a
//! `Box<dyn UpdateStrategy>` fills every slot:
//!
//! * [`sharded_strategy_engine`] serves it from a [`ShardedEngine`] that
//!   rebuilds with [`UpdateStrategyKind::create`] and applies write
//!   batches in place through [`UpdateStrategy::update_batch`];
//!   [`strategy_backend`] is its one-shard engine behind a writable
//!   [`ShardedBackend`]. So a simulation's maintenance strategy (grid
//!   migration, bottom-up R-Tree updates, buffering, …) serves concurrent
//!   clients directly — the paper's alternating update/query workload
//!   through one admission path.
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
//! handle.submit(Request::StepDelta(vec![(4, target)])).unwrap().recv().unwrap();
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
use simspatial_geom::Element;
use simspatial_index::ShardedEngine;
use simspatial_service::ShardedBackend;

/// A writable service backend over the update strategy `kind`: a one-shard
/// [`sharded_strategy_engine`], whose lanes run on the dispatcher. Queries
/// run through the strategy's structure, write batches through its
/// maintenance path; a panic mid-write restarts the shard by recreating
/// the strategy from the planner's element store, which already holds the
/// write. `data` must follow the dataset convention (`element.id ==
/// position`).
pub fn strategy_backend(data: Vec<Element>, kind: UpdateStrategyKind) -> ShardedBackend {
    ShardedBackend::spawn(sharded_strategy_engine(&data, 1, kind))
}

/// A strategy-backed [`ShardedEngine`]: each shard holds its own instance
/// of the update strategy `kind` over the shard's element clone.
///
/// Lanes whose ids agree with the shard are applied in place: geometry
/// through [`UpdateStrategy::update_batch`] — grid migration absorbs cell
/// switches, buffered strategies park the moves, rebuild strategies
/// rebuild — and, for a strategy that splices (grid migration),
/// migrations, inserts and removals through
/// [`SpatialIndex::splice`](simspatial_index::SpatialIndex::splice). Other
/// strategies' membership lanes, bulk membership changes and supervised
/// restarts rebuild with [`UpdateStrategyKind::create`]. `data` must
/// follow the dataset convention (`element.id == position`); shard-local
/// re-identification restores that convention inside every shard, which
/// is what lets position-addressed strategies run there.
pub fn sharded_strategy_engine(
    data: &[Element],
    shards: usize,
    kind: UpdateStrategyKind,
) -> ShardedEngine<Box<dyn UpdateStrategy>> {
    ShardedEngine::build(data, shards, |els| kind.create(els))
        .with_rebuild(move |els| kind.create(els))
        .with_apply(|s, data, u| s.update_batch(data, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_geom::{Aabb, Point3, Shape};
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
                .submit(Request::StepDelta(updates.clone()))
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
