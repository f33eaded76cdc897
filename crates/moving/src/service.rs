//! Strategy-backed serving: the concurrent service's write path.
//!
//! Every serving layer executes queries through `SpatialIndex`/`KnnIndex`
//! and absorbs writes through one contract: a rebuild function,
//! `SpatialIndex::splice` for membership and `SpatialIndex::update_in_place`
//! for geometry. An [`UpdateStrategy`] is an index that also absorbs
//! movement, so a `Box<dyn UpdateStrategy>` fills every slot:
//!
//! * [`sharded_strategy_engine`] serves it from a [`ShardedEngine`] that
//!   rebuilds with [`UpdateStrategyKind::create`] and applies write
//!   batches in place through the strategy's own `update_in_place`;
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
/// the strategy over the shard's own element clone, once the torn write
/// has been replayed on it. `data` must follow the dataset convention (`element.id ==
/// position`).
pub fn strategy_backend(data: Vec<Element>, kind: UpdateStrategyKind) -> ShardedBackend {
    ShardedBackend::spawn(sharded_strategy_engine(&data, 1, kind))
}

/// A strategy-backed [`ShardedEngine`]: each shard holds its own instance
/// of the update strategy `kind` over the shard's element clone.
///
/// Lanes whose ids agree with the shard are applied in place: geometry
/// through the strategy's
/// [`update_in_place`](simspatial_index::SpatialIndex::update_in_place) —
/// grid migration absorbs cell switches, buffered strategies park the
/// moves, rebuild strategies rebuild — and, for a strategy that splices
/// (grid migration), migrations, inserts and removals through
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_geom::{Aabb, Point3, Shape};
    use simspatial_index::{LinearScan, QueryEngine, SpatialIndex};
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
    fn update_in_place_skips_unknown_ids() {
        let data = soup(50);
        let far = Shape::Box(Aabb::new(Point3::ORIGIN, Point3::ORIGIN));
        let q = Aabb::new(Point3::ORIGIN, Point3::new(30.0, 30.0, 30.0));
        let mut want = LinearScan::build(&data).range(&data, &q);
        want.sort_unstable();
        for kind in UpdateStrategyKind::ALL {
            let mut written = data.clone();
            let mut strategy = kind.create(&written);
            let cost = strategy
                .update_in_place(&mut written, &[(999, far), (50, far)])
                .expect("every strategy writes in place");
            assert_eq!(cost.structural + cost.absorbed, 0, "{kind:?}");
            assert_eq!(written, data, "{kind:?}");
            assert_eq!(strategy.len(), 50, "{kind:?}");
            let mut got = strategy.range(&written, &q);
            got.sort_unstable();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn update_in_place_applies_duplicates_in_batch_order() {
        let data = soup(50);
        let at = |x: f32| Shape::Box(Aabb::new(Point3::new(x, x, x), Point3::new(x, x, x)));
        let batch = [(7, at(60.0)), (8, at(61.0)), (7, at(62.0))];
        let q = Aabb::new(Point3::new(59.0, 59.0, 59.0), Point3::new(63.0, 63.0, 63.0));
        for kind in UpdateStrategyKind::ALL {
            let mut written = data.clone();
            let mut strategy = kind.create(&written);
            strategy.update_in_place(&mut written, &batch).unwrap();
            assert_eq!(written[7].shape, at(62.0), "{kind:?}: last write wins");
            let mut got = strategy.range(&written, &q);
            got.sort_unstable();
            assert_eq!(got, vec![7, 8], "{kind:?}");
            let away = Aabb::new(Point3::new(59.5, 59.5, 59.5), Point3::new(60.5, 60.5, 60.5));
            assert!(strategy.range(&written, &away).is_empty(), "{kind:?}");
        }
    }
}
