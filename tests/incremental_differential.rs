//! Differential coverage for the incremental write path.
//!
//! Three executions of the same write stream must stay **byte-identical**
//! through every query:
//!
//! * a sharded engine in **incremental** mode (strategy-backed shards,
//!   in-place lane application, rebuild fallback on migration),
//! * the same engine in **rebuild** mode (every lane rebuilds — the
//!   differential oracle for the incremental fast path), and
//! * a **single unsharded** linear scan over the serially-updated element
//!   vector (removed ids tombstoned with empty boxes, which no range query
//!   intersects and every kNN probe ranks at infinite distance).
//!
//! The stream exercises the paths that differ between the modes: in-place
//! jitter (incremental-eligible lanes), long teleports (cross-shard
//! migrations force the fallback), planner-side insert and remove
//! (membership lanes always rebuild), writes to dead ids (skipped, not
//! resurrected), and the k=0 / empty-region / shrink-to-empty edge cases.

mod common;

use common::{inserts, rebuild_only, rebuild_strategy_engine, removes, sets, RebuildOnly};
use simspatial::prelude::*;

fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E3779B9) ^ 0x1D1F_F001;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

/// Mixed sphere/box soup in a ~[0, 100)³ universe.
fn soup(n: u32, seed: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = mix(i ^ seed);
            let x = (h % 997) as f32 / 10.0;
            let y = ((h >> 10) % 997) as f32 / 10.0;
            let z = ((h >> 20) % 997) as f32 / 10.0;
            let p = Point3::new(x, y, z);
            let shape = if i % 3 == 0 {
                Shape::Box(Aabb::new(p, Point3::new(x + 0.9, y + 0.7, z + 0.8)))
            } else {
                Shape::Sphere(Sphere::new(p, 0.4))
            };
            Element::new(i, shape)
        })
        .collect()
}

/// The unsharded oracle: a full-length element vector (id == position)
/// queried through a freshly built [`LinearScan`]. Removals tombstone the
/// slot with an empty box instead of compacting, mirroring the planner's
/// id discipline; updates to tombstoned or out-of-range ids are skipped,
/// mirroring [`ShardPlanner::route_writes`].
struct Oracle {
    data: Vec<Element>,
    engine: QueryEngine,
}

fn tombstone() -> Shape {
    Shape::Box(Aabb::empty())
}

impl Oracle {
    fn new(data: Vec<Element>) -> Self {
        Self {
            data,
            engine: QueryEngine::new(),
        }
    }

    fn is_dead(&self, id: u32) -> bool {
        self.data[id as usize].aabb().is_empty()
    }

    fn live(&self) -> usize {
        self.data.iter().filter(|e| !e.aabb().is_empty()).count()
    }

    fn update(&mut self, updates: &[(u32, Shape)]) {
        for &(id, shape) in updates {
            if (id as usize) < self.data.len() && !self.is_dead(id) {
                self.data[id as usize].shape = shape;
            }
        }
    }

    fn insert(&mut self, shapes: &[Shape]) -> Vec<u32> {
        shapes
            .iter()
            .map(|&shape| {
                let id = self.data.len() as u32;
                self.data.push(Element::new(id, shape));
                id
            })
            .collect()
    }

    fn remove(&mut self, ids: &[u32]) {
        for &id in ids {
            if (id as usize) < self.data.len() {
                self.data[id as usize].shape = tombstone();
            }
        }
    }

    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<u32>> {
        let scan = LinearScan::build(&self.data);
        let mut out = BatchResults::new();
        self.engine.range_collect(&scan, &self.data, qs, &mut out);
        (0..qs.len())
            .map(|q| {
                let mut ids = out.query_results(q).to_vec();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    fn knn(&mut self, points: &[Point3], k: usize) -> Vec<Vec<(u32, f32)>> {
        let scan = LinearScan::build(&self.data);
        let mut out = KnnBatchResults::new();
        self.engine
            .knn_collect(&scan, &self.data, points, k, &mut out);
        (0..points.len())
            .map(|q| {
                // Tombstones rank at infinite distance; the sharded engines
                // never hold them at all, so they pad the oracle's lists
                // only when k exceeds the live count — drop them.
                out.query_results(q)
                    .iter()
                    .copied()
                    .filter(|&(_, d)| d.is_finite())
                    .collect()
            })
            .collect()
    }
}

fn probe_boxes() -> Vec<Aabb> {
    vec![
        // Full coverage.
        Aabb::new(
            Point3::new(-10.0, -10.0, -10.0),
            Point3::new(120.0, 120.0, 120.0),
        ),
        // A mid-universe slab crossing shard boundaries.
        Aabb::new(Point3::new(20.0, 0.0, 0.0), Point3::new(60.0, 100.0, 100.0)),
        // A small box.
        Aabb::new(Point3::new(40.0, 40.0, 40.0), Point3::new(48.0, 48.0, 48.0)),
        // Far outside the universe: must be empty everywhere.
        Aabb::new(
            Point3::new(500.0, 500.0, 500.0),
            Point3::new(501.0, 501.0, 501.0),
        ),
    ]
}

fn probe_points() -> Vec<Point3> {
    (0..6)
        .map(|i| {
            Point3::new(
                (i * 17 % 90) as f32,
                (i * 31 % 90) as f32,
                (i * 7 % 90) as f32,
            )
        })
        .collect()
}

/// Asserts that both sharded engines and the unsharded oracle answer every
/// probe identically — ranges as id sets, kNN lists byte-for-byte (the
/// merge's global `(distance, id)` order must match the single engine's).
fn check(
    inc: &mut ShardedEngine<Box<dyn UpdateStrategy>>,
    reb: &mut ShardedEngine<Box<dyn UpdateStrategy>>,
    oracle: &mut Oracle,
    label: &str,
) {
    let qs = probe_boxes();
    let want = oracle.range(&qs);
    for (name, eng) in [("incremental", &mut *inc), ("rebuild", &mut *reb)] {
        let mut got = BatchResults::new();
        eng.range_collect(&qs, &mut got);
        for (qi, want_ids) in want.iter().enumerate() {
            let mut ids = got.query_results(qi).to_vec();
            ids.sort_unstable();
            assert_eq!(&ids, want_ids, "{label}: {name} range query {qi}");
        }
    }
    let points = probe_points();
    // k = 0 (empty lists), a mid k, and k = live count (every surviving
    // element, which must exclude tombstones on the oracle side).
    for k in [0usize, 5, oracle.live()] {
        let want = oracle.knn(&points, k);
        for (name, eng) in [("incremental", &mut *inc), ("rebuild", &mut *reb)] {
            let mut got = KnnBatchResults::new();
            eng.knn_collect(&points, k, &mut got);
            for (qi, want_list) in want.iter().enumerate() {
                assert_eq!(
                    got.query_results(qi),
                    &want_list[..],
                    "{label}: {name} knn k={k} probe {qi}"
                );
            }
        }
    }
}

/// In-place jitter: small displacements that keep most elements inside
/// their shard — the incremental engine's fast path.
fn jitter(n: u32, seed: u32, count: u32) -> Vec<(u32, Shape)> {
    (0..count)
        .map(|j| {
            let id = mix(j ^ seed) % n;
            let g = mix(id ^ seed);
            let x = (g % 997) as f32 / 10.0 + 0.2;
            let y = ((g >> 10) % 997) as f32 / 10.0;
            let z = ((g >> 20) % 997) as f32 / 10.0;
            let p = Point3::new(x, y, z);
            (
                id,
                Shape::Box(Aabb::new(p, Point3::new(x + 0.8, y + 0.8, z + 0.8))),
            )
        })
        .collect()
}

/// Teleports: long moves that cross shard regions and force migrations
/// (and therefore the incremental engine's rebuild fallback).
fn teleport(n: u32, seed: u32, count: u32) -> Vec<(u32, Shape)> {
    (0..count)
        .map(|j| {
            let id = mix(j ^ seed ^ 0x7E1E) % n;
            let g = mix(id ^ seed);
            // Mirror across the universe: x → ~100 - x.
            let x = 99.0 - (g % 997) as f32 / 10.0;
            let y = ((g >> 10) % 997) as f32 / 10.0;
            let z = ((g >> 20) % 997) as f32 / 10.0;
            let p = Point3::new(x, y, z);
            (id, Shape::Sphere(Sphere::new(p, 0.5)))
        })
        .collect()
}

/// Runs the whole write stream against one strategy `kind` and shard
/// count, checking all three executions stay identical after every batch.
fn drive(kind: UpdateStrategyKind, shards: usize) {
    let n = 600u32;
    let seed = 0xD1FF ^ shards as u32;
    let data = soup(n, seed);
    let label = format!("{kind:?}/{shards}-shard");
    let mut inc = sharded_strategy_engine(&data, shards, kind);
    let mut reb = rebuild_strategy_engine(&data, shards, kind);
    // The served strategy writes in place; its `RebuildOnly` twin declines.
    let mut probe = data.clone();
    assert!(kind
        .create(&data)
        .update_in_place(&mut probe, &[])
        .is_some());
    assert!(RebuildOnly(kind.create(&data))
        .update_in_place(&mut probe, &[])
        .is_none());
    let mut oracle = Oracle::new(data);

    check(&mut inc, &mut reb, &mut oracle, &format!("{label}/seed"));

    // 1. Incremental-eligible jitter.
    let updates = jitter(n, seed, 80);
    let s_inc = inc.write_batch(&sets(&updates)).1;
    let s_reb = reb.write_batch(&sets(&updates)).1;
    oracle.update(&updates);
    check(&mut inc, &mut reb, &mut oracle, &format!("{label}/jitter"));
    assert_eq!(
        s_inc.applied, s_reb.applied,
        "{label}: both modes apply the same updates"
    );
    assert_eq!(
        s_reb.rebuilds_avoided, 0,
        "{label}: rebuild mode never avoids"
    );
    assert_eq!(
        s_reb.migrations, s_inc.migrations,
        "{label}: both modes route identically"
    );

    // 2. Cross-shard teleports: migrations force the rebuild fallback, and
    //    results must not care.
    let updates = teleport(n, seed, 60);
    let s_inc = inc.write_batch(&sets(&updates)).1;
    let s_reb = reb.write_batch(&sets(&updates)).1;
    oracle.update(&updates);
    check(
        &mut inc,
        &mut reb,
        &mut oracle,
        &format!("{label}/teleport"),
    );
    assert_eq!(
        s_reb.migrations, s_inc.migrations,
        "{label}: both modes migrate the same teleports"
    );
    if shards > 1 {
        assert!(
            s_inc.migrations > 0,
            "{label}: mirrored teleports must cross shard regions"
        );
    }

    // 3. Planner-side inserts: all three must allocate the same ids.
    let new_shapes: Vec<Shape> = (0..25u32)
        .map(|j| {
            let g = mix(j ^ seed ^ 0xADD);
            let x = (g % 900) as f32 / 10.0;
            let y = ((g >> 8) % 900) as f32 / 10.0;
            let z = ((g >> 16) % 900) as f32 / 10.0;
            let p = Point3::new(x, y, z);
            Shape::Box(Aabb::new(p, Point3::new(x + 1.2, y + 1.2, z + 1.2)))
        })
        .collect();
    let (ids_inc, s_inc) = inc.write_batch(&inserts(&new_shapes));
    let (ids_reb, _) = reb.write_batch(&inserts(&new_shapes));
    let ids_oracle = oracle.insert(&new_shapes);
    assert_eq!(ids_inc, ids_oracle, "{label}: planner id allocation");
    assert_eq!(ids_reb, ids_oracle, "{label}: planner id allocation");
    assert_eq!(s_inc.inserted, 25, "{label}: insert accounting");
    check(&mut inc, &mut reb, &mut oracle, &format!("{label}/insert"));

    // 4. Removes: original ids, one freshly inserted id, a duplicate in
    //    the same batch, and an out-of-range id (skipped).
    let dead = vec![3u32, 77, 150, ids_oracle[0], 77, n + 1000];
    let s_inc = inc.write_batch(&removes(&dead)).1;
    reb.write_batch(&removes(&dead));
    oracle.remove(&[3, 77, 150, ids_oracle[0]]);
    assert_eq!(s_inc.removed, 4, "{label}: distinct live ids removed");
    assert!(
        s_inc.skipped >= 2,
        "{label}: duplicate + out-of-range skipped"
    );
    check(&mut inc, &mut reb, &mut oracle, &format!("{label}/remove"));

    // 5. Writes to dead ids are skipped, not resurrected; live ids in the
    //    same batch still apply.
    let probe = Aabb::new(Point3::new(50.0, 50.0, 50.0), Point3::new(51.0, 51.0, 51.0));
    let updates: Vec<(u32, Shape)> = vec![
        (3, Shape::Box(probe)), // dead: must stay invisible
        (9, Shape::Box(probe)), // live: must show up
    ];
    let s_inc = inc.write_batch(&sets(&updates)).1;
    reb.write_batch(&sets(&updates));
    oracle.update(&updates);
    assert_eq!(s_inc.applied, 1, "{label}: only the live id applies");
    assert_eq!(s_inc.skipped, 1, "{label}: the dead id is skipped");
    let hits = &oracle.range(&[probe])[0];
    assert!(
        hits.contains(&9) && !hits.contains(&3),
        "{label}: no resurrection"
    );
    check(
        &mut inc,
        &mut reb,
        &mut oracle,
        &format!("{label}/dead-write"),
    );
}

/// The full stream across every registered strategy, single-shard (pure
/// in-shard write modes, no migration possible) and multi-shard.
#[test]
fn incremental_rebuild_and_unsharded_stay_identical() {
    for kind in UpdateStrategyKind::ALL {
        for shards in [1usize, 3] {
            drive(kind, shards);
        }
    }
}

/// Asserts that two engines answer every probe byte for byte — range lists
/// in emission order (unsorted), kNN lists in `(distance, id)` order.
fn twins_agree(
    a: &mut ShardedEngine<Box<dyn UpdateStrategy>>,
    b: &mut ShardedEngine<Box<dyn UpdateStrategy>>,
    label: &str,
) {
    let qs = probe_boxes();
    let (mut got_a, mut got_b) = (BatchResults::new(), BatchResults::new());
    a.range_collect(&qs, &mut got_a);
    b.range_collect(&qs, &mut got_b);
    for qi in 0..qs.len() {
        assert_eq!(
            got_a.query_results(qi),
            got_b.query_results(qi),
            "{label}: range query {qi}"
        );
    }
    let points = probe_points();
    for k in [1usize, 7, 40] {
        let (mut got_a, mut got_b) = (KnnBatchResults::new(), KnnBatchResults::new());
        a.knn_collect(&points, k, &mut got_a);
        b.knn_collect(&points, k, &mut got_b);
        for qi in 0..points.len() {
            assert_eq!(
                got_a.query_results(qi),
                got_b.query_results(qi),
                "{label}: knn k={k} probe {qi}"
            );
        }
    }
}

/// A served strategy is a pure function of its inputs: two identically
/// built engines fed the same batches — jitter below and above the
/// buffered strategy's flush threshold (10 % of a shard), teleports,
/// inserts and removes — answer every probe byte for byte, unsorted. A
/// strategy that iterates hash-seeded state (a `HashMap` buffer) lists its
/// hits in a per-instance order and fails here.
#[test]
fn twin_strategy_engines_answer_byte_for_byte() {
    let n = 600u32;
    for kind in UpdateStrategyKind::ALL {
        for shards in [1usize, 3] {
            let seed = 0x7F1D ^ shards as u32;
            let data = soup(n, seed);
            let label = format!("{kind:?}/{shards}-shard");
            let mut a = sharded_strategy_engine(&data, shards, kind);
            let mut b = sharded_strategy_engine(&data, shards, kind);
            twins_agree(&mut a, &mut b, &format!("{label}/seed"));
            for (stage, count) in [("jitter below flush", 20u32), ("jitter above flush", 200)] {
                let updates = jitter(n, seed ^ count, count);
                a.write_batch(&sets(&updates));
                b.write_batch(&sets(&updates));
                twins_agree(&mut a, &mut b, &format!("{label}/{stage}"));
            }
            let updates = teleport(n, seed, 60);
            a.write_batch(&sets(&updates));
            b.write_batch(&sets(&updates));
            twins_agree(&mut a, &mut b, &format!("{label}/teleport"));
            let shapes: Vec<Shape> = (0..12u32)
                .map(|j| {
                    let g = mix(j ^ seed ^ 0x1A5);
                    let p = Point3::new((g % 900) as f32 / 10.0, 50.0, 50.0);
                    Shape::Sphere(Sphere::new(p, 0.6))
                })
                .collect();
            assert_eq!(
                a.write_batch(&inserts(&shapes)).0,
                b.write_batch(&inserts(&shapes)).0
            );
            twins_agree(&mut a, &mut b, &format!("{label}/insert"));
            let dead = [5u32, 64, 301, n + 2];
            a.write_batch(&removes(&dead));
            b.write_batch(&removes(&dead));
            twins_agree(&mut a, &mut b, &format!("{label}/remove"));
        }
    }
}

/// The incremental fast path actually runs — and is observable in the
/// write-amplification counters: on a single shard a geometry-only batch
/// avoids the rebuild, touches fewer elements than a rebuild would, and
/// leaves results identical (checked above; this pins the accounting).
#[test]
fn incremental_mode_avoids_rebuilds_on_jitter() {
    let n = 600u32;
    let data = soup(n, 0xACC);
    let mut inc = sharded_strategy_engine(&data, 1, UpdateStrategyKind::GridMigrate);
    let mut reb = rebuild_strategy_engine(&data, 1, UpdateStrategyKind::GridMigrate);
    let updates = jitter(n, 0xACC, 30);
    let s_inc = inc.write_batch(&sets(&updates)).1;
    let s_reb = reb.write_batch(&sets(&updates)).1;
    assert_eq!(
        s_inc.rebuilds_avoided, 1,
        "single shard, one lane, in place"
    );
    assert_eq!(s_inc.rebuilds, 0);
    assert_eq!(s_reb.rebuilds, 1);
    assert_eq!(s_reb.rebuilds_avoided, 0);
    assert_eq!(
        s_reb.structural, n as u64,
        "a rebuild touches every element"
    );
    assert!(
        s_inc.structural + s_inc.absorbed <= s_inc.shipped,
        "incremental work is bounded by the lane itself: {} + {} vs {}",
        s_inc.structural,
        s_inc.absorbed,
        s_inc.shipped
    );
    assert!(
        s_inc.structural < s_reb.structural / 4,
        "in-place application touches far fewer elements ({} vs {})",
        s_inc.structural,
        s_reb.structural
    );
    // One shard means one possible route: every jitter update is resident.
    assert_eq!(s_inc.migrations, 0, "single-shard jitter migrates nothing");
    assert_eq!(s_reb.migrations, 0);
}

/// Every strategy's in-place write costs what the lane carries, not the
/// shard: a 30-element resident jitter on a one-shard, 600-element engine
/// touches or absorbs at most one entry per shipped update — except for
/// the two kinds that rebuild inside the write, whose lane counts as one
/// rebuild of the whole shard — and an empty batch costs nothing and
/// writes nothing.
#[test]
fn every_strategy_bounds_lane_work_by_the_lane() {
    let n = 600u32;
    let data = soup(n, 0xACC);
    let updates = jitter(n, 0xACC, 30);
    for kind in UpdateStrategyKind::ALL {
        let mut engine = sharded_strategy_engine(&data, 1, kind);
        let stats = engine.write_batch(&sets(&updates)).1;
        if matches!(
            kind,
            UpdateStrategyKind::RTreeRebuild | UpdateStrategyKind::ThrowawayGrid
        ) {
            assert_eq!(
                (stats.rebuilds, stats.rebuilds_avoided, stats.structural),
                (1, 0, n as u64),
                "{kind:?}: one lane, rebuilt"
            );
        } else {
            assert_eq!(stats.rebuilds_avoided, 1, "{kind:?}: one lane, in place");
            assert!(
                stats.structural + stats.absorbed <= stats.shipped,
                "{kind:?}: lane work {} + {} exceeds the {} shipped updates",
                stats.structural,
                stats.absorbed,
                stats.shipped
            );
        }

        let mut strategy = kind.create(&data);
        let mut written = data.clone();
        assert_eq!(
            strategy.update_in_place(&mut written, &[]),
            Some(ShardApplyCost::default()),
            "{kind:?}: an empty batch costs nothing"
        );
        assert_eq!(written, data, "{kind:?}: an empty batch writes nothing");
    }
}

/// A plain grid engine writes in place with no opt-in: built with only a
/// rebuild function, it applies a resident jitter tick without rebuilding
/// (one avoided rebuild per touched shard) and answers like its
/// `RebuildOnly` twin, which rebuilds every touched shard — range lists as
/// id sets (a rebuilt cell lists its entries in id order, a written one in
/// arrival order), kNN lists byte for byte. The default `update_in_place`
/// declines the same tick and leaves the data untouched.
#[test]
fn plain_grid_engine_writes_in_place() {
    let n = 1200u32;
    let data = soup(n, 0x6A1D);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let mut grid = ShardedEngine::build(&data, 3, build).with_rebuild(build);
    let mut twin =
        ShardedEngine::build(&data, 3, rebuild_only(build)).with_rebuild(rebuild_only(build));
    let router = grid.router().clone();
    let updates: Vec<(u32, Shape)> = data
        .iter()
        .step_by(7)
        .filter_map(|e| {
            let mut moved = e.clone();
            moved.translate(Vec3::new(0.05, -0.05, 0.05));
            (router.route(&moved.aabb()) == router.route(&e.aabb())).then_some((e.id, moved.shape))
        })
        .collect();
    let mut touched: Vec<usize> = updates
        .iter()
        .flat_map(|&(id, _)| router.route(&data[id as usize].aabb()))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let touched = touched.len() as u64;
    assert!(touched > 1, "the tick reaches several shards");

    let s_grid = grid.write_batch(&sets(&updates)).1;
    let s_twin = twin.write_batch(&sets(&updates)).1;
    assert_eq!(s_grid.applied, updates.len() as u64);
    assert_eq!(s_grid.migrations, 0, "the tick is resident");
    assert_eq!((s_grid.rebuilds, s_grid.rebuilds_avoided), (0, touched));
    assert_eq!((s_twin.rebuilds, s_twin.rebuilds_avoided), (touched, 0));

    let qs = probe_boxes();
    let (mut got, mut want) = (BatchResults::new(), BatchResults::new());
    grid.range_collect(&qs, &mut got);
    twin.range_collect(&qs, &mut want);
    for qi in 0..qs.len() {
        let mut a = got.query_results(qi).to_vec();
        let mut b = want.query_results(qi).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "range query {qi}");
    }
    let points = probe_points();
    for k in [1usize, 7, 40] {
        let (mut got, mut want) = (KnnBatchResults::new(), KnnBatchResults::new());
        grid.knn_collect(&points, k, &mut got);
        twin.knn_collect(&points, k, &mut want);
        for qi in 0..points.len() {
            assert_eq!(
                got.query_results(qi),
                want.query_results(qi),
                "knn k={k} probe {qi}"
            );
        }
    }

    let mut untouched = data.clone();
    let mut declined = RebuildOnly(build(&data));
    assert_eq!(declined.update_in_place(&mut untouched, &updates), None);
    assert_eq!(untouched, data);
}

/// The range merge emits exactly the first-seen order — per query in batch
/// order, lanes in shard order, each id at its first emission — whether a
/// query was answered by one shard (copied through) or by several (deduped
/// over boundary replicas), after a migration tick, with every lane live
/// and with each lane in turn cleared the way a dead shard's lane is.
/// Compared unsorted, byte for byte, against a reference merge written here
/// over the executors' own answers. For a dead lane with a successor, some
/// query must emit from that successor a replica the dead lane also held:
/// the hit a merge that keeps only a lane's own route start (or the query's
/// first lane) would drop.
#[test]
fn range_merge_is_first_seen_order_for_one_and_many_shard_queries() {
    let n = 1500u32;
    let seed = 0x3E26;
    let data = soup(n, seed);
    let mut engine = sharded_strategy_engine(&data, 4, UpdateStrategyKind::GridMigrate);
    assert!(
        engine
            .write_batch(&sets(&teleport(n, seed, 120)))
            .1
            .migrations
            > 0
    );
    let (mut planner, mut executors) = engine.into_parts();

    // Small cubes along the diagonal (some inside one slab, some across a
    // cut), slabs spanning several shards, and the probe boxes.
    let mut queries: Vec<Aabb> = (0..30)
        .map(|i| {
            let c = 1.5 + 3.3 * i as f32;
            Aabb::new(
                Point3::new(c - 3.0, c - 3.0, c - 3.0),
                Point3::new(c + 3.0, c + 3.0, c + 3.0),
            )
        })
        .collect();
    queries.push(Aabb::new(
        Point3::new(10.0, 10.0, 10.0),
        Point3::new(90.0, 60.0, 60.0),
    ));
    queries.extend(probe_boxes());

    let shards = executors.len();
    for dead in std::iter::once(None).chain((0..shards).map(Some)) {
        let mut lanes = Vec::new();
        planner.route_range(&queries, &mut lanes);
        if let Some(d) = dead {
            lanes[d].clear();
        }
        let mut answers: Vec<Vec<Vec<u32>>> = Vec::new();
        for (exec, lane) in executors.iter_mut().zip(lanes.iter_mut()) {
            let mut out = BatchResults::new();
            exec.range_batch(lane.queries(), &mut out);
            answers.push(
                (0..lane.len())
                    .map(|j| out.query_results(j).to_vec())
                    .collect(),
            );
            lane.run(exec);
        }

        // Reference first-seen merge, noting which lane emitted each id.
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        let mut holders = vec![0usize; queries.len()];
        let mut emitted = 0usize;
        let mut first_from: Vec<(u32, usize)> = Vec::new();
        for (s, (lane, lists)) in lanes.iter().zip(&answers).enumerate() {
            for (&qi, list) in lane.routed().iter().zip(lists) {
                let merged = &mut want[qi as usize];
                holders[qi as usize] += 1;
                emitted += list.len();
                for &id in list {
                    if !merged.contains(&id) {
                        merged.push(id);
                        first_from.push((id, s));
                    }
                }
            }
        }
        let answered_by =
            |n: fn(usize) -> bool| (0..queries.len()).any(|q| n(holders[q]) && !want[q].is_empty());
        assert!(
            answered_by(|h| h == 1),
            "{dead:?}: some query one shard answered"
        );
        assert!(
            answered_by(|h| h > 1),
            "{dead:?}: some query several shards answered"
        );
        let total: usize = want.iter().map(Vec::len).sum();
        assert!(total < emitted, "{dead:?}: replicas were deduplicated");
        if let Some(d) = dead.filter(|&d| d + 1 < shards) {
            let held_by_dead = |id: &u32| executors[d].global_ids().binary_search(id).is_ok();
            assert!(
                first_from
                    .iter()
                    .any(|(id, s)| *s == d + 1 && held_by_dead(id)),
                "lane {d} dead: some query emits from lane {} a replica lane {d} held",
                d + 1
            );
        }

        let mut got = BatchResults::new();
        let stats = planner.merge_range(queries.len(), &mut lanes, &mut got);
        assert_eq!(stats.results as usize, total, "{dead:?}");
        assert_eq!(got.len(), queries.len());
        for (qi, want) in want.iter().enumerate() {
            assert_eq!(
                got.query_results(qi),
                &want[..],
                "dead lane {dead:?}, query {qi} ({} lanes)",
                holders[qi]
            );
        }
    }
}

/// Shrink-to-empty and regrow: removing every element leaves all three
/// executions serving empty results without panicking, and inserting into
/// the emptied engine resumes id allocation past the tombstones.
#[test]
fn shrink_to_empty_then_regrow() {
    let n = 40u32;
    let data = soup(n, 0x5E5E);
    let mut inc = sharded_strategy_engine(&data, 2, UpdateStrategyKind::GridMigrate);
    let mut reb = rebuild_strategy_engine(&data, 2, UpdateStrategyKind::GridMigrate);
    let mut oracle = Oracle::new(data);

    let all: Vec<u32> = (0..n).collect();
    inc.write_batch(&removes(&all));
    reb.write_batch(&removes(&all));
    oracle.remove(&all);
    assert_eq!(oracle.live(), 0);
    check(&mut inc, &mut reb, &mut oracle, "empty");

    let shapes = vec![
        Shape::Sphere(Sphere::new(Point3::new(5.0, 5.0, 5.0), 1.0)),
        Shape::Box(Aabb::new(
            Point3::new(80.0, 80.0, 80.0),
            Point3::new(82.0, 82.0, 82.0),
        )),
    ];
    let (ids, _) = inc.write_batch(&inserts(&shapes));
    let (ids_r, _) = reb.write_batch(&inserts(&shapes));
    let ids_o = oracle.insert(&shapes);
    assert_eq!(ids, vec![n, n + 1], "ids continue past the tombstones");
    assert_eq!(ids_r, ids_o);
    check(&mut inc, &mut reb, &mut oracle, "regrown");
}
