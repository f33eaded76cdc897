//! The consistency harness for epoch-published snapshot reads.
//!
//! The service publishes a monotonically increasing **epoch** after every
//! applied write barrier; [`Consistency::Snapshot`] reads run against the
//! last published epoch without waiting on in-flight writes, and
//! [`Consistency::ReadYourWrites`] reads wait until at least a caller-chosen
//! epoch is published. These tests pin down what that buys and what it
//! must never give up:
//!
//! * **Snapshot ≡ barrier oracle at the reported epoch**: while a writer
//!   mutates the dataset one barrier at a time, concurrent snapshot
//!   readers may observe *any* published epoch — but every reply must be
//!   byte-identical to a serial barrier oracle evaluated at exactly the
//!   epoch the reply reports. A stale answer is fine; a torn answer
//!   (mixing two epochs) or an unpublished epoch is a bug.
//! * **Read-your-writes**: a writer that feeds an acked write's epoch
//!   back as `ReadYourWrites { min_epoch }` always observes its own
//!   write, no matter how many other writers are racing it.
//! * **Snapshot × incremental differential**: on an engine whose shards
//!   write in place, under a stream that mixes resident ticks,
//!   migrations, inserts and removals (all spliced in place) with one bulk
//!   membership change (rebuilt), every snapshot reply must be the serial
//!   incremental engine's answer at its epoch — id order and kNN ties
//!   included — and the counters must say which path each shard took. The
//!   same holds for every update strategy served through the sharded
//!   engine.
//! * **Memory guard**: two hundred rounds of the same elements crossing a
//!   shard cut and returning leave the live gauge where the second round
//!   left it.
//! * **A request completes when its run ends**: a read that runs before a
//!   write in the same dispatch replies before that write finishes, and
//!   every reply is already counted in `stats()` when its client holds it.
//!
//! Snapshot reads run against live state — the scheduler runs them only
//! while live state is the last published epoch — so no backend holds a
//! snapshot copy, every backend serves them, and a service has published
//! `current_epoch + 1` epochs by construction (the startup epoch 0 plus one
//! per write barrier).

mod common;

use common::{inserts, mix, removes, sets, soup};
use simspatial::prelude::*;
use simspatial_service::ServiceBackend;
use std::sync::Arc;
use std::time::Duration;

fn build(d: &[Element]) -> UniformGrid {
    UniformGrid::build(d, GridConfig::auto(d))
}

/// One deterministic update barrier: epoch `e` (1-based) moves a small,
/// e-dependent set of elements to fresh box envelopes.
fn write_batch(e: u64, data_len: u32) -> Vec<(ElementId, Aabb)> {
    (0..6u32)
        .map(|q| {
            let h = mix(e as u32 ^ q.wrapping_mul(0x9E37));
            let id = h % data_len;
            let x = (h % 880) as f32 / 10.0;
            let y = ((h >> 8) % 880) as f32 / 10.0;
            let z = ((h >> 16) % 880) as f32 / 10.0;
            (
                id,
                Aabb::new(Point3::new(x, y, z), Point3::new(x + 1.2, y + 1.2, z + 1.2)),
            )
        })
        .collect()
}

/// The fixed probe set every snapshot reader cycles through: ranges of
/// varying selectivity, counts, and kNN — everything a snapshot may serve.
fn probes() -> Vec<Request> {
    vec![
        Request::Range(vec![Aabb::new(
            Point3::new(10.0, 10.0, 10.0),
            Point3::new(30.0, 30.0, 30.0),
        )]),
        Request::Range(vec![
            Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(99.0, 99.0, 99.0)),
            Aabb::new(Point3::new(70.0, 5.0, 40.0), Point3::new(85.0, 25.0, 60.0)),
        ]),
        Request::RangeCount(vec![
            Aabb::new(Point3::new(20.0, 40.0, 20.0), Point3::new(60.0, 80.0, 55.0)),
            Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(15.0, 15.0, 15.0)),
        ]),
        Request::Knn(vec![(Point3::new(45.0, 45.0, 45.0), 6)]),
        Request::Knn(vec![
            (Point3::new(12.0, 80.0, 33.0), 3),
            (Point3::new(88.0, 8.0, 71.0), 9),
        ]),
    ]
}

/// Serial barrier oracle: the same sharded engine, driven one request at a
/// time on the caller's thread.
struct Oracle(ShardedEngine<UniformGrid>);

impl Oracle {
    fn new(data: &[Element], shards: usize) -> Oracle {
        Oracle(ShardedEngine::build(data, shards, build).with_rebuild(build))
    }

    fn apply(&mut self, batch: &[(ElementId, Aabb)]) {
        let ops: Vec<WriteOp> = batch
            .iter()
            .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb)))
            .collect();
        self.0.write_batch(&ops);
    }

    fn answer(&mut self, request: &Request) -> Response {
        match request {
            Request::Range(qs) => {
                let mut out = BatchResults::new();
                self.0.range_collect(qs, &mut out);
                Response::Range(
                    (0..qs.len())
                        .map(|q| out.query_results(q).to_vec())
                        .collect(),
                )
            }
            Request::RangeCount(qs) => {
                let mut out = BatchResults::new();
                self.0.range_collect(qs, &mut out);
                Response::RangeCount(
                    (0..qs.len())
                        .map(|q| out.query_results(q).len() as u64)
                        .collect(),
                )
            }
            Request::Knn(ps) => Response::Knn(
                ps.iter()
                    .map(|(p, k)| {
                        let mut out = KnnBatchResults::new();
                        self.0.knn_collect(&[*p], *k, &mut out);
                        out.query_results(0).to_vec()
                    })
                    .collect(),
            ),
            other => panic!("oracle cannot answer {other:?}"),
        }
    }
}

/// Snapshot replies are byte-identical to the barrier oracle **at the epoch
/// each reply reports** — stale is fine, torn or unpublished is not.
///
/// A writer applies `WRITES` update barriers strictly serially (submit,
/// redeem, next), so the published epoch `e` is exactly "the initial soup
/// plus the first `e` batches" and the oracle can precompute every epoch's
/// answer for every probe up front. Concurrent snapshot readers then race
/// the writer and check every reply against the precomputed table row its
/// reported epoch selects.
#[test]
fn snapshot_replies_match_barrier_oracle_at_reported_epoch() {
    const SHARDS: usize = 4;
    const WRITES: u64 = 32;
    const READERS: usize = 3;

    let data = soup(1200, 0x5EED);
    let probe_set = probes();

    // expected[e][p] = the barrier answer to probe p after the first e
    // write batches.
    let mut oracle = Oracle::new(&data, SHARDS);
    let mut expected: Vec<Vec<Response>> = Vec::with_capacity(WRITES as usize + 1);
    expected.push(probe_set.iter().map(|r| oracle.answer(r)).collect());
    for e in 1..=WRITES {
        oracle.apply(&write_batch(e, data.len() as u32));
        expected.push(probe_set.iter().map(|r| oracle.answer(r)).collect());
    }
    let expected = Arc::new(expected);

    let engine = ShardedEngine::build(&data, SHARDS, build).with_rebuild(build);
    let service = SpatialService::spawn(
        ShardedBackend::spawn_snapshot(engine),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();

    // Readers race the writer: any published epoch is acceptable, but the
    // payload must equal that exact epoch's oracle row.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let handle = handle.clone();
            let expected = Arc::clone(&expected);
            let probe_set = probes();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed = std::collections::BTreeSet::new();
                let mut i = r; // desynchronise the probe cycles
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let p = i % probe_set.len();
                    i += 1;
                    let ticket = handle
                        .submit_at(probe_set[p].clone(), Consistency::Snapshot)
                        .expect("snapshot submit");
                    let reply = ticket.recv_reply().expect("snapshot read failed");
                    assert!(
                        reply.epoch <= WRITES,
                        "reader {r} observed unpublished epoch {}",
                        reply.epoch
                    );
                    assert_eq!(
                        reply.response, expected[reply.epoch as usize][p],
                        "reader {r} probe {p}: reply at epoch {} is not the \
                         barrier answer at that epoch",
                        reply.epoch
                    );
                    observed.insert(reply.epoch);
                }
                observed
            })
        })
        .collect();

    // The serial writer: each barrier must ack with its own (consecutive)
    // epoch — that is what makes the precomputed table indexable by epoch.
    for e in 1..=WRITES {
        let ticket = handle
            .submit(Request::StepDelta(write_batch(e, data.len() as u32)))
            .expect("write submit");
        let ack = ticket.recv_reply().expect("write failed");
        assert_eq!(
            ack.epoch, e,
            "serial write {e} was published under a different epoch"
        );
        // A short stall every few barriers gives readers epochs to observe
        // mid-stream (not only the final state) without timing assertions.
        if e % 4 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut observed = std::collections::BTreeSet::new();
    for r in readers {
        observed.extend(r.join().expect("reader panicked"));
    }
    assert!(
        !observed.is_empty(),
        "readers never completed a snapshot read"
    );

    // Quiesced: snapshot and barrier answers agree at the final epoch.
    for (p, probe) in probe_set.iter().enumerate() {
        let snap = handle
            .submit_at(probe.clone(), Consistency::Snapshot)
            .expect("submit")
            .recv_reply()
            .expect("snapshot read");
        assert_eq!(
            snap.epoch, WRITES,
            "quiesced snapshot is not at the head epoch"
        );
        assert_eq!(snap.response, expected[WRITES as usize][p]);
        let barrier = handle
            .submit_at(probe.clone(), Consistency::Barrier)
            .expect("submit")
            .recv_reply()
            .expect("barrier read");
        assert_eq!(barrier.epoch, WRITES);
        assert_eq!(barrier.response, expected[WRITES as usize][p]);
    }

    let stats = service.shutdown();
    assert_eq!(stats.current_epoch, WRITES);
    assert_eq!(
        stats.epochs_published,
        WRITES + 1,
        "every epoch must publish exactly once (startup 0 + one per barrier)"
    );
    assert!(stats.snapshot_reads >= observed.len() as u64);
    assert_eq!(stats.snapshot_clone_bytes, 0, "snapshot reads need no copy");
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(stats.panics_caught, 0);
}

fn incremental_engine(data: &[Element], shards: usize) -> ShardedEngine<UniformGrid> {
    ShardedEngine::build(data, shards, build).with_rebuild(build)
}

/// The soup with every 40th element duplicated onto its successor: the two
/// are equidistant from any probe, so kNN over them ties on distance.
const PAIR_STRIDE: u32 = 40;

fn tied_soup(n: u32, seed: u32) -> Vec<Element> {
    let mut data = soup(n, seed);
    for i in (0..n - 1).step_by(PAIR_STRIDE as usize) {
        data[i as usize + 1].shape = data[i as usize].shape;
    }
    data
}

fn unit_box(c: Point3, half: f32) -> Aabb {
    Aabb::new(
        Point3::new(c.x - half, c.y - half, c.z - half),
        Point3::new(c.x + half, c.y + half, c.z + half),
    )
}

/// What one tick of the replay stream does to shard membership — and so
/// which write path its shards must take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    /// Dirties every shard, changes no shard's membership.
    Resident,
    /// A small membership change (teleport, insert, remove): spliced in
    /// place, so the touched shards still run in place.
    Spliced,
    /// A membership change past a quarter of a shard: that shard rebuilds.
    Bulk,
}

/// The epoch of the stream's one bulk membership change.
const BULK_EPOCH: u64 = 15;

/// The replay differential's write stream: `(request, kind)` per epoch.
/// Cycle of six: three resident ticks, resident + one teleport (its two
/// shards splice, the rest just move), insert, remove — and at
/// [`BULK_EPOCH`] an insert that lands `0.3 n` boxes in the first shard
/// (past the quarter-shard limit: it rebuilds) and two in the last (which
/// splices them). Id pools are disjoint (`id % PAIR_STRIDE`: 0/1 jitter in
/// pairs, 7 teleports, 11 is removed), so a resident mover is never one
/// that migrated or died.
fn replay_stream(data: &[Element], router: &ShardRouter, epochs: u64) -> Vec<(Request, Tick)> {
    let n = data.len() as u32;
    let mut cur: Vec<Aabb> = data.iter().map(Element::aabb).collect();
    let anchors: Vec<u32> = (0..n - 1).step_by(PAIR_STRIDE as usize).collect();
    let resident_tick = |e: u64, cur: &mut Vec<Aabb>| -> Vec<(ElementId, Aabb)> {
        let mut batch = Vec::new();
        let mut covered = vec![0u32; router.shards()];
        for (j, &a) in anchors.iter().enumerate() {
            let h = mix(e as u32 ^ (j as u32).wrapping_mul(0x9E37));
            let c = data[a as usize].aabb().center();
            let moved = Point3::new(
                c.x + (h % 7) as f32 * 0.05,
                c.y + ((h >> 4) % 7) as f32 * 0.05,
                c.z + ((h >> 8) % 7) as f32 * 0.05,
            );
            let dest = unit_box(moved, 0.5);
            // Both twins go to the same box; keep the pair only if neither
            // changes the shard set it lives in.
            let stays = |id: u32| router.route(&cur[id as usize]) == router.route(&dest);
            if stays(a) && stays(a + 1) {
                for s in router.route(&dest) {
                    covered[s] += 1;
                }
                for id in [a, a + 1] {
                    cur[id as usize] = dest;
                    batch.push((id, dest));
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c > 0),
            "resident tick {e} left a shard untouched: {covered:?}"
        );
        batch
    };
    (1..=epochs)
        .map(|e| {
            let h = mix(e as u32 ^ 0x7E1E);
            let far = |g: u32| {
                Point3::new(
                    (g % 880) as f32 / 10.0 + 1.0,
                    ((g >> 8) % 880) as f32 / 10.0 + 1.0,
                    ((g >> 16) % 880) as f32 / 10.0 + 1.0,
                )
            };
            if e == BULK_EPOCH {
                let crowd = (0..n * 3 / 10).map(|q| {
                    let g = mix(h ^ q);
                    let at = Point3::new(
                        2.0 + (g % 60) as f32 / 10.0,
                        ((g >> 8) % 880) as f32 / 10.0 + 1.0,
                        ((g >> 16) % 880) as f32 / 10.0 + 1.0,
                    );
                    unit_box(at, 0.7)
                });
                let far_side =
                    (0..2).map(|q| unit_box(Point3::new(92.0, 30.0 + q as f32 * 20.0, 50.0), 0.7));
                return (Request::Insert(crowd.chain(far_side).collect()), Tick::Bulk);
            }
            match e % 6 {
                4 => {
                    let mut batch = resident_tick(e, &mut cur);
                    let id = (e as u32 * PAIR_STRIDE + 7) % n;
                    let dest = unit_box(far(h), 0.6);
                    cur[id as usize] = dest;
                    batch.push((id, dest));
                    (Request::StepDelta(batch), Tick::Spliced)
                }
                5 => {
                    let boxes = (0..3).map(|q| unit_box(far(mix(h ^ q)), 0.7)).collect();
                    (Request::Insert(boxes), Tick::Spliced)
                }
                0 => {
                    let ids = (0..3u32)
                        .map(|q| ((e as u32 * 3 + q) * PAIR_STRIDE + 11) % n)
                        .collect();
                    (Request::Remove(ids), Tick::Spliced)
                }
                _ => (
                    Request::StepDelta(resident_tick(e, &mut cur)),
                    Tick::Resident,
                ),
            }
        })
        .collect()
}

/// Applies one write of the stream to the serial engine, returning the
/// acknowledgement the service must produce and the engine's accounting
/// (`rebuilds` / `rebuilds_avoided` count the shards that took each path,
/// `spliced` the membership changes applied in place).
fn oracle_write(
    engine: &mut ShardedEngine<UniformGrid>,
    write: &Request,
) -> (Response, UpdateStats) {
    match write {
        Request::StepDelta(batch) => {
            let updates: Vec<(ElementId, Shape)> =
                batch.iter().map(|&(id, bb)| (id, Shape::Box(bb))).collect();
            let stats = engine.write_batch(&sets(&updates)).1;
            (Response::StepDelta(batch.len() as u64), stats)
        }
        Request::Insert(boxes) => {
            let shapes: Vec<Shape> = boxes.iter().map(|&bb| Shape::Box(bb)).collect();
            let (ids, stats) = engine.write_batch(&inserts(&shapes));
            (Response::Insert(ids), stats)
        }
        Request::Remove(ids) => {
            let stats = engine.write_batch(&removes(ids)).1;
            (Response::Remove(ids.len() as u64), stats)
        }
        other => panic!("not a write of the replay stream: {other:?}"),
    }
}

/// Snapshot × incremental differential, at one shard count.
///
/// The oracle is the **same incremental engine driven serially**: its
/// shards go through exactly the lanes the service's shards do, so every
/// snapshot reply carries the oracle's bytes — range ids in cell order,
/// tied kNN neighbours in id order. A shard that diverged from the oracle
/// by so much as a cell's element order fails the comparison.
fn replay_differential(shards: usize) {
    const EPOCHS: u64 = 26;
    const READERS: usize = 2;

    let data = tied_soup(1600, 0x4E91A7);
    let mut oracle = Oracle(incremental_engine(&data, shards));
    let stream = replay_stream(&data, oracle.0.router(), EPOCHS);

    // Probes: the shared set plus kNN straddling tied twins.
    let mut probe_set = probes();
    probe_set.push(Request::Knn(
        [0u32, 10, 25]
            .iter()
            .map(|&j| (data[(j * PAIR_STRIDE) as usize].aabb().center(), 6))
            .collect(),
    ));

    // expected[e][p] as in the rebuild-mode test; paths[e] = the shards
    // epoch e's write rebuilt / applied in place.
    let mut expected: Vec<Vec<Response>> = Vec::with_capacity(EPOCHS as usize + 1);
    let mut acks: Vec<Response> = Vec::new();
    let mut paths: Vec<(u64, u64)> = Vec::new();
    let mut spliced = 0u64;
    expected.push(probe_set.iter().map(|r| oracle.answer(r)).collect());
    for (write, kind) in &stream {
        let (ack, stats) = oracle_write(&mut oracle.0, write);
        match kind {
            Tick::Resident => assert_eq!(
                (stats.rebuilds, stats.rebuilds_avoided),
                (0, shards as u64),
                "a resident tick must run in place on every shard"
            ),
            Tick::Spliced => {
                assert_eq!(stats.rebuilds, 0, "a small membership change must splice");
                assert!(stats.rebuilds_avoided > 0);
            }
            Tick::Bulk => assert!(stats.rebuilds > 0, "the bulk insert must rebuild its shard"),
        }
        spliced += stats.spliced;
        acks.push(ack);
        paths.push((stats.rebuilds, stats.rebuilds_avoided));
        expected.push(probe_set.iter().map(|r| oracle.answer(r)).collect());
    }
    assert!(spliced > 0, "the stream never changed membership in place");
    if shards > 1 {
        assert!(
            stream
                .iter()
                .zip(&paths)
                .any(|((_, kind), &(_, in_place))| *kind == Tick::Spliced && in_place >= 2),
            "no teleport crossed a shard cut"
        );
    }
    if shards == 4 {
        assert!(
            paths
                .iter()
                .any(|&(rebuilt, in_place)| rebuilt > 0 && in_place > 0),
            "the stream needs a tick on which some shards rebuild while others run in place"
        );
    }
    let expected = Arc::new(expected);
    let probe_set = Arc::new(probe_set);

    let service = SpatialService::spawn(
        ShardedBackend::spawn_snapshot(incremental_engine(&data, shards)),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let handle = handle.clone();
            let expected = Arc::clone(&expected);
            let probe_set = Arc::clone(&probe_set);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut i = r;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let p = i % probe_set.len();
                    i += 1;
                    let reply = handle
                        .submit_at(probe_set[p].clone(), Consistency::Snapshot)
                        .expect("snapshot submit")
                        .recv_reply()
                        .expect("snapshot read failed");
                    assert!(reply.epoch <= EPOCHS, "unpublished epoch {}", reply.epoch);
                    assert_eq!(
                        reply.response, expected[reply.epoch as usize][p],
                        "{shards} shards, reader {r}, probe {p}: reply at epoch {} is \
                         not the serial incremental engine's answer at that epoch",
                        reply.epoch
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Each write must take, per shard, the path the oracle's lane took.
    let snapshot_read = |p: usize| {
        handle
            .submit_at(probe_set[p].clone(), Consistency::Snapshot)
            .expect("submit")
            .recv_reply()
            .expect("snapshot read")
    };
    assert_eq!(snapshot_read(0).epoch, 0);
    let mut before = handle.stats();
    for (i, write) in stream.iter().map(|(write, _)| write).enumerate() {
        let e = i as u64 + 1;
        let ack = handle
            .submit(write.clone())
            .expect("write submit")
            .recv_reply()
            .expect("write failed");
        assert_eq!(ack.epoch, e);
        assert_eq!(ack.response, acks[i], "epoch {e}: write ack diverged");
        let after = handle.stats();
        assert_eq!(
            (
                after.shard_rebuilds - before.shard_rebuilds,
                after.rebuilds_avoided - before.rebuilds_avoided
            ),
            paths[i],
            "{shards} shards, epoch {e}: the shards rebuilt or ran in place as the oracle's did"
        );
        before = after;
        if e.is_multiple_of(4) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reads: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader panicked"))
        .sum();
    assert!(reads > 0, "readers never completed a snapshot read");

    // Quiesced: snapshot and barrier reads answer the whole probe set with
    // the same bytes.
    for p in 0..probe_set.len() {
        let snap = snapshot_read(p);
        let barrier = handle
            .submit_at(probe_set[p].clone(), Consistency::Barrier)
            .expect("submit")
            .recv_reply()
            .expect("barrier read");
        assert_eq!((snap.epoch, barrier.epoch), (EPOCHS, EPOCHS));
        assert_eq!(
            snap.response, barrier.response,
            "probe {p}: snapshot differs from live"
        );
        assert_eq!(snap.response, expected[EPOCHS as usize][p]);
    }

    let stats = service.shutdown();
    assert_eq!(stats.epochs_published, EPOCHS + 1);
    // Exactly the oracle's rebuilt lanes rebuilt and exactly its in-place
    // lanes ran in place.
    let (rebuilt, in_place) = paths
        .iter()
        .fold((0, 0), |(r, p), &(dr, dp)| (r + dr, p + dp));
    assert_eq!(
        (stats.shard_rebuilds, stats.rebuilds_avoided),
        (rebuilt, in_place)
    );
    assert!(rebuilt > 0 && in_place > 0);
    assert_eq!(stats.spliced, spliced);
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(stats.panics_caught, 0);
}

#[test]
fn replayed_snapshots_match_incremental_oracle_1_shard() {
    replay_differential(1);
}

#[test]
fn replayed_snapshots_match_incremental_oracle_2_shards() {
    replay_differential(2);
}

#[test]
fn replayed_snapshots_match_incremental_oracle_4_shards() {
    replay_differential(4);
}

/// Every update strategy serves snapshot reads through the sharded engine:
/// after each of three `StepDelta` writes, a snapshot read of every probe
/// equals a barrier read byte for byte, both at the write's epoch.
#[test]
fn every_strategy_serves_snapshots_that_match_barrier_reads() {
    let data = soup(800, 0x57A7);
    for kind in UpdateStrategyKind::ALL {
        let engine = sharded_strategy_engine(&data, 2, kind);
        let service = SpatialService::spawn(
            ShardedBackend::spawn_snapshot(engine),
            ServiceConfig::default().no_coalesce(),
        );
        let handle = service.handle();
        let read = |probe: &Request, consistency| {
            handle
                .submit_at(probe.clone(), consistency)
                .expect("read submit")
                .recv_reply()
                .expect("read failed")
        };
        for e in 1..=3u64 {
            let ack = handle
                .submit(Request::StepDelta(write_batch(e, data.len() as u32)))
                .expect("write submit")
                .recv_reply()
                .expect("write failed");
            assert_eq!(ack.epoch, e, "{kind:?}");
            for (p, probe) in probes().iter().enumerate() {
                let snap = read(probe, Consistency::Snapshot);
                let barrier = read(probe, Consistency::Barrier);
                assert_eq!((snap.epoch, barrier.epoch), (e, e), "{kind:?} probe {p}");
                assert_eq!(
                    snap.response, barrier.response,
                    "{kind:?} probe {p} at epoch {e}: snapshot differs from barrier"
                );
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.epochs_published, 4, "{kind:?}");
        assert_eq!(stats.failed_requests, 0, "{kind:?}");
    }
}

/// Memory guard for the in-place membership path: the same 64 elements
/// cross the middle cut of a 4-shard grid engine and come back, 200 times
/// over (the benchmark's `sim_mixed` migration pattern). Every tick splices
/// — nothing rebuilds — and the live gauge ends within 1 % of where the
/// second round left it: no doubling in the element clones, id maps or
/// slot directories, no scratch that grows with the number of ticks.
#[test]
fn migration_cycles_hold_memory_level() {
    const ROUNDS: usize = 200;
    const MOVERS: usize = 64;

    let data = soup(4000, 0x50AC);
    let engine = incremental_engine(&data, 4);
    let router = engine.router().clone();
    let axis = router.axis();
    let cut = router.region(2).min.axis(axis);
    // Small elements sitting well inside shard 1 or shard 2; "away" mirrors
    // a home position across the cut, into the other shard.
    let movers: Vec<(ElementId, Point3)> = data
        .iter()
        .filter(|e| e.id % 29 != 0)
        .map(|e| (e.id, e.aabb().center()))
        .filter(|(_, c)| {
            let d = (c.axis(axis) - cut).abs();
            (4.0..20.0).contains(&d)
        })
        .take(MOVERS)
        .collect();
    assert_eq!(movers.len(), MOVERS);
    let tick = |away: bool| -> Vec<(ElementId, Shape)> {
        movers
            .iter()
            .map(|&(id, home)| {
                let mut c = home;
                if away {
                    *c.axis_mut(axis) = 2.0 * cut - home.axis(axis);
                }
                (id, Shape::Box(unit_box(c, 0.4)))
            })
            .collect()
    };

    let mut backend = ShardedBackend::spawn_snapshot(engine);
    let mut after_round_2 = 0usize;
    for round in 1..=ROUNDS {
        for away in [true, false] {
            let report = backend.write_batch(&sets(&tick(away))).1;
            assert_eq!(report.failed, None);
            assert_eq!(
                report.stats.rebuilds, 0,
                "round {round}: a migration tick rebuilt"
            );
            assert_eq!(report.stats.migrations, MOVERS as u64);
            assert_eq!(report.stats.spliced, 2 * MOVERS as u64);
        }
        if round == 2 {
            after_round_2 = backend.memory_bytes();
        }
    }
    let level = |now: f64, then: f64| (now - then).abs() <= 0.01 * then;
    let live = backend.memory_bytes();
    assert!(
        level(live as f64, after_round_2 as f64),
        "live bytes drifted: {after_round_2} after round 2, {live} after round {ROUNDS}"
    );
    backend.shutdown();
}

/// `ReadYourWrites { min_epoch }` always observes the caller's own acked
/// write, however many other writers race it: each writer moves one of its
/// own elements, takes the ack's epoch as the floor, and the floored read
/// must return that element from the moved-to envelope.
#[test]
fn read_your_writes_observes_own_acked_writes_under_contention() {
    const WRITERS: u32 = 4;
    const ROUNDS: u32 = 12;

    let data = soup(900, 0x0B5E);
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let service = SpatialService::spawn(
        ShardedBackend::spawn_snapshot(engine),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    // A per-(writer, round) unique destination inside the
                    // soup's coordinate range.
                    let id = w * 101 + r; // disjoint per writer
                    let x = 5.0 + w as f32 * 21.0 + r as f32 * 1.4;
                    let y = 8.0 + w as f32 * 3.0;
                    let z = 12.0 + r as f32 * 5.0;
                    let dest =
                        Aabb::new(Point3::new(x, y, z), Point3::new(x + 0.8, y + 0.8, z + 0.8));
                    let ack = handle
                        .submit(Request::StepDelta(vec![(id, dest)]))
                        .expect("write submit")
                        .recv_reply()
                        .expect("write failed");
                    assert!(ack.epoch > 0, "write acked without a published epoch");

                    let probe = Aabb::new(
                        Point3::new(x - 0.1, y - 0.1, z - 0.1),
                        Point3::new(x + 0.9, y + 0.9, z + 0.9),
                    );
                    let reply = handle
                        .submit_at(
                            Request::Range(vec![probe]),
                            Consistency::ReadYourWrites {
                                min_epoch: ack.epoch,
                            },
                        )
                        .expect("read submit")
                        .recv_reply()
                        .expect("read failed");
                    assert!(
                        reply.epoch >= ack.epoch,
                        "writer {w} round {r}: read ran at epoch {} < acked {}",
                        reply.epoch,
                        ack.epoch
                    );
                    let ids = match &reply.response {
                        Response::Range(per_query) => &per_query[0],
                        other => panic!("unexpected response {other:?}"),
                    };
                    assert!(
                        ids.contains(&id),
                        "writer {w} round {r}: own write (element {id}, acked at \
                         epoch {}) invisible to ReadYourWrites at epoch {}",
                        ack.epoch,
                        reply.epoch
                    );
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer panicked");
    }

    let stats = service.shutdown();
    assert_eq!(stats.current_epoch, (WRITERS * ROUNDS) as u64);
    assert_eq!(stats.epochs_published, (WRITERS * ROUNDS) as u64 + 1);
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(stats.panics_caught, 0);
}

/// A read that runs before a write in the same dispatch replies before that
/// write finishes: a hoisted snapshot read does not wait for the write
/// admitted ahead of it, and a barrier read admitted ahead of a write does
/// not wait for the write behind it.
///
/// The write's backend call is delayed by [`WRITE_DELAY`]; a one-second
/// batching window holds whichever request arrives first until the second
/// joins it, so both share one dispatch. Snapshot runs consume no fault-plan
/// op, while a live range run consumes one — hence the write is op 0 in the
/// first case and op 1 in the second. Both spawn flavours serve snapshot
/// reads, so both hoist.
#[test]
fn hoisted_snapshot_read_replies_before_the_write_behind_it() {
    const WRITE_DELAY: Duration = Duration::from_millis(300);
    let data = soup(800, 0x0DE1);
    for label in ["spawn_snapshot", "spawn"] {
        let backend = || {
            let engine = incremental_engine(&data, 2);
            if label == "spawn" {
                ShardedBackend::spawn(engine)
            } else {
                ShardedBackend::spawn_snapshot(engine)
            }
        };
        let spawn = |write_op: u64| {
            SpatialService::spawn(
                ChaosBackend::new(backend(), FaultPlan::new().delay_at(write_op, WRITE_DELAY)),
                ServiceConfig::default().with_batching(64, Duration::from_secs(1)),
            )
        };
        let everything = Request::Range(vec![Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(99.0, 99.0, 99.0),
        )]);
        let write = || Request::StepDelta(write_batch(1, data.len() as u32));

        // Write first, snapshot read second: the read is hoisted over it.
        let service = spawn(0);
        let handle = service.handle();
        let write_ticket = handle.submit(write()).expect("write submit");
        let read = handle
            .submit_at(everything.clone(), Consistency::Snapshot)
            .expect("read submit")
            .recv_reply()
            .expect("snapshot read");
        assert!(
            write_ticket.try_recv_reply().is_none(),
            "{label}: the hoisted read waited for the write behind it"
        );
        assert!(
            read.latency < WRITE_DELAY,
            "{label}: read took {:?}",
            read.latency
        );
        assert_eq!(
            read.epoch, 0,
            "{label}: the read must run before the write publishes"
        );
        let ack = write_ticket.recv_reply().expect("write");
        assert_eq!(ack.epoch, 1, "{label}");
        let stats = service.shutdown();
        assert_eq!((stats.dispatches, stats.stale_reads), (1, 1), "{label}");

        // Barrier read first, write second: the read runs live, then
        // replies before the write starts.
        let service = spawn(1);
        let handle = service.handle();
        let read_ticket = handle.submit(everything).expect("read submit");
        let write_ticket = handle.submit(write()).expect("write submit");
        let read = read_ticket.recv_reply().expect("barrier read");
        assert!(
            write_ticket.try_recv_reply().is_none(),
            "{label}: the barrier read waited for the write behind it"
        );
        assert!(
            read.latency < WRITE_DELAY,
            "{label}: read took {:?}",
            read.latency
        );
        assert_eq!(read.epoch, 0, "{label}");
        assert_eq!(
            write_ticket.recv_reply().expect("write").epoch,
            1,
            "{label}"
        );
        let stats = service.shutdown();
        assert_eq!(stats.dispatches, 1, "{label}");
    }
}

/// A client holding a reply finds it counted in `stats()`: the scheduler
/// flushes a run's counters before it completes the run's tickets. One
/// thread streams serial writes while another streams snapshot reads, on a
/// coalescing service, so dispatches mix hoisted reads with write runs
/// and every reply is checked against a stats sample taken after it
/// arrived.
#[test]
fn replies_are_counted_before_they_are_sent() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const WRITES: u64 = 150;

    let data = soup(1000, 0xC0DE);
    let service = SpatialService::spawn(
        ShardedBackend::spawn_snapshot(incremental_engine(&data, 2)),
        ServiceConfig::default(),
    );
    let handle = service.handle();
    let replies = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let (handle, replies, stop) = (handle.clone(), Arc::clone(&replies), Arc::clone(&stop));
        std::thread::spawn(move || {
            let probe_set = probes();
            let mut snapshot_replies = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let p = snapshot_replies as usize % probe_set.len();
                handle
                    .submit_at(probe_set[p].clone(), Consistency::Snapshot)
                    .expect("read submit")
                    .recv_reply()
                    .expect("snapshot read");
                snapshot_replies += 1;
                let received = replies.fetch_add(1, Ordering::SeqCst) + 1;
                let stats = handle.stats();
                assert!(
                    stats.completed >= received,
                    "{received} replies received, {} counted",
                    stats.completed
                );
                assert!(
                    stats.snapshot_reads >= snapshot_replies,
                    "{snapshot_replies} snapshot replies received, {} counted",
                    stats.snapshot_reads
                );
            }
            snapshot_replies
        })
    };

    for e in 1..=WRITES {
        let ack = handle
            .submit(Request::StepDelta(write_batch(e, data.len() as u32)))
            .expect("write submit")
            .recv_reply()
            .expect("write");
        let received = replies.fetch_add(1, Ordering::SeqCst) + 1;
        let stats = handle.stats();
        assert_eq!(ack.epoch, e);
        assert_eq!(
            stats.epochs_published,
            ack.epoch + 1,
            "write {e} acked before its publish was counted"
        );
        assert!(
            stats.completed >= received,
            "{received} replies received, {} counted",
            stats.completed
        );
    }
    stop.store(true, Ordering::Relaxed);
    let snapshot_replies = reader.join().expect("reader panicked");
    assert!(snapshot_replies > 0, "the reader never completed a read");

    let stats = service.shutdown();
    assert_eq!(stats.completed, WRITES + snapshot_replies);
    assert_eq!(stats.failed_requests, 0);
}
