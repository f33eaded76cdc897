//! Helpers shared by the root service suites (`mod common;` in each): the
//! element soup they all serve and the serial oracles their differential
//! checks compare against.
#![allow(dead_code)]

use simspatial::prelude::*;
use simspatial_geom::QueryScratch;

/// Mixed-size random soup (same recipe as the engine differential tests).
pub fn soup(n: u32, seed: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(2654435761);
            let x = (h % 997) as f32 / 10.0;
            let y = ((h >> 10) % 997) as f32 / 10.0;
            let z = ((h >> 20) % 997) as f32 / 10.0;
            let r = if i % 29 == 0 { 4.0 } else { 0.35 };
            Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
        })
        .collect()
}

/// The integer hash the suites derive their request streams from.
pub fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E3779B9) ^ 0xABCD_1234;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

/// The serial oracle: one request at a time through a caller-owned engine.
/// Writable oracles additionally apply write batches with the same
/// semantics as the service (geometry replaced, last write wins).
pub trait SerialOracle {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>>;
    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)>;
    fn apply(&mut self, updates: &[(ElementId, Shape)]) {
        let _ = updates;
        panic!("read-only oracle received a write");
    }
}

/// Serial mirror of a sharded backend: the same `ShardedEngine`, driven one
/// request at a time.
pub struct ShardedOracle<I>(pub ShardedEngine<I>);

impl<I: SpatialIndex + KnnIndex + Send> SerialOracle for ShardedOracle<I> {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>> {
        let mut out = BatchResults::new();
        self.0.range_collect(qs, &mut out);
        (0..qs.len())
            .map(|q| out.query_results(q).to_vec())
            .collect()
    }

    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)> {
        let mut out = KnnBatchResults::new();
        self.0.knn_collect(&[*p], k, &mut out);
        out.query_results(0).to_vec()
    }

    fn apply(&mut self, updates: &[(ElementId, Shape)]) {
        self.0.update_batch(updates);
    }
}

/// A writable single-engine oracle: owns the data, applies writes, rebuilds
/// its index — one `QueryEngine` over one index, which a rebuild-mode
/// one-shard rebuild-mode `ShardedBackend` answers exactly as.
pub struct RebuildOracle<I, F: Fn(&[Element]) -> I> {
    engine: QueryEngine,
    data: Vec<Element>,
    index: I,
    build: F,
}

impl<I: SpatialIndex + KnnIndex, F: Fn(&[Element]) -> I> RebuildOracle<I, F> {
    pub fn new(data: Vec<Element>, build: F) -> Self {
        let index = build(&data);
        Self {
            engine: QueryEngine::new(),
            data,
            index,
            build,
        }
    }
}

impl<I: SpatialIndex + KnnIndex, F: Fn(&[Element]) -> I> SerialOracle for RebuildOracle<I, F> {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>> {
        let mut out = BatchResults::new();
        self.engine
            .range_collect(&self.index, &self.data, qs, &mut out);
        (0..qs.len())
            .map(|q| out.query_results(q).to_vec())
            .collect()
    }

    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)> {
        let mut out = KnnBatchResults::new();
        self.engine
            .knn_collect(&self.index, &self.data, &[*p], k, &mut out);
        out.query_results(0).to_vec()
    }

    fn apply(&mut self, updates: &[(ElementId, Shape)]) {
        for &(id, shape) in updates {
            if let Some(e) = self.data.get_mut(id as usize) {
                e.shape = shape;
            }
        }
        self.index = (self.build)(&self.data);
    }
}

/// The rebuild-mode twin of `sharded_strategy_engine`: the same shards and
/// rebuild function without the in-place apply, so every write lane
/// rebuilds its shard's strategy — the differential oracle for the
/// incremental write path.
pub fn rebuild_strategy_engine(
    data: &[Element],
    shards: usize,
    kind: UpdateStrategyKind,
) -> ShardedEngine<Box<dyn UpdateStrategy>> {
    ShardedEngine::build(data, shards, |els| kind.create(els))
        .with_rebuild(move |els| kind.create(els))
}

/// A strategy-backed oracle: one strategy over the whole dataset, fed each
/// write batch as submitted (duplicates included, in admission order).
/// `simspatial_moving::strategy_backend` applies each id's last write once,
/// so it agrees with this oracle only on batches without duplicate ids; its
/// exact serial mirror is a `ShardedOracle` over a one-shard incremental
/// `sharded_strategy_engine`.
pub struct StrategyOracle {
    pub data: Vec<Element>,
    pub strategy: Box<dyn UpdateStrategy>,
    pub scratch: QueryScratch,
}

impl SerialOracle for StrategyOracle {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>> {
        qs.iter()
            .map(|q| {
                let mut out = Vec::new();
                self.strategy
                    .range_into(&self.data, q, &mut self.scratch, &mut out);
                out
            })
            .collect()
    }

    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)> {
        let mut out = Vec::new();
        self.strategy
            .knn_into(&self.data, p, k, &mut self.scratch, &mut out);
        out
    }

    fn apply(&mut self, updates: &[(ElementId, Shape)]) {
        self.strategy.update_batch(&mut self.data, updates);
    }
}

pub fn expected(oracle: &mut dyn SerialOracle, request: &Request) -> Response {
    match request {
        Request::Range(qs) => Response::Range(oracle.range(qs)),
        Request::RangeCount(qs) => Response::RangeCount(
            oracle
                .range(qs)
                .into_iter()
                .map(|l| l.len() as u64)
                .collect(),
        ),
        Request::Knn(probes) => {
            Response::Knn(probes.iter().map(|(p, k)| oracle.knn(p, *k)).collect())
        }
        Request::StepDelta(moves) => {
            let updates: Vec<(ElementId, Shape)> =
                moves.iter().map(|&(id, bb)| (id, Shape::Box(bb))).collect();
            oracle.apply(&updates);
            Response::StepDelta(moves.len() as u64)
        }
        Request::Insert(_) | Request::Remove(_) => {
            unimplemented!("membership requests are exercised by tests/incremental_differential.rs")
        }
    }
}
