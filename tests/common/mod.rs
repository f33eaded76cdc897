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
/// Writable oracles additionally apply ordered write batches with the same
/// semantics as the service (geometry replaced, last write wins), and
/// return the ids the batch's inserts allocated.
pub trait SerialOracle {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>>;
    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)>;
    fn apply(&mut self, ops: &[WriteOp]) -> Vec<ElementId> {
        let _ = ops;
        panic!("read-only oracle received a write");
    }
}

/// `updates` as `Set` ops.
pub fn sets(updates: &[(ElementId, Shape)]) -> Vec<WriteOp> {
    updates
        .iter()
        .map(|&(id, shape)| WriteOp::Set(id, shape))
        .collect()
}

/// `shapes` as `Insert` ops.
pub fn inserts(shapes: &[Shape]) -> Vec<WriteOp> {
    shapes.iter().map(|&shape| WriteOp::Insert(shape)).collect()
}

/// `ids` as `Remove` ops.
pub fn removes(ids: &[ElementId]) -> Vec<WriteOp> {
    ids.iter().map(|&id| WriteOp::Remove(id)).collect()
}

/// The `(id, geometry)` pairs of a batch of `Set`s, for the oracles whose
/// dataset has no id allocator: membership needs a [`ShardedOracle`].
fn set_pairs(ops: &[WriteOp]) -> Vec<(ElementId, Shape)> {
    ops.iter()
        .map(|op| match *op {
            WriteOp::Set(id, shape) => (id, shape),
            _ => panic!("only a ShardedOracle allocates and tombstones ids"),
        })
        .collect()
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

    fn apply(&mut self, ops: &[WriteOp]) -> Vec<ElementId> {
        self.0.write_batch(ops).0
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

    fn apply(&mut self, ops: &[WriteOp]) -> Vec<ElementId> {
        for (id, shape) in set_pairs(ops) {
            if let Some(e) = self.data.get_mut(id as usize) {
                e.shape = shape;
            }
        }
        self.index = (self.build)(&self.data);
        Vec::new()
    }
}

/// An index that answers like `I` but never writes in place: it keeps the
/// default `splice` and `update_in_place`, so every write lane of an engine
/// over it rebuilds its shard — the differential oracle for the in-place
/// write path.
pub struct RebuildOnly<I>(pub I);

impl<I: SpatialIndex> SpatialIndex for RebuildOnly<I> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.0.range_into(data, query, scratch, sink);
    }

    fn range_batch(
        &self,
        data: &[Element],
        queries: &[Aabb],
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.0.range_batch(data, queries, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

impl<I: KnnIndex> KnnIndex for RebuildOnly<I> {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.0.knn_into(data, p, k, scratch, sink);
    }
}

/// `build` with its index wrapped in [`RebuildOnly`]: an engine built and
/// rebuilt with it writes the way a [`RebuildOracle`] over `build` does.
pub fn rebuild_only<I>(
    build: impl Fn(&[Element]) -> I + Copy + Send + Sync + 'static,
) -> impl Fn(&[Element]) -> RebuildOnly<I> + Copy + Send + Sync + 'static {
    move |d| RebuildOnly(build(d))
}

/// The rebuild-mode twin of `sharded_strategy_engine`: the same shards and
/// rebuild function over [`RebuildOnly`] strategies, so every write lane
/// rebuilds its shard's strategy — the differential oracle for the
/// incremental write path.
pub fn rebuild_strategy_engine(
    data: &[Element],
    shards: usize,
    kind: UpdateStrategyKind,
) -> ShardedEngine<Box<dyn UpdateStrategy>> {
    let create = move |els: &[Element]| -> Box<dyn UpdateStrategy> {
        Box::new(RebuildOnly(kind.create(els)))
    };
    ShardedEngine::build(data, shards, create).with_rebuild(create)
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

    fn apply(&mut self, ops: &[WriteOp]) -> Vec<ElementId> {
        self.strategy
            .update_in_place(&mut self.data, &set_pairs(ops))
            .expect("every strategy writes in place");
        Vec::new()
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
            let ops: Vec<WriteOp> = moves
                .iter()
                .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb)))
                .collect();
            oracle.apply(&ops);
            Response::StepDelta(moves.len() as u64)
        }
        Request::Insert(envelopes) => {
            let shapes: Vec<Shape> = envelopes.iter().map(|&bb| Shape::Box(bb)).collect();
            Response::Insert(oracle.apply(&inserts(&shapes)))
        }
        Request::Remove(ids) => {
            oracle.apply(&removes(ids));
            Response::Remove(ids.len() as u64)
        }
    }
}
