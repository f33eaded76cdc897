//! Shared correctness harness for strategy tests.

use crate::strategy::UpdateStrategyKind;
use simspatial_datagen::{Dataset, ElementSoupBuilder, PlasticityModel};
use simspatial_geom::{Aabb, Point3, QueryScratch};
use simspatial_index::{
    BatchResults, KnnBatchResults, KnnIndex, LinearScan, QueryEngine, SpatialIndex,
};

/// Runs several plasticity steps over a soup and asserts after every step
/// that the strategy's range **and kNN** answers stay identical to a fresh
/// linear scan, that its `len` is the dataset size, and that the strategy
/// driven as a shard index (its box through [`QueryEngine`]) answers
/// exactly what a direct call answers — range lists unsorted.
pub(crate) fn check_strategy_correctness(kind: UpdateStrategyKind) {
    let mut data: Dataset = ElementSoupBuilder::new()
        .count(800)
        .universe_side(30.0)
        .seed(21)
        .build();
    let mut strategy = kind.create(data.elements());
    let mut model = PlasticityModel::with_sigma(0.05, 99);
    let mut engine = QueryEngine::new();
    for step in 0..6u32 {
        let batch = data.displaced_batch(&model.sample_step(data.len()));
        strategy
            .update_in_place(data.elements_mut(), &batch)
            .expect("every strategy writes in place");
        let name = strategy.name();
        assert_eq!(strategy.len(), data.len(), "{name} step {step} len");

        let scan = LinearScan::build(data.elements());
        let queries: Vec<Aabb> = (0..6)
            .map(|i| {
                let c = Point3::new((i * 4 + step) as f32, (i * 3) as f32, (i * 5) as f32);
                Aabb::new(c, Point3::new(c.x + 6.0, c.y + 5.0, c.z + 4.0))
            })
            .collect();
        let mut served = BatchResults::new();
        engine.range_collect(&strategy, data.elements(), &queries, &mut served);
        for (i, q) in queries.iter().enumerate() {
            let direct = (*strategy).range(data.elements(), q);
            assert_eq!(
                served.query_results(i),
                direct,
                "{name} step {step} query {i} served"
            );
            let mut a = direct;
            let mut b = scan.range(data.elements(), q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{name} step {step} query {i}");
        }

        let probes: Vec<Point3> = (0..3)
            .map(|i| Point3::new((i * 7 + step) as f32, (i * 6) as f32, (i * 9) as f32))
            .collect();
        let mut served = KnnBatchResults::new();
        engine.knn_collect(&strategy, data.elements(), &probes, 4, &mut served);
        let mut scratch = QueryScratch::default();
        for (i, p) in probes.iter().enumerate() {
            let mut got = Vec::new();
            (*strategy).knn_into(data.elements(), p, 4, &mut scratch, &mut got);
            assert_eq!(
                served.query_results(i),
                got,
                "{name} step {step} knn {i} served"
            );
            let want = scan.knn(data.elements(), p, 4);
            assert_eq!(got, want, "{name} step {step} knn {i}");
        }
    }
}
