//! The batch geometry kernel bench: measures the SoA candidate store
//! against the seed's scalar paths, and emits `BENCH_batch_kernel.json`
//! at the workspace root with before/after throughput numbers.
//!
//! Three comparisons, all measured in this binary on the same data:
//!
//! 1. `aabb_intersect_kernel` — the raw bbox filter: a scalar
//!    `Aabb::intersects` loop over an array-of-structs entry list vs the
//!    batched `SoaAabbs::intersect_mask` kernel.
//! 2. `grid_range_query` — the full uniform-grid range query: the seed's
//!    scalar path (`range_scalar_reference`: raw cell dumps, sort+dedup,
//!    per-candidate filter-and-refine through `data[id]`) vs the batched
//!    SoA path (`SpatialIndex::range`).
//! 3. `rtree_bulk_load` — STR packing: the seed's comparator-closure
//!    tiling vs the cached-key (and, on multicore hosts, parallel) tiling.

use criterion::{criterion_group, criterion_main, Criterion};
use simspatial_bench::datasets::{neuron_dataset, paper_queries};
use simspatial_bench::report::BenchJson;
use simspatial_bench::Scale;
use simspatial_geom::{Aabb, Element, ElementId, SoaAabbs};
use simspatial_index::{GridConfig, GridPlacement, RTree, RTreeConfig, SpatialIndex, UniformGrid};
use std::time::Instant;

/// Mean wall-clock seconds per call of `f`, with warm-up.
fn time_per_call<O>(mut f: impl FnMut() -> O) -> f64 {
    let warm = Instant::now();
    let mut warm_iters = 0u32;
    while warm.elapsed().as_secs_f64() < 0.2 {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let per = warm.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let iters = ((0.8 / per.max(1e-9)) as u64).clamp(3, 1 << 22);
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() / iters as f64
}

struct Fixture {
    elements: Vec<Element>,
    entries: Vec<(Aabb, ElementId)>,
    queries: Vec<Aabb>,
    grid: UniformGrid,
}

fn fixture() -> Fixture {
    let data = neuron_dataset(Scale::Small);
    let queries = paper_queries(data.universe(), data.len(), 40, 3);
    let elements = data.elements().to_vec();
    let entries: Vec<(Aabb, ElementId)> = elements.iter().map(|e| (e.aabb(), e.id)).collect();
    let grid = UniformGrid::build(
        &elements,
        GridConfig::with_cell_side(
            GridConfig::auto(&elements).cell_side,
            GridPlacement::Replicate,
        ),
    );
    Fixture {
        elements,
        entries,
        queries,
        grid,
    }
}

/// Builds the JSON report; `cargo bench --bench batch_kernel` both prints
/// timings and refreshes the artifact.
fn emit_json(fx: &Fixture) -> BenchJson {
    let mut json = BenchJson::new("batch_kernel");
    let n = fx.entries.len() as f64;
    let nq = fx.queries.len() as f64;

    // 1. Raw kernel: scalar AoS loop vs batched SoA mask.
    let soa = SoaAabbs::from_entries(&fx.entries);
    let query = fx.queries[0];
    let mut mask = Vec::new();
    let scalar = time_per_call(|| {
        let mut hits = 0usize;
        for (b, _) in &fx.entries {
            if b.intersects(&query) {
                hits += 1;
            }
        }
        hits
    });
    let batched = time_per_call(|| {
        soa.intersect_mask(&query, &mut mask);
        mask.iter().map(|w| w.count_ones()).sum::<u32>()
    });
    json.add("aabb_intersect_kernel", "boxes/s", n / scalar, n / batched);

    // Sanity: identical verdicts.
    soa.intersect_mask(&query, &mut mask);
    for (i, (b, _)) in fx.entries.iter().enumerate() {
        let bit = mask[i / 64] >> (i % 64) & 1 == 1;
        assert_eq!(bit, b.intersects(&query), "kernel diverged at {i}");
    }

    // 2. Full grid range path, seed scalar vs batched SoA.
    let scalar = time_per_call(|| {
        let mut total = 0usize;
        for q in &fx.queries {
            total += fx.grid.range_scalar_reference(&fx.elements, q).len();
        }
        total
    });
    let batched = time_per_call(|| {
        let mut total = 0usize;
        for q in &fx.queries {
            total += fx.grid.range(&fx.elements, q).len();
        }
        total
    });
    json.add(
        "grid_range_query",
        "query_batches/s",
        1.0 / scalar,
        1.0 / batched,
    );
    let _ = nq;

    for q in &fx.queries {
        let mut a = fx.grid.range(&fx.elements, q);
        let mut b = fx.grid.range_scalar_reference(&fx.elements, q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "batched grid path diverged from the seed path");
    }

    // 3. STR bulk load, seed tiling vs cached-key tiling.
    let config = RTreeConfig::default();
    let before =
        time_per_call(|| RTree::bulk_load_entries_reference(fx.entries.clone(), config).len());
    let after = time_per_call(|| RTree::bulk_load_entries(fx.entries.clone(), config).len());
    json.add("rtree_bulk_load", "elements/s", n / before, n / after);

    // 4. Thread sweep over the parallel STR tiling: `before` is always the
    // 1-thread wall clock, `after` the row's thread count (stamped in the
    // JSON). On a single-core host the sweep records honest ~1.0× rows.
    let old_threads = simspatial_geom::parallel::num_threads();
    simspatial_geom::parallel::set_num_threads(1);
    let t1 = time_per_call(|| RTree::bulk_load_entries(fx.entries.clone(), config).len());
    for threads in [1usize, 2, 4] {
        simspatial_geom::parallel::set_num_threads(threads);
        let tn = time_per_call(|| RTree::bulk_load_entries(fx.entries.clone(), config).len());
        json.add(
            &format!("rtree_bulk_load_t{threads}"),
            "elements/s",
            n / t1,
            n / tn,
        );
    }
    simspatial_geom::parallel::set_num_threads(old_threads);

    json
}

fn bench(c: &mut Criterion) {
    let fx = fixture();

    let json = emit_json(&fx);
    let out = std::env::var("SIMSPATIAL_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_batch_kernel.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    json.write_to(std::path::Path::new(&out))
        .expect("write BENCH_batch_kernel.json");
    println!("{}", json.to_json());
    println!("wrote {out}");

    let mut g = c.benchmark_group("batch_kernel");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_millis(700));
    let soa = SoaAabbs::from_entries(&fx.entries);
    let query = fx.queries[0];
    g.bench_function("soa_intersect_mask", |b| {
        let mut mask = Vec::new();
        b.iter(|| {
            soa.intersect_mask(&query, &mut mask);
            mask.iter().map(|w| w.count_ones()).sum::<u32>()
        })
    });
    g.bench_function("scalar_intersect_loop", |b| {
        b.iter(|| {
            fx.entries
                .iter()
                .filter(|(bb, _)| bb.intersects(&query))
                .count()
        })
    });
    g.bench_function("grid_range_batched", |b| {
        b.iter(|| {
            fx.queries
                .iter()
                .map(|q| fx.grid.range(&fx.elements, q).len())
                .sum::<usize>()
        })
    });
    g.bench_function("grid_range_scalar_reference", |b| {
        b.iter(|| {
            fx.queries
                .iter()
                .map(|q| fx.grid.range_scalar_reference(&fx.elements, q).len())
                .sum::<usize>()
        })
    });
    g.bench_function("rtree_bulk_load_cached_key", |b| {
        b.iter(|| RTree::bulk_load_entries(fx.entries.clone(), RTreeConfig::default()).len())
    });
    g.bench_function("rtree_bulk_load_reference", |b| {
        b.iter(|| {
            RTree::bulk_load_entries_reference(fx.entries.clone(), RTreeConfig::default()).len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
