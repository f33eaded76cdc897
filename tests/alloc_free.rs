//! Proof of the engine's steady-state guarantee: repeat `range_batch`
//! calls through a [`QueryEngine`] perform **zero per-query heap
//! allocations** on the grid / R-Tree / FLAT hot paths, and repeat
//! `knn_batch_into` batches are likewise allocation-free on the grid and
//! R-Tree kNN paths (best-k heaps, traversal queues and batched
//! lower-bound buffers all live in the reused scratch). The grid's write
//! path is allocation-free too, once its cells have grown to their peak
//! occupancy.
//!
//! A counting global allocator (this test binary only) tallies every
//! allocation **per thread**. After warm-up batches grow the scratch and
//! sink buffers to their high-water marks, further batches over the same
//! workload must not allocate at all on the measuring thread — sibling
//! tests warming up concurrently under the default harness do not count.

use simspatial::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count. `const`-initialised and without a
    /// destructor, so touching it from inside the allocator never
    /// allocates and never registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter bump touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The count after warm-up. Building the dataset and growing the buffers
/// allocated on this thread, so zero here means the counter is blind and
/// the steady-state assertion would pass vacuously.
fn allocations_after_warm_up() -> u64 {
    let n = allocations();
    assert!(n > 0, "the counting allocator saw no warm-up allocation");
    n
}

fn soup(n: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = i.wrapping_mul(2654435761);
            let x = (h % 499) as f32 / 5.0;
            let y = ((h >> 10) % 499) as f32 / 5.0;
            let z = ((h >> 20) % 499) as f32 / 5.0;
            Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.4)))
        })
        .collect()
}

fn queries() -> Vec<Aabb> {
    (0..20)
        .map(|i| {
            let c = Point3::new((i * 5) as f32, (i * 4) as f32, (i * 3) as f32);
            Aabb::new(c, Point3::new(c.x + 9.0, c.y + 8.0, c.z + 7.0))
        })
        .collect()
}

fn assert_steady_state_alloc_free(name: &str, index: &dyn SpatialIndex, data: &[Element]) {
    let queries = queries();
    let mut engine = QueryEngine::new();
    let mut results = BatchResults::new();
    // Warm-up: grow every buffer to its high-water mark.
    for _ in 0..4 {
        engine.range_collect(index, data, &queries, &mut results);
    }
    let total = results.total();
    let before = allocations_after_warm_up();
    for _ in 0..10 {
        engine.range_collect(index, data, &queries, &mut results);
        assert_eq!(results.total(), total, "{name}: results changed");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state batches must not allocate"
    );
}

fn knn_points() -> Vec<Point3> {
    (0..16)
        .map(|i| Point3::new((i * 7) as f32, (i * 5) as f32, (i * 3) as f32))
        .collect()
}

fn assert_knn_steady_state_alloc_free(name: &str, index: &dyn KnnIndex, data: &[Element]) {
    let points = knn_points();
    let mut engine = QueryEngine::new();
    let mut results = KnnBatchResults::new();
    // Warm-up: grow the scratch heaps/queues and collector lists.
    for _ in 0..4 {
        engine.knn_collect(index, data, &points, 10, &mut results);
    }
    let total = results.total();
    let before = allocations_after_warm_up();
    for _ in 0..10 {
        engine.knn_collect(index, data, &points, 10, &mut results);
        assert_eq!(results.total(), total, "{name}: results changed");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state kNN batches must not allocate"
    );
}

#[test]
fn grid_rtree_flat_batches_are_allocation_free() {
    let data = soup(4000);
    let grid = UniformGrid::build(&data, GridConfig::auto(&data));
    let replicated = UniformGrid::build(
        &data,
        GridConfig::with_cell_side(GridConfig::auto(&data).cell_side, GridPlacement::Replicate),
    );
    let rtree = RTree::bulk_load(&data, RTreeConfig::default());
    let flat = Flat::build(&data, FlatConfig::auto(&data));
    let scan = LinearScan::build(&data);
    assert_steady_state_alloc_free("grid(center)", &grid, &data);
    assert_steady_state_alloc_free("grid(replicate)", &replicated, &data);
    assert_steady_state_alloc_free("rtree", &rtree, &data);
    assert_steady_state_alloc_free("flat", &flat, &data);
    // The scan's one-pass envelope plan buffers through pooled scratch.
    assert_steady_state_alloc_free("scan(one-pass)", &scan, &data);
}

/// The SoA batch kernels themselves must not allocate once the
/// mask/output buffers reached their high-water marks.
#[test]
fn soa_kernels_are_allocation_free() {
    let data = soup(4000);
    let entries: Vec<(Aabb, ElementId)> = data.iter().map(|e| (e.aabb(), e.id)).collect();
    let soa = simspatial_geom::SoaAabbs::from_entries(&entries);
    let queries = queries();
    let points = knn_points();
    let gather: Vec<ElementId> = (0..data.len() as u32).step_by(3).collect();
    let mut mask = Vec::new();
    let mut dists = Vec::new();
    // Warm-up: every output buffer grows to its final size.
    soa.intersect_mask(&queries[0], &mut mask);
    soa.contains_mask(&queries[0], &mut mask);
    soa.min_dist2_into(&points[0], &mut dists);
    soa.min_dist2_gather_into(&points[0], &gather, &mut dists);
    let before = allocations_after_warm_up();
    for _ in 0..10 {
        for q in &queries {
            soa.intersect_mask(q, &mut mask);
            soa.contains_mask(q, &mut mask);
        }
        for p in &points {
            soa.min_dist2_into(p, &mut dists);
            soa.min_dist2_gather_into(p, &gather, &mut dists);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state SoA kernels must not allocate"
    );
}

#[test]
fn grid_rtree_knn_batches_are_allocation_free() {
    let data = soup(4000);
    let grid = UniformGrid::build(&data, GridConfig::auto(&data));
    let replicated = UniformGrid::build(
        &data,
        GridConfig::with_cell_side(GridConfig::auto(&data).cell_side, GridPlacement::Replicate),
    );
    let rtree = RTree::bulk_load(&data, RTreeConfig::default());
    assert_knn_steady_state_alloc_free("grid(center) knn", &grid, &data);
    assert_knn_steady_state_alloc_free("grid(replicate) knn", &replicated, &data);
    assert_knn_steady_state_alloc_free("rtree knn", &rtree, &data);
}

/// The grid's write path: once a warm-up cycle has grown every cell's span
/// to its peak occupancy, absorbed moves and cell switches back into cells
/// with spare capacity must not allocate — called directly, and through a
/// boxed grid-migration strategy, the way a strategy-served shard writes.
#[test]
fn grid_write_path_is_allocation_free_in_steady_state() {
    let home = soup(4000);
    let cell_side = GridConfig::auto(&home).cell_side;
    // Every 50th element hops away and back; hops of up to a third of a
    // cell per axis, so some of them switch cells.
    let away: Vec<(ElementId, Shape)> = home
        .iter()
        .step_by(50)
        .map(|e| {
            let h = e.id.wrapping_mul(0x9E37_79B9);
            let hop = |bits: u32| ((bits % 201) as f32 / 100.0 - 1.0) * cell_side / 3.0;
            let mut moved = e.clone();
            moved.translate(Vec3::new(hop(h), hop(h >> 8), hop(h >> 16)));
            (e.id, moved.shape)
        })
        .collect();
    let back: Vec<(ElementId, Shape)> = away
        .iter()
        .map(|&(id, _)| (id, home[id as usize].shape))
        .collect();
    for placement in [GridPlacement::Center, GridPlacement::Replicate] {
        let mut grid = UniformGrid::build(&home, GridConfig::with_cell_side(cell_side, placement));
        assert_writes_alloc_free(&format!("{placement:?}"), &mut grid, &home, [&away, &back]);
    }
    let mut strategy = UpdateStrategyKind::GridMigrate.create(&home);
    assert_writes_alloc_free("GridMigrate", &mut strategy, &home, [&away, &back]);
}

/// Warms `index` up with one away-and-back cycle of `ticks`, then asserts
/// that ten more cycles switch and absorb moves without allocating or
/// growing the index, and bring the data back home.
fn assert_writes_alloc_free<I: SpatialIndex>(
    label: &str,
    index: &mut I,
    home: &[Element],
    ticks: [&[(ElementId, Shape)]; 2],
) {
    let mut data = home.to_vec();
    // Warm-up: the first cycle relocates the spans that overflow.
    for tick in ticks {
        index.update_in_place(&mut data, tick);
    }
    let level = index.memory_bytes();
    let before = allocations_after_warm_up();
    let (mut switched, mut absorbed) = (0, 0);
    for _ in 0..10 {
        for tick in ticks {
            let cost = index
                .update_in_place(&mut data, tick)
                .expect("a grid writes in place");
            switched += cost.structural;
            absorbed += cost.absorbed;
        }
    }
    let after = allocations();
    assert!(
        switched > 0 && absorbed > 0,
        "{label}: {switched} switched, {absorbed} absorbed"
    );
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state grid writes must not allocate"
    );
    assert_eq!(index.memory_bytes(), level, "{label}");
    assert_eq!(data, home);
}
