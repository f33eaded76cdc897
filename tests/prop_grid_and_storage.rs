//! Property-based tests of the grid family and the storage substrate.

use proptest::prelude::*;
use simspatial::prelude::*;
use simspatial::storage::{PageId, PageStore, PAGE_SIZE};

fn arb_elements(max: usize) -> impl Strategy<Value = Vec<Element>> {
    prop::collection::vec(
        (
            (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0),
            0.05f32..3.0,
        ),
        1..max,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), r))| {
                Element::new(
                    i as ElementId,
                    Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_equals_scan_for_any_data_and_resolution(
        elements in arb_elements(200),
        cell in 0.5f32..40.0,
        replicate in any::<bool>(),
        q in ((-60.0f32..60.0, -60.0f32..60.0, -60.0f32..60.0), 1.0f32..40.0),
    ) {
        let placement = if replicate { GridPlacement::Replicate } else { GridPlacement::Center };
        let grid = UniformGrid::build(&elements, GridConfig::with_cell_side(cell, placement));
        let scan = LinearScan::build(&elements);
        let qmin = Point3::new(q.0 .0, q.0 .1, q.0 .2);
        let qbox = Aabb::new(qmin, Point3::new(qmin.x + q.1, qmin.y + q.1, qmin.z + q.1));
        let mut a = grid.range(&elements, &qbox);
        let mut b = scan.range(&elements, &qbox);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn grid_update_tracks_random_moves(
        elements in arb_elements(120),
        moves in prop::collection::vec((any::<usize>(), (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0)), 1..60),
    ) {
        let mut grid = UniformGrid::build(
            &elements,
            GridConfig::with_cell_side(5.0, GridPlacement::Center),
        );
        let mut live = elements.clone();
        for (i, d) in moves {
            let i = i % live.len();
            let old = live[i].clone();
            let mut new = old.clone();
            new.translate(Vec3::new(d.0, d.1, d.2));
            grid.update(&old, &new);
            live[i] = new;
        }
        prop_assert_eq!(grid.len(), live.len());
        let scan = LinearScan::build(&live);
        let q = Aabb::new(Point3::new(-80.0, -80.0, -80.0), Point3::new(80.0, 80.0, 80.0));
        let mut a = grid.range(&live, &q);
        let mut b = scan.range(&live, &q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "full-universe query after moves must see everything");
    }

    #[test]
    fn multigrid_equals_scan(elements in arb_elements(150),
                             q in ((-60.0f32..60.0, -60.0f32..60.0, -60.0f32..60.0), 1.0f32..50.0)) {
        let mg = MultiGrid::build(&elements, MultiGridConfig::auto(&elements));
        let scan = LinearScan::build(&elements);
        let qmin = Point3::new(q.0 .0, q.0 .1, q.0 .2);
        let qbox = Aabb::new(qmin, Point3::new(qmin.x + q.1, qmin.y + q.1, qmin.z + q.1));
        let mut a = mg.range(&elements, &qbox);
        let mut b = scan.range(&elements, &qbox);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn buffer_pool_matches_model(capacity in 1usize..16,
                                 accesses in prop::collection::vec(0u32..32, 1..200)) {
        // Model: a simple LRU list; check hit/miss parity with the pool.
        let mut store = PageStore::new();
        for i in 0..32u32 {
            let id = store.allocate();
            store.write(id, &[i as u8]);
        }
        let mut pool = BufferPool::new(BufferPoolConfig {
            capacity_pages: capacity,
            disk: DiskModel::sas_2014(),
        });
        let mut lru: Vec<u32> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for &page in &accesses {
            let data = pool.read(&store, PageId(page));
            prop_assert_eq!(data.len(), PAGE_SIZE);
            prop_assert_eq!(data[0], page as u8, "pool returned wrong page contents");
            if let Some(pos) = lru.iter().position(|&p| p == page) {
                lru.remove(pos);
                hits += 1;
            } else {
                misses += 1;
                if lru.len() == capacity {
                    lru.pop();
                }
            }
            lru.insert(0, page);
            prop_assert!(pool.cached_pages() <= capacity);
        }
        let s = pool.stats();
        prop_assert_eq!((s.hits, s.misses), (hits, misses), "pool diverged from LRU model");
    }

    #[test]
    fn plasticity_stats_hold_for_any_seed(seed in any::<u64>()) {
        let mut model = PlasticityModel::paper_calibrated(seed);
        let stats = DisplacementStats::measure(&model.sample_step(20_000));
        prop_assert!((stats.mean - 0.04).abs() < 0.004, "mean {}", stats.mean);
        prop_assert!(stats.tail_fraction < 0.005, "tail {}", stats.tail_fraction);
        prop_assert!(stats.moved_fraction > 0.999);
    }
}
