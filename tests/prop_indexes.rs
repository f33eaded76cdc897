//! Property-based equivalence of *every* range index with the linear scan,
//! over arbitrary element soups and query boxes — the workspace-wide
//! correctness net.

use proptest::prelude::*;
use simspatial::prelude::*;

fn arb_elements() -> impl Strategy<Value = Vec<Element>> {
    prop::collection::vec(
        prop_oneof![
            // Spheres.
            (
                (-40.0f32..40.0, -40.0f32..40.0, -40.0f32..40.0),
                0.05f32..3.0
            )
                .prop_map(|((x, y, z), r)| Shape::Sphere(Sphere::new(Point3::new(x, y, z), r))),
            // Capsules (the neuron geometry).
            (
                (-40.0f32..40.0, -40.0f32..40.0, -40.0f32..40.0),
                (-4.0f32..4.0, -4.0f32..4.0, -4.0f32..4.0),
                0.05f32..1.0
            )
                .prop_map(|((x, y, z), (dx, dy, dz), r)| {
                    let a = Point3::new(x, y, z);
                    Shape::Capsule(Capsule::new(a, a + Vec3::new(dx, dy, dz), r))
                }),
        ],
        1..150,
    )
    .prop_map(|shapes| {
        shapes
            .into_iter()
            .enumerate()
            .map(|(i, s)| Element::new(i as ElementId, s))
            .collect()
    })
}

fn arb_query() -> impl Strategy<Value = Aabb> {
    (
        (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0),
        0.5f32..40.0,
    )
        .prop_map(|((x, y, z), s)| {
            let min = Point3::new(x, y, z);
            Aabb::new(min, Point3::new(x + s, y + s, z + s))
        })
}

fn sorted(mut v: Vec<ElementId>) -> Vec<ElementId> {
    v.sort_unstable();
    v
}

/// One membership change over a dataset of `n` elements, in the six shapes
/// a shard lane produces: nothing, a run at the head, a run at the tail,
/// scattered, everything but one element, and arrivals appended past the
/// end (a plain insert). Returns the dataset after the change plus the
/// three `SpatialIndex::splice` arguments that describe it.
type Splice = (Vec<Element>, Vec<Element>, Vec<ElementId>, Vec<Element>);

fn membership_change(old: &[Element], mode: usize, picks: &[u32], arrivals: &[Shape]) -> Splice {
    let n = old.len();
    let run = picks.len().min(n / 2);
    // Which old elements leave, and before which survivor each arrival
    // lands (`n` = after the last one).
    let mut leaves = vec![false; n];
    let mut lands: Vec<usize> = Vec::new();
    match mode {
        0 => {}
        1 => {
            leaves[..run].fill(true);
            lands = vec![0; arrivals.len()];
        }
        2 => {
            leaves[n - run..].fill(true);
            lands = vec![n; arrivals.len()];
        }
        3 => {
            for &p in picks {
                leaves[p as usize % n] = true;
            }
            lands = arrivals
                .iter()
                .zip(picks.iter().cycle())
                .map(|(_, &p)| (p as usize).wrapping_mul(31) % (n + 1))
                .collect();
            if picks.is_empty() {
                lands = vec![n / 2; arrivals.len()];
            }
            lands.sort_unstable();
        }
        4 => {
            leaves.fill(true);
            leaves[picks.first().map_or(0, |&p| p as usize % n)] = false;
            lands = vec![n / 2; arrivals.len()];
        }
        _ => lands = vec![n; arrivals.len()],
    }
    let mut new: Vec<Element> = Vec::new();
    let mut removed = Vec::new();
    let mut inserted = Vec::new();
    // A departing id's entry is never read: poison it.
    let mut remap = vec![ElementId::MAX; n];
    let mut arrival = 0usize;
    let mut land = |new: &mut Vec<Element>, inserted: &mut Vec<Element>, upto: usize| {
        while arrival < lands.len() && lands[arrival] <= upto {
            let e = Element::new(new.len() as ElementId, arrivals[arrival]);
            inserted.push(e.clone());
            new.push(e);
            arrival += 1;
        }
    };
    for (i, e) in old.iter().enumerate() {
        land(&mut new, &mut inserted, i);
        if leaves[i] {
            removed.push(e.clone());
        } else {
            remap[i] = new.len() as ElementId;
            new.push(Element::new(new.len() as ElementId, e.shape));
        }
    }
    land(&mut new, &mut inserted, n);
    (new, removed, remap, inserted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_index_equals_scan(elements in arb_elements(), q in arb_query()) {
        let scan = LinearScan::build(&elements);
        let truth = sorted(scan.range(&elements, &q));

        let rtree = RTree::bulk_load(&elements, RTreeConfig::default());
        let hilbert = RTree::bulk_load_sfc(&elements, RTreeConfig::default(), Curve::Hilbert);
        let morton = RTree::bulk_load_sfc(&elements, RTreeConfig::default(), Curve::Morton);
        let crtree = CrTree::build(&elements, CrTreeConfig::default());
        let kd = KdTree::build(&elements);
        let oct = Octree::build(&elements, OctreeConfig::default());
        let grid = UniformGrid::build(&elements, GridConfig::auto(&elements));
        let multi = MultiGrid::build(&elements, MultiGridConfig::auto(&elements));
        let flat = Flat::build(&elements, FlatConfig::auto(&elements));

        let contenders: Vec<(&str, &dyn SpatialIndex)> = vec![
            ("rtree", &rtree),
            ("rtree-hilbert", &hilbert),
            ("rtree-morton", &morton),
            ("crtree", &crtree),
            ("kdtree", &kd),
            ("octree", &oct),
            ("grid", &grid),
            ("multigrid", &multi),
            ("flat", &flat),
        ];
        for (name, idx) in contenders {
            prop_assert_eq!(sorted(idx.range(&elements, &q)), truth.clone(),
                            "{} diverged on {:?}", name, q);
        }
    }

    #[test]
    fn range_batch_equals_looped_range_into_equals_legacy_range(
        elements in arb_elements(),
        queries in prop::collection::vec(arb_query(), 1..6),
    ) {
        // The three entry points of the batch-first API must agree for
        // every index: the batched plan (`range_batch` through the
        // engine), a hand loop over the sink core (`range_into`), and the
        // legacy allocating wrapper (`range`).
        let rtree = RTree::bulk_load(&elements, RTreeConfig::default());
        let crtree = CrTree::build(&elements, CrTreeConfig::default());
        let kd = KdTree::build(&elements);
        let oct = Octree::build(&elements, OctreeConfig::default());
        let grid = UniformGrid::build(&elements, GridConfig::auto(&elements));
        let multi = MultiGrid::build(&elements, MultiGridConfig::auto(&elements));
        let flat = Flat::build(&elements, FlatConfig::auto(&elements));
        let scan = LinearScan::build(&elements);

        let contenders: Vec<(&str, &dyn SpatialIndex)> = vec![
            ("rtree", &rtree),
            ("crtree", &crtree),
            ("kdtree", &kd),
            ("octree", &oct),
            ("grid", &grid),
            ("multigrid", &multi),
            ("flat", &flat),
            ("scan", &scan),
        ];
        let mut engine = QueryEngine::new();
        let mut batched = BatchResults::new();
        let mut scratch = simspatial::geom::QueryScratch::default();
        for (name, idx) in contenders {
            let stats = engine.range_collect(idx, &elements, &queries, &mut batched);
            prop_assert_eq!(batched.len(), queries.len(), "{}: batch width", name);
            prop_assert_eq!(stats.results as usize, batched.total(), "{}: tally", name);
            for (qi, q) in queries.iter().enumerate() {
                let from_batch = sorted(batched.query_results(qi).to_vec());
                let mut looped = Vec::new();
                idx.range_into(&elements, q, &mut scratch, &mut looped);
                prop_assert_eq!(&from_batch, &sorted(looped),
                                "{}: batch vs looped range_into on {:?}", name, q);
                prop_assert_eq!(&from_batch, &sorted(idx.range(&elements, q)),
                                "{}: batch vs legacy range on {:?}", name, q);
            }
        }
    }

    #[test]
    fn knn_indexes_equal_scan_distances(elements in arb_elements(), k in 1usize..20,
                                        p in (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0)) {
        let p = Point3::new(p.0, p.1, p.2);
        let scan = LinearScan::build(&elements);
        let truth = scan.knn(&elements, &p, k);

        let rtree = RTree::bulk_load(&elements, RTreeConfig::default());
        let kd = KdTree::build(&elements);
        let oct = Octree::build(&elements, OctreeConfig::default());
        let grid = UniformGrid::build(&elements, GridConfig::auto(&elements));

        let contenders: Vec<(&str, &dyn KnnIndex)> =
            vec![("rtree", &rtree), ("kdtree", &kd), ("octree", &oct), ("grid", &grid)];
        for (name, idx) in contenders {
            let got = idx.knn(&elements, &p, k);
            prop_assert_eq!(got.len(), truth.len(), "{} count", name);
            for (g, t) in got.iter().zip(truth.iter()) {
                prop_assert!((g.1 - t.1).abs() < 1e-2,
                             "{}: distance {} vs {}", name, g.1, t.1);
            }
        }
    }

    // `UniformGrid::splice` ≡ a fresh build over the changed dataset, for
    // both placements and every shape of change: ranges as id sets, kNN
    // byte for byte (half the arrivals duplicate an existing element, so
    // probes at those points tie on distance and must break the tie by
    // id exactly as the rebuilt grid does), `len()` exact. `memory_bytes`
    // is the running count, which debug builds check against the cell
    // walk on every call. Splicing two clones of one grid with the same
    // arguments must give the same structure — same emission order, same
    // bytes: the contract the incremental differential suites rest on.
    #[test]
    fn grid_splice_equals_rebuild(
        elements in arb_elements(),
        replicate in any::<bool>(),
        mode in 0usize..6,
        picks in prop::collection::vec(any::<u32>(), 0..40),
        fresh in prop::collection::vec(
            ((-45.0f32..45.0, -45.0f32..45.0, -45.0f32..45.0), 0.05f32..2.0), 0..12),
        queries in prop::collection::vec(arb_query(), 1..5),
        k in 1usize..12,
    ) {
        let placement = if replicate { GridPlacement::Replicate } else { GridPlacement::Center };
        let arrivals: Vec<Shape> = fresh
            .iter()
            .enumerate()
            .map(|(j, &((x, y, z), r))| {
                if j % 2 == 0 {
                    elements[j % elements.len()].shape
                } else {
                    Shape::Sphere(Sphere::new(Point3::new(x, y, z), r))
                }
            })
            .collect();
        let (new, removed, remap, inserted) = membership_change(&elements, mode, &picks, &arrivals);

        let mut config = GridConfig::auto(&elements);
        config.placement = placement;
        let start = UniformGrid::build(&elements, config);
        let mut spliced = start.clone();
        prop_assert!(spliced.splice(&removed, &remap, &inserted));
        let mut twin = start.clone();
        prop_assert!(twin.splice(&removed, &remap, &inserted));

        let mut config = GridConfig::auto(&new);
        config.placement = placement;
        let rebuilt = UniformGrid::build(&new, config);
        prop_assert_eq!(spliced.len(), new.len());
        prop_assert_eq!(spliced.memory_bytes(), twin.memory_bytes());

        for q in queries.iter().chain([&Aabb::new(
            Point3::new(-60.0, -60.0, -60.0),
            Point3::new(60.0, 60.0, 60.0),
        )]) {
            let got = spliced.range(&new, q);
            prop_assert_eq!(&got, &twin.range(&new, q), "{:?}: twin order on {:?}", placement, q);
            prop_assert_eq!(sorted(got), sorted(rebuilt.range(&new, q)),
                            "{:?} mode {}: range {:?}", placement, mode, q);
        }
        let probes = queries
            .iter()
            .map(Aabb::center)
            .chain(inserted.iter().map(|e| e.aabb().center()));
        for p in probes {
            let got = spliced.knn(&new, &p, k);
            prop_assert_eq!(&got, &twin.knn(&new, &p, k));
            prop_assert_eq!(got, rebuilt.knn(&new, &p, k),
                            "{:?} mode {}: knn at {:?}", placement, mode, p);
        }

        // The spliced grid keeps working as a grid: moving elements finds
        // every entry under its new id (the slot directory was renumbered
        // with the cells).
        let mut rebuilt = rebuilt;
        let mut moved = new.clone();
        for e in moved.iter_mut().step_by(3) {
            let before = e.clone();
            e.translate(Vec3::new(7.5, -3.25, 0.5 + e.id as f32 * 0.125));
            spliced.update(&before, e);
            rebuilt.update(&before, e);
        }
        for q in &queries {
            prop_assert_eq!(sorted(spliced.range(&moved, q)), sorted(rebuilt.range(&moved, q)),
                            "{:?} mode {}: range after moves {:?}", placement, mode, q);
        }
        prop_assert_eq!(spliced.len(), moved.len());
        let _ = spliced.memory_bytes();
    }

    #[test]
    fn flat_survives_arbitrary_drift(elements in arb_elements(),
                                     drifts in prop::collection::vec(
                                         (-0.3f32..0.3, -0.3f32..0.3, -0.3f32..0.3), 1..4),
                                     q in arb_query()) {
        let mut live = elements.clone();
        let mut flat = Flat::build(&live, FlatConfig::auto(&live));
        for d in &drifts {
            let v = Vec3::new(d.0, d.1, d.2);
            for e in live.iter_mut() {
                // Per-element variation derived from the id keeps the moves
                // heterogeneous without another RNG.
                let s = 1.0 - (e.id % 7) as f32 / 14.0;
                e.translate(v * s);
            }
            flat.note_drift(v.length());
        }
        let scan = LinearScan::build(&live);
        prop_assert_eq!(sorted(flat.range(&live, &q)), sorted(scan.range(&live, &q)));
    }

    #[test]
    fn rtree_stays_valid_under_mixed_bulk_then_dynamic(elements in arb_elements(),
                                                       removals in prop::collection::vec(any::<usize>(), 0..40)) {
        let mut tree = RTree::bulk_load(&elements, RTreeConfig::default());
        let mut live: Vec<Element> = elements.clone();
        for r in removals {
            if live.is_empty() {
                break;
            }
            let i = r % live.len();
            let e = live.swap_remove(i);
            prop_assert!(tree.delete(e.id, &e.aabb()), "bulk-loaded entry not deletable");
        }
        tree.validate();
        prop_assert_eq!(tree.len(), live.len());
    }
}
