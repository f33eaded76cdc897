//! Differential coverage for the batch-first kNN side (`knn_into` +
//! `KnnSink`) and the region-sharded engine.
//!
//! * Every exact [`KnnIndex`] implementation must return results identical
//!   to [`LinearScan`]'s ground truth — selected and ordered under the
//!   ascending `(distance, id)` contract — on random and degenerate
//!   inputs (duplicate points, `k = 0`, `k > n`, empty dataset), and on
//!   lattice soups whose distances tie in real arithmetic and differ by an
//!   ulp in f32. LSH is approximate and is diffed against its own seed
//!   oracle in `crates/index/src/lsh.rs`
//!   (`lsh::tests::deferred_scoring_equals_seed_reference`) instead.
//! * `knn_batch_into` ≡ looped `knn_into` ≡ legacy `knn()` for every
//!   implementation.
//! * [`ShardedEngine`] with K ∈ {1, 2, 4, 8} shards must return result
//!   sets byte-identical (after sort) to a single [`QueryEngine`] over the
//!   same index type, for both `range_batch` and `knn_batch_into` — kNN
//!   probes on the shard cut planes included, whose nearest neighbours are
//!   replicas.

use simspatial::prelude::*;
use simspatial_geom::QueryScratch;
use std::collections::BTreeMap;

/// Mixed-size random soup: mostly small spheres plus some large ones.
fn mixed(n: u32, seed: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(2654435761);
            let x = (h % 997) as f32 / 10.0;
            let y = ((h >> 10) % 997) as f32 / 10.0;
            let z = ((h >> 20) % 997) as f32 / 10.0;
            let r = if i % 31 == 0 { 5.0 } else { 0.3 };
            Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
        })
        .collect()
}

/// Degenerate datasets: empty, a single point, all elements coincident
/// (distance ties resolved by id), and a line of touching spheres.
fn degenerate_sets() -> Vec<Vec<Element>> {
    let coincident: Vec<Element> = (0..64)
        .map(|i| {
            Element::new(
                i,
                Shape::Sphere(Sphere::new(Point3::new(5.0, 5.0, 5.0), 0.25)),
            )
        })
        .collect();
    let line: Vec<Element> = (0..40)
        .map(|i| {
            Element::new(
                i,
                Shape::Sphere(Sphere::new(Point3::new(i as f32 * 0.5, 0.0, 0.0), 0.25)),
            )
        })
        .collect();
    vec![
        Vec::new(),
        vec![Element::new(
            0,
            Shape::Sphere(Sphere::new(Point3::ORIGIN, 0.0)),
        )],
        coincident,
        line,
    ]
}

fn all_datasets() -> Vec<Vec<Element>> {
    let mut sets = degenerate_sets();
    sets.push(mixed(2000, 0));
    sets.push(mixed(700, 0xF00D));
    sets
}

fn probe_points() -> Vec<Point3> {
    let mut pts: Vec<Point3> = (0..8)
        .map(|i| Point3::new((i * 13) as f32, (i * 11) as f32, (i * 7) as f32))
        .collect();
    pts.push(Point3::new(5.0, 5.0, 5.0)); // on the coincident cluster
    pts.push(Point3::new(-100.0, -100.0, -100.0)); // far outside
    pts
}

/// ks covering the degenerate corners: 0, 1, mid, and k > n for the small
/// datasets.
const KS: [usize; 4] = [0, 1, 6, 100];

/// Diffs one implementation's `knn_into` against the scan ground truth and
/// checks batch ≡ looped ≡ legacy.
fn check_knn_impl<I: KnnIndex>(name: &str, index: &I, data: &[Element]) {
    let scan = LinearScan::build(data);
    let points = probe_points();
    let mut scratch = QueryScratch::default();
    let mut engine = QueryEngine::new();
    let mut batched = KnnBatchResults::new();
    for &k in &KS {
        engine.knn_collect(index, data, &points, k, &mut batched);
        assert_eq!(batched.len(), points.len(), "{name}: probe count");
        for (qi, p) in points.iter().enumerate() {
            let truth = scan.knn(data, p, k);
            let mut looped: Vec<(ElementId, f32)> = Vec::new();
            index.knn_into(data, p, k, &mut scratch, &mut looped);
            let legacy = index.knn(data, p, k);

            assert_eq!(
                looped,
                truth,
                "{name}: knn_into diverged from scan at {p:?} k={k} (n={})",
                data.len()
            );
            assert_eq!(legacy, looped, "{name}: legacy knn != knn_into");
            assert_eq!(
                batched.query_results(qi),
                looped.as_slice(),
                "{name}: knn_batch_into != looped knn_into at probe {qi} k={k}"
            );
            if k == 0 {
                assert!(truth.is_empty(), "k=0 must return nothing");
            } else {
                assert_eq!(truth.len(), k.min(data.len()), "{name}: result count");
            }
        }
    }
}

#[test]
fn every_exact_impl_matches_scan() {
    for data in all_datasets() {
        check_knn_impl("LinearScan", &LinearScan::build(&data), &data);
        check_knn_impl("KD-Tree", &KdTree::build(&data), &data);
        check_knn_impl(
            "Octree",
            &Octree::build(&data, OctreeConfig::default()),
            &data,
        );
        check_knn_impl(
            "R-Tree",
            &RTree::bulk_load(&data, RTreeConfig::default()),
            &data,
        );
        check_knn_impl(
            "CR-Tree",
            &CrTree::build(&data, CrTreeConfig::default()),
            &data,
        );
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let cfg = GridConfig::with_cell_side(GridConfig::auto(&data).cell_side, placement);
            check_knn_impl("Grid", &UniformGrid::build(&data, cfg), &data);
        }
        check_knn_impl(
            "MultiGrid",
            &MultiGrid::build(&data, MultiGridConfig::auto(&data)),
            &data,
        );
    }
}

#[test]
fn lsh_batch_equals_looped_and_legacy() {
    // LSH is approximate, so no scan diff — but its batch, looped and
    // legacy paths must agree with each other.
    for data in all_datasets() {
        let lsh = Lsh::build(&data, LshConfig::auto(&data));
        let points = probe_points();
        let mut scratch = QueryScratch::default();
        let mut engine = QueryEngine::new();
        let mut batched = KnnBatchResults::new();
        for k in [0usize, 1, 7, 100] {
            engine.knn_collect(&lsh, &data, &points, k, &mut batched);
            for (qi, p) in points.iter().enumerate() {
                let mut looped: Vec<(ElementId, f32)> = Vec::new();
                lsh.knn_into(&data, p, k, &mut scratch, &mut looped);
                assert_eq!(lsh.knn(&data, p, k), looped, "legacy != looped k={k}");
                assert_eq!(batched.query_results(qi), looped.as_slice(), "batch k={k}");
            }
        }
    }
}

fn queries() -> Vec<Aabb> {
    let mut qs: Vec<Aabb> = (0..10)
        .map(|i| {
            let c = Point3::new((i * 9) as f32, (i * 7) as f32, (i * 5) as f32);
            Aabb::new(c, Point3::new(c.x + 15.0, c.y + 11.0, c.z + 9.0))
        })
        .collect();
    qs.push(Aabb::from_point(Point3::new(5.0, 5.0, 5.0)));
    qs.push(Aabb::new(
        Point3::new(-1e4, -1e4, -1e4),
        Point3::new(1e4, 1e4, 1e4),
    ));
    qs
}

/// Probes on each interior cut plane of `router`: the elements nearest to
/// them straddle the cut, so every shard beside it answers with replicas.
fn cut_plane_probes(router: &ShardRouter) -> Vec<Point3> {
    let axis = router.axis();
    (1..router.shards())
        .map(|i| router.region(i).min.axis(axis))
        .filter(|c| c.is_finite())
        .flat_map(|c| {
            [(25.0, 25.0, 25.0), (50.0, 50.0, 50.0), (75.0, 40.0, 60.0)].map(|(x, y, z)| {
                let mut p = Point3::new(x, y, z);
                *p.axis_mut(axis) = c;
                p
            })
        })
        .collect()
}

/// Sharded K ∈ {1, 2, 4, 8} vs a single engine over the same index type:
/// byte-identical range result sets (after sort) and kNN lists, over the
/// probe points and the shard cut planes. Runs with either split mode —
/// uniform slabs or median cuts — since the merge contract is identical
/// for both.
fn check_sharded_split<I, B>(name: &str, data: &[Element], build: B, median: bool)
where
    I: SpatialIndex + KnnIndex + Send,
    B: Fn(&[Element]) -> I,
{
    let single = build(data);
    let mut engine = QueryEngine::new();
    let qs = queries();
    let mut want_range = BatchResults::new();
    engine.range_collect(&single, data, &qs, &mut want_range);
    for shards in [1usize, 2, 4, 8] {
        let mut sharded = if median {
            ShardedEngine::build_median(data, shards, &build)
        } else {
            ShardedEngine::build(data, shards, &build)
        };
        let mut points = probe_points();
        points.extend(cut_plane_probes(sharded.router()));
        let mut got_range = BatchResults::new();
        let stats = sharded.range_collect(&qs, &mut got_range);
        assert_eq!(stats.results as usize, got_range.total());
        for qi in 0..qs.len() {
            let mut a = got_range.query_results(qi).to_vec();
            let mut b = want_range.query_results(qi).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{name}: sharded range K={shards} query {qi}");
        }
        // k covers the degenerate corners too: 0 and k > n.
        for k in [0usize, 5, 100] {
            let mut want_knn = KnnBatchResults::new();
            engine.knn_collect(&single, data, &points, k, &mut want_knn);
            let mut got_knn = KnnBatchResults::new();
            sharded.knn_collect(&points, k, &mut got_knn);
            for qi in 0..points.len() {
                assert_eq!(
                    got_knn.query_results(qi),
                    want_knn.query_results(qi),
                    "{name}: sharded knn K={shards} k={k} probe {qi}"
                );
            }
        }
    }
}

fn check_sharded<I, B>(name: &str, data: &[Element], build: B)
where
    I: SpatialIndex + KnnIndex + Send,
    B: Fn(&[Element]) -> I,
{
    check_sharded_split(name, data, build, false);
}

#[test]
fn median_cut_sharding_matches_single_engine() {
    // Median-cut routing must preserve the byte-identical merge guarantee,
    // on both the uniform soups and the clustered dataset shape it targets
    // (datagen's Gaussian-cluster soup; shard-balance numbers for it live
    // in the knn_engine bench, and the router's balance property is unit-
    // tested in engine/sharded.rs).
    let mut sets = all_datasets();
    sets.push(
        ElementSoupBuilder::new()
            .count(1800)
            .clustered(ClusteredConfig {
                clusters: 3,
                sigma: 2.5,
            })
            .seed(0x11)
            .build()
            .elements()
            .to_vec(),
    );
    for data in sets {
        check_sharded_split(
            "Grid/median",
            &data,
            |part| UniformGrid::build(part, GridConfig::auto(part)),
            true,
        );
        check_sharded_split(
            "R-Tree/median",
            &data,
            |part| RTree::bulk_load(part, RTreeConfig::default()),
            true,
        );
        check_sharded_split("LinearScan/median", &data, LinearScan::build, true);
    }
}

#[test]
fn sharded_engine_matches_single_engine_across_indexes() {
    for data in all_datasets() {
        check_sharded("LinearScan", &data, LinearScan::build);
        check_sharded("Grid", &data, |part| {
            UniformGrid::build(part, GridConfig::auto(part))
        });
        check_sharded("Grid/replicate", &data, |part| {
            UniformGrid::build(
                part,
                GridConfig::with_cell_side(
                    GridConfig::auto(part).cell_side,
                    GridPlacement::Replicate,
                ),
            )
        });
        check_sharded("MultiGrid", &data, |part| {
            MultiGrid::build(part, MultiGridConfig::auto(part))
        });
        check_sharded("KD-Tree", &data, KdTree::build);
        check_sharded("Octree", &data, |part| {
            Octree::build(part, OctreeConfig::default())
        });
        check_sharded("R-Tree", &data, |part| {
            RTree::bulk_load(part, RTreeConfig::default())
        });
        check_sharded("CR-Tree", &data, |part| {
            CrTree::build(part, CrTreeConfig::default())
        });
    }
}

#[test]
fn sharded_range_handles_flat() {
    // FLAT only implements range queries; it depends on the dataset slice
    // for execution, which is exactly what per-shard re-identified clones
    // make safe.
    let data = mixed(1500, 0xAB);
    let single = Flat::build(&data, FlatConfig::auto(&data));
    let mut engine = QueryEngine::new();
    let qs = queries();
    let mut want = BatchResults::new();
    engine.range_collect(&single, &data, &qs, &mut want);
    for shards in [2usize, 4] {
        let mut sharded = ShardedEngine::build(&data, shards, |part| {
            Flat::build(part, FlatConfig::auto(part))
        });
        let mut got = BatchResults::new();
        sharded.range_collect(&qs, &mut got);
        for qi in 0..qs.len() {
            let mut a = got.query_results(qi).to_vec();
            let mut b = want.query_results(qi).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "flat sharded K={shards} query {qi}");
        }
    }
}

/// Elements moved up to 150 units past a grid's build region are filed in
/// its boundary cells (`UniformGrid::update` keeps the region as built), so
/// a kNN search that skips cells by their boxes must treat a boundary
/// cell as open on its outer faces. Probes at, around and between the
/// moved elements, outside the region and inside it, must match the scan.
#[test]
fn elements_moved_past_the_region_match_scan() {
    let data = mixed(2000, 0x5EED);
    let offsets = [150.0f32, -150.0, 120.0, -90.0];
    let updates: Vec<(ElementId, Shape)> = (0..40u32)
        .map(|i| {
            let id = i * 47 % 2000;
            let Shape::Sphere(s) = data[id as usize].shape else {
                unreachable!("mixed() builds spheres")
            };
            let mut c = s.center;
            *c.axis_mut(i as usize % 3) += offsets[i as usize % 4];
            (id, Shape::Sphere(Sphere::new(c, s.radius)))
        })
        .collect();
    let auto = GridConfig::auto(&data).cell_side;
    let mut center = UniformGrid::build(
        &data,
        GridConfig::with_cell_side(auto, GridPlacement::Center),
    );
    let mut replicate = UniformGrid::build(
        &data,
        GridConfig::with_cell_side(auto, GridPlacement::Replicate),
    );
    let mut moved = data.clone();
    assert!(center.update_in_place(&mut moved, &updates).is_some());
    for &(id, shape) in &updates {
        let old = &data[id as usize];
        replicate.update(old, &Element::new(id, shape));
    }
    let multi = MultiGrid::build(&moved, MultiGridConfig::auto(&moved));
    let scan = LinearScan::build(&moved);

    let mut probes = Vec::new();
    for &(id, _) in &updates {
        let c = moved[id as usize].aabb().center();
        for d in [-4.0f32, 0.0, 4.0] {
            probes.push(Point3::new(c.x + d, c.y - d, c.z + d * 0.5));
        }
        // Halfway back towards the region, and the region-side start.
        let home = data[id as usize].aabb().center();
        probes.push(c.lerp(&home, 0.5));
        probes.push(home);
    }
    for p in &probes {
        for k in [1usize, 6, 20] {
            let truth = scan.knn(&moved, p, k);
            assert_eq!(
                center.knn(&moved, p, k),
                truth,
                "center grid at {p:?} k={k}"
            );
            assert_eq!(
                replicate.knn(&moved, p, k),
                truth,
                "replicate grid at {p:?} k={k}"
            );
            assert_eq!(multi.knn(&moved, p, k), truth, "multigrid at {p:?} k={k}");
        }
    }
}

/// The grid's kNN pays for what it returns: on a fixed neuron soup at the
/// benchmark's density (≈ 0.05 elements/µm³), the exact surface distances
/// a k = 8 batch runs stay within 5 per result (3.07 with both pruning
/// levels, 15.5 when only spans of 8 or more entries were bounded).
/// Deterministic counters only, no timing.
#[test]
fn grid_knn_exact_distances_per_result_stay_bounded() {
    let neurons = 40;
    let n = neurons * 501;
    let dataset = NeuronDatasetBuilder::new()
        .neurons(neurons)
        .segments_per_neuron(500)
        .universe_side((n as f32 / 0.05).cbrt())
        .seed(7)
        .build();
    let data = dataset.elements();
    let grid = UniformGrid::build(data, GridConfig::auto(data));
    let probes = QueryWorkload::new(dataset.universe(), 7).knn_points(256);
    let mut out = KnnBatchResults::new();
    let stats = QueryEngine::new().knn_collect(&grid, data, &probes, 8, &mut out);
    assert_eq!(stats.results, 8 * 256);
    let ratio = stats.counts.exact_dists as f64 / stats.results as f64;
    assert!(ratio <= 5.0, "{ratio:.2} exact distances per kNN result");
}

/// Two points at the same f32 distance 1.0 from the probe: B straight
/// along x (squared distance exactly 1), A off-axis with a squared
/// distance one ulp above 1 that still rounds to distance 1. B (id 1) is
/// found first, in the probe's cell; A (id 0) sits in the next cell with
/// seven farther points, so its span runs the batched lower bound. A
/// prune against the bare k-th best squared drops A; the tie must go to
/// A, the smaller id, as in the scan.
#[test]
fn a_tie_lost_to_rounding_still_wins_by_id() {
    let p = Point3::new(2.3, 0.5, 0.5);
    let mut points = vec![
        Point3::new(3.299_997_8, 0.5021, 0.5),
        Point3::new(1.3, 0.5, 0.5),
        Point3::new(-10.0, -10.0, -10.0),
        Point3::new(10.0, 10.0, 10.0),
    ];
    points.extend((0..7).map(|i| Point3::new(4.5, 0.5 + 0.2 * i as f32, 0.5)));
    let data: Vec<Element> = (0..)
        .zip(points)
        .map(|(i, c)| Element::new(i, Shape::Sphere(Sphere::new(c, 0.0))))
        .collect();
    let truth = LinearScan::build(&data).knn(&data, &p, 1);
    assert_eq!(truth, vec![(0, 1.0)]);
    for placement in [GridPlacement::Center, GridPlacement::Replicate] {
        let grid = UniformGrid::build(&data, GridConfig::with_cell_side(2.5, placement));
        assert_eq!(grid.knn(&data, &p, 1), truth, "{placement:?}");
    }
    let multi = MultiGrid::build(&data, MultiGridConfig::auto(&data));
    assert_eq!(multi.knn(&data, &p, 1), truth);
}

/// A 64-bit LCG (MMIX constants): seeded soups without a dependency.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }

    /// A random site of the `sites`³ lattice of pitch `pitch` at the origin.
    fn site(&mut self, pitch: f32, sites: u32) -> Point3 {
        let mut c = || self.below(sites) as f32 * pitch;
        Point3::new(c(), c(), c())
    }
}

/// One reply list per probe from a sharded engine.
fn sharded_replies<I: SpatialIndex + KnnIndex + Send>(
    mut engine: ShardedEngine<I>,
    probes: &[Point3],
    k: usize,
) -> Vec<Vec<(ElementId, f32)>> {
    let mut out = KnnBatchResults::new();
    engine.knn_collect(probes, k, &mut out);
    (0..probes.len())
        .map(|qi| out.query_results(qi).to_vec())
        .collect()
}

/// Enough soups that a prune without a rounding allowance fails for the
/// R-Tree, the CR-Tree and the Octree alike.
const LATTICE_SOUPS: usize = 240;

/// Soups of 20–79 points or r = 0.35 spheres on a 6³ lattice of pitch 0.7,
/// probed from a lattice of pitch 0.35: many distances tie in real
/// arithmetic, and a lower bound and the exact distance it bounds then
/// round an ulp apart. Every exact index, and the sharded fan-out at
/// K ∈ {1, 2, 4} over the grid, the R-Tree and the served R-Tree strategy,
/// must return the scan's reply byte for byte, ties included. Counts the
/// differing replies per index and reports the first of each.
#[test]
fn lattice_soup_ties_match_scan() {
    let mut rng = Lcg(7);
    let mut diffs: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for soup in 0..LATTICE_SOUPS {
        let r = if rng.below(2) == 0 { 0.0 } else { 0.35 };
        let n = 20 + rng.below(60);
        let data: Vec<Element> = (0..n)
            .map(|i| Element::new(i, Shape::Sphere(Sphere::new(rng.site(0.7, 6), r))))
            .collect();
        let probes: Vec<Point3> = (0..8).map(|_| rng.site(0.35, 12)).collect();
        let k = 1 + rng.below(8) as usize;
        let replies = |index: &dyn KnnIndex| -> Vec<Vec<(ElementId, f32)>> {
            probes.iter().map(|p| index.knn(&data, p, k)).collect()
        };
        let truth = replies(&LinearScan::build(&data));
        let mut check = |name: String, got: Vec<Vec<(ElementId, f32)>>| {
            for (qi, (got, want)) in got.iter().zip(&truth).enumerate() {
                if got != want {
                    let p = probes[qi];
                    let first = || format!("soup {soup} at {p:?} k={k}: {got:?}, scan {want:?}");
                    diffs.entry(name.clone()).or_insert_with(|| (0, first())).0 += 1;
                }
            }
        };
        let auto = GridConfig::auto(&data).cell_side;
        check("KD-Tree".into(), replies(&KdTree::build(&data)));
        let octree = Octree::build(&data, OctreeConfig::default());
        check("Octree".into(), replies(&octree));
        let rtree = RTree::bulk_load(&data, RTreeConfig::default());
        check("R-Tree".into(), replies(&rtree));
        let crtree = CrTree::build(&data, CrTreeConfig::default());
        check("CR-Tree".into(), replies(&crtree));
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let grid = UniformGrid::build(&data, GridConfig::with_cell_side(auto, placement));
            check(format!("Grid/{placement:?}"), replies(&grid));
        }
        let multi = MultiGrid::build(&data, MultiGridConfig::auto(&data));
        check("MultiGrid".into(), replies(&multi));
        for shards in [1usize, 2, 4] {
            let grid = ShardedEngine::build(&data, shards, |part| {
                UniformGrid::build(part, GridConfig::auto(part))
            });
            check(
                format!("sharded Grid K={shards}"),
                sharded_replies(grid, &probes, k),
            );
            let rtree = ShardedEngine::build(&data, shards, |part| {
                RTree::bulk_load(part, RTreeConfig::default())
            });
            check(
                format!("sharded R-Tree K={shards}"),
                sharded_replies(rtree, &probes, k),
            );
            let strategy =
                sharded_strategy_engine(&data, shards, UpdateStrategyKind::RTreeBottomUp);
            check(
                format!("sharded RTreeBottomUp K={shards}"),
                sharded_replies(strategy, &probes, k),
            );
        }
    }
    assert!(
        diffs.is_empty(),
        "replies that differ from the scan, (count, first) per index: {diffs:#?}"
    );
}
