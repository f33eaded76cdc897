//! Differential tests for the indexes migrated onto the SoA batch kernel:
//! the batched/sink paths must answer exactly what the ground truth answers
//! on random *and* degenerate datasets.
//!
//! Paths under test:
//! * `MultiGrid` and `CrTree` range queries against the `LinearScan` id
//!   sets;
//! * `UniformGrid` kNN against `LinearScan::knn`, list for list (kNN is a
//!   total `(distance, id)` order);
//! * KD-Tree / linear scan sink paths against the scan ground truth.

use simspatial::prelude::*;

fn sorted(mut v: Vec<ElementId>) -> Vec<ElementId> {
    v.sort_unstable();
    v
}

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

/// Degenerate datasets: empty, a single point, all elements coincident,
/// and a line of touching spheres.
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

fn queries() -> Vec<Aabb> {
    let mut qs: Vec<Aabb> = (0..12)
        .map(|i| {
            let c = Point3::new((i * 7) as f32, (i * 6) as f32, (i * 5) as f32);
            Aabb::new(c, Point3::new(c.x + 13.0, c.y + 9.0, c.z + 11.0))
        })
        .collect();
    // Degenerate queries: a point box and an everything box.
    qs.push(Aabb::from_point(Point3::new(5.0, 5.0, 5.0)));
    qs.push(Aabb::new(
        Point3::new(-1e4, -1e4, -1e4),
        Point3::new(1e4, 1e4, 1e4),
    ));
    qs
}

fn all_datasets() -> Vec<Vec<Element>> {
    let mut sets = degenerate_sets();
    sets.push(mixed(2500, 0));
    sets.push(mixed(900, 0xBEEF));
    sets
}

#[test]
fn multigrid_batched_equals_scan() {
    for data in all_datasets() {
        let mg = MultiGrid::build(&data, MultiGridConfig::auto(&data));
        let scan = LinearScan::build(&data);
        for q in queries() {
            let a = sorted(mg.range(&data, &q));
            let b = sorted(scan.range(&data, &q));
            assert_eq!(a, b, "multigrid diverged on {q:?} (n={})", data.len());
        }
    }
}

#[test]
fn crtree_batched_equals_scan() {
    for data in all_datasets() {
        let cr = CrTree::build(&data, CrTreeConfig::default());
        let scan = LinearScan::build(&data);
        for q in queries() {
            let a = sorted(cr.range(&data, &q));
            let b = sorted(scan.range(&data, &q));
            assert_eq!(a, b, "crtree diverged on {q:?} (n={})", data.len());
        }
    }
}

#[test]
fn grid_batched_knn_equals_scan() {
    for data in all_datasets() {
        let scan = LinearScan::build(&data);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let cfg = GridConfig::with_cell_side(GridConfig::auto(&data).cell_side, placement);
            let grid = UniformGrid::build(&data, cfg);
            for i in 0..8 {
                let p = Point3::new((i * 13) as f32, (i * 11) as f32, (i * 7) as f32);
                for k in [1usize, 6] {
                    let a = grid.knn(&data, &p, k);
                    let b = scan.knn(&data, &p, k);
                    assert_eq!(
                        a,
                        b,
                        "grid knn diverged at {p:?} k={k} {placement:?} (n={})",
                        data.len()
                    );
                }
            }
        }
    }
}

#[test]
fn kdtree_and_scan_sink_paths_match_ground_truth() {
    for data in all_datasets() {
        let kd = KdTree::build(&data);
        let scan = LinearScan::build(&data);
        let mut engine = QueryEngine::new();
        let mut results = BatchResults::new();
        let qs = queries();
        engine.range_collect(&kd, &data, &qs, &mut results);
        for (qi, q) in qs.iter().enumerate() {
            let truth = sorted(scan.range(&data, q));
            assert_eq!(
                sorted(results.query_results(qi).to_vec()),
                truth,
                "kdtree sink path diverged on {q:?} (n={})",
                data.len()
            );
        }
        // The scan's one-pass batched plan against its own sequential path.
        engine.range_collect(&scan, &data, &qs, &mut results);
        for (qi, q) in qs.iter().enumerate() {
            assert_eq!(
                sorted(results.query_results(qi).to_vec()),
                sorted(scan.range(&data, q)),
                "scan one-pass plan diverged on {q:?} (n={})",
                data.len()
            );
        }
    }
}

/// Every shape kind, degenerate ones included: zero-radius spheres,
/// zero-length and zero-radius capsules, point boxes and flat boxes.
fn shaped(n: u32, seed: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(2654435761);
            let c = Point3::new(
                (h % 499) as f32 / 10.0,
                ((h >> 9) % 499) as f32 / 10.0,
                ((h >> 18) % 499) as f32 / 10.0,
            );
            let r = (h >> 27) as f32 * 0.1;
            let far = Point3::new(c.x + r, c.y - 0.5, c.z + 2.0 * r);
            let shape = match i % 7 {
                0 => Shape::Sphere(Sphere::new(c, r)),
                1 => Shape::Sphere(Sphere::new(c, 0.0)),
                2 => Shape::Capsule(Capsule::new(c, far, 0.2)),
                3 => Shape::Capsule(Capsule::new(c, c, 0.4)),
                4 => Shape::Capsule(Capsule::new(c, far, 0.0)),
                5 => Shape::Box(Aabb::from_point(c)),
                _ => Shape::Box(Aabb::new(c, Point3::new(c.x + r, c.y + 1.0, c.z))),
            };
            Element::new(i, shape)
        })
        .collect()
}

/// Tiny deterministic generator for the churn below.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }

    fn offset(&mut self) -> Vec3 {
        let mut step = || (self.below(2001) as f32 - 1000.0) / 100.0;
        Vec3::new(step(), step(), step())
    }
}

/// The filter-then-refine reply, in order: the bbox candidates of the
/// grid's walk, kept where the exact test passes.
fn filter_then_refine(grid: &UniformGrid, data: &[Element], q: &Aabb) -> Vec<ElementId> {
    let mut ids = grid.range_bbox_candidates(q);
    ids.retain(|&id| data[id as usize].shape.intersects_aabb(q));
    ids
}

/// The fixed queries plus, per dataset, a box equal to an element's box, a
/// box sharing that element's faces, an inverted box and the empty box.
fn order_queries(data: &[Element], rng: &mut Lcg) -> Vec<Aabb> {
    let mut qs = queries();
    qs.push(Aabb {
        min: Point3::new(9.0, 9.0, 9.0),
        max: Point3::new(1.0, 1.0, 1.0),
    });
    qs.push(Aabb::empty());
    for _ in 0..4 {
        if data.is_empty() {
            break;
        }
        let b = data[rng.below(data.len())].aabb();
        qs.push(b);
        qs.push(Aabb::new(
            Point3::new(b.max.x, b.min.y, b.min.z),
            Point3::new(b.max.x + 3.0, b.max.y, b.max.z),
        ));
        qs.push(Aabb::new(
            Point3::new(b.min.x - 2.0, b.min.y - 2.0, b.max.z),
            Point3::new(b.max.x + 2.0, b.max.y + 2.0, b.max.z + 1.0),
        ));
    }
    qs
}

fn assert_range_in_order(grid: &UniformGrid, data: &[Element], rng: &mut Lcg, what: &str) {
    for q in order_queries(data, rng) {
        assert_eq!(
            grid.range(data, &q),
            filter_then_refine(grid, data, &q),
            "{what}: {:?} grid reply diverged on {q:?} (n={})",
            grid.placement(),
            data.len()
        );
    }
}

/// `range_into` (the sure-hit walk) answers exactly what the bbox filter
/// followed by the exact refine answers, in the same order — on a built
/// grid and after seeded update / insert / remove / splice churn.
#[test]
fn grid_range_equals_filter_then_refine_in_order() {
    let mut sets = all_datasets();
    sets.push(shaped(700, 3));
    for (s, start) in sets.into_iter().enumerate() {
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let mut rng = Lcg(s as u64 * 2 + (placement == GridPlacement::Center) as u64);
            let cfg = GridConfig::with_cell_side(GridConfig::auto(&start).cell_side, placement);
            let mut grid = UniformGrid::build(&start, cfg);
            let mut data = start.clone();
            assert_range_in_order(&grid, &data, &mut rng, "built");
            let mut gone = vec![false; data.len()];
            for round in 0..3 {
                for _ in 0..data.len() / 4 + 4 {
                    let live: Vec<usize> = (0..data.len()).filter(|&i| !gone[i]).collect();
                    match rng.below(4) {
                        0 | 1 if !live.is_empty() => {
                            let i = live[rng.below(live.len())];
                            let mut moved = data[i].clone();
                            moved.shape.translate(rng.offset());
                            grid.update(&data[i], &moved);
                            data[i] = moved;
                        }
                        2 if !live.is_empty() => {
                            let i = live[rng.below(live.len())];
                            assert!(grid.remove(i as ElementId, &data[i]));
                            gone[i] = true;
                        }
                        _ => {
                            let mut e = shaped(7, rng.below(1 << 20) as u32)[rng.below(7)].clone();
                            e.id = data.len() as ElementId;
                            e.shape.translate(rng.offset());
                            grid.insert(&e);
                            data.push(e);
                            gone.push(false);
                        }
                    }
                }
                assert_range_in_order(&grid, &data, &mut rng, "churned");
                // Splice: drop the removed ids and a few more, renumber the
                // survivors densely, append two arrivals.
                let mut removed = Vec::new();
                let mut remap = Vec::with_capacity(data.len());
                let mut kept = Vec::new();
                for (i, e) in data.iter().enumerate() {
                    remap.push(kept.len() as ElementId);
                    if gone[i] {
                        continue;
                    }
                    if rng.below(9) == 0 {
                        removed.push(e.clone());
                    } else {
                        kept.push(Element::new(kept.len() as ElementId, e.shape));
                    }
                }
                let inserted: Vec<Element> = (0..2)
                    .map(|k| {
                        let mut e = shaped(7, round as u32)[k * 3 + 1].clone();
                        e.id = (kept.len() + k) as ElementId;
                        e
                    })
                    .collect();
                assert!(grid.splice(&removed, &remap, &inserted));
                kept.extend(inserted);
                data = kept;
                gone = vec![false; data.len()];
                assert_range_in_order(&grid, &data, &mut rng, "spliced");
            }
        }
    }
}
