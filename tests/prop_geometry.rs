//! Property-based tests of the geometry substrate: the algebraic laws every
//! index in the workspace silently relies on, and the exact agreement of
//! the batched SoA kernels with the scalar predicates.

use proptest::prelude::*;
use simspatial::geom::soa::{mask_indices, SoaAabbs, MASK_LANES};
use simspatial::prelude::*;

fn arb_point() -> impl Strategy<Value = Point3> {
    (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0)
        .prop_map(|(x, y, z)| Point3::new(x, y, z))
}

fn arb_aabb() -> impl Strategy<Value = Aabb> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Aabb::new(a, b))
}

/// Coordinate `k` of a box, in `min.x, min.y, min.z, max.x, max.y, max.z`
/// order.
fn coord_mut(b: &mut Aabb, k: usize) -> &mut f32 {
    match k {
        0 => &mut b.min.x,
        1 => &mut b.min.y,
        2 => &mut b.min.z,
        3 => &mut b.max.x,
        4 => &mut b.max.y,
        _ => &mut b.max.z,
    }
}

/// Boxes for the batched-kernel properties: ordinary random boxes plus the
/// degenerate cases (point boxes, the empty box, flat boxes) that a lane
/// comparison could plausibly mishandle, and the non-finite ones that pin
/// the kernels' NaN discipline to the predicates' (`<=`/`>=` are false on
/// NaN, `f32::max` keeps the non-NaN operand).
fn arb_kernel_box() -> impl Strategy<Value = Aabb> {
    prop_oneof![
        4 => arb_aabb(),
        1 => arb_point().prop_map(Aabb::from_point),
        1 => (arb_point(), 0.0f32..5.0).prop_map(|(p, e)| {
            // Flat box: zero extent along one axis.
            Aabb::new(p, Point3::new(p.x + e, p.y, p.z + e))
        }),
        1 => (0u8..1).prop_map(|_| Aabb::empty()),
        2 => (arb_aabb(), 0usize..6, 0usize..6, 0usize..3, 0usize..3).prop_map(
            |(mut b, i, j, u, v)| {
                // One or two non-finite coordinates: NaN lanes, half-spaces,
                // slabs, boxes inverted at infinity.
                const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                *coord_mut(&mut b, i) = NON_FINITE[u];
                *coord_mut(&mut b, j) = NON_FINITE[v];
                b
            }
        ),
    ]
}

/// Stores of random length, and of the lengths around the 64-lane mask
/// word boundary (empty, one lane, one short of / exactly / one past a
/// word, two words and a lane).
fn arb_kernel_boxes() -> impl Strategy<Value = Vec<Aabb>> {
    let len = prop_oneof![
        2 => 1usize..200,
        1 => (0usize..6).prop_map(|i| [0, 1, 63, 64, 65, 129][i]),
    ];
    (prop::collection::vec(arb_kernel_box(), 199..200), len).prop_map(|(mut boxes, n)| {
        boxes.truncate(n);
        boxes
    })
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (arb_point(), 0.01f32..5.0).prop_map(|(c, r)| Shape::Sphere(Sphere::new(c, r))),
        (arb_point(), arb_point(), 0.01f32..2.0)
            .prop_map(|(a, b, r)| Shape::Capsule(Capsule::new(a, b, r))),
        arb_aabb().prop_map(Shape::Box),
    ]
}

/// Every shape kind plus the degenerate ones a sure-hit skip must still
/// get right: zero-radius spheres, zero-length and zero-radius capsules,
/// point boxes and flat boxes.
fn arb_shape_with_degenerates() -> impl Strategy<Value = Shape> {
    prop_oneof![
        3 => arb_shape(),
        1 => arb_point().prop_map(|c| Shape::Sphere(Sphere::new(c, 0.0))),
        1 => (arb_point(), 0.0f32..2.0).prop_map(|(c, r)| Shape::Capsule(Capsule::new(c, c, r))),
        1 => (arb_point(), arb_point()).prop_map(|(a, b)| Shape::Capsule(Capsule::new(a, b, 0.0))),
        1 => arb_point().prop_map(|p| Shape::Box(Aabb::from_point(p))),
        1 => (arb_point(), 0.0f32..5.0)
            .prop_map(|(p, e)| Shape::Box(Aabb::new(p, Point3::new(p.x + e, p.y + e, p.z)))),
    ]
}

proptest! {
    #[test]
    fn union_contains_both(a in arb_aabb(), b in arb_aabb()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
        // Union is commutative and idempotent.
        prop_assert_eq!(u, b.union(&a));
        prop_assert_eq!(u.union(&a), u);
    }

    #[test]
    fn intersection_is_contained_and_symmetric(a in arb_aabb(), b in arb_aabb()) {
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x, y);
                prop_assert!(a.contains(&x) && b.contains(&x));
                prop_assert!(a.intersects(&b));
            }
            (None, None) => prop_assert!(!a.intersects(&b)),
            _ => prop_assert!(false, "intersection asymmetric"),
        }
    }

    #[test]
    fn intersects_iff_shared_point(a in arb_aabb(), b in arb_aabb()) {
        // The center of the intersection is a witness point.
        if let Some(i) = a.intersection(&b) {
            let w = i.center();
            prop_assert!(a.contains_point(&w) && b.contains_point(&w));
        }
    }

    #[test]
    fn min_distance_is_a_lower_bound(b in arb_aabb(), p in arb_point(), q in arb_point()) {
        // For any point q inside b, dist(p, q) >= mindist(p, b).
        if b.contains_point(&q) {
            prop_assert!(p.distance2(&q) >= b.min_distance2(&p) - 1e-3);
        }
        prop_assert!(b.max_distance2(&p) >= b.min_distance2(&p) - 1e-3);
    }

    #[test]
    fn enlargement_is_nonnegative(a in arb_aabb(), b in arb_aabb()) {
        prop_assert!(a.enlargement(&b) >= -1e-2); // f32 slack
        prop_assert!(a.union(&b).volume() + 1e-2 >= a.volume().max(b.volume()));
    }

    #[test]
    fn inflate_preserves_containment(b in arb_aabb(), m in 0.0f32..10.0) {
        let g = b.inflate(m);
        prop_assert!(g.contains(&b));
        // A point in b stays in g after a move smaller than m (per axis).
        let c = b.center();
        prop_assert!(g.contains_point(&(c + Vec3::new(m * 0.57, -m * 0.57, m * 0.57))));
    }

    #[test]
    fn shape_bbox_is_sound(s in arb_shape(), q in arb_aabb()) {
        let bb = s.aabb();
        // Exact intersection implies bbox intersection (filter soundness).
        if s.intersects_aabb(&q) {
            prop_assert!(bb.intersects(&q), "bbox filter would lose a result: {s:?} {q:?}");
        }
        // The shape's centre is inside its bbox.
        prop_assert!(bb.contains_point(&s.center()));
    }

    #[test]
    fn shape_distance_consistent_with_intersection(a in arb_shape(), b in arb_shape()) {
        let d = a.distance_to_shape(&b);
        prop_assert!(d >= 0.0);
        if a.intersects_shape(&b) {
            prop_assert!(d <= 1e-3, "intersecting shapes must have ~zero distance, got {d}");
        }
        // Symmetry.
        prop_assert!((d - b.distance_to_shape(&a)).abs() <= 1e-3 + d * 1e-3);
    }

    #[test]
    fn translation_moves_distances_rigidly(s in arb_shape(), p in arb_point(),
                                           d in (-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0)) {
        let v = Vec3::new(d.0, d.1, d.2);
        let mut moved = s;
        moved.translate(v);
        let before = s.distance_to_point(&p);
        let after = moved.distance_to_point(&(p + v));
        prop_assert!((before - after).abs() < 1e-2 + before * 1e-3,
                     "distance not translation-invariant: {before} vs {after}");
    }

    #[test]
    fn soa_intersect_mask_equals_scalar(boxes in arb_kernel_boxes(), q in arb_kernel_box()) {
        let soa = {
            let mut s = SoaAabbs::new();
            for (i, b) in boxes.iter().enumerate() {
                s.push(*b, i as ElementId);
            }
            s
        };
        let mut mask = Vec::new();
        soa.intersect_mask(&q, &mut mask);
        prop_assert_eq!(mask.len(), boxes.len().div_ceil(MASK_LANES));
        for (i, b) in boxes.iter().enumerate() {
            let bit = mask[i / MASK_LANES] >> (i % MASK_LANES) & 1 == 1;
            prop_assert_eq!(bit, b.intersects(&q), "intersect lane {} on {:?} vs {:?}", i, b, q);
        }
        // No ghost bits past the end of the last word.
        if let Some(last) = mask.last() {
            let used = boxes.len() - (mask.len() - 1) * MASK_LANES;
            if used < MASK_LANES {
                prop_assert_eq!(last >> used, 0u64, "ghost bits beyond lane {}", used);
            }
        }
    }

    #[test]
    fn soa_contains_mask_equals_scalar(boxes in arb_kernel_boxes(), q in arb_kernel_box()) {
        let soa = {
            let mut s = SoaAabbs::new();
            for (i, b) in boxes.iter().enumerate() {
                s.push(*b, i as ElementId);
            }
            s
        };
        let mut mask = Vec::new();
        soa.contains_mask(&q, &mut mask);
        for (i, b) in boxes.iter().enumerate() {
            let bit = mask[i / MASK_LANES] >> (i % MASK_LANES) & 1 == 1;
            prop_assert_eq!(bit, q.contains(b), "contains lane {} on {:?} vs {:?}", i, b, q);
        }
    }

    #[test]
    fn soa_id_collection_equals_mask(boxes in arb_kernel_boxes(), q in arb_kernel_box(),
                                     start in 0usize..220) {
        let soa = {
            let mut s = SoaAabbs::new();
            for (i, b) in boxes.iter().enumerate() {
                s.push(*b, (i * 7) as ElementId); // non-dense ids
            }
            s
        };
        let mut mask = Vec::new();
        soa.intersect_mask(&q, &mut mask);
        let expect: Vec<ElementId> = mask_indices(&mask).map(|i| soa.id_at(i)).collect();
        let mut got = Vec::new();
        soa.intersect_into(&q, &mut got);
        prop_assert_eq!(&got, &expect);
        let mut partial = Vec::new();
        soa.intersect_from_into(start, &q, &mut partial);
        let expect_partial: Vec<(u32, ElementId)> = mask_indices(&mask)
            .filter(|&i| i >= start)
            .map(|i| (i as u32, soa.id_at(i)))
            .collect();
        prop_assert_eq!(partial, expect_partial);
    }

    #[test]
    fn soa_min_dist_equals_scalar(boxes in arb_kernel_boxes(), p in arb_point()) {
        let soa = {
            let mut s = SoaAabbs::new();
            for (i, b) in boxes.iter().enumerate() {
                s.push(*b, i as ElementId);
            }
            s
        };
        let mut dists = Vec::new();
        soa.min_dist2_into(&p, &mut dists);
        prop_assert_eq!(dists.len(), boxes.len());
        for (i, b) in boxes.iter().enumerate() {
            // Exact bit-for-bit agreement: same operations, same order.
            prop_assert_eq!(dists[i].to_bits(), b.min_distance2(&p).to_bits(),
                            "min_dist lane {}: {} vs {}", i, dists[i], b.min_distance2(&p));
        }
    }

    #[test]
    fn capsule_point_distance_matches_containment(c in (arb_point(), arb_point(), 0.01f32..2.0),
                                                  p in arb_point()) {
        let cap = Capsule::new(c.0, c.1, c.2);
        if cap.contains_point(&p) {
            prop_assert_eq!(cap.distance_to_point(&p), 0.0);
        } else {
            prop_assert!(cap.distance_to_point(&p) > 0.0);
        }
    }

    #[test]
    fn bbox_inside_query_implies_exact_hit(s in arb_shape_with_degenerates(), kind in 0usize..4,
                                           axis in 0usize..3, grow in 0.0f32..5.0,
                                           other in arb_aabb()) {
        let bb = s.aabb();
        let q = match kind {
            // Equal to the shape's box.
            0 => bb,
            // Grown along one axis only: shares five faces with the box.
            1 => {
                let mut q = bb;
                *coord_mut(&mut q, 3 + axis) += grow;
                q
            }
            // Strictly contains it.
            2 => bb.inflate(grow + 0.01),
            _ => other,
        };
        if q.contains(&bb) && bb.intersects(&q) {
            prop_assert!(s.intersects_aabb(&q), "sure hit that is not a hit: {s:?} {q:?}");
        }
    }
}
