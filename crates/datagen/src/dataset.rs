//! The in-memory dataset: the simulation state every index is built over.

use simspatial_geom::{Aabb, Element, ElementId, Point3, Shape, Vec3};

/// A spatial dataset: the elements of a simulation model plus the universe
/// they live in.
///
/// This is the paper's "spatial model ... stored in the main memory of the
/// simulation infrastructure" (§2.1). The simulation engine mutates elements
/// in place between steps; indexes reference elements by [`ElementId`] and
/// are refreshed by whichever update strategy is under evaluation.
#[derive(Debug, Clone)]
pub struct Dataset {
    elements: Vec<Element>,
    universe: Aabb,
}

impl Dataset {
    /// Wraps a vector of elements. Element ids must equal their position —
    /// the invariant every index in the workspace relies on for O(1) lookup.
    ///
    /// # Panics
    /// Panics if any element's id differs from its index, or if `universe`
    /// is empty while elements exist.
    pub fn new(elements: Vec<Element>, universe: Aabb) -> Self {
        for (i, e) in elements.iter().enumerate() {
            assert_eq!(e.id as usize, i, "element id {} at position {i}", e.id);
        }
        assert!(
            elements.is_empty() || !universe.is_empty(),
            "non-empty dataset needs a universe"
        );
        Self { elements, universe }
    }

    /// Builds a dataset from shapes, assigning sequential ids.
    pub fn from_shapes<I>(shapes: I, universe: Aabb) -> Self
    where
        I: IntoIterator<Item = simspatial_geom::Shape>,
    {
        let elements = shapes
            .into_iter()
            .enumerate()
            .map(|(i, s)| Element::new(ElementId::try_from(i).expect("dataset exceeds u32 ids"), s))
            .collect();
        Self::new(elements, universe)
    }

    /// The elements, id-ordered.
    #[inline]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access for the simulation update phase.
    #[inline]
    pub fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Element lookup by id.
    #[inline]
    pub fn get(&self, id: ElementId) -> &Element {
        &self.elements[id as usize]
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the dataset holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The universe bounding box the generator targeted.
    #[inline]
    pub fn universe(&self) -> Aabb {
        self.universe
    }

    /// Tight bounding box of the current element positions (recomputed).
    pub fn bounds(&self) -> Aabb {
        Aabb::union_all(self.elements.iter().map(Element::aabb))
    }

    /// The shape element `id` takes when moved by `d`, reflecting at the
    /// universe boundary so the density regime is preserved across
    /// simulation steps. Writes nothing: a step builds its `(id, shape)`
    /// write batch from these.
    pub fn displaced(&self, id: ElementId, d: Vec3) -> Shape {
        let mut shape = self.elements[id as usize].shape;
        let c = shape.center();
        shape.translate(clamp_reflect(c + d, c, &self.universe) - c);
        shape
    }

    /// One step's dense write batch: every element, in id order, with the
    /// shape `moves[id]` displaces it to ([`Dataset::displaced`]).
    pub fn displaced_batch(&self, moves: &[Vec3]) -> Vec<(ElementId, Shape)> {
        (0..)
            .zip(moves)
            .map(|(id, d)| (id, self.displaced(id, *d)))
            .collect()
    }

    /// Moves element `id` by `d` (see [`Dataset::displaced`]).
    pub fn displace(&mut self, id: ElementId, d: Vec3) {
        self.elements[id as usize].shape = self.displaced(id, d);
    }
}

/// Reflects a proposed position back into `universe`; if the proposal is
/// inside, it is returned unchanged. Falls back to the original position for
/// pathological displacements that remain outside after one reflection.
fn clamp_reflect(proposed: Point3, original: Point3, universe: &Aabb) -> Point3 {
    if universe.contains_point(&proposed) {
        return proposed;
    }
    let mut p = proposed;
    for axis in 0..3 {
        let lo = universe.min.axis(axis);
        let hi = universe.max.axis(axis);
        let v = p.axis_mut(axis);
        if *v < lo {
            *v = lo + (lo - *v);
        } else if *v > hi {
            *v = hi - (*v - hi);
        }
    }
    if universe.contains_point(&p) {
        p
    } else {
        original
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_geom::{Shape, Sphere};

    fn unit_universe() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::new(10.0, 10.0, 10.0))
    }

    fn sphere_dataset(centers: &[(f32, f32, f32)]) -> Dataset {
        Dataset::from_shapes(
            centers
                .iter()
                .map(|&(x, y, z)| Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.1))),
            unit_universe(),
        )
    }

    #[test]
    fn ids_are_positions() {
        let d = sphere_dataset(&[(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(1).center(), Point3::new(2.0, 2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "element id")]
    fn wrong_id_rejected() {
        let e = Element::new(5, Shape::Sphere(Sphere::new(Point3::ORIGIN, 1.0)));
        Dataset::new(vec![e], unit_universe());
    }

    #[test]
    fn displace_moves_and_reflects() {
        let mut d = sphere_dataset(&[(5.0, 5.0, 5.0)]);
        d.displace(0, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(d.get(0).center(), Point3::new(6.0, 5.0, 5.0));
        // Pushing past the wall reflects back inside.
        d.displace(0, Vec3::new(5.0, 0.0, 0.0));
        let c = d.get(0).center();
        assert!(d.universe().contains_point(&c));
        assert!((c.x - 9.0).abs() < 1e-6); // 6 + 5 = 11 → 10 - 1 = 9
    }

    #[test]
    fn bounds_track_movement() {
        let mut d = sphere_dataset(&[(5.0, 5.0, 5.0)]);
        let before = d.bounds();
        d.displace(0, Vec3::new(2.0, 0.0, 0.0));
        let after = d.bounds();
        assert!(after.center().x > before.center().x);
    }

    #[test]
    fn empty_dataset_ok() {
        let d = Dataset::new(vec![], Aabb::empty());
        assert!(d.is_empty());
        assert!(d.bounds().is_empty());
    }
}
