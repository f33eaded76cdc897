//! # simspatial-geom
//!
//! Three-dimensional geometry primitives and *instrumented* spatial
//! predicates for the `simspatial` workspace, a reproduction of
//! *"Spatial Data Management Challenges in the Simulation Sciences"*
//! (Heinis, Tauheed, Ailamaki — EDBT 2014).
//!
//! The paper's Figure 3 breaks the in-memory query cost of an R-Tree down
//! into *tree-level* intersection tests (navigating inner nodes),
//! *element-level* intersection tests (testing actual data against the query)
//! and remaining computation. To regenerate that figure, every predicate in
//! this crate can be executed through the counting wrappers in [`stats`],
//! which attribute each test to one of those categories on a per-thread
//! basis.
//!
//! ## Contents
//!
//! * [`Point3`] / [`Vec3`] — positions and displacements (`f32`, the
//!   precision simulation codes store their state in).
//! * [`Aabb`] — axis-aligned bounding boxes, the lingua franca of every
//!   index in the workspace.
//! * [`Sphere`], [`Capsule`] — the element geometries of the synthetic
//!   neuroscience dataset (neuron morphologies are modelled as capsule
//!   segment soups, following the Blue Brain data the paper describes).
//! * [`Shape`] — a closed enum over the element geometries.
//! * [`predicates`] — distance / intersection tests shared by the indexes.
//! * [`soa`] — the **batch geometry kernel**: [`SoaAabbs`], a structure-of-
//!   arrays candidate store with branch-free batched intersection /
//!   containment / distance kernels (the §3.3 scan-friendly layout).
//! * [`scratch`] — reusable per-thread query buffers ([`QueryScratch`]) and
//!   the generation-stamped [`scratch::VisitedTable`], making the repeat
//!   query path allocation-free.
//! * [`simd`] — the name of the one kernel path (`SimdLevel::Scalar`),
//!   kept only for the benchmark's `host` line.
//! * [`parallel`] — slice-parallel build helpers over scoped threads.
//! * [`stats`] — thread-local instrumentation counters.
//!
//! ## Example
//!
//! ```
//! use simspatial_geom::{Aabb, Point3, stats};
//!
//! let query = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
//! let node = Aabb::new(Point3::new(0.5, 0.5, 0.5), Point3::new(2.0, 2.0, 2.0));
//!
//! stats::reset();
//! assert!(stats::tree_test(|| query.intersects(&node)));
//! assert_eq!(stats::snapshot().tree_tests, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod capsule;
pub mod parallel;
mod point;
pub mod predicates;
pub mod scratch;
mod shape;
pub mod simd;
pub mod soa;
mod sphere;
pub mod stats;

pub use aabb::Aabb;
pub use capsule::Capsule;
pub use point::{Point3, Vec3};
pub use scratch::{with_scratch, QueryScratch};
pub use shape::Shape;
pub use soa::{SoaAabbs, SoaView};
pub use sphere::Sphere;

/// Identifier for a spatial element within a dataset.
///
/// Indexes throughout the workspace store `(ElementId, Aabb)` entries and
/// resolve exact geometry through the dataset when refinement is required.
pub type ElementId = u32;

/// A spatial element: an identifier plus its exact geometry.
///
/// This is the unit stored in datasets produced by `simspatial-datagen` and
/// indexed by every structure in `simspatial-index`.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Stable identifier of the element within its dataset.
    pub id: ElementId,
    /// Exact geometry of the element.
    pub shape: Shape,
}

impl Element {
    /// Creates an element from an id and a shape.
    #[inline]
    pub fn new(id: ElementId, shape: Shape) -> Self {
        Self { id, shape }
    }

    /// The tight axis-aligned bounding box of the element.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        self.shape.aabb()
    }

    /// Representative point of the element (centroid), used by point-based
    /// access methods (KD-Tree, LSH) and by grid assignment policies that
    /// place an element in the single cell containing its centre.
    #[inline]
    pub fn center(&self) -> Point3 {
        self.shape.center()
    }

    /// Translates the element by `d`, preserving its extent.
    #[inline]
    pub fn translate(&mut self, d: Vec3) {
        self.shape.translate(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_roundtrip() {
        let mut e = Element::new(
            7,
            Shape::Sphere(Sphere::new(Point3::new(1.0, 2.0, 3.0), 0.5)),
        );
        assert_eq!(e.id, 7);
        assert_eq!(e.center(), Point3::new(1.0, 2.0, 3.0));
        e.translate(Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(e.center(), Point3::new(2.0, 2.0, 3.0));
        let bb = e.aabb();
        assert_eq!(bb.min, Point3::new(1.5, 1.5, 2.5));
        assert_eq!(bb.max, Point3::new(2.5, 2.5, 3.5));
    }
}
