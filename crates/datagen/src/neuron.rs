//! Synthetic neuron morphology generator.
//!
//! Substitute for the Blue Brain dataset described in the paper's appendix
//! ("500'000 neurons in space, each modeled with thousands of cylinders").
//! Real morphologies are trees of tapering cylinder segments radiating from
//! a soma; the index experiments only depend on the resulting *spatial
//! statistics* — dense clusters of short, thin, elongated elements with
//! heavily overlapping bounding boxes. We grow each neuron as a set of
//! branching random walks ("neurites") from a soma position and emit one
//! capsule per walk step.

use crate::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simspatial_geom::{Aabb, Capsule, Point3, Shape, Sphere, Vec3};

/// Builder for a synthetic neuron dataset.
///
/// ```
/// use simspatial_datagen::NeuronDatasetBuilder;
/// let d = NeuronDatasetBuilder::new().neurons(5).segments_per_neuron(100).seed(7).build();
/// assert_eq!(d.len(), 5 * (100 + 1)); // segments + 1 soma each
/// ```
#[derive(Debug, Clone)]
pub struct NeuronDatasetBuilder {
    neurons: usize,
    segments_per_neuron: usize,
    universe_side: f32,
    segment_length: f32,
    segment_radius: f32,
    branch_probability: f32,
    soma_radius: f32,
    seed: u64,
}

impl Default for NeuronDatasetBuilder {
    fn default() -> Self {
        Self {
            neurons: 100,
            segments_per_neuron: 1000,
            // Side chosen so the default 100k-element build matches the
            // paper's density regime (its 285 µm³ microcircuit volume scaled
            // to the element count; see `simspatial_bench::datasets`).
            universe_side: 100.0,
            segment_length: 1.0,
            segment_radius: 0.1,
            branch_probability: 0.05,
            soma_radius: 1.0,
            seed: 0xBB_0123,
        }
    }
}

impl NeuronDatasetBuilder {
    /// A builder with the defaults documented on each setter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of neurons (default 100).
    pub fn neurons(mut self, n: usize) -> Self {
        self.neurons = n;
        self
    }

    /// Cylinder segments grown per neuron (default 1000; the paper's
    /// morphologies have "thousands").
    pub fn segments_per_neuron(mut self, n: usize) -> Self {
        self.segments_per_neuron = n;
        self
    }

    /// Edge length of the cubic universe in µm (default 100).
    pub fn universe_side(mut self, side: f32) -> Self {
        assert!(side > 0.0, "universe side must be positive");
        self.universe_side = side;
        self
    }

    /// Mean neurite segment length in µm (default 1.0).
    pub fn segment_length(mut self, len: f32) -> Self {
        assert!(len > 0.0, "segment length must be positive");
        self.segment_length = len;
        self
    }

    /// Capsule radius in µm (default 0.1 — thin neurites).
    pub fn segment_radius(mut self, r: f32) -> Self {
        assert!(r > 0.0, "segment radius must be positive");
        self.segment_radius = r;
        self
    }

    /// Probability that a growth step spawns a new branch (default 0.05).
    pub fn branch_probability(mut self, p: f32) -> Self {
        assert!((0.0..=1.0).contains(&p), "branch probability in [0,1]");
        self.branch_probability = p;
        self
    }

    /// RNG seed (default fixed; same seed ⇒ identical dataset).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Grows the dataset. Elements are emitted neuron by neuron: one soma
    /// sphere followed by that neuron's capsule segments, so consecutive ids
    /// are spatially correlated (as in morphology files).
    pub fn build(&self) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let universe = Aabb::new(
            Point3::ORIGIN,
            Point3::new(self.universe_side, self.universe_side, self.universe_side),
        );
        let mut shapes = Vec::with_capacity(self.neurons * (self.segments_per_neuron + 1));

        for _ in 0..self.neurons {
            let soma = Point3::new(
                rng.gen_range(0.0..self.universe_side),
                rng.gen_range(0.0..self.universe_side),
                rng.gen_range(0.0..self.universe_side),
            );
            shapes.push(Shape::Sphere(Sphere::new(soma, self.soma_radius)));
            self.grow_neurites(&mut rng, soma, &universe, &mut shapes);
        }
        Dataset::from_shapes(shapes, universe)
    }

    /// Grows branching random walks until the segment budget is exhausted.
    fn grow_neurites(
        &self,
        rng: &mut SmallRng,
        soma: Point3,
        universe: &Aabb,
        out: &mut Vec<Shape>,
    ) {
        // Active growth cones: (tip position, direction).
        let initial_branches = 4;
        let mut cones: Vec<(Point3, Vec3)> = (0..initial_branches)
            .map(|_| (soma, random_unit(rng)))
            .collect();
        let mut remaining = self.segments_per_neuron;

        while remaining > 0 {
            let i = rng.gen_range(0..cones.len());
            let (tip, dir) = cones[i];
            // Tortuosity: jitter the direction, renormalise.
            let jitter = random_unit(rng) * 0.4;
            let new_dir = (dir + jitter).normalized().unwrap_or(dir);
            let len = self.segment_length * rng.gen_range(0.5..1.5);
            let mut new_tip = tip + new_dir * len;
            // Keep inside the universe: reflect the offending coordinates.
            for axis in 0..3 {
                let lo = universe.min.axis(axis) + self.segment_radius;
                let hi = universe.max.axis(axis) - self.segment_radius;
                let v = new_tip.axis_mut(axis);
                if *v < lo {
                    *v = lo + (lo - *v).min(hi - lo);
                } else if *v > hi {
                    *v = hi - (*v - hi).min(hi - lo);
                }
            }
            // Taper: radius shrinks with distance from the soma.
            let dist = soma.distance(&new_tip);
            let radius = (self.segment_radius * (1.0 - dist / (4.0 * self.universe_side)))
                .max(self.segment_radius * 0.25);
            out.push(Shape::Capsule(Capsule::new(tip, new_tip, radius)));
            remaining -= 1;

            cones[i] = (new_tip, new_tip - tip);
            if rng.gen::<f32>() < self.branch_probability {
                cones.push((new_tip, random_unit(rng)));
            }
        }
    }
}

/// A uniformly distributed unit vector (Marsaglia rejection method).
fn random_unit(rng: &mut SmallRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        );
        let l2 = v.length2();
        if l2 > 1e-4 && l2 <= 1.0 {
            return v / l2.sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_geom::Shape;

    #[test]
    fn deterministic_for_same_seed() {
        let a = NeuronDatasetBuilder::new()
            .neurons(3)
            .segments_per_neuron(50)
            .seed(1)
            .build();
        let b = NeuronDatasetBuilder::new()
            .neurons(3)
            .segments_per_neuron(50)
            .seed(1)
            .build();
        assert_eq!(a.elements(), b.elements());
        let c = NeuronDatasetBuilder::new()
            .neurons(3)
            .segments_per_neuron(50)
            .seed(2)
            .build();
        assert_ne!(a.elements(), c.elements());
    }

    #[test]
    fn element_count_and_composition() {
        let d = NeuronDatasetBuilder::new()
            .neurons(4)
            .segments_per_neuron(25)
            .seed(3)
            .build();
        assert_eq!(d.len(), 4 * 26);
        let somas = d
            .elements()
            .iter()
            .filter(|e| matches!(e.shape, Shape::Sphere(_)))
            .count();
        let segments = d
            .elements()
            .iter()
            .filter(|e| matches!(e.shape, Shape::Capsule(_)))
            .count();
        assert_eq!(somas, 4);
        assert_eq!(segments, 100);
    }

    #[test]
    fn all_elements_inside_universe() {
        let d = NeuronDatasetBuilder::new()
            .neurons(5)
            .segments_per_neuron(200)
            .universe_side(30.0)
            .seed(9)
            .build();
        // Allow the capsule radius + soma radius as slack at the walls.
        let slack = 1.5;
        let u = d.universe().inflate(slack);
        for e in d.elements() {
            assert!(
                u.contains(&e.aabb()),
                "element {} escapes universe: {:?}",
                e.id,
                e.aabb()
            );
        }
    }

    #[test]
    fn segments_are_connected_walks() {
        // Consecutive capsules of a neuron share endpoints often enough that
        // the data is clustered: the mean nearest-consecutive distance must
        // be far below the universe side.
        let d = NeuronDatasetBuilder::new()
            .neurons(2)
            .segments_per_neuron(100)
            .seed(5)
            .build();
        let caps: Vec<_> = d
            .elements()
            .iter()
            .filter_map(|e| match e.shape {
                Shape::Capsule(c) => Some(c),
                _ => None,
            })
            .collect();
        let mean_len: f32 = caps.iter().map(|c| c.axis_length()).sum::<f32>() / caps.len() as f32;
        assert!(
            mean_len < 2.0,
            "segments should be short, got mean {mean_len}"
        );
    }

    #[test]
    fn clustering_is_present() {
        // Neuron data must be far more clustered than uniform: measure the
        // fraction of elements within one soma's reach of their neuron seed.
        let d = NeuronDatasetBuilder::new()
            .neurons(3)
            .segments_per_neuron(300)
            .universe_side(200.0)
            .seed(11)
            .build();
        let bounds = d.bounds();
        // Three neurons of ~segment_length*sqrt(steps) extent in a 200-side
        // cube: the occupied volume must be a small fraction of the universe.
        let occupied: f32 = d.elements().iter().map(|e| e.aabb().volume()).sum();
        assert!(
            occupied < bounds.volume(),
            "elements should not tile the space"
        );
    }
}
