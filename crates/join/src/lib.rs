//! # simspatial-join
//!
//! In-memory spatial **self-join** algorithms for the workloads of §2.2 of
//! the paper — above all synapse detection: "wherever two neurons are within
//! a given distance of each other, they will form a synapse" — and the
//! intersection detection that n-body style simulations run every step.
//!
//! The paper's analysis (§3.2/§4.3):
//!
//! * the **nested loop** join is quadratic — unusable beyond toy sizes;
//! * the **sweep line** "does not ensure that only spatially close objects
//!   are compared" (it prunes one dimension only);
//! * disk-descended index joins drag in update-hostile structures; TOUCH
//!   \[21\] showed hierarchical **data-oriented partitioning** wins in memory
//!   but "depends on a costly data-oriented partitioning & indexing step";
//! * **grids** are the research direction: "only objects in grid cells need
//!   to be compared with each other"; with cells smaller than the smallest
//!   element, same-cell pairs intersect "by definition", at the price of
//!   replication — which neighbouring-cell comparison limits.
//!
//! All five are here, behind one entry point ([`self_join`]) returning
//! identical, canonicalised pair sets, so the benchmark harness (experiment
//! E10) measures nothing but the algorithmic difference.
//!
//! ```
//! use simspatial_datagen::ElementSoupBuilder;
//! use simspatial_join::{self_join, JoinAlgorithm, JoinConfig};
//!
//! let data = ElementSoupBuilder::new().count(500).seed(1).build();
//! let config = JoinConfig::within(1.0);
//! let truth = self_join(data.elements(), &config, JoinAlgorithm::NestedLoop);
//! let fast = self_join(data.elements(), &config, JoinAlgorithm::PbsmGrid);
//! assert_eq!(truth, fast);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nested;
mod pairwise;
mod pbsm;
mod smallcell;
mod sweep;
mod treejoin;

use simspatial_geom::{Element, ElementId};

pub use pairwise::{join_pair, PairAlgorithm};

/// Distance threshold of a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Two elements join when their exact geometries are within `eps`
    /// (`eps == 0` degenerates to an intersection join).
    pub eps: f32,
}

impl JoinConfig {
    /// An intersection self-join (collision detection).
    pub fn intersecting() -> Self {
        Self { eps: 0.0 }
    }

    /// A within-distance self-join (synapse detection).
    pub fn within(eps: f32) -> Self {
        assert!(eps >= 0.0 && eps.is_finite(), "eps must be non-negative");
        Self { eps }
    }
}

/// The join algorithms under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// O(n²) nested loop — ground truth and the paper's lower bar.
    NestedLoop,
    /// Plane sweep along x.
    PlaneSweep,
    /// Partition-Based Spatial-Merge \[23\]: replicated grid cells, pairs
    /// deduplicated by the reference-point rule.
    PbsmGrid,
    /// Synchronized hierarchical traversal of an STR-packed R-Tree — the
    /// data-oriented partitioning family TOUCH \[21\] descends from.
    TreeJoin,
    /// Center-placed fine grid with neighbour-cell comparison (§4.3's
    /// research direction).
    SmallCellGrid,
}

impl JoinAlgorithm {
    /// All algorithms, in presentation order.
    pub const ALL: [JoinAlgorithm; 5] = [
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::PlaneSweep,
        JoinAlgorithm::PbsmGrid,
        JoinAlgorithm::TreeJoin,
        JoinAlgorithm::SmallCellGrid,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            JoinAlgorithm::NestedLoop => "NestedLoop",
            JoinAlgorithm::PlaneSweep => "PlaneSweep",
            JoinAlgorithm::PbsmGrid => "PBSM-Grid",
            JoinAlgorithm::TreeJoin => "TreeJoin",
            JoinAlgorithm::SmallCellGrid => "SmallCellGrid",
        }
    }
}

/// Runs the spatial self-join: every unordered pair `(a, b)`, `a < b`, whose
/// exact geometries lie within `config.eps`. The result is sorted and
/// duplicate-free regardless of algorithm, so outputs compare bit-for-bit.
pub fn self_join(
    data: &[Element],
    config: &JoinConfig,
    algorithm: JoinAlgorithm,
) -> Vec<(ElementId, ElementId)> {
    let mut pairs = match algorithm {
        JoinAlgorithm::NestedLoop => nested::join(data, config.eps),
        JoinAlgorithm::PlaneSweep => sweep::join(data, config.eps),
        JoinAlgorithm::PbsmGrid => pbsm::join(data, config.eps),
        JoinAlgorithm::TreeJoin => treejoin::join(data, config.eps),
        JoinAlgorithm::SmallCellGrid => smallcell::join(data, config.eps),
    };
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The small-cell grid join with an explicit cell-size factor (1.0 = the
/// element-scale default). Exposed for the A3 cell-sizing ablation; the
/// result is canonicalised like [`self_join`]'s.
pub fn self_join_small_cell_with_factor(
    data: &[Element],
    config: &JoinConfig,
    cell_factor: f32,
) -> Vec<(ElementId, ElementId)> {
    let mut pairs = smallcell::join_with_cell_factor(data, config.eps, cell_factor);
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Canonicalises a pair as `(min, max)`.
#[inline]
pub(crate) fn canonical(a: ElementId, b: ElementId) -> (ElementId, ElementId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_datagen::{ClusteredConfig, ElementSoupBuilder, NeuronDatasetBuilder};

    fn assert_all_agree(data: &[Element], eps: f32) {
        let config = JoinConfig::within(eps);
        let truth = self_join(data, &config, JoinAlgorithm::NestedLoop);
        for algo in [
            JoinAlgorithm::PlaneSweep,
            JoinAlgorithm::PbsmGrid,
            JoinAlgorithm::TreeJoin,
            JoinAlgorithm::SmallCellGrid,
        ] {
            let got = self_join(data, &config, algo);
            assert_eq!(
                got,
                truth,
                "{} diverges from nested loop (eps={eps})",
                algo.name()
            );
        }
    }

    #[test]
    fn uniform_data_all_algorithms_agree() {
        let d = ElementSoupBuilder::new()
            .count(600)
            .universe_side(40.0)
            .seed(11)
            .build();
        assert_all_agree(d.elements(), 0.0);
        assert_all_agree(d.elements(), 0.8);
    }

    #[test]
    fn clustered_data_all_algorithms_agree() {
        let d = ElementSoupBuilder::new()
            .count(500)
            .universe_side(40.0)
            .clustered(ClusteredConfig {
                clusters: 5,
                sigma: 1.5,
            })
            .seed(12)
            .build();
        assert_all_agree(d.elements(), 0.5);
    }

    #[test]
    fn neuron_data_all_algorithms_agree() {
        let d = NeuronDatasetBuilder::new()
            .neurons(6)
            .segments_per_neuron(60)
            .universe_side(25.0)
            .seed(13)
            .build();
        assert_all_agree(d.elements(), 0.3);
    }

    #[test]
    fn empty_and_single() {
        let config = JoinConfig::intersecting();
        for algo in JoinAlgorithm::ALL {
            assert!(self_join(&[], &config, algo).is_empty(), "{}", algo.name());
        }
        let d = ElementSoupBuilder::new().count(1).seed(1).build();
        for algo in JoinAlgorithm::ALL {
            assert!(self_join(d.elements(), &config, algo).is_empty());
        }
    }

    #[test]
    fn pairs_are_canonical() {
        let d = ElementSoupBuilder::new()
            .count(300)
            .universe_side(20.0)
            .seed(5)
            .build();
        let pairs = self_join(
            d.elements(),
            &JoinConfig::within(1.0),
            JoinAlgorithm::PbsmGrid,
        );
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            assert!(a < b);
        }
        for w in pairs.windows(2) {
            assert!(w[0] < w[1], "sorted, no duplicates");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_eps_rejected() {
        JoinConfig::within(-1.0);
    }
}
