//! # simspatial-datagen
//!
//! Synthetic dataset and workload generators standing in for the proprietary
//! data the paper experiments on.
//!
//! The paper's appendix describes its dataset as "a neuroscience dataset
//! representing 500'000 neurons in space (each modeled with thousands of
//! cylinders)" — Blue Brain Project data we cannot ship. Following the
//! reproduction brief's substitution rule, this crate grows *statistically
//! comparable* data from scratch:
//!
//! * [`NeuronDatasetBuilder`] — branched neuron morphologies as capsule
//!   (cylinder) segment soups: a soma sphere plus stochastically branching
//!   neurite random walks. The result has the two properties the paper's
//!   experiments actually depend on: heavy spatial clustering and elongated
//!   elements whose bounding boxes overlap.
//! * [`ElementSoupBuilder`] — uniform or Gaussian-clustered element soups,
//!   the neutral backdrop for index micro-benchmarks.
//! * [`PlasticityModel`] — per-step displacement streams calibrated to §4.1
//!   of the paper: *every* element moves each step, the mean displacement is
//!   0.04 µm and fewer than 0.5 % of elements move more than 0.1 µm.
//! * [`QueryWorkload`] — range-query and kNN workloads at controlled
//!   selectivity ("200 queries with a selectivity of 5×10⁻⁴ % at random
//!   locations").
//!
//! All generators are seeded and fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod neuron;
mod plasticity;
mod queries;
mod soup;

pub use dataset::Dataset;
pub use neuron::NeuronDatasetBuilder;
pub use plasticity::{
    DisplacementStats, PlasticityModel, PAPER_MEAN_STEP_UM, PAPER_TAIL_FRACTION,
    PAPER_TAIL_THRESHOLD_UM,
};
pub use queries::{QueryWorkload, PAPER_SELECTIVITY};
pub use soup::{ClusteredConfig, ElementSoupBuilder, SizeDistribution};
