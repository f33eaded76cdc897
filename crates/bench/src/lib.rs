//! # simspatial-bench
//!
//! The experiment harness that regenerates **every figure and quantitative
//! claim** of *"Spatial Data Management Challenges in the Simulation
//! Sciences"* (EDBT 2014). Each experiment is a function in
//! [`experiments`]; the `figures` binary runs them and prints paper-vs-
//! measured tables. Performance regressions are not tracked here: that is
//! the job of the contract benchmark under `benchmark/` (`BENCHMARK.json`).
//!
//! | Experiment | Paper artifact |
//! |-----------|----------------|
//! | E1 | Figure 2 — R-Tree query cost breakdown, disk vs memory |
//! | E2 | Figure 3 — in-memory breakdown (tree vs element tests) |
//! | E3 | Figure 4 — unnecessary tests of data-oriented partitioning |
//! | E4 | §4.1 — update vs rebuild, 38 % crossover |
//! | E5 | §4.1 — plasticity displacement statistics |
//! | E6 | §3.2 — CR-Tree ≈ 2× R-Tree |
//! | E7 | §3.3 — grid resolution & multi-resolution grids |
//! | E8 | §3.3 — LSH for low-dimensional kNN |
//! | E9 | §4.3 — strategies under massive minimal movement |
//! | E10 | §2.2/§4.3 — spatial self-join algorithms |
//! | E11 | §4.2 — maintenance↔query cost shift of moving-object schemes |
//! | E12 | §4.3 — DLS/OCTOPUS connectivity queries under deformation |
//! | E13 | §4.1 — index vs linear scan amortisation crossover |
//!
//! Scales are laptop-sized (10⁵–10⁶ elements) versions of the paper's
//! 200 M-element runs; the *shapes* (ratios, percentages, crossovers) are
//! the reproduction target.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod report;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment — used by tests and CI.
    Small,
    /// The default for the `figures` binary (a few minutes total).
    Medium,
    /// Closer to the paper's regime (long).
    Large,
}

impl Scale {
    /// Base element count for dataset-driven experiments.
    ///
    /// `Small` shrinks further in debug builds so `cargo test --workspace`
    /// stays snappy; the timing *relationships* the tests assert (disk ≫
    /// memory, rebuild < update-all, grid < reinsert, …) hold at any size.
    pub fn elements(self) -> usize {
        match self {
            Scale::Small => {
                if cfg!(debug_assertions) {
                    5_000
                } else {
                    20_000
                }
            }
            Scale::Medium => 200_000,
            Scale::Large => 2_000_000,
        }
    }

    /// Number of queries per batch (the paper uses 200).
    pub fn queries(self) -> usize {
        match self {
            Scale::Small => 50,
            Scale::Medium | Scale::Large => 200,
        }
    }
}
