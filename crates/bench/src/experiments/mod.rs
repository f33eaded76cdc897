//! The thirteen experiments and three ablations, one module each. Every
//! `run(scale)` returns a printable [`crate::report::Report`] body comparing
//! the paper's claim to the measured result.

pub mod a01_bulkload;
pub mod a02_node_size;
pub mod a03_join_cells;
pub mod e01_fig2;
pub mod e02_fig3;
pub mod e03_fig4;
pub mod e04_update_vs_rebuild;
pub mod e05_plasticity_stats;
pub mod e06_crtree;
pub mod e07_grid_resolution;
pub mod e08_knn;
pub mod e09_massive_updates;
pub mod e10_spatial_join;
pub mod e11_moving_objects;
pub mod e12_mesh_queries;
pub mod e13_scan_crossover;

use crate::Scale;
use std::time::Instant;

/// Times a closure, returning its result and elapsed seconds.
pub(crate) fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Every experiment in print order (13 paper experiments + 3 ablations):
/// its `--exp` id and the one-line summary the `figures` usage text prints.
pub const ALL: [(&str, &str); 16] = [
    ("e1", "Figure 2 (disk vs memory breakdown)"),
    ("e2", "Figure 3 (in-memory breakdown)"),
    ("e3", "Figure 4 (partitioning waste)"),
    ("e4", "update vs rebuild crossover"),
    ("e5", "plasticity statistics"),
    ("e6", "CR-Tree vs R-Tree"),
    ("e7", "grid resolution sweep"),
    ("e8", "kNN structures incl. LSH"),
    ("e9", "strategies under massive updates"),
    ("e10", "spatial self-join"),
    ("e11", "maintenance/query shift"),
    ("e12", "mesh connectivity queries"),
    ("e13", "index vs scan amortisation"),
    ("a1", "ablation: bulk loading (STR/Hilbert/Morton)"),
    ("a2", "ablation: node size"),
    ("a3", "ablation: small-cell join cell sizing"),
];

/// Runs one experiment by id; `None` for an id not in [`ALL`]. `shards` > 1
/// additionally runs the engine-driven experiments (e2/e6/e7/e13) through a
/// region-sharded [`simspatial_index::ShardedEngine`] with that many
/// shards; the other experiments ignore it.
pub fn run(id: &str, scale: Scale, shards: usize) -> Option<String> {
    Some(match id {
        "e1" => e01_fig2::run(scale),
        "e2" => e02_fig3::run(scale, shards),
        "e3" => e03_fig4::run(scale),
        "e4" => e04_update_vs_rebuild::run(scale),
        "e5" => e05_plasticity_stats::run(scale),
        "e6" => e06_crtree::run(scale, shards),
        "e7" => e07_grid_resolution::run(scale, shards),
        "e8" => e08_knn::run(scale),
        "e9" => e09_massive_updates::run(scale),
        "e10" => e10_spatial_join::run(scale),
        "e11" => e11_moving_objects::run(scale),
        "e12" => e12_mesh_queries::run(scale),
        "e13" => e13_scan_crossover::run(scale, shards),
        "a1" => a01_bulkload::run(scale),
        "a2" => a02_node_size::run(scale),
        "a3" => a03_join_cells::run(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99", Scale::Small, 1).is_none());
    }
}
