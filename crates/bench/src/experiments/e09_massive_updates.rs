//! E9 — §4.3: strategies under massive minimal movement.
//!
//! Paper: "using grids will considerably lower the overhead of updates.
//! Clearly the small movement means that only few elements switch grid cell
//! in every step, thereby requiring few updates to the data structure."
//! The conclusion's design point: "a spatial index that executes spatial
//! queries and the spatial join faster than without index, but at the same
//! time is faster to update or rebuild."
//!
//! Reproduction: every update strategy drives the same paper-calibrated
//! plasticity run (100 monitoring queries per step); per-step maintenance
//! and query time are reported, plus the structural-update fraction.

use crate::datasets::neuron_dataset;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_geom::stats;
use simspatial_moving::UpdateStrategyKind;
use simspatial_sim::{PlasticityWorkload, Simulation, SimulationConfig};

/// Per-strategy outcome, averaged per step.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Strategy name.
    pub name: &'static str,
    /// Mean maintenance seconds per step.
    pub maintain_s: f64,
    /// Mean monitoring seconds per step.
    pub monitor_s: f64,
    /// Mean total per step (update phase excluded — identical across rows).
    pub total_s: f64,
    /// Fraction of elements needing structural work per step.
    pub touch_fraction: f64,
    /// Mean exact element tests per step, maintenance and monitoring
    /// together (a scan has no filter, so every query tests everything).
    pub element_tests: f64,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<StrategyRow> {
    let steps = match scale {
        Scale::Small => 3,
        _ => 5,
    };
    let mut rows = Vec::new();
    for kind in UpdateStrategyKind::ALL {
        let data = neuron_dataset(scale);
        let n = data.len() as f64;
        let mut sim = Simulation::new(
            data,
            Box::new(PlasticityWorkload::paper_calibrated(0xE9)),
            SimulationConfig {
                strategy: kind,
                monitor_queries_per_step: 100,
                monitor_selectivity: 1e-4,
                seed: 0xE9,
            },
        );
        stats::reset();
        let reports = sim.run(steps);
        let element_tests = stats::snapshot().element_tests as f64 / steps as f64;
        let maintain_s = reports.iter().map(|r| r.maintain_s).sum::<f64>() / steps as f64;
        let monitor_s = reports.iter().map(|r| r.monitor_s).sum::<f64>() / steps as f64;
        let touched = reports
            .iter()
            .map(|r| r.cost.structural_updates)
            .sum::<u64>() as f64
            / steps as f64;
        rows.push(StrategyRow {
            name: kind.name(),
            maintain_s,
            monitor_s,
            total_s: maintain_s + monitor_s,
            touch_fraction: touched / n,
            element_tests,
        });
    }
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new(
        "E9",
        "§4.3 — update strategies under massive minimal movement",
    );
    r.paper("grids: few cell switches per step; per-entry R-Tree updates and rebuilds pay full n");
    r.row(&format!(
        "{:<20} {:>12} {:>12} {:>12} {:>10}",
        "strategy", "maintain/st", "monitor/st", "total/st", "touched"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<20} {:>12} {:>12} {:>12} {:>9.2} %",
            row.name,
            fmt_time(row.maintain_s),
            fmt_time(row.monitor_s),
            fmt_time(row.total_s),
            row.touch_fraction * 100.0
        ));
    }
    let grid = rows.iter().find(|r| r.name == "Grid/migrate").unwrap();
    let reinsert = rows.iter().find(|r| r.name == "RTree/reinsert").unwrap();
    r.measured(&format!(
        "grid migration maintenance is {:.0}× cheaper than per-entry R-Tree updates",
        reinsert.maintain_s / grid.maintain_s.max(f64::MIN_POSITIVE)
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_migration_beats_reinsert_on_maintenance() {
        let rows = measure(Scale::Small);
        let grid = rows.iter().find(|r| r.name == "Grid/migrate").unwrap();
        let reinsert = rows.iter().find(|r| r.name == "RTree/reinsert").unwrap();
        assert!(
            grid.touch_fraction < reinsert.touch_fraction,
            "grid touches {} of the elements a step, reinsert {}",
            grid.touch_fraction,
            reinsert.touch_fraction
        );
        // The §4.3 claim: only a few elements switch cells.
        assert!(
            grid.touch_fraction < 0.25,
            "touch fraction {}",
            grid.touch_fraction
        );
    }

    #[test]
    fn scan_pays_at_query_time_instead() {
        let rows = measure(Scale::Small);
        let scan = rows.iter().find(|r| r.name == "LinearScan").unwrap();
        let grid = rows.iter().find(|r| r.name == "Grid/migrate").unwrap();
        assert!(
            scan.element_tests > grid.element_tests,
            "scan must pay per query: {} element tests a step vs the grid's {}",
            scan.element_tests,
            grid.element_tests
        );
    }
}
