//! A3 — ablation: cell sizing of the small-cell grid join.
//!
//! §4.3: "If, in addition, the size of the grid cells is chosen very small,
//! then pairs of elements do not need to be tested for intersection ... A
//! grid cell size considerably smaller than the elements, however, may also
//! lead to excessive replication. In this case, elements may not be
//! assigned to all intersecting cells, but elements in neighboring cells
//! need to be compared with each other to limit replication."
//!
//! This sweep scales the cell side around the element-scale default and
//! measures join time and element tests — exposing the valley the paper
//! describes between too-fine (huge neighbourhoods) and too-coarse
//! (PBSM-like dense cells).

use crate::datasets::neuron_dataset;
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_geom::stats;
use simspatial_join::{self_join_small_cell_with_factor, JoinConfig};

/// One cell-factor's outcome.
#[derive(Debug, Clone, Copy)]
pub struct CellRow {
    /// Cell side as a multiple of the element-scale default.
    pub factor: f32,
    /// Join seconds.
    pub total_s: f64,
    /// Element-level tests.
    pub element_tests: u64,
    /// Result pairs (identical across factors).
    pub pairs: usize,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<CellRow> {
    let data = neuron_dataset(scale);
    let config = JoinConfig::within(0.3);
    let mut rows = Vec::new();
    for factor in [0.25f32, 0.5, 1.0, 2.0, 4.0, 8.0] {
        stats::reset();
        let (pairs, total_s) =
            time(|| self_join_small_cell_with_factor(data.elements(), &config, factor));
        rows.push(CellRow {
            factor,
            total_s,
            element_tests: stats::snapshot().element_tests,
            pairs: pairs.len(),
        });
    }
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new("A3", "ablation — small-cell join cell sizing (§4.3)");
    r.paper(
        "very small cells avoid per-pair tests but cost replication/neighbourhoods; \
             a valley sits near the element scale",
    );
    r.row(&format!(
        "{:<10} {:>12} {:>16} {:>10}",
        "factor", "time", "element tests", "pairs"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<10} {:>12} {:>16} {:>10}",
            row.factor,
            fmt_time(row.total_s),
            row.element_tests,
            row.pairs
        ));
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
        .unwrap();
    r.measured(&format!(
        "best cell factor ≈ {} (element scale = 1.0)",
        best.factor
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_agree_across_factors() {
        let rows = measure(Scale::Small);
        let first = rows[0].pairs;
        for row in &rows {
            assert_eq!(row.pairs, first, "factor {} changed the answer", row.factor);
        }
    }

    #[test]
    fn element_scale_is_near_the_valley() {
        let rows = measure(Scale::Small);
        let at = |f: f32| rows.iter().find(|r| (r.factor - f).abs() < 1e-6).unwrap();
        // Coarse cells degenerate into PBSM-like dense cells: the extreme
        // must pay more per-pair element tests than the element scale.
        let (mid, coarse) = (at(1.0).element_tests, at(8.0).element_tests);
        assert!(
            coarse > mid,
            "coarse cells ran {coarse} element tests, element scale {mid}"
        );
    }
}
