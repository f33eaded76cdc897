//! E11 — §4.2: moving-object mechanisms shift cost from maintenance to
//! queries.
//!
//! Paper: grace windows "reduce maintenance overhead, \[but\] overhead is
//! shifted to query execution ... every element has to be checked to see if
//! it is indeed in the query"; buffering likewise makes "buffer and index
//! \[be\] searched for every query"; and "completely rebuilding indexes
//! quickly becomes more efficient than these update mechanisms as well."
//!
//! Reproduction: sweep the grace margin and the buffer flush threshold
//! under the plasticity run; report maintenance vs query seconds per step
//! next to the plain rebuild — the shift is the two columns trading places.

use crate::datasets::neuron_dataset;
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_datagen::PlasticityModel;
use simspatial_datagen::QueryWorkload;
use simspatial_geom::stats;
use simspatial_moving::{
    BufferedRTree, LazyGraceWindow, RTreeDiscipline, RTreeStrategy, UpdateStrategy,
};

/// One contender's per-step averages.
#[derive(Debug, Clone)]
pub struct ShiftRow {
    /// Label (includes the swept parameter).
    pub name: String,
    /// Mean maintenance seconds per step.
    pub maintain_s: f64,
    /// Mean structural updates per step (escapes reinserted, entries
    /// flushed) — the maintenance the mechanism could not avoid.
    pub structural: u64,
    /// Mean query seconds per step (100 queries).
    pub query_s: f64,
    /// Mean element tests per step during queries (the shifted burden).
    pub query_tests: u64,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<ShiftRow> {
    let steps = match scale {
        Scale::Small => 3,
        _ => 5,
    };
    let data = neuron_dataset(scale);

    let contenders: Vec<(String, Box<dyn UpdateStrategy>)> = vec![
        (
            "grace margin 0.05".into(),
            Box::new(LazyGraceWindow::with_margin(data.elements(), 0.05)),
        ),
        (
            "grace margin 0.5".into(),
            Box::new(LazyGraceWindow::with_margin(data.elements(), 0.5)),
        ),
        (
            "grace margin 2.0".into(),
            Box::new(LazyGraceWindow::with_margin(data.elements(), 2.0)),
        ),
        (
            "buffer flush 1%".into(),
            Box::new(BufferedRTree::with_flush_fraction(data.elements(), 0.01)),
        ),
        (
            "buffer flush 50%".into(),
            Box::new(BufferedRTree::with_flush_fraction(data.elements(), 0.5)),
        ),
        (
            "rebuild".into(),
            Box::new(RTreeStrategy::build(
                data.elements(),
                RTreeDiscipline::Rebuild,
            )),
        ),
    ];

    let mut rows = Vec::new();
    for (name, mut strategy) in contenders {
        // Fresh movement per contender, identical seed ⇒ identical steps.
        let mut cur = data.clone();
        let mut model = PlasticityModel::with_sigma(0.08, 0xE11);
        let mut queries = QueryWorkload::new(data.universe(), 0xE11);
        let mut maintain_acc = 0.0;
        let mut structural_acc = 0u64;
        let mut query_acc = 0.0;
        let mut tests_acc = 0u64;
        for _ in 0..steps {
            let old = cur.elements().to_vec();
            for (id, d) in model.sample_step(cur.len()).iter().enumerate() {
                cur.displace(id as u32, *d);
            }
            let (cost, t) = time(|| strategy.apply_step(&old, cur.elements()));
            maintain_acc += t;
            structural_acc += cost.structural;

            stats::reset();
            let (_, tq) = time(|| {
                let mut acc = 0usize;
                for _ in 0..100 {
                    let q = queries.range_query(1e-4);
                    acc += strategy.range(cur.elements(), &q).len();
                }
                std::hint::black_box(acc)
            });
            query_acc += tq;
            tests_acc += stats::snapshot().element_tests;
        }
        rows.push(ShiftRow {
            name,
            maintain_s: maintain_acc / steps as f64,
            structural: structural_acc / steps as u64,
            query_s: query_acc / steps as f64,
            query_tests: tests_acc / steps as u64,
        });
    }
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new("E11", "§4.2 — the maintenance ↔ query cost shift");
    r.paper("grace windows & buffering cut maintenance but inflate query work; rebuild overtakes");
    r.row(&format!(
        "{:<20} {:>13} {:>12} {:>14}",
        "mechanism", "maintain/st", "query/st", "query tests"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<20} {:>13} {:>12} {:>14}",
            row.name,
            fmt_time(row.maintain_s),
            fmt_time(row.query_s),
            row.query_tests
        ));
    }
    r.note("wider windows / rarer flushes: maintenance column falls, query column rises");
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_grace_windows_shift_cost_to_queries() {
        let rows = measure(Scale::Small);
        let narrow = rows.iter().find(|r| r.name == "grace margin 0.05").unwrap();
        let wide = rows.iter().find(|r| r.name == "grace margin 2.0").unwrap();
        assert!(
            wide.structural < narrow.structural,
            "wide window must cut maintenance: {} vs {} structural updates a step",
            wide.structural,
            narrow.structural
        );
        assert!(
            wide.query_tests > narrow.query_tests,
            "wide window must inflate query tests: {} vs {}",
            wide.query_tests,
            narrow.query_tests
        );
    }
}
