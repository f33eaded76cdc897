//! E4 — §4.1: update vs rebuild, and the 38 % crossover.
//!
//! Paper: "Updating all elements of this application in an R-Tree takes 130
//! seconds at every simulation step. Building the new R-Tree index from
//! scratch, on the other hand, only takes 48 seconds. For this experiment
//! updating only is faster than a rebuild if less than 38 % of the dataset
//! change in a time step."
//!
//! Reproduction: plasticity-displace a fraction f of the neuron dataset,
//! run (a) delete+reinsert of the moved entries against (b) a full STR
//! rebuild, sweep f, and find the crossover. The verdicts and the crossover
//! are **counted**: the inner nodes the updates descend through
//! (`nodes_visited`, one pointer chase each) plus the entry each update
//! rewrites, against the nodes the rebuild writes (each once, no descent)
//! plus the entry it places for every element, so they read the same on
//! every run. Each timing is the median of [`SAMPLES`] runs, each on a
//! fresh clone of the bulk-loaded tree, and is printed beside the counts,
//! with the crossover it implies, ungated: a few timed samples do not
//! outlast a shared host's drift.

use crate::datasets::neuron_dataset;
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_datagen::PlasticityModel;
use simspatial_geom::{stats, Element};
use simspatial_index::{RTree, RTreeConfig};

/// Timings taken per measurement.
pub const SAMPLES: usize = 5;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Fraction of the dataset updated.
    pub fraction: f64,
    /// Median seconds spent updating that fraction (delete + reinsert).
    pub update_s: f64,
    /// Inner nodes those updates descended through (one pointer chase
    /// each, finding the old entry and choosing the new leaf).
    pub nodes_visited: u64,
    /// Entries those updates rewrote: one per element whose box changed.
    pub entries_rewritten: u64,
}

impl SweepPoint {
    /// The counted cost of the updates: node visits plus entry rewrites.
    pub fn cost(&self) -> u64 {
        self.nodes_visited + self.entries_rewritten
    }
}

/// Full outcome of the sweep.
#[derive(Debug, Clone)]
pub struct UpdateVsRebuild {
    /// Sweep points at increasing fractions.
    pub points: Vec<SweepPoint>,
    /// Median seconds of one full STR rebuild.
    pub rebuild_s: f64,
    /// Nodes that rebuild wrote (each once, no descent).
    pub rebuild_nodes: u64,
    /// Entries that rebuild placed: one per element.
    pub rebuild_entries: u64,
    /// Interpolated fraction where the updates' counted cost reaches the
    /// rebuild's ([`SweepPoint::cost`], [`UpdateVsRebuild::rebuild_cost`]).
    pub crossover: Option<f64>,
    /// The same on the median timings — printed, never gated on.
    pub timed_crossover: Option<f64>,
}

impl UpdateVsRebuild {
    /// The counted cost of the rebuild: node writes plus entry placements.
    pub fn rebuild_cost(&self) -> u64 {
        self.rebuild_nodes + self.rebuild_entries
    }

    /// The verdict for one sweep point, on the counters: "update wins"
    /// while its updates cost less than the rebuild.
    pub fn verdict(&self, p: &SweepPoint) -> &'static str {
        if p.cost() < self.rebuild_cost() {
            "update wins"
        } else {
            "rebuild wins"
        }
    }
}

/// The first fraction where `cost` reaches `rebuild`, linearly
/// interpolated from the sweep point below it (from the origin before the
/// first: changing nothing costs nothing); `None` when the sweep never
/// gets there.
fn crossover(
    points: &[SweepPoint],
    rebuild: f64,
    cost: impl Fn(&SweepPoint) -> f64,
) -> Option<f64> {
    let mut below = (0.0, 0.0);
    for p in points {
        let at = (p.fraction, cost(p));
        if at.1 >= rebuild {
            return Some(below.0 + (rebuild - below.1) / (at.1 - below.1) * (at.0 - below.0));
        }
        below = at;
    }
    None
}

/// Runs `work` on [`SAMPLES`] fresh clones of `base`, timing each run.
/// Returns the last run's result and the median seconds.
fn sample<R>(base: &RTree, mut work: impl FnMut(&mut RTree) -> R) -> (R, f64) {
    let mut result = None;
    let mut secs: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut tree = base.clone();
            let (r, t) = time(|| work(&mut tree));
            result = Some(r);
            t
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (result.expect("SAMPLES > 0"), secs[SAMPLES / 2])
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> UpdateVsRebuild {
    let data = neuron_dataset(scale);
    let n = data.len();
    let base = RTree::bulk_load(data.elements(), RTreeConfig::default());

    // Displaced copy of every element (paper-calibrated movement, scaled up
    // so stored boxes actually change at f32 resolution).
    let mut model = PlasticityModel::with_sigma(0.1, 0x41);
    let moved: Vec<Element> = {
        let mut m = data.clone();
        for (i, d) in model.sample_step(n).iter().enumerate() {
            m.displace(i as u32, *d);
        }
        m.elements().to_vec()
    };

    let (rebuild_nodes, rebuild_s) = sample(&base, |t| {
        t.rebuild(&moved);
        t.node_count() as u64
    });

    let fractions = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
    let mut points = Vec::new();
    for &f in &fractions {
        let k = ((n as f64) * f) as usize;
        let old = data.elements();
        let ((nodes_visited, entries_rewritten), update_s) = sample(&base, |tree| {
            stats::reset();
            let mut rewritten = 0;
            for i in 0..k {
                let ob = old[i].aabb();
                let nb = moved[i].aabb();
                if ob != nb {
                    tree.update(old[i].id, &ob, nb);
                    rewritten += 1;
                }
            }
            (stats::snapshot().nodes_visited, rewritten)
        });
        points.push(SweepPoint {
            fraction: f,
            update_s,
            nodes_visited,
            entries_rewritten,
        });
    }

    let rebuild_entries = moved.len() as u64;
    UpdateVsRebuild {
        crossover: crossover(&points, (rebuild_nodes + rebuild_entries) as f64, |p| {
            p.cost() as f64
        }),
        timed_crossover: crossover(&points, rebuild_s, |p| p.update_s),
        points,
        rebuild_s,
        rebuild_nodes,
        rebuild_entries,
    }
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let o = measure(scale);
    let mut r = Report::new("E4", "§4.1 — update vs rebuild crossover");
    r.paper("update all: 130 s/step; STR rebuild: 48 s; update wins iff < 38 % change");
    r.measured(&format!(
        "full STR rebuild: writes {} nodes + places {} entries = {} counted, {}",
        o.rebuild_nodes,
        o.rebuild_entries,
        o.rebuild_cost(),
        fmt_time(o.rebuild_s)
    ));
    for p in &o.points {
        r.row(&format!(
            "f = {:>5.0} %: update visits {} nodes + rewrites {} entries = {} counted ({}), {}",
            p.fraction * 100.0,
            p.nodes_visited,
            p.entries_rewritten,
            p.cost(),
            o.verdict(p),
            fmt_time(p.update_s)
        ));
    }
    let at = |c: Option<f64>| match c {
        Some(c) => format!("≈ {:.1} % changed", c * 100.0),
        None => "none in the sweep range".into(),
    };
    r.measured(&format!(
        "crossover counted: {}, timed: {} (paper: 38 %)",
        at(o.crossover),
        at(o.timed_crossover)
    ));
    let all = o.points.last().map(|p| p.update_s).unwrap_or(0.0);
    r.measured(&format!(
        "update-all / rebuild ratio: {:.1}× (paper: 130/48 ≈ 2.7×)",
        all / o.rebuild_s.max(f64::MIN_POSITIVE)
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_and_crossover_repeat_run_to_run() {
        let (a, b) = (measure(Scale::Small), measure(Scale::Small));
        let verdicts = |o: &UpdateVsRebuild| -> Vec<&'static str> {
            o.points.iter().map(|p| o.verdict(p)).collect()
        };
        assert_eq!(verdicts(&a), verdicts(&b));
        assert_eq!(a.crossover, b.crossover);
    }

    #[test]
    fn updating_everything_loses_to_rebuild() {
        // Per-entry updates descend the tree twice per moved element; the
        // rebuild writes each node once. (Where the two cross on time is
        // wall clock and lives in the `figures` output.)
        let o = measure(Scale::Small);
        let all = o.points.last().unwrap();
        assert!(
            all.nodes_visited > o.rebuild_nodes,
            "update-all chases {} node pointers, the rebuild writes {} nodes",
            all.nodes_visited,
            o.rebuild_nodes
        );
        assert!(
            all.cost() > o.rebuild_cost(),
            "update-all costs {}, the rebuild {}",
            all.cost(),
            o.rebuild_cost()
        );
        if let Some(c) = o.crossover {
            assert!(c > 0.0 && c <= 1.0, "crossover {c}");
        }
    }

    #[test]
    fn update_cost_grows_with_fraction() {
        let o = measure(Scale::Small);
        let first = o.points.first().unwrap().nodes_visited;
        let last = o.points.last().unwrap().nodes_visited;
        assert!(last > first * 2, "cost must grow: {first} → {last}");
    }
}
