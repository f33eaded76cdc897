//! E4 — §4.1: update vs rebuild, and the 38 % crossover.
//!
//! Paper: "Updating all elements of this application in an R-Tree takes 130
//! seconds at every simulation step. Building the new R-Tree index from
//! scratch, on the other hand, only takes 48 seconds. For this experiment
//! updating only is faster than a rebuild if less than 38 % of the dataset
//! change in a time step."
//!
//! Reproduction: plasticity-displace a fraction f of the neuron dataset,
//! time (a) delete+reinsert of the moved entries against (b) a full STR
//! rebuild, sweep f, and interpolate the crossover. Each timing is taken
//! [`SAMPLES`] times, each on a fresh clone of the bulk-loaded tree; the
//! verdicts and the crossover compare medians, and a fraction whose update
//! samples overlap the rebuild samples reads "within noise".

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
    /// Fastest and slowest of the update samples.
    pub update_range: (f64, f64),
    /// Inner nodes those updates descended through (one pointer chase
    /// each, finding the old entry and choosing the new leaf).
    pub nodes_visited: u64,
}

/// Full outcome of the sweep.
#[derive(Debug, Clone)]
pub struct UpdateVsRebuild {
    /// Sweep points at increasing fractions.
    pub points: Vec<SweepPoint>,
    /// Median seconds of one full STR rebuild.
    pub rebuild_s: f64,
    /// Fastest and slowest of the rebuild samples.
    pub rebuild_range: (f64, f64),
    /// Nodes that rebuild wrote (each once, no descent).
    pub rebuild_nodes: u64,
    /// Interpolated fraction where updating stops paying off.
    pub crossover: Option<f64>,
}

impl UpdateVsRebuild {
    /// The verdict for one sweep point: "within noise" when its update
    /// samples overlap the rebuild samples, else the side with the faster
    /// median.
    pub fn verdict(&self, p: &SweepPoint) -> &'static str {
        let (lo, hi) = self.rebuild_range;
        if p.update_range.0 <= hi && lo <= p.update_range.1 {
            "within noise"
        } else if p.update_s < self.rebuild_s {
            "update wins"
        } else {
            "rebuild wins"
        }
    }
}

/// Runs `work` on [`SAMPLES`] fresh clones of `base`, timing each run.
/// Returns the last run's result, the median seconds and the fastest and
/// slowest run.
fn sample<R>(base: &RTree, mut work: impl FnMut(&mut RTree) -> R) -> (R, f64, (f64, f64)) {
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
    let result = result.expect("SAMPLES > 0");
    (result, secs[SAMPLES / 2], (secs[0], secs[SAMPLES - 1]))
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

    let (rebuild_nodes, rebuild_s, rebuild_range) = sample(&base, |t| {
        t.rebuild(&moved);
        t.node_count() as u64
    });

    let fractions = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
    let mut points = Vec::new();
    for &f in &fractions {
        let k = ((n as f64) * f) as usize;
        let old = data.elements();
        let (nodes_visited, update_s, update_range) = sample(&base, |tree| {
            stats::reset();
            for i in 0..k {
                let ob = old[i].aabb();
                let nb = moved[i].aabb();
                if ob != nb {
                    tree.update(old[i].id, &ob, nb);
                }
            }
            stats::snapshot().nodes_visited
        });
        points.push(SweepPoint {
            fraction: f,
            update_s,
            update_range,
            nodes_visited,
        });
    }

    // Crossover: first f where update_s >= rebuild_s, linearly interpolated.
    let mut crossover = None;
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.update_s < rebuild_s && b.update_s >= rebuild_s {
            let t = (rebuild_s - a.update_s) / (b.update_s - a.update_s);
            crossover = Some(a.fraction + t * (b.fraction - a.fraction));
            break;
        }
    }
    if crossover.is_none() && points.first().is_some_and(|p| p.update_s >= rebuild_s) {
        crossover = Some(points[0].fraction);
    }
    UpdateVsRebuild {
        points,
        rebuild_s,
        rebuild_range,
        rebuild_nodes,
        crossover,
    }
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let o = measure(scale);
    let mut r = Report::new("E4", "§4.1 — update vs rebuild crossover");
    r.paper("update all: 130 s/step; STR rebuild: 48 s; update wins iff < 38 % change");
    r.measured(&format!("full STR rebuild: {}", fmt_time(o.rebuild_s)));
    for p in &o.points {
        r.row(&format!(
            "f = {:>5.0} %: update {} ({})",
            p.fraction * 100.0,
            fmt_time(p.update_s),
            o.verdict(p)
        ));
    }
    match o.crossover {
        Some(c) => r.measured(&format!(
            "crossover at ≈ {:.0} % changed (paper: 38 %)",
            c * 100.0
        )),
        None => r.measured("no crossover in sweep range (updates always cheaper here)"),
    };
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
