//! E7 — §3.3: grid resolution is the hard knob; multi-resolution helps.
//!
//! Paper: "Choosing the proper resolution, however, is difficult: a too
//! coarse grained grid means that too many elements need to be tested for
//! intersection. ... The optimal resolution, however, also depends on the
//! size of the queries which cannot be known a priori. A solution ... may
//! thus be to use several uniform grids each with a different resolution."
//!
//! Reproduction: sweep the cell side across two decades for a *small* and a
//! *large* query workload; show the optimum moves with query size; then run
//! the multigrid and the analytic auto-resolution against both workloads.

use crate::datasets::{neuron_dataset, queries_at};
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_index::{
    CountSink, GridConfig, GridPlacement, MultiGrid, MultiGridConfig, QueryEngine, QueryStats,
    ShardedEngine, SpatialIndex, UniformGrid,
};

/// One sweep row: per-workload batch seconds for a given resolution.
#[derive(Debug, Clone, Copy)]
pub struct ResolutionPoint {
    /// Cell side.
    pub cell_side: f32,
    /// Batch seconds on the small-query workload.
    pub small_q_s: f64,
    /// Batch seconds on the large-query workload.
    pub large_q_s: f64,
    /// Intersection tests (tree + element) of the small-query batch.
    pub small_q_tests: u64,
}

/// Sweep outcome plus the adaptive contenders.
#[derive(Debug, Clone)]
pub struct ResolutionSweep {
    /// Fixed-resolution points.
    pub points: Vec<ResolutionPoint>,
    /// Auto-resolution grid timings (small, large).
    pub auto: (f64, f64),
    /// Multigrid timings (small, large).
    pub multi: (f64, f64),
    /// Auto-resolution grid behind a region-sharded engine (small, large);
    /// `None` when unsharded.
    pub sharded_auto: Option<(f64, f64)>,
}

/// Runs the measurement. With `shards > 1` the auto-resolution grid is
/// additionally run behind a region-sharded engine.
pub fn measure(scale: Scale, shards: usize) -> ResolutionSweep {
    let data = neuron_dataset(scale);
    let small_q = queries_at(data.universe(), 1e-6, scale.queries(), 0x71);
    let large_q = queries_at(data.universe(), 1e-3, scale.queries(), 0x72);

    // The engine owns scratch and timing: one reusable instance drives
    // every contender's batched plan.
    let mut engine = QueryEngine::new();
    let mut batch = |grid: &dyn SpatialIndex, queries: &[simspatial_geom::Aabb]| -> QueryStats {
        engine.range_count(grid, data.elements(), queries)
    };

    let base = GridConfig::auto(data.elements()).cell_side;
    let mut points = Vec::new();
    for mult in [0.25f32, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let grid = UniformGrid::build(
            data.elements(),
            GridConfig::with_cell_side(base * mult, GridPlacement::Center),
        );
        let small = batch(&grid, &small_q);
        points.push(ResolutionPoint {
            cell_side: grid.cell_side(),
            small_q_s: small.elapsed_s,
            large_q_s: batch(&grid, &large_q).elapsed_s,
            small_q_tests: small.counts.total_tests(),
        });
    }

    let auto_grid = UniformGrid::build(data.elements(), GridConfig::auto(data.elements()));
    let auto = (
        batch(&auto_grid, &small_q).elapsed_s,
        batch(&auto_grid, &large_q).elapsed_s,
    );
    let multi = MultiGrid::build(data.elements(), MultiGridConfig::auto(data.elements()));
    let multi = (
        batch(&multi, &small_q).elapsed_s,
        batch(&multi, &large_q).elapsed_s,
    );

    let sharded_auto = (shards > 1).then(|| {
        let mut sharded = ShardedEngine::build(data.elements(), shards, |part| {
            UniformGrid::build(part, GridConfig::auto(part))
        });
        let mut sink = CountSink::new();
        let mut sharded_batch = |queries: &[simspatial_geom::Aabb]| -> f64 {
            sharded.range_batch(queries, &mut sink); // warm-up
            sink.reset();
            sharded.range_batch(queries, &mut sink).elapsed_s
        };
        (sharded_batch(&small_q), sharded_batch(&large_q))
    });

    ResolutionSweep {
        points,
        auto,
        multi,
        sharded_auto,
    }
}

/// Runs and formats the report.
pub fn run(scale: Scale, shards: usize) -> String {
    let o = measure(scale, shards);
    let mut r = Report::new(
        "E7",
        "§3.3 — grid resolution sweep & multi-resolution grids",
    );
    r.paper("optimal resolution depends on data AND query size; multiple grids proposed");
    r.row(&format!(
        "{:>10} {:>14} {:>14}",
        "cell µm", "small queries", "large queries"
    ));
    for p in &o.points {
        r.row(&format!(
            "{:>10.2} {:>14} {:>14}",
            p.cell_side,
            fmt_time(p.small_q_s),
            fmt_time(p.large_q_s)
        ));
    }
    r.measured(&format!(
        "auto model: small {}, large {}",
        fmt_time(o.auto.0),
        fmt_time(o.auto.1)
    ));
    r.measured(&format!(
        "multigrid:  small {}, large {}",
        fmt_time(o.multi.0),
        fmt_time(o.multi.1)
    ));
    if let Some((small, large)) = o.sharded_auto {
        r.measured(&format!(
            "auto model x{shards} shards: small {}, large {}",
            fmt_time(small),
            fmt_time(large)
        ));
    }
    let best_small = o
        .points
        .iter()
        .min_by(|a, b| a.small_q_s.total_cmp(&b.small_q_s))
        .unwrap();
    let best_large = o
        .points
        .iter()
        .min_by(|a, b| a.large_q_s.total_cmp(&b.large_q_s))
        .unwrap();
    r.note(&format!(
        "optimum moved: best small-query cell {:.2} µm vs best large-query cell {:.2} µm",
        best_small.cell_side, best_large.cell_side
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_finite_times() {
        let o = measure(Scale::Small, 1);
        assert_eq!(o.points.len(), 7);
        for p in &o.points {
            assert!(p.small_q_s > 0.0 && p.large_q_s > 0.0);
        }
    }

    #[test]
    fn extreme_coarse_is_bad_for_small_queries() {
        let o = measure(Scale::Small, 1);
        let finest = o.points.first().unwrap();
        let coarsest = o.points.last().unwrap();
        // §3.3: a too coarse grid means too many elements are tested.
        assert!(
            coarsest.small_q_tests > finest.small_q_tests,
            "coarse grid ran {} intersection tests, fine {}, on small queries",
            coarsest.small_q_tests,
            finest.small_q_tests
        );
    }
}
