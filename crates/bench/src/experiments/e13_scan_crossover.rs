//! E13 — §4.1: when does any index beat the linear scan?
//!
//! Paper: "Depending on how many queries are executed, rebuilding an index
//! may no longer pay off as the cost cannot be amortized over enough
//! queries and using no index, i.e., a linear scan over the dataset, may be
//! faster."
//!
//! Reproduction: per simulated step, strategy cost = maintenance + q
//! queries; sweep q and find the query count where the throwaway grid (and
//! the rebuilt R-Tree) overtake the scan.

use crate::datasets::neuron_dataset;
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_datagen::{PlasticityModel, QueryWorkload};
use simspatial_geom::QueryScratch;
use simspatial_index::{
    CountSink, GridConfig, RangeSink, ShardedEngine, SpatialIndex, UniformGrid,
};
use simspatial_moving::{UpdateStrategy, UpdateStrategyKind};

/// Per-step totals for one (strategy, queries-per-step) cell.
#[derive(Debug, Clone)]
pub struct CrossoverCell {
    /// Strategy name.
    pub strategy: &'static str,
    /// Queries issued per step.
    pub queries_per_step: usize,
    /// Mean per-step total seconds (maintenance + queries).
    pub total_s: f64,
}

/// Runs the measurement. With `shards > 1` an extra "Grid/sharded"
/// contender rebuilds a region-sharded grid engine each step and answers
/// the step's queries through its merged batch path.
pub fn measure(scale: Scale, shards: usize) -> Vec<CrossoverCell> {
    let data = neuron_dataset(scale);
    let steps = 2usize;
    let sweep = [1usize, 10, 100, 1000];
    let strategies = [
        UpdateStrategyKind::NoIndexScan,
        UpdateStrategyKind::ThrowawayGrid,
        UpdateStrategyKind::RTreeRebuild,
        UpdateStrategyKind::GridMigrate,
    ];

    let mut cells = Vec::new();
    // One scratch + counting sink for the whole sweep: the per-step query
    // phase runs the strategies' sink paths with zero per-query result
    // allocations.
    let mut scratch = QueryScratch::default();
    let mut sink = CountSink::new();
    for kind in strategies {
        for &qps in &sweep {
            let mut strategy: Box<dyn UpdateStrategy> = kind.create(data.elements());
            let mut cur = data.clone();
            let mut model = PlasticityModel::paper_calibrated(0xE13);
            let mut queries = QueryWorkload::new(data.universe(), 0xE13);
            let mut acc = 0.0;
            for _ in 0..steps {
                let batch = cur.displaced_batch(&model.sample_step(cur.len()));
                let (_, tm) = time(|| strategy.update_in_place(cur.elements_mut(), &batch));
                sink.reset();
                let (_, tq) = time(|| {
                    for qi in 0..qps {
                        let q = queries.range_query(1e-4);
                        sink.begin_query(qi as u32);
                        strategy.range_into(cur.elements(), &q, &mut scratch, &mut sink);
                    }
                    std::hint::black_box(sink.total)
                });
                acc += tm + tq;
            }
            cells.push(CrossoverCell {
                strategy: kind.name(),
                queries_per_step: qps,
                total_s: acc / steps as f64,
            });
        }
    }

    if shards > 1 {
        // Throwaway discipline behind the sharded engine: rebuild all K
        // shard grids each step (that build is itself region-parallel),
        // then run the step's queries through the merged batch path.
        for &qps in &sweep {
            let mut cur = data.clone();
            let mut model = PlasticityModel::paper_calibrated(0xE13);
            let mut queries = QueryWorkload::new(data.universe(), 0xE13);
            let mut acc = 0.0;
            for _ in 0..steps {
                for (id, d) in model.sample_step(cur.len()).iter().enumerate() {
                    cur.displace(id as u32, *d);
                }
                let (mut engine, tm) = time(|| {
                    ShardedEngine::build(cur.elements(), shards, |part| {
                        UniformGrid::build(part, GridConfig::auto(part))
                    })
                });
                sink.reset();
                let batch: Vec<simspatial_geom::Aabb> =
                    (0..qps).map(|_| queries.range_query(1e-4)).collect();
                let (_, tq) = time(|| {
                    engine.range_batch(&batch, &mut sink);
                    std::hint::black_box(sink.total)
                });
                acc += tm + tq;
            }
            cells.push(CrossoverCell {
                strategy: "Grid/sharded",
                queries_per_step: qps,
                total_s: acc / steps as f64,
            });
        }
    }
    cells
}

/// Runs and formats the report.
pub fn run(scale: Scale, shards: usize) -> String {
    let cells = measure(scale, shards);
    let mut r = Report::new("E13", "§4.1 — index vs linear scan amortisation");
    r.paper("with few queries per step no index amortises; scans win until query counts grow");
    r.row(&format!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "q=1", "q=10", "q=100", "q=1000"
    ));
    let mut contenders = vec![
        "LinearScan",
        "Grid/throwaway",
        "RTree/rebuild",
        "Grid/migrate",
    ];
    if shards > 1 {
        contenders.push("Grid/sharded");
    }
    for strategy in contenders {
        let mut line = format!("{strategy:<18}");
        for qps in [1usize, 10, 100, 1000] {
            let c = cells
                .iter()
                .find(|c| c.strategy == strategy && c.queries_per_step == qps)
                .unwrap();
            line.push_str(&format!(" {:>12}", fmt_time(c.total_s)));
        }
        r.row(&line);
    }
    // Crossover: first q where the throwaway grid's total beats the scan.
    let crossover = [1usize, 10, 100, 1000].into_iter().find(|&q| {
        let scan = cells
            .iter()
            .find(|c| c.strategy == "LinearScan" && c.queries_per_step == q)
            .unwrap();
        let grid = cells
            .iter()
            .find(|c| c.strategy == "Grid/throwaway" && c.queries_per_step == q)
            .unwrap();
        grid.total_s < scan.total_s
    });
    match crossover {
        Some(q) => r.measured(&format!(
            "throwaway grid overtakes the scan at ≈ {q} queries/step"
        )),
        None => r.measured("scan wins across the whole sweep (index never amortises here)"),
    };
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_wins_at_one_query_index_wins_at_many() {
        let cells = measure(Scale::Small, 1);
        let at = |s: &str, q: usize| {
            cells
                .iter()
                .find(|c| c.strategy == s && c.queries_per_step == q)
                .unwrap()
                .total_s
        };
        // At one query/step, paying any build/maintenance must not beat the
        // scan by much — and at 1000 queries the scan must lose badly.
        assert!(
            at("LinearScan", 1) < at("RTree/rebuild", 1),
            "one query cannot amortise a rebuild"
        );
        assert!(
            at("Grid/throwaway", 1000) < at("LinearScan", 1000),
            "1000 queries must amortise a grid build"
        );
    }
}
