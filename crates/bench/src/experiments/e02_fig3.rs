//! E2 — Figure 3: where in-memory R-Tree query time goes.
//!
//! Paper: ≈80 % of in-memory query time is intersection tests — ≈55 %
//! against the tree structure, ≈25 % against elements — with ~3 % reading
//! data and the rest other computation.
//!
//! Reproduction by *differential measurement*, mirroring the profiler
//! categories: the same query batch runs (a) tree-only (descend internal
//! nodes, skip leaf entries), (b) bbox-only (tree + leaf box filtering) and
//! (c) full (tree + filter + exact refinement), plus (d) an off-data batch
//! isolating fixed per-query overhead. Category times are the differences;
//! the "reading data" overlay is a memory-bandwidth model over the bytes
//! the instrumented traversal touched.

use crate::datasets::{neuron_dataset, paper_queries};
use crate::experiments::time;
use crate::report::{fmt_time, pct, Report};
use crate::Scale;
use simspatial_geom::{stats, Aabb, Vec3};
use simspatial_index::{CountSink, QueryEngine, RTree, RTreeConfig, ShardedEngine};

/// Structured outcome.
#[derive(Debug, Clone, Copy)]
pub struct Fig3 {
    /// Total measured batch seconds (full queries).
    pub total_s: f64,
    /// Share attributed to tree-structure traversal (tree-level tests).
    pub tree_share: f64,
    /// Share attributed to element-level work (leaf filter + refinement).
    pub element_share: f64,
    /// Modelled data-movement share (overlay; overlaps the other shares).
    pub read_share: f64,
    /// Fixed per-query overhead share (allocation, setup).
    pub remaining_share: f64,
    /// Raw counter snapshot of the full batch.
    pub counts: stats::PredicateCounts,
    /// Batch seconds of the same full pass through a region-sharded engine
    /// (`--shards K`, `None` when unsharded).
    pub sharded_total_s: Option<f64>,
}

/// Runs the measurement.
pub fn measure(scale: Scale, shards: usize) -> Fig3 {
    let data = neuron_dataset(scale);
    let queries = paper_queries(data.universe(), data.len(), scale.queries(), 0xF163);
    let tree = RTree::bulk_load(data.elements(), RTreeConfig::default());

    let batch = |f: &dyn Fn(&Aabb) -> usize| -> f64 {
        // Warm-up pass, then measured pass.
        let mut acc = 0usize;
        for q in &queries {
            acc += f(q);
        }
        std::hint::black_box(acc);
        let (_, t) = time(|| {
            let mut acc = 0usize;
            for q in &queries {
                acc += f(q);
            }
            std::hint::black_box(acc)
        });
        t
    };

    // Off-data queries: the root rejects immediately, leaving only the
    // fixed per-query overhead.
    let far = data
        .universe()
        .translate(Vec3::new(data.universe().extent().x * 10.0, 0.0, 0.0));
    let off = paper_queries(far, data.len(), queries.len(), 0xF163);

    let t_fixed = batch(&|q: &Aabb| {
        let shifted = off[0];
        let _ = q;
        tree.probe_tree(&shifted)
    });
    let t_tree = batch(&|q| tree.probe_tree(q));
    let t_bbox = batch(&|q| tree.range_bbox(q).len());

    // Full filter+refine pass through the engine: a warm-up batch, then a
    // measured batch whose QueryStats carry exactly one pass of counters —
    // no accumulate-and-halve bookkeeping.
    let mut engine = QueryEngine::new();
    engine.range_count(&tree, data.elements(), &queries);
    let full = engine.range_count(&tree, data.elements(), &queries);
    let t_full = full.elapsed_s;
    let counts = full.counts;

    let tree_s = (t_tree - t_fixed).max(0.0);
    let element_s = (t_full - t_tree).max(0.0);
    let read_s = (counts.total_tests() as f64 * 28.0 / 50e9).min(t_full);
    let _ = t_bbox; // reported via the bbox/full gap in the text report

    // Optional sharded rerun of the full pass: the batch fans out across K
    // region shards, each with its own STR-packed tree over its slice.
    let sharded_total_s = (shards > 1).then(|| {
        let mut sharded = ShardedEngine::build(data.elements(), shards, |part| {
            RTree::bulk_load(part, RTreeConfig::default())
        });
        let mut sink = CountSink::new();
        sharded.range_batch(&queries, &mut sink); // warm-up
        sink.reset();
        sharded.range_batch(&queries, &mut sink).elapsed_s
    });

    let total = t_full.max(f64::MIN_POSITIVE);
    Fig3 {
        total_s: t_full,
        tree_share: tree_s / total,
        element_share: element_s / total,
        read_share: read_s / total,
        remaining_share: (1.0 - tree_s / total - element_s / total).max(0.0),
        counts,
        sharded_total_s,
    }
}

/// Runs and formats the report.
pub fn run(scale: Scale, shards: usize) -> String {
    let f = measure(scale, shards);
    let mut r = Report::new("E2", "Figure 3 — in-memory R-Tree query breakdown");
    r.paper("reading 3.3 % | tree-structure tests ≈55 % | element tests ≈25 % | rest ≈17 %");
    r.measured(&format!(
        "total {} | tree traversal {} | element filter+refine {} | fixed overhead {}",
        fmt_time(f.total_s),
        pct(f.tree_share),
        pct(f.element_share),
        pct(f.remaining_share)
    ));
    r.measured(&format!(
        "reading-data overlay (bandwidth model): {}",
        pct(f.read_share)
    ));
    r.measured(&format!(
        "tests issued: {} tree-level, {} element-level",
        f.counts.tree_tests, f.counts.element_tests
    ));
    if let Some(sharded) = f.sharded_total_s {
        r.measured(&format!(
            "sharded engine ({shards} region shards): {} ({:.2}× vs single)",
            fmt_time(sharded),
            f.total_s / sharded.max(f64::MIN_POSITIVE)
        ));
    }
    r.note("shape check: intersection-test work dominates; data movement is a few percent");
    r.note("the paper's 55/25 tree/element split needs paper-scale trees (deep, overlapping);");
    r.note("at bench scale the shallow tree shifts weight to the leaf phase — same total story");
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_tests_dominate() {
        let f = measure(Scale::Small, 1);
        assert!(
            f.tree_share + f.element_share > 0.5,
            "test work should dominate: {f:?}"
        );
        assert!(f.read_share < 0.25, "{f:?}");
        assert!(f.counts.tree_tests > 0 && f.counts.element_tests > 0);
    }
}
