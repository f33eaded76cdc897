//! A2 — ablation: R-Tree node size in memory.
//!
//! §3.3: "Indexes used in memory must be optimized for memory hierarchies
//! by making the size of their nodes a multiple of the cache block size.
//! Node sizes substantially smaller than used on disk (on disk sizes 4KB or
//! bigger are typically used) achieve good performance (between 640 Bytes
//! and 1KB \[31\])." This sweep measures query time across fan-outs from a
//! cache line's worth of entries to the 4 KB disk page.

use crate::datasets::{neuron_dataset, paper_queries};
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_geom::{stats, Aabb, ElementId};
use simspatial_index::{RTree, RTreeConfig};

/// Bytes per stored entry (box + id/pointer), for node-size reporting.
const ENTRY_BYTES: usize = std::mem::size_of::<(Aabb, ElementId)>();

/// One fan-out's outcome.
#[derive(Debug, Clone, Copy)]
pub struct NodeSizeRow {
    /// Maximum entries per node (M).
    pub max_entries: usize,
    /// Approximate node payload bytes (M × entry size).
    pub node_bytes: usize,
    /// Query batch seconds.
    pub query_s: f64,
    /// Tree height.
    pub height: usize,
    /// Nodes the query batch visited (one pointer chase each).
    pub nodes_visited: u64,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<NodeSizeRow> {
    let data = neuron_dataset(scale);
    let queries = paper_queries(data.universe(), data.len(), scale.queries(), 0xA2);
    let mut rows = Vec::new();
    for max_entries in [4usize, 8, 16, 32, 64, 128, 256] {
        let config = RTreeConfig {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            ..Default::default()
        };
        let tree = RTree::bulk_load(data.elements(), config);
        stats::reset();
        let (_, query_s) = time(|| {
            let mut acc = 0usize;
            for q in &queries {
                acc += tree.range_exact(data.elements(), q).len();
            }
            std::hint::black_box(acc)
        });
        rows.push(NodeSizeRow {
            max_entries,
            node_bytes: max_entries * ENTRY_BYTES,
            query_s,
            height: tree.height(),
            nodes_visited: stats::snapshot().nodes_visited,
        });
    }
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new("A2", "ablation — in-memory R-Tree node size");
    r.paper("good in-memory nodes are 640 B–1 KB [31], far below the 4 KB disk page");
    r.row(&format!(
        "{:<6} {:>12} {:>8} {:>14}",
        "M", "node bytes", "height", "query batch"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<6} {:>12} {:>8} {:>14}",
            row.max_entries,
            row.node_bytes,
            row.height,
            fmt_time(row.query_s)
        ));
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.query_s.total_cmp(&b.query_s))
        .unwrap();
    r.measured(&format!(
        "best fan-out M = {} (≈{} B nodes)",
        best.max_entries, best.node_bytes
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_complete_and_heights_shrink() {
        let rows = measure(Scale::Small);
        assert_eq!(rows.len(), 7);
        // Bigger nodes ⇒ flatter trees.
        assert!(rows.first().unwrap().height >= rows.last().unwrap().height);
        for row in &rows {
            assert!(row.query_s > 0.0);
        }
    }

    #[test]
    fn tiny_nodes_are_not_optimal() {
        // M = 4 pays pointer-chasing overhead: the same query batch chases
        // more node pointers than at any larger fan-out. (Which fan-out wins
        // on time is wall clock and lives in the `figures` output.)
        let rows = measure(Scale::Small);
        let m4 = rows.iter().find(|x| x.max_entries == 4).unwrap();
        for row in rows.iter().filter(|x| x.max_entries > 4) {
            assert!(
                row.nodes_visited < m4.nodes_visited,
                "M = {} visits {} nodes, M = 4 visits {}",
                row.max_entries,
                row.nodes_visited,
                m4.nodes_visited
            );
        }
    }
}
