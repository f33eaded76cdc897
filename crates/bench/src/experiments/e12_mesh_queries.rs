//! E12 — §4.3: connectivity-driven query execution under deformation.
//!
//! Paper: "DLS uses an approximate index as well as the mesh connectivity
//! to execute range queries ... OCTOPUS takes the DLS ideas into memory but
//! also supports concave meshes. ... If an index uses the dataset directly,
//! then it does not need to perform any updates."
//!
//! Reproduction: a deforming tetrahedral bar; per step, range queries are
//! answered by (a) the DLS walker, (b) the OCTOPUS walker, (c) an R-Tree
//! over cell boxes rebuilt every step, and (d) a full scan. The walkers pay
//! no per-step maintenance at all; the R-Tree pays its rebuild.

use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_geom::{stats, Aabb, ElementId, Point3, Vec3};
use simspatial_index::{RTree, RTreeConfig};
use simspatial_mesh::{MeshWalker, TetMesh, WalkStrategy};

/// Per-step averages of one executor.
#[derive(Debug, Clone)]
pub struct MeshRow {
    /// Executor name.
    pub name: &'static str,
    /// Mean per-step maintenance seconds (0 for the walkers).
    pub maintain_s: f64,
    /// Mean per-step query-batch seconds.
    pub query_s: f64,
    /// Mean per-step intersection tests of the query batch (from
    /// `simspatial_geom::stats`; the scan tests every cell box per query).
    pub tests: u64,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<MeshRow> {
    let dim = match scale {
        Scale::Small => 12,
        Scale::Medium => 22,
        Scale::Large => 34,
    };
    let steps = 4usize;
    let queries_per_step = 20usize;

    let base = TetMesh::lattice(dim * 2, dim, dim, 1.0);
    let bound = dim as f32;

    // Deterministic queries inside the bar.
    let queries: Vec<Aabb> = (0..queries_per_step)
        .map(|i| {
            let t = i as f32 / queries_per_step as f32;
            let o = Point3::new(t * bound * 1.6, t * bound * 0.7, (1.0 - t) * bound * 0.7);
            Aabb::new(o, o + Vec3::new(2.5, 2.5, 2.5))
        })
        .collect();

    let deform = |mesh: &mut TetMesh, step: usize| {
        let amp = 0.04;
        mesh.displace_vertices(|i, p| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ step as u64;
            Vec3::new(
                amp * (p.y * 0.5).sin() * 0.3 + ((h % 100) as f32 / 100.0 - 0.5) * amp,
                amp * (p.x * 0.5).cos() * 0.3 + (((h >> 8) % 100) as f32 / 100.0 - 0.5) * amp,
                (((h >> 16) % 100) as f32 / 100.0 - 0.5) * amp,
            )
        });
    };
    let drift_bound = 0.1f32;

    let mut rows = Vec::new();

    // --- walkers (no maintenance) -------------------------------------
    for strategy in [WalkStrategy::Dls, WalkStrategy::Octopus] {
        let mut mesh = base.clone();
        let mut walker = MeshWalker::build(&mesh, strategy);
        let mut query_acc = 0.0;
        let mut tests_acc = 0u64;
        for step in 0..steps {
            deform(&mut mesh, step);
            walker.note_drift(drift_bound);
            stats::reset();
            let (_, tq) = time(|| {
                let mut acc = 0usize;
                for q in &queries {
                    acc += walker.range(&mesh, q).len();
                }
                std::hint::black_box(acc)
            });
            query_acc += tq;
            tests_acc += stats::snapshot().total_tests();
        }
        rows.push(MeshRow {
            name: match strategy {
                WalkStrategy::Dls => "DLS walk",
                WalkStrategy::Octopus => "OCTOPUS walk",
            },
            maintain_s: 0.0,
            query_s: query_acc / steps as f64,
            tests: tests_acc / steps as u64,
        });
    }

    // --- R-Tree over cell boxes, rebuilt per step -----------------------
    {
        let mut mesh = base.clone();
        let mut maintain_acc = 0.0;
        let mut query_acc = 0.0;
        let mut tests_acc = 0u64;
        let mut tree = RTree::bulk_load_entries(
            (0..mesh.len() as ElementId)
                .map(|c| (mesh.cell_bbox(c), c))
                .collect(),
            RTreeConfig::default(),
        );
        for step in 0..steps {
            deform(&mut mesh, step);
            let (_, tm) = time(|| {
                tree.rebuild_entries(
                    (0..mesh.len() as ElementId)
                        .map(|c| (mesh.cell_bbox(c), c))
                        .collect(),
                );
            });
            maintain_acc += tm;
            stats::reset();
            let (_, tq) = time(|| {
                let mut acc = 0usize;
                for q in &queries {
                    acc += tree.range_bbox(q).len();
                }
                std::hint::black_box(acc)
            });
            query_acc += tq;
            tests_acc += stats::snapshot().total_tests();
        }
        rows.push(MeshRow {
            name: "R-Tree rebuild",
            maintain_s: maintain_acc / steps as f64,
            query_s: query_acc / steps as f64,
            tests: tests_acc / steps as u64,
        });
    }

    // --- full scan -------------------------------------------------------
    {
        let mut mesh = base.clone();
        let mut query_acc = 0.0;
        for step in 0..steps {
            deform(&mut mesh, step);
            let (_, tq) = time(|| {
                let mut acc = 0usize;
                for q in &queries {
                    acc += mesh.scan_range(q).len();
                }
                std::hint::black_box(acc)
            });
            query_acc += tq;
        }
        rows.push(MeshRow {
            name: "LinearScan",
            maintain_s: 0.0,
            query_s: query_acc / steps as f64,
            tests: (queries.len() * mesh.len()) as u64,
        });
    }
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new(
        "E12",
        "§4.3 — DLS/OCTOPUS mesh walks vs rebuilt index vs scan",
    );
    r.paper(
        "connectivity queries need no index maintenance; the approximate seed index is \
             refreshed only infrequently",
    );
    r.row(&format!(
        "{:<16} {:>14} {:>14} {:>14}",
        "executor", "maintain/st", "queries/st", "total/st"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<16} {:>14} {:>14} {:>14}",
            row.name,
            fmt_time(row.maintain_s),
            fmt_time(row.query_s),
            fmt_time(row.maintain_s + row.query_s)
        ));
    }
    r.note("shape check: walkers pay zero maintenance; rebuild pays per step; scan pays per query");
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkers_pay_no_maintenance_and_beat_scan() {
        let rows = measure(Scale::Small);
        let oct = rows.iter().find(|r| r.name == "OCTOPUS walk").unwrap();
        let scan = rows.iter().find(|r| r.name == "LinearScan").unwrap();
        let rebuild = rows.iter().find(|r| r.name == "R-Tree rebuild").unwrap();
        assert_eq!(oct.maintain_s, 0.0);
        assert!(rebuild.maintain_s > 0.0);
        assert!(
            oct.tests < scan.tests,
            "walk ran {} cell tests a step, scan {}",
            oct.tests,
            scan.tests
        );
    }
}
