//! A1 — ablation: STR vs Hilbert vs Morton bulk loading vs insertion.
//!
//! §4.1 makes the *build* cost the quantity that decides the rebuild-vs-
//! update contest, and the conclusion predicts a class of indexes trading
//! "query execution time for substantially faster index build time". This
//! ablation measures that axis across the bulk-loading family: build time,
//! query time and tile quality (summed leaf MBR volume).

use crate::datasets::{neuron_dataset, paper_queries};
use crate::experiments::time;
use crate::report::{fmt_time, Report};
use crate::Scale;
use simspatial_index::{Curve, RTree, RTreeConfig};

/// One loader's outcome.
#[derive(Debug, Clone)]
pub struct LoaderRow {
    /// Loader name.
    pub name: &'static str,
    /// Seconds to build the tree.
    pub build_s: f64,
    /// Seconds for the query batch.
    pub query_s: f64,
    /// Summed leaf MBR volume (tile leakage; smaller is tighter).
    pub leaf_volume: f32,
    /// Elements the built tree indexes.
    pub elements: usize,
}

/// Runs the measurement.
pub fn measure(scale: Scale) -> Vec<LoaderRow> {
    let data = neuron_dataset(scale);
    let queries = paper_queries(data.universe(), data.len(), scale.queries(), 0xA1);
    let config = RTreeConfig::default();

    let mut rows = Vec::new();
    let mut push = |name: &'static str, build: &dyn Fn() -> RTree| {
        let (tree, build_s) = time(build);
        let (_, query_s) = time(|| {
            let mut acc = 0usize;
            for q in &queries {
                acc += tree.range_exact(data.elements(), q).len();
            }
            std::hint::black_box(acc)
        });
        rows.push(LoaderRow {
            name,
            build_s,
            query_s,
            leaf_volume: tree.leaf_volume_sum(),
            elements: tree.len(),
        });
    };

    push("STR", &|| RTree::bulk_load(data.elements(), config));
    push("Hilbert", &|| {
        RTree::bulk_load_sfc(data.elements(), config, Curve::Hilbert)
    });
    push("Morton", &|| {
        RTree::bulk_load_sfc(data.elements(), config, Curve::Morton)
    });
    push("insert-one-by-one", &|| {
        let mut t = RTree::new(config);
        for e in data.elements() {
            t.insert(e.id, e.aabb());
        }
        t
    });
    rows
}

/// Runs and formats the report.
pub fn run(scale: Scale) -> String {
    let rows = measure(scale);
    let mut r = Report::new(
        "A1",
        "ablation — bulk loading: STR vs Hilbert vs Morton vs insert",
    );
    r.paper("§4.1/conclusion: build cost decides rebuild-vs-update; bulk loaders are the lever");
    r.row(&format!(
        "{:<20} {:>12} {:>12} {:>16}",
        "loader", "build", "query batch", "leaf volume"
    ));
    for row in &rows {
        r.row(&format!(
            "{:<20} {:>12} {:>12} {:>16.0}",
            row.name,
            fmt_time(row.build_s),
            fmt_time(row.query_s),
            row.leaf_volume
        ));
    }
    let insert = rows.iter().find(|x| x.name == "insert-one-by-one").unwrap();
    let str_row = rows.iter().find(|x| x.name == "STR").unwrap();
    r.measured(&format!(
        "bulk loading beats insertion {:.0}× on build; curve loaders trade tile quality for \
         an even simpler build",
        insert.build_s / str_row.build_s.max(f64::MIN_POSITIVE)
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build-time ratio is wall clock and lives in the `figures` output;
    /// what a test can pin is that the four rows describe the same dataset
    /// and that no bulk loader's tiling is dramatically leakier than the
    /// loosest curve's.
    #[test]
    fn every_loader_indexes_the_same_elements_with_bounded_leakage() {
        let rows = measure(Scale::Small);
        let names: Vec<_> = rows.iter().map(|x| x.name).collect();
        assert_eq!(names, ["STR", "Hilbert", "Morton", "insert-one-by-one"]);
        let expected = neuron_dataset(Scale::Small).len();
        let morton = rows[2].leaf_volume;
        for row in &rows {
            assert_eq!(row.elements, expected, "{} lost elements", row.name);
            assert!(
                row.leaf_volume > 0.0 && row.leaf_volume <= morton * 2.0,
                "{} leaf volume {} against Morton's {morton}",
                row.name,
                row.leaf_volume
            );
        }
    }

    #[test]
    fn str_tiles_are_competitive() {
        let rows = measure(Scale::Small);
        let str_row = rows.iter().find(|x| x.name == "STR").unwrap();
        let morton = rows.iter().find(|x| x.name == "Morton").unwrap();
        // STR's recursive tiling should not be dramatically leakier.
        assert!(str_row.leaf_volume <= morton.leaf_volume * 2.0);
    }
}
