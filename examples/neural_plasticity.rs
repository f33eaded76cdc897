//! Neural plasticity under massive minimal movement — the paper's §4.1
//! scenario end to end.
//!
//! Every element moves every step (mean 0.04 µm, < 0.5 % above 0.1 µm,
//! matching the paper's measured run), and several index-maintenance
//! strategies race across the same steps: per-element R-Tree updates, full
//! STR rebuilds, grace windows, and grid migration. The output shows where
//! each strategy spends its time — maintenance vs monitoring queries.
//!
//! Run with: `cargo run --release --example neural_plasticity`

use simspatial::prelude::*;

const STEPS: usize = 5;

fn main() {
    let strategies = [
        UpdateStrategyKind::RTreeReinsert,
        UpdateStrategyKind::RTreeRebuild,
        UpdateStrategyKind::LazyGraceWindow,
        UpdateStrategyKind::GridMigrate,
        UpdateStrategyKind::NoIndexScan,
    ];

    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "strategy", "update ms", "maintain ms", "monitor ms", "switched", "absorbed"
    );

    for kind in strategies {
        // Fresh identical dataset per strategy (same seed ⇒ same movement).
        let dataset = NeuronDatasetBuilder::new()
            .neurons(100)
            .segments_per_neuron(200)
            .universe_side(80.0)
            .seed(7)
            .build();
        let workload = PlasticityWorkload::paper_calibrated(99);
        let mut sim = Simulation::new(
            dataset,
            Box::new(workload),
            SimulationConfig {
                strategy: kind,
                monitor_queries_per_step: 50,
                monitor_selectivity: 1e-4,
                seed: 11,
            },
        );
        let reports = sim.run(STEPS);
        let (mut up, mut mt, mut mo) = (0.0, 0.0, 0.0);
        let (mut switched, mut absorbed) = (0u64, 0u64);
        for r in &reports {
            up += r.update_s;
            mt += r.maintain_s;
            mo += r.monitor_s;
            switched += r.cost.structural;
            absorbed += r.cost.absorbed;
        }
        println!(
            "{:<20} {:>12.2} {:>12.2} {:>12.2} {:>10} {:>10}",
            kind.name(),
            up / STEPS as f64 * 1e3,
            mt / STEPS as f64 * 1e3,
            mo / STEPS as f64 * 1e3,
            switched / STEPS as u64,
            absorbed / STEPS as u64,
        );
    }

    println!(
        "\nPer §4.3 of the paper: with ~0.04 µm steps, grid migration touches only\n\
         the few elements that switch cells, while per-element R-Tree updates pay\n\
         for every entry and rebuilds pay for the whole tree each step."
    );
}
