//! In-situ visualisation of a running simulation (§2.2 of the paper).
//!
//! "The most important application that needs to execute range queries is
//! the in-situ visualization of the progressing simulation. For
//! visualizations, as well as analyses, thousands of range queries need to
//! be executed between two simulation steps at locations that cannot be
//! anticipated."
//!
//! A material-deformation simulation runs while a "camera" sweeps through
//! the volume issuing unanticipated range queries every step; the example
//! renders a coarse ASCII density projection from the query results — the
//! monitor phase of Figure 1, live.
//!
//! Run with: `cargo run --release --example insitu_visualization`

use simspatial::prelude::*;

const STEPS: usize = 4;
const GRID: usize = 24; // ASCII viewport resolution

fn main() {
    let dataset = ElementSoupBuilder::new()
        .count(8000)
        .universe_side(60.0)
        .clustered(ClusteredConfig {
            clusters: 6,
            sigma: 4.0,
        })
        .seed(3)
        .build();
    let side = dataset.universe().extent().x;

    let mut sim = Simulation::new(
        dataset,
        Box::new(MaterialWorkload::new(2.0, 0.3)),
        SimulationConfig {
            strategy: UpdateStrategyKind::GridMigrate,
            monitor_queries_per_step: 0, // we issue the visual queries ourselves
            monitor_selectivity: 1e-4,
            seed: 1,
        },
    );

    for step in 0..STEPS {
        let report = sim.run_step();
        // Camera slice: z-window sweeping through the volume.
        let z0 = side * (step as f32 + 0.5) / STEPS as f32 - 4.0;
        let slab = 8.0;

        // One range query per viewport tile — "locations that cannot be
        // anticipated" by the index.
        let mut density = vec![0usize; GRID * GRID];
        let tile = side / GRID as f32;
        for gy in 0..GRID {
            for gx in 0..GRID {
                let q = Aabb::new(
                    Point3::new(gx as f32 * tile, gy as f32 * tile, z0),
                    Point3::new((gx + 1) as f32 * tile, (gy + 1) as f32 * tile, z0 + slab),
                );
                density[gy * GRID + gx] = sim.strategy().range(sim.data().elements(), &q).len();
            }
        }

        let max = density.iter().copied().max().unwrap_or(1).max(1);
        println!(
            "\nstep {step}: z-slice [{z0:.0}, {:.0}] µm — update {:.1} ms, maintain {:.1} ms, {} cell switches",
            z0 + slab,
            report.update_s * 1e3,
            report.maintain_s * 1e3,
            report.cost.structural,
        );
        let ramp = [' ', '.', ':', '+', '*', '#', '@'];
        for gy in (0..GRID).rev() {
            let row: String = (0..GRID)
                .map(|gx| {
                    let v = density[gy * GRID + gx];
                    ramp[(v * (ramp.len() - 1)).div_ceil(max).min(ramp.len() - 1)]
                })
                .collect();
            println!("  |{row}|");
        }
    }
    println!(
        "\n{} elements tracked across {STEPS} steps.",
        sim.data().len()
    );
}
