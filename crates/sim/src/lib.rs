//! # simspatial-sim
//!
//! The time-stepped simulation engine of the paper's Figure 1: "Given a
//! model and an initial state, simulations calculate and approximate the
//! subsequent states of the model in discrete time steps." Each step runs
//!
//! 1. an **update phase** — the workload computes every element's
//!    displacement (possibly issuing spatial queries itself, as n-body and
//!    material-deformation solvers do), which becomes one `(id, shape)`
//!    write batch in id order,
//! 2. **index maintenance** — the configured
//!    [`UpdateStrategy`](simspatial_moving::UpdateStrategy) writes that
//!    batch into the dataset in place (`SpatialIndex::update_in_place`),
//!    with no copy of the previous state, and
//! 3. a **monitor phase** — in-situ analysis/visualisation range queries
//!    execute against the fresh state ("thousands of range queries need to
//!    be executed between two simulation steps at locations that cannot be
//!    anticipated", §2.2).
//!
//! Every phase is timed separately in the emitted [`StepReport`]s, which is
//! what lets the benchmark harness show *where* each strategy pays — the
//! maintenance-vs-query trade-off the paper's §4 revolves around.
//!
//! Workloads:
//! * [`PlasticityWorkload`] — §4.1's neural plasticity: everything moves,
//!   minimally (wraps [`simspatial_datagen::PlasticityModel`]).
//! * [`NBodyWorkload`] — Barnes–Hut gravity (physical cosmology \[5\]).
//! * [`MaterialWorkload`] — neighbourhood spring relaxation (material
//!   deformation \[2\]); queries the live index during the update phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod material;
mod nbody;
mod plasticity;
mod service_loop;

pub use engine::{Simulation, SimulationConfig, StepReport, Workload};
pub use material::MaterialWorkload;
pub use nbody::NBodyWorkload;
pub use plasticity::PlasticityWorkload;
pub use service_loop::{ServedSimulation, ServedStepReport};
