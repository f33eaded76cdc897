//! # simspatial
//!
//! Facade crate for the `simspatial` workspace — a production-quality Rust
//! reproduction of *"Spatial Data Management Challenges in the Simulation
//! Sciences"* (Heinis, Tauheed, Ailamaki — EDBT 2014).
//!
//! The paper identifies two challenges that make classic (disk-era) spatial
//! indexes inadequate for simulation workloads:
//!
//! 1. **In-memory execution** — once data lives in RAM, intersection tests
//!    and pointer chasing dominate, not data transfer; tree structures become
//!    the bottleneck (Figures 2 & 3 of the paper).
//! 2. **Massive updates** — every simulation step moves *almost every*
//!    element a *tiny* distance, so per-element update mechanisms lose to
//!    full rebuilds, and both can lose to a linear scan (§4.1).
//!
//! This workspace implements the full design space the paper surveys —
//! disk-style and memory-optimised R-Trees, point access methods, uniform
//! and multi-resolution grids, LSH, connectivity-driven (FLAT/DLS/OCTOPUS
//! style) query execution, five spatial-join algorithms, and seven
//! massive-update strategies — plus the synthetic simulation workloads and
//! the instrumented benchmark harness that regenerates every figure and
//! quantitative claim in the paper.
//!
//! ## Quick start
//!
//! ```
//! use simspatial::prelude::*;
//!
//! // Generate a small synthetic neuron dataset (the paper's workload).
//! let dataset = NeuronDatasetBuilder::new()
//!     .neurons(10)
//!     .segments_per_neuron(50)
//!     .seed(42)
//!     .build();
//!
//! // Index it with the paper's favoured in-memory structure: a uniform grid.
//! let grid = UniformGrid::build(dataset.elements(), GridConfig::auto(dataset.elements()));
//!
//! // Range query (in-situ visualisation / local analysis).
//! let query = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(20.0, 20.0, 20.0));
//! let hits = grid.range(dataset.elements(), &query);
//!
//! // Cross-check against the ground truth.
//! let scan = LinearScan::build(dataset.elements());
//! assert_eq!(sorted(hits), sorted(scan.range(dataset.elements(), &query)));
//!
//! fn sorted(mut v: Vec<u32>) -> Vec<u32> { v.sort_unstable(); v }
//! ```
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |--------|--------------|----------|
//! | [`geom`] | `simspatial-geom` | points, boxes, capsules, instrumented predicates |
//! | [`storage`] | `simspatial-storage` | simulated-disk page store + buffer pool |
//! | [`datagen`] | `simspatial-datagen` | synthetic neurons, soups, meshes, displacement streams |
//! | [`mesh`] | `simspatial-mesh` | mesh connectivity + DLS/OCTOPUS query execution |
//! | [`index`] | `simspatial-index` | R-Tree, CR-Tree, KD-Tree, Octree, grids, LSH, FLAT |
//! | [`join`] | `simspatial-join` | nested-loop, sweep, PBSM, TOUCH-style, small-cell joins |
//! | [`moving`] | `simspatial-moving` | update/rebuild/scan strategies & crossover analysis |
//! | [`sim`] | `simspatial-sim` | time-stepped simulation engine + workloads |
//! | [`service`] | `simspatial-service` | concurrent query service: micro-batching scheduler + work-stealing shard pool |
//! | [`net`] | `simspatial-net` | TCP front end: binary wire protocol, multiplexed connections, multi-tenant fair admission |
//!
//! See `ARCHITECTURE.md` at the repository root for how the layers (SoA
//! kernel → index → engine → sharded engine → service) fit together and
//! when to pick each entry point.

#![forbid(unsafe_code)]

pub use simspatial_datagen as datagen;
pub use simspatial_geom as geom;
pub use simspatial_index as index;
pub use simspatial_join as join;
pub use simspatial_mesh as mesh;
pub use simspatial_moving as moving;
pub use simspatial_net as net;
pub use simspatial_service as service;
pub use simspatial_sim as sim;
pub use simspatial_storage as storage;

/// The most commonly used items, re-exported for `use simspatial::prelude::*`.
pub mod prelude {
    pub use simspatial_datagen::{
        ClusteredConfig, Dataset, DisplacementStats, ElementSoupBuilder, NeuronDatasetBuilder,
        PlasticityModel, QueryWorkload,
    };
    pub use simspatial_geom::{
        stats, Aabb, Capsule, Element, ElementId, Point3, Shape, Sphere, Vec3,
    };
    pub use simspatial_index::{
        measure_range, BatchResults, CountSink, CrTree, CrTreeConfig, Curve, DiskRTree, Flat,
        FlatConfig, GridConfig, GridPlacement, KdTree, KnnBatchResults, KnnIndex, KnnLane, KnnSink,
        LinearScan, Lsh, LshConfig, MultiGrid, MultiGridConfig, Octree, OctreeConfig, QueryEngine,
        QueryStats, RTree, RTreeConfig, RangeLane, RangeSink, ShardApplyCost, ShardExecutor,
        ShardPlanner, ShardRouter, ShardedEngine, SpatialIndex, UniformGrid, UpdateLane,
        UpdateLaneReport, UpdateStats, WriteOp,
    };
    pub use simspatial_join::{join_pair, self_join, JoinAlgorithm, JoinConfig, PairAlgorithm};
    pub use simspatial_mesh::{MeshWalker, TetMesh, WalkStrategy};
    pub use simspatial_moving::{
        sharded_strategy_engine, strategy_backend, UpdateStrategy, UpdateStrategyKind,
    };
    pub use simspatial_net::{CallOutcome, NetClient, NetConfig, NetServer, TenantSpec};
    pub use simspatial_service::{
        Capabilities, ChaosBackend, Consistency, FaultKind, FaultPlan, Reply, Request, Response,
        ServiceBackend, ServiceConfig, ServiceHandle, ServiceStats, ShardedBackend, SpatialService,
        SubmitError, SubmitOptions, SupervisorPolicy, TenantStats, Ticket,
    };
    pub use simspatial_sim::{
        MaterialWorkload, NBodyWorkload, PlasticityWorkload, ServedSimulation, ServedStepReport,
        Simulation, SimulationConfig, StepReport, Workload,
    };
    pub use simspatial_storage::{BufferPool, BufferPoolConfig, DiskModel, PageStore};
}
