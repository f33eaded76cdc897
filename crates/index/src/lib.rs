//! # simspatial-index
//!
//! The in-memory spatial index design space surveyed by *"Spatial Data
//! Management Challenges in the Simulation Sciences"* (EDBT 2014).
//!
//! The paper argues (§3) that disk-era indexes are mis-designed for memory:
//! they minimise data transfer when they should minimise *computation* —
//! above all intersection tests, which dominate in-memory query time
//! (Figure 3). Its research directions point at structures that avoid tree
//! traversal altogether. This crate implements both sides of that argument:
//!
//! **The disk-era incumbents**
//! * [`RTree`] — Guttman R-Tree with quadratic split, R\*-style forced
//!   reinsertion, STR bulk loading, deletion and bottom-up updates; fully
//!   instrumented (tree-level vs element-level tests).
//! * [`DiskRTree`] — the same STR layout serialized onto 4 KB pages of the
//!   simulated-disk substrate, for the Figure 2 on-disk breakdown.
//! * [`CrTree`] — the cache-conscious R-Tree \[16\]: quantised relative MBRs
//!   packed into cache-line-sized nodes.
//! * [`KdTree`], [`Octree`] — the point access methods of §3.2 (the octree
//!   supports a *loose* factor, the classic fix for volumetric elements).
//!
//! **The paper's research directions**
//! * [`UniformGrid`] — single uniform grid with an analytical resolution
//!   model ([`GridConfig::auto`]).
//! * [`MultiGrid`] — several resolutions, elements assigned by size, queries
//!   routed to every level (§3.3 "several uniform grids each with a
//!   different resolution").
//! * [`Lsh`] — locality-sensitive hashing for low-dimensional kNN (§3.3).
//! * [`Flat`] — FLAT/DLS/OCTOPUS-style connectivity-driven execution: a
//!   deliberately stale coarse seed index plus a crawl over neighbourhood
//!   links that consults the *live* dataset (§4.3 "indexes that
//!   predominantly depend on the dataset itself").
//! * [`LinearScan`] — the no-index baseline the paper repeatedly holds up
//!   as the bar any index must clear under massive updates.
//!
//! Every structure implements [`SpatialIndex`] (range queries); those that
//! support nearest neighbours implement [`KnnIndex`]. Queries take the live
//! element slice so refinement always sees current geometry — the
//! index-uses-the-dataset discipline of §4.3.
//!
//! ## Architecture: sinks, batches, the query engine, and shards
//!
//! The query layer is **batch-first**: the paper's workloads are batches of
//! hundreds of range/kNN probes per simulation step, so a batch — not a
//! single query — is the unit of execution, scheduling and accounting.
//! Four pieces realise this:
//!
//! 1. **Sinks** ([`RangeSink`] and [`KnnSink`]). The required methods of
//!    [`SpatialIndex`] and [`KnnIndex`] are
//!    `range_into(data, query, &mut QueryScratch, &mut dyn RangeSink)` and
//!    `knn_into(data, p, k, &mut QueryScratch, &mut dyn KnnSink)`: results
//!    are *emitted*, not returned. Collecting into vectors
//!    ([`engine::BatchResults`], [`engine::KnnBatchResults`]), counting
//!    ([`engine::CountSink`]), feeding a join, merging shards or streaming
//!    to a socket are all sinks; the index plans never allocate result
//!    storage themselves. kNN results obey a total order — ascending
//!    `(distance, id)` — so ties are deterministic and merges are exact.
//! 2. **Scratch** ([`simspatial_geom::QueryScratch`]). Every transient
//!    buffer a plan needs — candidate lists from the
//!    [`simspatial_geom::SoaAabbs`] mask kernels, traversal stacks, the
//!    generation-stamped visited table, batched `MINDIST` lower bounds,
//!    best-k heaps and best-first queues — is borrowed from the caller, so
//!    the steady-state batch path performs **zero per-query heap
//!    allocations** on the grid/R-Tree/FLAT range paths and the
//!    grid/R-Tree kNN paths.
//! 3. **The engine** ([`engine::QueryEngine`]). Owns the scratch, drives
//!    [`SpatialIndex::range_batch`] (which indexes override with genuinely
//!    batched plans, e.g. the linear scan's one-pass envelope plan) and
//!    one [`KnnIndex::knn_into`] per `(point, k)` probe, centralises
//!    wall-clock/result/predicate-counter accounting into [`QueryStats`] —
//!    including the kNN lower-bound vs exact-distance evaluation split.
//!    It runs a batch on the calling thread.
//! 4. **Shards** ([`engine::sharded::ShardedEngine`]). A [`ShardRouter`]
//!    splits the dataset envelope into K region slabs; each shard owns a
//!    re-identified clone of its elements (replicated where bounding boxes
//!    straddle a boundary), its own index and its own engine. Range
//!    batches fan out to overlapping shards and merge through a
//!    deduplicating sink; kNN probes run a bounded two-phase fan-out
//!    (home shard first, then only shards whose region `MINDIST` can still
//!    improve) and merge per-shard heaps under the `(distance, id)` order
//!    — byte-identical to unsharded execution for exact indexes. Per-shard
//!    [`QueryStats`] are aggregated. The route → wave → merge sequence is
//!    written once, in [`ShardSet`]; the engine runs its lanes serially on
//!    the calling thread, and the service's pool runs the same sequence.
//!
//! The allocating [`SpatialIndex::range`] and [`KnnIndex::knn`] remain as
//! thin compatibility wrappers over the sink paths. Nothing above this
//! crate needs to know how an individual index traverses its structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crtree;
pub mod engine;
mod flat;
mod grid;
mod kdtree;
mod linear;
mod lsh;
mod multigrid;
mod octree;
pub mod rtree;
mod traits;
mod util;

pub use crtree::{CrTree, CrTreeConfig};
pub use engine::sharded::{
    KnnLane, MemoryParts, RangeLane, RestartError, ShardExecutor, ShardPlanner, ShardRebuild,
    ShardRouter, ShardSet, ShardedEngine, UpdateLane, UpdateLaneReport, Wave, WriteOp,
};
pub use engine::{BatchResults, CountSink, KnnBatchResults, QueryEngine};
pub use flat::{Flat, FlatConfig};
pub use grid::{GridConfig, GridPlacement, UniformGrid};
pub use kdtree::KdTree;
pub use linear::LinearScan;
pub use lsh::{Lsh, LshConfig};
pub use multigrid::{MultiGrid, MultiGridConfig};
pub use octree::{Octree, OctreeConfig};
pub use rtree::disk::DiskRTree;
pub use rtree::{Curve, RTree, RTreeConfig, SplitStrategy};
pub use traits::{
    measure_range, KnnIndex, KnnSink, QueryStats, RangeSink, ShardApplyCost, SpatialIndex,
    UpdateStats,
};
