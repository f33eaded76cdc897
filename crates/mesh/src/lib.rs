//! # simspatial-mesh
//!
//! A tetrahedral-mesh substrate and the **connectivity-driven query
//! execution** the paper's §4.3 holds up as the way out of the massive-
//! update trap:
//!
//! > "DLS \[22\] uses an approximate index as well as the mesh connectivity to
//! > execute range queries: the approximate index (which only needs to be
//! > updated infrequently) is used to find a start point near the query
//! > range and the mesh connectivity is used to a) find the query range and
//! > b) to find all results in the range. DLS, however, only works for
//! > convex meshes (without holes). OCTOPUS \[29\] takes the DLS ideas into
//! > memory but also supports concave meshes."
//!
//! * [`TetMesh`] — vertices, tetrahedra, face adjacency; a deforming
//!   simulation moves the *vertices* while the connectivity is invariant,
//!   which is exactly why these queries need no index maintenance.
//! * [`MeshWalker`] with [`WalkStrategy::Dls`] — single seed from a coarse,
//!   stale-tolerant centroid grid, greedy walk to the query, flood fill
//!   within it (complete on convex meshes).
//! * [`MeshWalker`] with [`WalkStrategy::Octopus`] — multiple seeds across
//!   the query region, then the same flood (complete on concave meshes and
//!   meshes with holes).
//!
//! Results are the ids of cells whose bounding boxes intersect the query —
//! the same contract the substrate's scan ground truth uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tet;
mod walker;

pub use tet::{CellId, TetMesh};
pub use walker::{MeshWalker, WalkStats, WalkStrategy};
