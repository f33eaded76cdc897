//! # simspatial-moving
//!
//! Update strategies for spatial indexes under the paper's second challenge
//! (§4): *massive yet minimal* movement — every element moves every step,
//! each by almost nothing.
//!
//! The §4.1 experiment frames the contest: updating all elements of an
//! R-Tree took 130 s per step while rebuilding it from scratch took 48 s,
//! with the crossover at 38 % of the dataset changing. §4.2 surveys the
//! moving-object machinery (grace windows, buffering, throwaway indexes)
//! and observes that each merely shifts cost from maintenance to query.
//! §4.3 proposes grids, whose per-step cost is only the handful of cell
//! switches the tiny movements cause.
//!
//! Every contender is an [`UpdateStrategy`], an index
//! (`SpatialIndex + KnnIndex`) that absorbs movement through its one write
//! method, `SpatialIndex::update_in_place`: the simulation hands it the
//! step's `(id, shape)` batch, the strategy writes the dataset and
//! maintains itself at a cost that counts the batch, and the monitoring
//! queries then run through the index traits — so maintenance cost and
//! query cost are separately measurable, which is precisely the trade-off
//! the paper says these schemes hide. Being an index, a boxed strategy
//! also serves as a shard of the sharded engine
//! ([`sharded_strategy_engine`]), taking a K-element write in O(K) (the
//! rebuild kinds excepted).
//!
//! | Kind | §4 reference | Maintenance | Query burden |
//! |------|--------------|-------------|--------------|
//! | [`UpdateStrategyKind::RTreeReinsert`] | the 130 s path | delete+insert per element | none |
//! | [`UpdateStrategyKind::RTreeBottomUp`] | \[26\] bottom-up | patch in place when possible | none |
//! | [`UpdateStrategyKind::RTreeRebuild`] | the 48 s path | full STR rebuild | none |
//! | [`UpdateStrategyKind::LazyGraceWindow`] | \[18, 30\] | only escapes reinserted | loose boxes ⇒ extra tests |
//! | [`UpdateStrategyKind::BufferedUpdates`] | \[6\] | buffer, flush at threshold | buffer probed per query |
//! | [`UpdateStrategyKind::ThrowawayGrid`] | \[7\] | rebuild cheap grid each step | slight (grid) |
//! | [`UpdateStrategyKind::GridMigrate`] | §4.3 direction | cell switches only | slight (grid) |
//! | [`UpdateStrategyKind::NoIndexScan`] | §4.1 bar | zero | O(n) scan |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffered;
mod grid_migrate;
mod lazy;
mod rtree_strategies;
mod scan;
pub mod service;
mod strategy;
#[cfg(test)]
pub(crate) mod testutil;
mod throwaway;

pub use buffered::BufferedRTree;
pub use grid_migrate::GridMigrate;
pub use lazy::LazyGraceWindow;
pub use rtree_strategies::{RTreeDiscipline, RTreeStrategy};
pub use scan::NoIndexScan;
pub use service::{sharded_strategy_engine, strategy_backend};
pub use strategy::{UpdateStrategy, UpdateStrategyKind};
pub use throwaway::ThrowawayGrid;
