//! # simspatial-storage
//!
//! A **simulated disk** substrate for the `simspatial` workspace.
//!
//! The paper's Figure 2 contrasts the cost breakdown of an R-Tree *on disk*
//! (96.7 % of query time spent reading data from 2014-era striped SAS disks)
//! with the same index *in memory* (3.3 % reading, 95.3 % computing). We have
//! no spinning disks, so — per the reproduction brief's substitution rule —
//! this crate models one:
//!
//! * data pages live in RAM inside a [`PageStore`], but
//! * every access that *would* have touched the device is routed through a
//!   [`BufferPool`] which, on a miss, charges a calibrated [`DiskModel`]
//!   latency against a virtual clock ([`IoStats::disk_time_s`]).
//!
//! A disk-resident index then reports modelled `disk_time` alongside the CPU
//! time the caller measures, which is exactly the decomposition Figure 2
//! plots. The default model is calibrated to the paper's hardware appendix
//! (4 × 300 GB SAS drives striped, 4 KB pages, cold caches between queries).
//!
//! The pool is deliberately single-threaded (`&mut self`): the paper's
//! experiments are sequential query streams, and keeping the substrate free
//! of locks keeps the *measured* CPU component honest.
//!
//! ## Example
//!
//! ```
//! use simspatial_storage::{BufferPool, BufferPoolConfig, DiskModel, PageStore};
//!
//! let mut store = PageStore::new();
//! let id = store.allocate();
//! store.write(id, b"hello");
//!
//! let mut pool = BufferPool::new(BufferPoolConfig {
//!     capacity_pages: 8,
//!     disk: DiskModel::sas_2014(),
//! });
//! let data = pool.read(&store, id).to_vec();
//! assert_eq!(&data[..5], b"hello");
//! assert_eq!(pool.stats().misses, 1);      // cold read hit the "disk"
//! pool.read(&store, id);
//! assert_eq!(pool.stats().hits, 1);        // warm read did not
//! assert!(pool.stats().disk_time_s > 0.0); // modelled latency was charged
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer_pool;
mod disk_model;
mod page;
mod store;

pub use buffer_pool::{BufferPool, BufferPoolConfig};
pub use disk_model::{DiskModel, IoStats};
pub use page::{PageId, PAGE_SIZE};
pub use store::PageStore;
