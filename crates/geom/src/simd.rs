//! The name of the one kernel path: [`crate::soa`]'s autovectorised loops
//! are the only batch kernels. This module exists **solely** because the
//! frozen `benchmark/src/main.rs` prints `simd::level()` on its `host` line
//! (`"simd":"Scalar"`); the benchmark PR that drops that field deletes
//! this module with it.

/// The instruction level the batch kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The autovectorised loops in [`crate::soa`].
    Scalar,
}

/// Always [`SimdLevel::Scalar`].
pub fn level() -> SimdLevel {
    SimdLevel::Scalar
}
