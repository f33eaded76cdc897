//! Thread-local instrumentation for spatial predicates.
//!
//! Figure 3 of the paper decomposes in-memory R-Tree query time into
//! *tree-level* intersection tests, *element-level* intersection tests and
//! remaining computation. To regenerate that breakdown without perturbing
//! the hot path, every index in the workspace funnels its predicate calls
//! through [`tree_test`] / [`element_test`], which bump plain thread-local
//! counters (a `Cell<u64>` increment — one or two instructions).
//!
//! Wall-clock attribution (needed for the *time* breakdown rather than the
//! *count* breakdown) is sampled separately by the benchmark harness: it
//! measures the average cost of each predicate class with the same data and
//! multiplies by these counts. That mirrors how the paper's own numbers were
//! obtained (profiling category shares, not per-call timers, which would
//! dominate the nanosecond-scale tests they instrument).

use std::cell::Cell;

thread_local! {
    static TREE_TESTS: Cell<u64> = const { Cell::new(0) };
    static ELEM_TESTS: Cell<u64> = const { Cell::new(0) };
    static NODES_VISITED: Cell<u64> = const { Cell::new(0) };
    static ELEMENTS_SCANNED: Cell<u64> = const { Cell::new(0) };
    static LOWER_BOUND_EVALS: Cell<u64> = const { Cell::new(0) };
    static EXACT_DISTS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the thread-local predicate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateCounts {
    /// Intersection tests against *inner-node* bounding boxes
    /// (navigating a tree structure).
    pub tree_tests: u64,
    /// Intersection tests against *element* bounding boxes or exact element
    /// geometry (the filter/refine step at the leaves): the box tests of the
    /// filter plus the exact tests actually run. A uniform grid runs no
    /// exact test for a survivor whose stored box lies inside the query (a
    /// sure hit), so it counts its scanned boxes plus its crossing
    /// survivors only.
    pub element_tests: u64,
    /// Inner nodes visited during traversal.
    pub nodes_visited: u64,
    /// Elements touched (scanned or copied), whether or not they were tested.
    pub elements_scanned: u64,
    /// Batched `MINDIST` lower-bound evaluations on stored boxes (the kNN
    /// filter phase — the analogue of the range side's bbox filter lanes).
    pub lower_bound_evals: u64,
    /// Exact element-surface distance evaluations (the kNN refine phase).
    pub exact_dists: u64,
}

impl PredicateCounts {
    /// Total number of intersection tests of either class.
    #[inline]
    pub fn total_tests(&self) -> u64 {
        self.tree_tests + self.element_tests
    }

    /// Component-wise difference (`self - earlier`), for deltas across a
    /// query batch.
    pub fn since(&self, earlier: &PredicateCounts) -> PredicateCounts {
        PredicateCounts {
            tree_tests: self.tree_tests - earlier.tree_tests,
            element_tests: self.element_tests - earlier.element_tests,
            nodes_visited: self.nodes_visited - earlier.nodes_visited,
            elements_scanned: self.elements_scanned - earlier.elements_scanned,
            lower_bound_evals: self.lower_bound_evals - earlier.lower_bound_evals,
            exact_dists: self.exact_dists - earlier.exact_dists,
        }
    }

    /// Component-wise sum, for aggregating per-shard or per-thread deltas.
    pub fn add(&mut self, other: &PredicateCounts) {
        self.tree_tests += other.tree_tests;
        self.element_tests += other.element_tests;
        self.nodes_visited += other.nodes_visited;
        self.elements_scanned += other.elements_scanned;
        self.lower_bound_evals += other.lower_bound_evals;
        self.exact_dists += other.exact_dists;
    }
}

/// Resets all counters of the current thread to zero.
pub fn reset() {
    TREE_TESTS.with(|c| c.set(0));
    ELEM_TESTS.with(|c| c.set(0));
    NODES_VISITED.with(|c| c.set(0));
    ELEMENTS_SCANNED.with(|c| c.set(0));
    LOWER_BOUND_EVALS.with(|c| c.set(0));
    EXACT_DISTS.with(|c| c.set(0));
}

/// Reads the current thread's counters.
pub fn snapshot() -> PredicateCounts {
    PredicateCounts {
        tree_tests: TREE_TESTS.with(Cell::get),
        element_tests: ELEM_TESTS.with(Cell::get),
        nodes_visited: NODES_VISITED.with(Cell::get),
        elements_scanned: ELEMENTS_SCANNED.with(Cell::get),
        lower_bound_evals: LOWER_BOUND_EVALS.with(Cell::get),
        exact_dists: EXACT_DISTS.with(Cell::get),
    }
}

/// Runs `f` and attributes it as one tree-level intersection test.
#[inline(always)]
pub fn tree_test<R>(f: impl FnOnce() -> R) -> R {
    TREE_TESTS.with(|c| c.set(c.get() + 1));
    f()
}

/// Runs `f` and attributes it as one element-level intersection test.
#[inline(always)]
pub fn element_test<R>(f: impl FnOnce() -> R) -> R {
    ELEM_TESTS.with(|c| c.set(c.get() + 1));
    f()
}

/// Records `n` tree-level tests without running anything (for batched
/// SIMD-style loops that test many boxes at once).
#[inline(always)]
pub fn record_tree_tests(n: u64) {
    TREE_TESTS.with(|c| c.set(c.get() + n));
}

/// Records `n` element-level tests.
#[inline(always)]
pub fn record_element_tests(n: u64) {
    ELEM_TESTS.with(|c| c.set(c.get() + n));
}

/// Records a visit to an inner node.
#[inline(always)]
pub fn record_node_visit() {
    NODES_VISITED.with(|c| c.set(c.get() + 1));
}

/// Records `n` elements touched.
#[inline(always)]
pub fn record_elements_scanned(n: u64) {
    ELEMENTS_SCANNED.with(|c| c.set(c.get() + n));
}

/// Records `n` batched `MINDIST` lower-bound evaluations (kNN filter phase).
#[inline(always)]
pub fn record_lower_bound_evals(n: u64) {
    LOWER_BOUND_EVALS.with(|c| c.set(c.get() + n));
}

/// Records one exact element-surface distance evaluation (kNN refine phase).
#[inline(always)]
pub fn record_exact_dist() {
    EXACT_DISTS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        assert_eq!(snapshot(), PredicateCounts::default());
        let r = tree_test(|| 41 + 1);
        assert_eq!(r, 42);
        element_test(|| ());
        element_test(|| ());
        record_tree_tests(3);
        record_node_visit();
        record_elements_scanned(10);
        let s = snapshot();
        assert_eq!(s.tree_tests, 4);
        assert_eq!(s.element_tests, 2);
        assert_eq!(s.nodes_visited, 1);
        assert_eq!(s.elements_scanned, 10);
        assert_eq!(s.total_tests(), 6);
        reset();
        assert_eq!(snapshot().total_tests(), 0);
    }

    #[test]
    fn since_computes_delta() {
        reset();
        record_tree_tests(5);
        let a = snapshot();
        record_tree_tests(7);
        record_element_tests(2);
        let b = snapshot();
        let d = b.since(&a);
        assert_eq!(d.tree_tests, 7);
        assert_eq!(d.element_tests, 2);
    }
}
