//! Multi-resolution grids (§3.3).
//!
//! "A solution to the resolution challenge may thus be to use several
//! uniform grids each with a different resolution: queries may be split and
//! each part (or the whole query) is executed on the grid with the best
//! suited resolution."
//!
//! Here the resolutions double level by level and each element is assigned
//! to the coarsest-necessary level — the finest level whose cells are at
//! least as large as the element — so replication stays bounded at 8 cells
//! per element. Queries (range and kNN) consult every level; each level is a
//! plain [`UniformGrid`], so there is still no tree to traverse.

use crate::grid::{GridConfig, GridPlacement, UniformGrid};
use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::mean_spacing;
use simspatial_geom::{Aabb, Element, Point3, QueryScratch};

/// Configuration of a [`MultiGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiGridConfig {
    /// Cell side of the finest level.
    pub finest_cell: f32,
    /// Number of levels; level `i` has cell side `finest_cell · 2^i`.
    pub levels: usize,
}

impl MultiGridConfig {
    /// Derives a configuration from the data: the finest cell matches the
    /// median element, and enough levels are added to fit the largest.
    pub fn auto(elements: &[Element]) -> Self {
        if elements.is_empty() {
            return Self {
                finest_cell: 1.0,
                levels: 1,
            };
        }
        let mut extents: Vec<f32> = elements
            .iter()
            .map(|e| {
                let ext = e.aabb().extent();
                ext.x.max(ext.y).max(ext.z)
            })
            .collect();
        let mid = extents.len() / 2;
        extents.select_nth_unstable_by(mid, f32::total_cmp);
        let median = extents[mid].max(1e-6);
        let finest_cell = median.max(mean_spacing(elements)).max(1e-6);
        let max_extent = extents.iter().copied().fold(0.0f32, f32::max);
        let levels = ((max_extent / finest_cell).log2().ceil() as usize + 1).clamp(1, 8);
        Self {
            finest_cell,
            levels,
        }
    }

    fn validate(&self) {
        assert!(self.finest_cell > 0.0, "finest cell must be positive");
        assert!((1..=16).contains(&self.levels), "levels must be in 1..=16");
    }
}

/// A stack of uniform grids at doubling resolutions.
#[derive(Debug, Clone)]
pub struct MultiGrid {
    levels: Vec<UniformGrid>,
    cell_sides: Vec<f32>,
    len: usize,
}

impl MultiGrid {
    /// Builds the multigrid, assigning each element to the finest level
    /// whose cells are at least the element's largest extent.
    pub fn build(elements: &[Element], config: MultiGridConfig) -> Self {
        config.validate();
        let bounds = Aabb::union_all(elements.iter().map(Element::aabb));
        let cell_sides: Vec<f32> = (0..config.levels)
            .map(|i| config.finest_cell * (1u32 << i) as f32)
            .collect();
        let mut levels: Vec<UniformGrid> = cell_sides
            .iter()
            .map(|&side| {
                UniformGrid::empty_over(
                    bounds,
                    GridConfig::with_cell_side(side, GridPlacement::Replicate),
                    0,
                )
            })
            .collect();
        for e in elements {
            let ext = e.aabb().extent();
            let size = ext.x.max(ext.y).max(ext.z);
            let level = cell_sides
                .iter()
                .position(|&side| side >= size)
                .unwrap_or(config.levels - 1);
            levels[level].insert(e);
        }
        Self {
            levels,
            cell_sides,
            len: elements.len(),
        }
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Elements stored per level (diagnostics for the assignment policy).
    pub fn level_populations(&self) -> Vec<usize> {
        self.levels.iter().map(UniformGrid::len).collect()
    }

    /// Cell side of each level.
    pub fn cell_sides(&self) -> &[f32] {
        &self.cell_sides
    }
}

impl SpatialIndex for MultiGrid {
    fn name(&self) -> &'static str {
        "MultiGrid"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Levels partition the element set, so per-level emissions union in
    /// the sink without cross-level deduplication — and every level shares
    /// the same scratch buffers (one mask-kernel filter pass per level, no
    /// per-level result vectors).
    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        for level in &self.levels {
            level.range_into(data, query, scratch, sink);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.levels.iter().map(SpatialIndex::memory_bytes).sum()
    }
}

impl KnnIndex for MultiGrid {
    /// Every level's expanding-shell search runs against **one** shared
    /// best-k heap (correct because levels partition the element set), so
    /// the k-th best found in earlier levels prunes the ring expansion and
    /// candidate scoring of later levels — no per-level result vectors, no
    /// merge pass.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        UniformGrid::knn_levels(&self.levels, data, p, k, scratch, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;
    use simspatial_geom::{Shape, Sphere};

    /// Mixed-size dataset: mostly small spheres plus some large ones —
    /// the workload single-resolution grids struggle with.
    fn mixed(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                let r = if i % 37 == 0 { 6.0 } else { 0.2 };
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
            })
            .collect()
    }

    #[test]
    fn range_matches_scan() {
        let data = mixed(2500);
        let mg = MultiGrid::build(&data, MultiGridConfig::auto(&data));
        assert!(
            mg.level_count() >= 2,
            "mixed sizes should need several levels"
        );
        let scan = LinearScan::build(&data);
        for i in 0..15 {
            let c = Point3::new((i * 6) as f32, (i * 5) as f32, (i * 4) as f32);
            let q = Aabb::new(c, Point3::new(c.x + 12.0, c.y + 9.0, c.z + 11.0));
            let mut a = mg.range(&data, &q);
            let mut b = scan.range(&data, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {i}");
        }
    }

    #[test]
    fn knn_matches_scan() {
        let data = mixed(1500);
        let mg = MultiGrid::build(&data, MultiGridConfig::auto(&data));
        let scan = LinearScan::build(&data);
        for i in 0..8 {
            let p = Point3::new((i * 13) as f32, (i * 11) as f32, (i * 7) as f32);
            let a = mg.knn(&data, &p, 5);
            let b = scan.knn(&data, &p, 5);
            assert_eq!(a.len(), 5);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.1 - y.1).abs() < 1e-4, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn levels_partition_elements() {
        let data = mixed(1000);
        let mg = MultiGrid::build(&data, MultiGridConfig::auto(&data));
        assert_eq!(mg.level_populations().iter().sum::<usize>(), 1000);
        // Big elements must not sit in the finest level (bounded replication).
        let sides = mg.cell_sides().to_vec();
        assert!(sides.windows(2).all(|w| w[1] == w[0] * 2.0));
    }

    #[test]
    fn empty() {
        let mg = MultiGrid::build(&[], MultiGridConfig::auto(&[]));
        assert!(mg.is_empty());
        assert!(mg.range(&[], &Aabb::from_point(Point3::ORIGIN)).is_empty());
    }
}
