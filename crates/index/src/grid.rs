//! The uniform grid — the paper's favoured in-memory direction.
//!
//! §3.3: "One direction to develop novel spatial indexes for main memory may
//! be to use a single uniform grid and therefore to avoid the tree structure
//! needed for access." And §4.3: "using grids will considerably lower the
//! overhead of updates. Clearly the small movement means that only few
//! elements switch grid cell in every step."
//!
//! Two placement policies cover the design axis the paper discusses:
//!
//! * [`GridPlacement::Replicate`] — an element is listed in every cell its
//!   bounding box overlaps (larger index, queries dedupe);
//! * [`GridPlacement::Center`] — an element is listed only in the cell of
//!   its centroid; queries inflate their search region by the largest
//!   element half-extent (the "looser partitions" alternative).
//!
//! Cell resolution is the grid's one knob; [`GridConfig::auto`] implements
//! the analytical model the paper calls for ("the optimal resolution depends
//! on the distribution of location and size of the spatial elements").
//!
//! ## Cache-conscious layout
//!
//! Each cell stores its candidates as a [`SoaAabbs`] slab: ids plus six
//! contiguous coordinate arrays. A range query walks the overlapped cells
//! and runs the **batched bbox filter** over each slab — a streaming pass
//! over flat `f32` arrays instead of a per-candidate gather through
//! `data[id]` — and only the survivors are refined against exact geometry.
//! This is §3.3's scan-friendly-grid argument applied at the memory-layout
//! level; `tests/prop_grid_and_storage.rs` diffs it against the retained
//! scalar path, `geom.scan_ns_per_elem` in `BENCHMARK.json` prices it.
//! Replication dedupe uses the generation-stamped
//! [`simspatial_geom::scratch::VisitedTable`] from the thread-local
//! [`simspatial_geom::QueryScratch`], so the repeat query path is
//! allocation-free (no per-query `HashSet`, no candidate vector churn).

use crate::engine::sharded::ShardApplyCost;
use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::KnnHeap;
use simspatial_geom::scratch::{with_scratch, QueryScratch, VisitedTable};
use simspatial_geom::{stats, Aabb, Element, ElementId, Point3, Shape, SoaAabbs};

/// Placement policy for volumetric elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPlacement {
    /// Replicate ids into every overlapped cell.
    Replicate,
    /// Single cell by centroid; queries are inflated by the maximum element
    /// half-extent to stay complete.
    Center,
}

/// Configuration of a [`UniformGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Edge length of the cubic cells.
    pub cell_side: f32,
    /// Placement policy.
    pub placement: GridPlacement,
}

impl GridConfig {
    /// Explicit resolution.
    pub fn with_cell_side(cell_side: f32, placement: GridPlacement) -> Self {
        assert!(
            cell_side > 0.0 && cell_side.is_finite(),
            "cell side must be positive"
        );
        Self {
            cell_side,
            placement,
        }
    }

    /// The analytical resolution model (§3.3): the cell side is the larger
    /// of (a) the mean element diameter — so replication stays bounded and
    /// center-placement inflation stays tight — and (b) 1.5× the mean
    /// inter-element spacing `(V/n)^⅓` — targeting a small constant number
    /// of elements per occupied cell.
    pub fn auto(elements: &[Element]) -> Self {
        let placement = GridPlacement::Center;
        if elements.is_empty() {
            return Self {
                cell_side: 1.0,
                placement,
            };
        }
        let bounds = Aabb::union_all(elements.iter().map(Element::aabb));
        let n = elements.len() as f32;
        let mean_extent = elements
            .iter()
            .map(|e| {
                let ext = e.aabb().extent();
                ext.x.max(ext.y).max(ext.z)
            })
            .sum::<f32>()
            / n;
        let spacing = (bounds.volume().max(f32::MIN_POSITIVE) / n).cbrt();
        let cell_side = (1.5 * spacing).max(mean_extent).max(1e-6);
        Self {
            cell_side,
            placement,
        }
    }
}

/// A single-resolution uniform grid over element bounding boxes.
///
/// ```
/// use simspatial_datagen::ElementSoupBuilder;
/// use simspatial_geom::{Aabb, Point3};
/// use simspatial_index::{GridConfig, SpatialIndex, UniformGrid};
///
/// let data = ElementSoupBuilder::new().count(2000).seed(3).build();
/// let grid = UniformGrid::build(data.elements(), GridConfig::auto(data.elements()));
/// let q = Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(30.0, 30.0, 30.0));
/// let hits = grid.range(data.elements(), &q);
/// assert!(!hits.is_empty());
/// ```
#[derive(Debug)]
pub struct UniformGrid {
    origin: Point3,
    cell: f32,
    dims: [usize; 3],
    /// Per-cell candidate slabs in structure-of-arrays form.
    cells: Vec<SoaAabbs>,
    placement: GridPlacement,
    len: usize,
    /// Largest half-extent over indexed elements (query inflation bound for
    /// center placement; also the kNN termination slack).
    max_half_extent: f32,
    /// Upper bound on stored ids (sizes the dedupe table).
    id_bound: usize,
    /// Center placement only: `slots[id] = (cell, slot)` directory giving
    /// O(1) entry lookup for the absorbed-update fast path (`u32::MAX`
    /// marks an absent id). Replicate placement stores several replicas per
    /// id and locates them by slab scan instead.
    slots: Vec<(u32, u32)>,
    /// Running [`SpatialIndex::memory_bytes`]: kept current by every
    /// mutation (`insert`/`remove`/`update`/`splice` account the capacity
    /// they add; a bulk load and a clone count once at the end), so the
    /// gauge is O(1) instead of a walk over every cell header.
    bytes: usize,
}

/// A clone's vectors are exact-fit, so its byte count is its own walk, not
/// the original's running figure.
impl Clone for UniformGrid {
    fn clone(&self) -> Self {
        let mut grid = Self {
            origin: self.origin,
            cell: self.cell,
            dims: self.dims,
            cells: self.cells.clone(),
            placement: self.placement,
            len: self.len,
            max_half_extent: self.max_half_extent,
            id_bound: self.id_bound,
            slots: self.slots.clone(),
            bytes: 0,
        };
        grid.bytes = grid.walk_bytes();
        grid
    }
}

/// Absent-entry marker in the center-placement slot directory.
const NO_SLOT: (u32, u32) = (u32::MAX, u32::MAX);

/// Smallest slab for which the kNN batched lower-bound pass is worthwhile.
const MIN_KNN_BATCH: usize = 8;

/// Hard cap on total cells, to keep pathological configs from exhausting
/// memory; the resolution is coarsened to fit.
const MAX_CELLS: usize = 1 << 24; // 16.7 M cells

impl UniformGrid {
    /// Builds a grid over `elements` with the given configuration. The grid
    /// region is the tight bounds of the data, slightly padded so boundary
    /// elements land inside.
    ///
    /// Cell assignment (bounding boxes, centroids, cell coordinates) runs
    /// data-parallel over element chunks; the scatter into cell slabs is a
    /// single sequential pass.
    pub fn build(elements: &[Element], config: GridConfig) -> Self {
        let bounds = Aabb::union_all(elements.iter().map(Element::aabb));
        let mut grid = Self::empty_over(bounds, config, elements.len());
        grid.bulk_insert(elements);
        grid
    }

    /// Creates an empty grid covering `region` (used by the incremental
    /// update strategies, which insert as the simulation streams in).
    pub fn empty_over(region: Aabb, config: GridConfig, expected: usize) -> Self {
        assert!(config.cell_side > 0.0, "cell side must be positive");
        let (origin, extent) = if region.is_empty() {
            (Point3::ORIGIN, simspatial_geom::Vec3::new(1.0, 1.0, 1.0))
        } else {
            // A hair of padding so boundary coordinates round inward; cell
            // coordinates are clamped anyway, so this only balances the
            // boundary cells.
            let e = region.extent();
            let pad = (e.x.max(e.y).max(e.z) * 1e-4).max(1e-6);
            let padded = region.inflate(pad);
            (padded.min, padded.extent())
        };
        let mut cell = config.cell_side;
        let dims_for = |cell: f32| {
            [
                ((extent.x / cell).ceil() as usize).max(1),
                ((extent.y / cell).ceil() as usize).max(1),
                ((extent.z / cell).ceil() as usize).max(1),
            ]
        };
        let mut dims = dims_for(cell);
        while dims[0].saturating_mul(dims[1]).saturating_mul(dims[2]) > MAX_CELLS {
            cell *= 2.0;
            dims = dims_for(cell);
        }
        let total = dims[0] * dims[1] * dims[2];
        let mut grid = Self {
            origin,
            cell,
            dims,
            cells: vec![SoaAabbs::new(); total],
            placement: config.placement,
            len: 0,
            max_half_extent: 0.0,
            id_bound: expected,
            slots: Vec::new(),
            bytes: 0,
        };
        grid.bytes = grid.walk_bytes();
        grid
    }

    /// The byte count from first principles: inline size, cell headers,
    /// slot directory and every slab's heap — what `bytes` must equal.
    fn walk_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.cells.capacity() * std::mem::size_of::<SoaAabbs>()
            + self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.cells.iter().map(SoaAabbs::memory_bytes).sum::<usize>()
    }

    /// Grows (or truncates) the slot directory to exactly `len` entries —
    /// exact-fit, so a directory that gains a few ids never doubles.
    fn size_slots(&mut self, len: usize) {
        let before = self.slots.capacity();
        self.slots
            .reserve_exact(len.saturating_sub(self.slots.len()));
        self.slots.resize(len, NO_SLOT);
        self.bytes += (self.slots.capacity() - before) * std::mem::size_of::<(u32, u32)>();
    }

    /// O(1) locate of `id`'s entry under center placement.
    #[inline]
    fn slot_of(&self, id: ElementId) -> Option<(usize, usize)> {
        match self.slots.get(id as usize) {
            Some(&(cell, slot)) if (cell, slot) != NO_SLOT => Some((cell as usize, slot as usize)),
            _ => None,
        }
    }

    /// Records `id`'s directory entry (center placement).
    #[inline]
    fn note_slot(&mut self, id: ElementId, cell: usize, slot: usize) {
        let idx = id as usize;
        if self.slots.len() <= idx {
            let before = self.slots.capacity();
            self.slots.resize(idx + 1, NO_SLOT);
            self.bytes += (self.slots.capacity() - before) * std::mem::size_of::<(u32, u32)>();
        }
        self.slots[idx] = (cell as u32, slot as u32);
    }

    /// Pushes an entry into a cell slab, maintaining the slot directory
    /// and the running byte count.
    #[inline]
    fn cell_push(&mut self, cell: usize, bbox: Aabb, id: ElementId) {
        let slab = &mut self.cells[cell];
        let before = slab.memory_bytes();
        slab.push(bbox, id);
        self.bytes += slab.memory_bytes() - before;
        if self.placement == GridPlacement::Center {
            let slot = self.cells[cell].len() - 1;
            self.note_slot(id, cell, slot);
        }
    }

    /// Swap-removes a slab entry, patching the directory entries of both
    /// the removed id and the entry swapped into its place.
    #[inline]
    fn cell_swap_remove(&mut self, cell: usize, pos: usize) {
        let (_, removed) = self.cells[cell].swap_remove(pos);
        if self.placement == GridPlacement::Center {
            self.slots[removed as usize] = NO_SLOT;
            if pos < self.cells[cell].len() {
                let moved = self.cells[cell].id_at(pos);
                self.note_slot(moved, cell, pos);
            }
        }
    }

    /// The realised cell side (may be coarser than requested if the cap hit).
    pub fn cell_side(&self) -> f32 {
        self.cell
    }

    /// Grid dimensions in cells.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The placement policy in force.
    pub fn placement(&self) -> GridPlacement {
        self.placement
    }

    /// Number of non-empty cells (diagnostics for the resolution model).
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_empty()).count()
    }

    #[inline]
    fn clamp_coord(&self, p: &Point3) -> [usize; 3] {
        let rel = *p - self.origin;
        [
            ((rel.x / self.cell) as isize).clamp(0, self.dims[0] as isize - 1) as usize,
            ((rel.y / self.cell) as isize).clamp(0, self.dims[1] as isize - 1) as usize,
            ((rel.z / self.cell) as isize).clamp(0, self.dims[2] as isize - 1) as usize,
        ]
    }

    #[inline]
    fn cell_index(&self, c: [usize; 3]) -> usize {
        (c[2] * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// The cell coordinate an element centre maps to.
    pub fn cell_of(&self, p: &Point3) -> [usize; 3] {
        self.clamp_coord(p)
    }

    /// Range of cell coordinates overlapped by a box.
    fn cell_range(&self, b: &Aabb) -> ([usize; 3], [usize; 3]) {
        (self.clamp_coord(&b.min), self.clamp_coord(&b.max))
    }

    #[inline]
    fn note_element(&mut self, id: ElementId, bbox: &Aabb) {
        let ext = bbox.extent();
        self.max_half_extent = self.max_half_extent.max(ext.x.max(ext.y).max(ext.z) * 0.5);
        self.id_bound = self.id_bound.max(id as usize + 1);
    }

    /// Bulk-inserts a dataset: the parallel assignment phase computes each
    /// element's bounding box and target cell(s); a sequential pass then
    /// scatters the `(bbox, id)` entries into the cell slabs.
    fn bulk_insert(&mut self, elements: &[Element]) {
        if elements.is_empty() {
            return;
        }
        struct Assigned {
            entries: Vec<(u32, Aabb, ElementId)>,
            max_half: f32,
            max_id: ElementId,
        }
        // Phase 1 (parallel): geometry + cell coordinates per element. This
        // is the compute-heavy part — exact shape bounds and coordinate
        // quantisation — and is embarrassingly parallel.
        let chunks = simspatial_geom::parallel::par_map_chunks(elements, 2048, |_, chunk| {
            let mut out = Assigned {
                entries: Vec::with_capacity(chunk.len()),
                max_half: 0.0,
                max_id: 0,
            };
            for e in chunk {
                let bbox = e.aabb();
                let ext = bbox.extent();
                out.max_half = out.max_half.max(ext.x.max(ext.y).max(ext.z) * 0.5);
                out.max_id = out.max_id.max(e.id);
                match self.placement {
                    GridPlacement::Center => {
                        let c = self.clamp_coord(&e.center());
                        out.entries.push((self.cell_index(c) as u32, bbox, e.id));
                    }
                    GridPlacement::Replicate => {
                        let (lo, hi) = self.cell_range(&bbox);
                        for z in lo[2]..=hi[2] {
                            for y in lo[1]..=hi[1] {
                                for x in lo[0]..=hi[0] {
                                    out.entries.push((
                                        self.cell_index([x, y, z]) as u32,
                                        bbox,
                                        e.id,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            out
        });
        // Phase 2 (sequential): scatter into slabs.
        for chunk in chunks {
            self.max_half_extent = self.max_half_extent.max(chunk.max_half);
            self.id_bound = self.id_bound.max(chunk.max_id as usize + 1);
            for (cell, bbox, id) in chunk.entries {
                let slab = &mut self.cells[cell as usize];
                slab.push(bbox, id);
                if self.placement == GridPlacement::Center {
                    let slot = slab.len() - 1;
                    self.note_slot(id, cell as usize, slot);
                }
            }
        }
        self.len += elements.len();
        // One count for the whole load instead of one per push.
        self.bytes = self.walk_bytes();
    }

    /// Inserts an element under the configured placement.
    pub fn insert(&mut self, e: &Element) {
        let bbox = e.aabb();
        self.note_element(e.id, &bbox);
        match self.placement {
            GridPlacement::Center => {
                let c = self.clamp_coord(&e.center());
                let idx = self.cell_index(c);
                self.cell_push(idx, bbox, e.id);
            }
            GridPlacement::Replicate => {
                let (lo, hi) = self.cell_range(&bbox);
                for z in lo[2]..=hi[2] {
                    for y in lo[1]..=hi[1] {
                        for x in lo[0]..=hi[0] {
                            let idx = self.cell_index([x, y, z]);
                            self.cell_push(idx, bbox, e.id);
                        }
                    }
                }
            }
        }
        self.len += 1;
    }

    /// Removes an element, given the geometry it was inserted with.
    /// Returns `true` if found.
    pub fn remove(&mut self, id: ElementId, old: &Element) -> bool {
        let mut found = false;
        match self.placement {
            GridPlacement::Center => {
                if let Some((cell, pos)) = self.slot_of(id) {
                    self.cell_swap_remove(cell, pos);
                    found = true;
                }
            }
            GridPlacement::Replicate => {
                let (lo, hi) = self.cell_range(&old.aabb());
                for z in lo[2]..=hi[2] {
                    for y in lo[1]..=hi[1] {
                        for x in lo[0]..=hi[0] {
                            let idx = self.cell_index([x, y, z]);
                            if let Some(pos) = self.cells[idx].position_of_id(id) {
                                self.cells[idx].swap_remove(pos);
                                found = true;
                            }
                        }
                    }
                }
            }
        }
        if found {
            self.len -= 1;
        }
        found
    }

    /// Moves an element from its old to its new geometry. With center
    /// placement and small displacements this is almost always cell-local —
    /// the §4.3 argument for grids under massive minimal movement. Returns
    /// `true` when the element actually changed cells (the stored bounding
    /// box is refreshed either way, keeping the slabs exact).
    pub fn update(&mut self, old: &Element, new: &Element) -> bool {
        debug_assert_eq!(old.id, new.id);
        let new_bbox = new.aabb();
        match self.placement {
            GridPlacement::Center => {
                let co = self.clamp_coord(&old.center());
                let cn = self.clamp_coord(&new.center());
                if co == cn {
                    // Absorbed move: O(1) directory lookup, box rewrite in
                    // place so the stored-box filter keeps seeing live
                    // geometry.
                    if let Some((cell, pos)) = self.slot_of(old.id) {
                        self.cells[cell].set_box(pos, new_bbox);
                        self.note_element(new.id, &new_bbox);
                    }
                    return false;
                }
                if let Some((cell, pos)) = self.slot_of(old.id) {
                    self.cell_swap_remove(cell, pos);
                    let ic = self.cell_index(cn);
                    self.cell_push(ic, new_bbox, new.id);
                    self.note_element(new.id, &new_bbox);
                    true
                } else {
                    false
                }
            }
            GridPlacement::Replicate => {
                let (olo, ohi) = self.cell_range(&old.aabb());
                let (nlo, nhi) = self.cell_range(&new_bbox);
                if (olo, ohi) == (nlo, nhi) {
                    for z in olo[2]..=ohi[2] {
                        for y in olo[1]..=ohi[1] {
                            for x in olo[0]..=ohi[0] {
                                let idx = self.cell_index([x, y, z]);
                                if let Some(pos) = self.cells[idx].position_of_id(old.id) {
                                    self.cells[idx].set_box(pos, new_bbox);
                                }
                            }
                        }
                    }
                    self.note_element(new.id, &new_bbox);
                    return false;
                }
                // `remove` and `insert` keep `len` level between them.
                self.remove(old.id, old);
                self.insert(new);
                true
            }
        }
    }

    /// Applies a whole simulation step of movements in one call: `old[i]`
    /// and `new[i]` must describe the same element before/after. Currently
    /// a straight per-pair loop over [`UniformGrid::update`] (the step-level
    /// API exists so callers hand the grid the whole step; a genuinely
    /// vectorised migration pass can slot in behind it). Returns
    /// `(structural_updates, absorbed)` — the §4.3 split between elements
    /// that switched cells and elements whose movement the grid absorbed in
    /// place.
    pub fn update_batch(&mut self, old: &[Element], new: &[Element]) -> (usize, usize) {
        assert_eq!(
            old.len(),
            new.len(),
            "update_batch needs before/after pairs"
        );
        let mut structural = 0usize;
        let mut absorbed = 0usize;
        for (o, n) in old.iter().zip(new.iter()) {
            debug_assert_eq!(o.id, n.id);
            if self.update(o, n) {
                structural += 1;
            } else {
                absorbed += 1;
            }
        }
        (structural, absorbed)
    }

    /// The sparse sibling of [`UniformGrid::update_batch`]: each
    /// `(id, shape)` entry replaces `data[id]`'s geometry (`data` follows
    /// the `id == position` convention; out-of-range ids are skipped) and
    /// migrates that element, so K updates cost O(K) whatever the dataset
    /// size. Duplicate ids resolve last-write-wins, because each migration
    /// starts from the element's current (already updated) cell. A pure
    /// function of `(self, data, updates)`, with the signature of a shard
    /// apply function ([`crate::ShardedEngine::with_apply`]).
    pub fn update_sparse(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> ShardApplyCost {
        let mut cost = ShardApplyCost::default();
        for &(id, shape) in updates {
            let Some(e) = data.get_mut(id as usize) else {
                continue;
            };
            let old = e.clone();
            e.shape = shape;
            if self.update(&old, e) {
                cost.structural += 1;
            } else {
                cost.absorbed += 1;
            }
        }
        cost
    }

    /// Candidate ids whose **stored** bounding boxes intersect `probe`
    /// (deduplicated under replication), **without** exact refinement.
    /// Under center placement the cell walk is additionally inflated by the
    /// recorded maximum half-extent so every overlapping slab is visited.
    ///
    /// Callers that tolerate staleness (FLAT's seed phase) pass a probe
    /// already inflated by their drift bound; the stored boxes are the
    /// boxes at insert/update time, so the filter is sound against such a
    /// probe. Used by structures that layer their own refinement on top.
    pub fn range_bbox_candidates(&self, probe: &Aabb) -> Vec<ElementId> {
        with_scratch(|scratch| {
            self.collect_candidates(probe, scratch);
            scratch.candidates.clone()
        })
    }

    /// Allocation-free form of [`UniformGrid::range_bbox_candidates`]:
    /// appends candidates to `scratch.candidates`. Under replication the
    /// dedupe pass claims `scratch.visited` for a new epoch.
    pub fn range_bbox_candidates_into(&self, probe: &Aabb, scratch: &mut QueryScratch) {
        self.collect_candidates(probe, scratch);
    }

    /// The batched filter phase: appends to `scratch.candidates` the ids of
    /// stored boxes intersecting `probe`.
    fn collect_candidates(&self, probe: &Aabb, scratch: &mut QueryScratch) {
        let walk = match self.placement {
            GridPlacement::Center => probe.inflate(self.max_half_extent),
            GridPlacement::Replicate => *probe,
        };
        let (lo, hi) = self.cell_range(&walk);
        let dedupe = self.placement == GridPlacement::Replicate;
        if dedupe {
            scratch.visited.begin(self.id_bound);
        }
        let mut scanned = 0u64;
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let slab = &self.cells[self.cell_index([x, y, z])];
                    if slab.is_empty() {
                        continue;
                    }
                    scanned += slab.len() as u64;
                    if dedupe {
                        let before = scratch.candidates.len();
                        slab.intersect_into(probe, &mut scratch.candidates);
                        // Drop ids already produced by a previously visited
                        // replica cell (generation-stamped, no hashing).
                        let mut keep = before;
                        for i in before..scratch.candidates.len() {
                            let id = scratch.candidates[i];
                            if scratch.visited.mark(id) {
                                scratch.candidates[keep] = id;
                                keep += 1;
                            }
                        }
                        scratch.candidates.truncate(keep);
                    } else {
                        slab.intersect_into(probe, &mut scratch.candidates);
                    }
                }
            }
        }
        // Counter semantics: one element-level test per slab *lane* — the
        // physical batched comparisons. Under replication this counts each
        // replica (the seed counted one test per deduplicated candidate
        // after its sort+dedup pass), so replicated grids report ~r x more
        // element tests than the seed methodology for replication factor r;
        // `elements_scanned` is unchanged (raw lanes, as before).
        stats::record_elements_scanned(scanned);
        stats::record_element_tests(scanned);
    }

    /// The seed implementation's scalar query path, kept as the reference
    /// for differential tests (`tests/prop_grid_and_storage.rs`): dump
    /// raw cell candidate lists (sort + dedup under replication), then run
    /// the scalar filter-and-refine predicate per candidate against `data`.
    ///
    /// Compiled only for tests and under the `reference` feature, so release
    /// binaries do not carry the dead oracle code.
    #[cfg(any(test, feature = "reference"))]
    pub fn range_scalar_reference(&self, data: &[Element], query: &Aabb) -> Vec<ElementId> {
        let probe = match self.placement {
            GridPlacement::Center => query.inflate(self.max_half_extent),
            GridPlacement::Replicate => *query,
        };
        let (lo, hi) = self.cell_range(&probe);
        let mut out = Vec::new();
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    out.extend_from_slice(self.cells[self.cell_index([x, y, z])].ids());
                }
            }
        }
        stats::record_elements_scanned(out.len() as u64);
        if self.placement == GridPlacement::Replicate {
            out.sort_unstable();
            out.dedup();
        }
        out.retain(|&id| simspatial_geom::predicates::element_in_range(&data[id as usize], query));
        out
    }
}

impl SpatialIndex for UniformGrid {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Batched filter + scalar refine: the bbox filter streams over the
    /// cell slabs' SoA arrays; only survivors touch `data` for the exact
    /// geometry test, and confirmed hits stream straight into the sink.
    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        scratch.candidates.clear();
        self.collect_candidates(query, scratch);
        stats::record_element_tests(scratch.candidates.len() as u64);
        for &id in &scratch.candidates {
            if data[id as usize].shape.intersects_aabb(query) {
                sink.push(id);
            }
        }
    }

    /// O(1): the running count (checked against the cell walk in debug
    /// builds).
    fn memory_bytes(&self) -> usize {
        debug_assert_eq!(self.bytes, self.walk_bytes(), "running byte count drifted");
        self.bytes
    }

    /// Removes the departing entries (center placement finds them through
    /// the slot directory, replication through their boxes' cell ranges),
    /// renumbers every stored id — and rebuilds the directory — in one walk
    /// over the cells, then inserts the arrivals. The grid region and
    /// resolution stay as built: arrivals outside it clamp into the
    /// boundary cells (exact, only slower), which is why callers rebuild
    /// on bulk changes. Always succeeds.
    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        for e in removed {
            let found = self.remove(e.id, e);
            debug_assert!(found, "spliced-out element {} was not indexed", e.id);
        }
        let center = self.placement == GridPlacement::Center;
        // No removal and the last id mapping to itself: a monotone map is
        // then the identity (arrivals all sort after the survivors — the
        // shape of a plain insert), and the walk is skipped.
        let identity =
            removed.is_empty() && remap.last().is_none_or(|&l| l as usize + 1 == remap.len());
        let arrivals_end = inserted
            .iter()
            .map(|e| e.id as usize + 1)
            .max()
            .unwrap_or(0);
        if center {
            // The directory ends at the image of the largest surviving old
            // id (its last occupied entry) or at the last arrival; when ids
            // move it is rebuilt by the walk below.
            let survivors_end = if identity {
                self.slots.len()
            } else {
                let last = self.slots.iter().rposition(|&s| s != NO_SLOT);
                self.slots.clear();
                last.map_or(0, |old| remap[old] as usize + 1)
            };
            self.size_slots(survivors_end.max(arrivals_end));
        }
        if !identity {
            let mut end = 0usize;
            for (c, slab) in self.cells.iter_mut().enumerate() {
                for (s, id) in slab.ids_mut().iter_mut().enumerate() {
                    *id = remap[*id as usize];
                    end = end.max(*id as usize + 1);
                    if center {
                        self.slots[*id as usize] = (c as u32, s as u32);
                    }
                }
            }
            self.id_bound = end;
        }
        for e in inserted {
            self.insert(e);
        }
        true
    }
}

impl UniformGrid {
    /// The expanding-shell kNN search core, filling a caller-owned best-k
    /// heap: each visited cell slab first runs the batched `MINDIST` kernel
    /// ([`SoaAabbs::min_dist2_into`]) over its stored boxes; a candidate
    /// pays the exact element-surface distance only when its box lower
    /// bound can still beat the current k-th best. Rings expand outward in
    /// Chebyshev shells and stop once no unvisited ring can improve.
    ///
    /// Shared with [`crate::MultiGrid`], which runs every level's search
    /// against **one** heap so earlier levels' k-th best prunes later
    /// levels.
    pub(crate) fn knn_core(
        &self,
        data: &[Element],
        p: &Point3,
        dists: &mut Vec<f32>,
        visited: &mut VisitedTable,
        best: &mut KnnHeap,
    ) {
        if self.len == 0 {
            return;
        }
        let center = self.clamp_coord(p);
        let max_ring = self.dims[0].max(self.dims[1]).max(self.dims[2]);
        // Under replication an element appears in several cells; the
        // generation-stamped visited table keeps it from being scored (and
        // returned) twice.
        let dedupe = self.placement == GridPlacement::Replicate;
        if dedupe {
            visited.begin(self.id_bound);
        }
        let mut seen = 0usize;
        for ring in 0..=max_ring {
            // Termination: the closest possible element in ring r is at
            // least (r-1)·cell − max_half_extent away (the point may sit
            // at its cell's edge, and an element's surface may extend
            // beyond its centre's cell).
            if best.is_full() {
                let ring_min = (ring as f32 - 1.0) * self.cell - self.max_half_extent;
                if ring_min > best.worst() {
                    break;
                }
            }
            let mut any_cell = false;
            self.for_ring(center, ring, |cell_idx| {
                any_cell = true;
                let slab = &self.cells[cell_idx];
                if slab.is_empty() {
                    return;
                }
                // Batched lower bounds pay off only once there is a
                // k-th best to prune against and the slab is big enough
                // to amortise the kernel pass; otherwise score direct.
                let bounded = best.is_full() && slab.len() >= MIN_KNN_BATCH;
                if bounded {
                    slab.min_dist2_into(p, dists);
                    stats::record_lower_bound_evals(slab.len() as u64);
                }
                for (i, &id) in slab.ids().iter().enumerate() {
                    if dedupe && !visited.mark(id) {
                        continue;
                    }
                    seen += 1;
                    if bounded && best.is_full() {
                        let kth = best.worst();
                        // The stored box contains the element surface,
                        // so lb ≤ exact; a bound beyond the k-th best
                        // cannot improve the result.
                        if dists[i] > kth * kth {
                            continue;
                        }
                    }
                    let d = simspatial_geom::predicates::element_distance(&data[id as usize], p);
                    best.consider(id, d);
                }
            });
            if !any_cell && ring > 0 {
                // Ring fully outside the grid: everything farther is too.
                if best.is_full() {
                    break;
                }
                // Keep expanding only while rings may still clip the grid.
                let beyond = ring > self.dims[0] + self.dims[1] + self.dims[2];
                if beyond {
                    break;
                }
            }
        }
        stats::record_elements_scanned(seen as u64);
    }
}

impl KnnIndex for UniformGrid {
    /// Expanding-shell kNN with batched candidate scoring (see
    /// `UniformGrid::knn_core`); the best-k heap, batched distances and
    /// replication-dedupe table all live in the caller's scratch, so repeat
    /// probes allocate nothing.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        if k == 0 || self.len == 0 {
            return;
        }
        let QueryScratch {
            dists,
            visited,
            knn_best,
            ..
        } = scratch;
        let mut best = KnnHeap::new(knn_best, k);
        self.knn_core(data, p, dists, visited, &mut best);
        best.emit(sink);
    }
}

#[cfg(any(test, feature = "reference"))]
impl UniformGrid {
    /// The seed implementation's expanding-shell kNN, kept as the reference
    /// for differential tests (`tests/differential_batch.rs`): every candidate
    /// in every visited cell is scored with the exact element-surface
    /// distance, one at a time, with no batched lower-bound pass. Selects
    /// under the same ascending `(distance, id)` order as the sink path.
    ///
    /// Compiled only for tests and under the `reference` feature.
    pub fn knn_scalar_reference(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
    ) -> Vec<(ElementId, f32)> {
        use crate::util::OrderedF32;
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let center = self.clamp_coord(p);
        let max_ring = self.dims[0].max(self.dims[1]).max(self.dims[2]);
        let mut best: std::collections::BinaryHeap<(OrderedF32, ElementId)> =
            std::collections::BinaryHeap::new();
        let mut seen = 0usize;
        with_scratch(|scratch| {
            let dedupe = self.placement == GridPlacement::Replicate;
            if dedupe {
                scratch.visited.begin(self.id_bound);
            }
            let visited = &mut scratch.visited;
            for ring in 0..=max_ring {
                if best.len() >= k {
                    let kth = best.peek().unwrap().0 .0;
                    let ring_min = (ring as f32 - 1.0) * self.cell - self.max_half_extent;
                    if ring_min > kth {
                        break;
                    }
                }
                let mut any_cell = false;
                self.for_ring(center, ring, |cell_idx| {
                    any_cell = true;
                    for &id in self.cells[cell_idx].ids() {
                        if dedupe && !visited.mark(id) {
                            continue;
                        }
                        seen += 1;
                        let d =
                            simspatial_geom::predicates::element_distance(&data[id as usize], p);
                        let key = (OrderedF32(d), id);
                        if best.len() < k {
                            best.push(key);
                        } else if key < *best.peek().unwrap() {
                            best.pop();
                            best.push(key);
                        }
                    }
                });
                if !any_cell && ring > 0 {
                    if best.len() >= k {
                        break;
                    }
                    if ring > self.dims[0] + self.dims[1] + self.dims[2] {
                        break;
                    }
                }
            }
        });
        stats::record_elements_scanned(seen as u64);
        let mut out: Vec<(ElementId, f32)> = best.into_iter().map(|(d, id)| (id, d.0)).collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

impl UniformGrid {
    /// Visits every in-bounds cell at Chebyshev distance `ring` from `c`.
    fn for_ring(&self, c: [usize; 3], ring: usize, mut f: impl FnMut(usize)) {
        let lo = [
            c[0] as isize - ring as isize,
            c[1] as isize - ring as isize,
            c[2] as isize - ring as isize,
        ];
        let hi = [
            c[0] as isize + ring as isize,
            c[1] as isize + ring as isize,
            c[2] as isize + ring as isize,
        ];
        let in_bounds = |x: isize, d: usize| x >= 0 && x < self.dims[d] as isize;
        for z in lo[2]..=hi[2] {
            if !in_bounds(z, 2) {
                continue;
            }
            for y in lo[1]..=hi[1] {
                if !in_bounds(y, 1) {
                    continue;
                }
                for x in lo[0]..=hi[0] {
                    if !in_bounds(x, 0) {
                        continue;
                    }
                    // Shell only: at least one coordinate on the ring face.
                    let on_face = (z == lo[2] || z == hi[2])
                        || (y == lo[1] || y == hi[1])
                        || (x == lo[0] || x == hi[0]);
                    if ring == 0 || on_face {
                        f(self.cell_index([x as usize, y as usize, z as usize]));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;
    use simspatial_geom::{Shape, Sphere, Vec3};

    fn scattered(n: u32, r: f32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
            })
            .collect()
    }

    fn queries() -> Vec<Aabb> {
        (0..15)
            .map(|i| {
                let c = Point3::new((i * 6) as f32, (i * 5) as f32, (i * 4) as f32);
                Aabb::new(c, Point3::new(c.x + 13.0, c.y + 9.0, c.z + 7.0))
            })
            .collect()
    }

    #[test]
    fn both_placements_match_scan() {
        let data = scattered(3000, 0.6);
        let scan = LinearScan::build(&data);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let g = UniformGrid::build(&data, GridConfig::with_cell_side(5.0, placement));
            assert_eq!(g.len(), 3000);
            for q in queries() {
                let mut a = g.range(&data, &q);
                let mut b = scan.range(&data, &q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{placement:?} {q:?}");
            }
        }
    }

    #[test]
    fn batched_path_matches_scalar_reference() {
        let data = scattered(2500, 0.5);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let g = UniformGrid::build(&data, GridConfig::with_cell_side(4.0, placement));
            for q in queries() {
                let mut a = g.range(&data, &q);
                let mut b = g.range_scalar_reference(&data, &q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{placement:?} {q:?}");
            }
        }
    }

    #[test]
    fn incremental_build_matches_bulk() {
        let data = scattered(1500, 0.4);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let config = GridConfig::with_cell_side(5.0, placement);
            let bulk = UniformGrid::build(&data, config);
            let bounds = Aabb::union_all(data.iter().map(Element::aabb));
            let mut inc = UniformGrid::empty_over(bounds, config, data.len());
            for e in &data {
                inc.insert(e);
            }
            assert_eq!(bulk.len(), inc.len());
            for q in queries() {
                let mut a = bulk.range(&data, &q);
                let mut b = inc.range(&data, &q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{placement:?} {q:?}");
            }
        }
    }

    #[test]
    fn auto_config_matches_scan() {
        let data = scattered(2000, 0.3);
        let g = UniformGrid::build(&data, GridConfig::auto(&data));
        let scan = LinearScan::build(&data);
        for q in queries() {
            let mut a = g.range(&data, &q);
            let mut b = scan.range(&data, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn knn_matches_scan() {
        let data = scattered(2500, 0.4);
        let scan = LinearScan::build(&data);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let g = UniformGrid::build(&data, GridConfig::with_cell_side(4.0, placement));
            for i in 0..8 {
                let p = Point3::new((i * 11) as f32, (i * 9) as f32, (i * 13) as f32);
                let a = g.knn(&data, &p, 6);
                let b = scan.knn(&data, &p, 6);
                assert_eq!(a.len(), 6);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x.1 - y.1).abs() < 1e-4, "{placement:?}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn update_detects_cell_switches() {
        let data = scattered(500, 0.2);
        let mut g = UniformGrid::build(
            &data,
            GridConfig::with_cell_side(10.0, GridPlacement::Center),
        );
        // Tiny move: same cell, no structural update.
        let old = data[0].clone();
        let mut new = old.clone();
        new.translate(Vec3::new(0.001, 0.0, 0.0));
        assert!(!g.update(&old, &new));
        // Large move: must switch cells.
        let mut far = old.clone();
        far.translate(Vec3::new(50.0, 0.0, 0.0));
        assert!(g.update(&old, &far));
        assert_eq!(g.len(), 500);
        // The moved element must now be discoverable at its new position.
        let mut data2: Vec<Element> = data.clone();
        data2[0] = far.clone();
        let hits = g.range(&data2, &far.aabb());
        assert!(hits.contains(&0));
    }

    #[test]
    fn absorbed_update_refreshes_stored_box() {
        // An in-cell move must update the stored bounding box so the
        // batched filter keeps seeing live geometry.
        let data = scattered(200, 0.2);
        let mut g = UniformGrid::build(
            &data,
            GridConfig::with_cell_side(20.0, GridPlacement::Center),
        );
        let mut live = data.clone();
        let old = live[3].clone();
        let mut new = old.clone();
        new.translate(Vec3::new(3.0, 3.0, 3.0)); // big enough to matter, same cell
        let switched = g.update(&old, &new);
        live[3] = new.clone();
        let q = new.aabb();
        let hits = g.range(&live, &q);
        assert!(
            hits.contains(&3),
            "switched={switched}, stale stored box lost the element"
        );
    }

    #[test]
    fn update_batch_matches_sequential_updates() {
        let data = scattered(800, 0.3);
        let moved: Vec<Element> = data
            .iter()
            .map(|e| {
                let mut m = e.clone();
                let h = e.id.wrapping_mul(0x9E3779B9);
                let big = e.id % 11 == 0;
                let s = if big { 12.0 } else { 0.01 };
                m.translate(Vec3::new(
                    (h % 100) as f32 / 100.0 * s,
                    ((h >> 8) % 100) as f32 / 100.0 * s,
                    ((h >> 16) % 100) as f32 / 100.0 * s,
                ));
                m
            })
            .collect();
        let config = GridConfig::with_cell_side(3.0, GridPlacement::Center);
        let mut batched = UniformGrid::build(&data, config);
        let (structural, absorbed) = batched.update_batch(&data, &moved);
        assert_eq!(structural + absorbed, data.len());
        assert!(structural > 0, "some large moves must switch cells");
        assert!(absorbed > 0, "small moves must be absorbed");

        let mut sequential = UniformGrid::build(&data, config);
        let mut seq_structural = 0;
        for (o, n) in data.iter().zip(moved.iter()) {
            if sequential.update(o, n) {
                seq_structural += 1;
            }
        }
        assert_eq!(structural, seq_structural);
        let q = Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(60.0, 60.0, 60.0));
        let mut a = batched.range(&moved, &q);
        let mut b = sequential.range(&moved, &q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn remove_then_query() {
        let data = scattered(300, 0.2);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let mut g = UniformGrid::build(&data, GridConfig::with_cell_side(8.0, placement));
            assert!(g.remove(7, &data[7]));
            assert!(!g.remove(7, &data[7]), "double remove must fail");
            assert_eq!(g.len(), 299);
            let hits = g.range(&data, &data[7].aabb().inflate(0.1));
            assert!(!hits.contains(&7));
        }
    }

    /// A small scattered change for the splice tests: drops every 7th of
    /// the first 70 elements, lands three arrivals (front, middle, past the
    /// end). Returns the new dataset and the `splice` arguments.
    #[allow(clippy::type_complexity)]
    fn small_change(
        data: &[Element],
    ) -> (Vec<Element>, Vec<Element>, Vec<ElementId>, Vec<Element>) {
        let lands = [0usize, data.len() / 2, data.len()];
        let (mut new, mut removed, mut inserted) = (Vec::new(), Vec::new(), Vec::new());
        let mut remap = Vec::new();
        for i in 0..=data.len() {
            if lands.contains(&i) {
                let shape = Shape::Sphere(Sphere::new(Point3::new(i as f32 / 9.0, 40.0, 7.0), 0.3));
                inserted.push(Element::new(new.len() as ElementId, shape));
                new.push(inserted.last().unwrap().clone());
            }
            let Some(e) = data.get(i) else { break };
            remap.push(new.len() as ElementId);
            if i < 70 && i % 7 == 0 {
                removed.push(e.clone());
            } else {
                new.push(Element::new(new.len() as ElementId, e.shape));
            }
        }
        (new, removed, remap, inserted)
    }

    #[test]
    fn running_byte_count_tracks_the_cell_walk() {
        let data = scattered(900, 0.5);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let mut g = UniformGrid::build(&data, GridConfig::with_cell_side(6.0, placement));
            assert_eq!(g.bytes, g.walk_bytes(), "{placement:?}: after build");
            let mut live = data.clone();
            for e in live.iter_mut().step_by(5) {
                let old = e.clone();
                e.translate(Vec3::new(9.0, 2.0, -4.0));
                g.update(&old, e);
            }
            assert!(g.remove(11, &live[11]));
            let extra = Element::new(
                900,
                Shape::Sphere(Sphere::new(Point3::new(1.0, 2.0, 3.0), 0.4)),
            );
            g.insert(&extra);
            assert_eq!(g.bytes, g.walk_bytes(), "{placement:?}: after point writes");
            assert_eq!(
                g.clone().bytes,
                g.clone().walk_bytes(),
                "{placement:?}: clone"
            );

            let mut g = UniformGrid::build(&data, GridConfig::with_cell_side(6.0, placement));
            let (new, removed, remap, inserted) = small_change(&data);
            assert!(g.splice(&removed, &remap, &inserted));
            assert_eq!(g.len(), new.len());
            assert_eq!(g.bytes, g.walk_bytes(), "{placement:?}: after splice");
            assert_eq!(g.memory_bytes(), g.bytes);
        }
    }

    #[test]
    fn splice_is_a_pure_function_of_its_arguments() {
        // The determinism contract: equal grids spliced with equal arguments end
        // up structurally equal — cell order and slot directory included.
        let data = scattered(900, 0.5);
        let (_, removed, remap, inserted) = small_change(&data);
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let start = UniformGrid::build(&data, GridConfig::with_cell_side(6.0, placement));
            let (mut a, mut b) = (start.clone(), start.clone());
            assert!(a.splice(&removed, &remap, &inserted));
            assert!(b.splice(&removed, &remap, &inserted));
            assert_eq!(a.cells, b.cells, "{placement:?}");
            assert_eq!(a.slots, b.slots, "{placement:?}");
            assert_eq!((a.len, a.id_bound), (b.len, b.id_bound));
            // Dense new ids: the directory is exactly one entry per element.
            if placement == GridPlacement::Center {
                assert_eq!(a.slots.len(), a.len);
                assert!(a.slots.iter().all(|&s| s != NO_SLOT));
            }
        }
    }

    #[test]
    fn degenerate_single_cell() {
        let data = scattered(50, 0.1);
        let g = UniformGrid::build(
            &data,
            GridConfig::with_cell_side(1e6, GridPlacement::Center),
        );
        assert_eq!(g.dims(), [1, 1, 1]);
        let scan = LinearScan::build(&data);
        let q = queries()[2];
        let mut a = g.range(&data, &q);
        let mut b = scan.range(&data, &q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn cell_cap_coarsens_resolution() {
        let data = scattered(100, 0.1);
        // Absurdly fine request: must be coarsened, not OOM.
        let g = UniformGrid::build(
            &data,
            GridConfig::with_cell_side(1e-5, GridPlacement::Center),
        );
        let total: usize = g.dims().iter().product();
        assert!(total <= super::MAX_CELLS);
        assert!(g.cell_side() > 1e-5);
    }

    #[test]
    fn repeat_queries_reuse_scratch() {
        // Smoke test for the allocation-free repeat path: results stay
        // identical across many repetitions through the shared scratch.
        let data = scattered(1000, 0.4);
        let g = UniformGrid::build(
            &data,
            GridConfig::with_cell_side(4.0, GridPlacement::Replicate),
        );
        let q = queries()[4];
        let first = {
            let mut v = g.range(&data, &q);
            v.sort_unstable();
            v
        };
        for _ in 0..50 {
            let mut v = g.range(&data, &q);
            v.sort_unstable();
            assert_eq!(v, first);
        }
    }

    #[test]
    fn empty_grid() {
        let g = UniformGrid::build(&[], GridConfig::auto(&[]));
        assert!(g.is_empty());
        assert!(g
            .range(&[], &Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)))
            .is_empty());
        assert!(g.knn(&[], &Point3::ORIGIN, 3).is_empty());
    }
}
