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
//! All cells share **one arena**: a single [`SoaAabbs`] (ids plus six
//! coordinate arrays) holding every cell's `(bbox, id)` entries, and a
//! span table of three `u32`s per cell — `start`, `len`, `cap` — naming
//! the arena slots the cell owns and how many are live. This is the
//! counting-sort "cell list" of particle codes: a bulk build counts the
//! entries per cell, prefix-sums the counts into exact-fit spans and
//! scatters the entries in input order, so each cell lists its elements in
//! insertion order and neighbouring cells sit next to each other in
//! memory. A range query walks the overlapped cells row by row, and the
//! **batched bbox filter** ([`SoaAabbs::view`]) streams over flat `f32`
//! arrays instead of gathering through `data[id]`, once per **row run**:
//! the spans of a (y, z) row that sit back to back in the arena, so a
//! built or compacted grid makes one kernel call per row, not one per
//! cell (a relocated span splits its row). Runs cross the spare slots
//! past a span's `len`, so each holds the padding entry
//! `(Aabb::empty(), ElementId::MAX)`, whose id the walk skips (an
//! unbounded query box matches the empty box). The filter sorts its
//! survivors into **inside** (the stored box lies within the query) and
//! **crossing** (it straddles the query's boundary). A stored box bounds
//! its element's geometry, so an inside survivor is a sure hit that never
//! reads its element; only crossing survivors are gathered, then tested
//! exactly — the "progressive approximation" step of multi-step
//! filter-and-refine. On the benchmark's neuron data about three survivors
//! in four are inside. After the walk one branch-free pass copies the
//! crossing survivors' shapes into scratch, so their `data[id]` loads
//! overlap instead of each stalling its test, and a second pass tests the
//! copies; the hits leave in one [`RangeSink::push_all`] in walk order:
//! the filter-then-refine reply, order included. This is §3.3's scan-friendly-grid argument applied at
//! the memory-layout level; `tests/prop_grid_and_storage.rs` diffs it
//! against the retained scalar path and `tests/differential_batch.rs`
//! against filter-then-refine in order; `geom.scan_ns_per_elem` in
//! `BENCHMARK.json` prices the filter.
//!
//! Writes keep each span behaving like a `Vec` of its own: a departure is a
//! swap-remove inside the span, an arrival fills the span's next spare
//! slot. Under center placement a move finds the entry through the slot
//! directory, so the write never reads the element's old geometry. An arrival into a full span **relocates** it to the arena's tail
//! with doubled capacity (at least four slots); the slots it leaves are
//! dead. When the tail has no room for a relocation, the arena is
//! **compacted**: every span is copied, in cell order and with its
//! capacity, into a new arena with room for `live / 8 + 64` more slots,
//! where `live` is the sum of the span capacities. A built or cloned grid
//! is exact-fit, so its first relocation compacts. Dead slots are made
//! only by relocations into that room, so they never exceed
//! `live / 8 + 64`; and after its first, a compaction comes only once
//! relocations have filled that room, so its one pass over the arena is
//! amortised over them. Capacities never shrink, so once a
//! workload's cells have grown to their peak occupancy — the steady state
//! of moves that leave and return — no write relocates, compacts or
//! allocates.
//!
//! Replication dedupe uses the generation-stamped
//! [`simspatial_geom::scratch::VisitedTable`] from the thread-local
//! [`simspatial_geom::QueryScratch`], so the repeat query path is
//! allocation-free (no per-query `HashSet`, no candidate vector churn).

use crate::traits::{KnnIndex, KnnSink, RangeSink, ShardApplyCost, SpatialIndex};
use crate::util::{mean_spacing, KnnHeap};
use simspatial_geom::scratch::{with_scratch, QueryScratch, VisitedTable};
use simspatial_geom::{stats, Aabb, Element, ElementId, Point3, Shape, SoaAabbs, SoaView};

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
    /// of elements per occupied cell. `V` counts an axis thinner than the
    /// longest extent over `n` as that thick.
    pub fn auto(elements: &[Element]) -> Self {
        let placement = GridPlacement::Center;
        if elements.is_empty() {
            return Self {
                cell_side: 1.0,
                placement,
            };
        }
        let n = elements.len() as f32;
        let mean_extent = elements
            .iter()
            .map(|e| {
                let ext = e.aabb().extent();
                ext.x.max(ext.y).max(ext.z)
            })
            .sum::<f32>()
            / n;
        let cell_side = (1.5 * mean_spacing(elements)).max(mean_extent).max(1e-6);
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
    /// Every cell's entries, in structure-of-arrays form (see the module
    /// doc's layout section).
    arena: SoaAabbs,
    /// `spans[cell]`: the arena slots the cell owns.
    spans: Vec<Span>,
    /// Arena slots no span owns, left behind by relocations.
    dead: usize,
    placement: GridPlacement,
    len: usize,
    /// Largest half-extent over indexed elements (query inflation bound for
    /// center placement; also the kNN ring and cell-skip slack).
    max_half_extent: f32,
    /// Upper bound on stored ids (sizes the dedupe table).
    id_bound: usize,
    /// Center placement only: `slots[id] = (cell, slot)` directory giving
    /// O(1) entry lookup for the absorbed-update fast path, `slot` counting
    /// from the cell's span start (`u32::MAX` marks an absent id).
    /// Replicate placement stores several replicas per id and locates them
    /// by span scan instead.
    slots: Vec<(u32, u32)>,
    /// Running [`SpatialIndex::memory_bytes`]: kept current by every
    /// mutation (`insert`/`remove`/`update`/`splice` account the capacity
    /// they add; a bulk load and a clone count once at the end), so the
    /// gauge is O(1) instead of a walk over the grid's vectors.
    bytes: usize,
}

/// One cell's share of the arena: slots `start .. start + cap`, of which
/// the first `len` hold its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    #[inline]
    fn live(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A clone's vectors are exact-fit, so its byte count is its own walk, not
/// the original's running figure.
impl Clone for UniformGrid {
    fn clone(&self) -> Self {
        let mut grid = Self {
            origin: self.origin,
            cell: self.cell,
            dims: self.dims,
            arena: self.arena.clone(),
            spans: self.spans.clone(),
            dead: self.dead,
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

/// Capacity a span relocates to when its first arrival finds it empty.
const MIN_SPAN_CAP: u32 = 4;

/// Arena slots a compaction leaves free beyond one eighth of the live span
/// capacity.
const MIN_HEADROOM: usize = 64;

/// Hard cap on total cells, to keep pathological configs from exhausting
/// memory; the resolution is coarsened to fit.
const MAX_CELLS: usize = 1 << 24; // 16.7 M cells

impl UniformGrid {
    /// Builds a grid over `elements` with the given configuration. The grid
    /// region is the tight bounds of the data, slightly padded so boundary
    /// elements land inside.
    ///
    /// Cell assignment (bounding boxes, centroids, cell coordinates) runs
    /// data-parallel over element chunks; the counting sort into the arena
    /// is a sequential count, prefix sum and scatter.
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
            arena: SoaAabbs::new(),
            spans: vec![Span::default(); total],
            dead: 0,
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

    /// The byte count from first principles: inline size, span table,
    /// slot directory and the arena — what `bytes` must equal.
    fn walk_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.arena.memory_bytes()
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

    /// A cell's live entries.
    #[inline]
    fn cell_view(&self, cell: usize) -> SoaView<'_> {
        self.arena.view(self.spans[cell].live())
    }

    /// Position of `id` among a cell's live entries.
    #[inline]
    fn position_in(&self, cell: usize, id: ElementId) -> Option<usize> {
        self.cell_view(cell).ids().iter().position(|&e| e == id)
    }

    /// Writes arena slot `at`.
    #[inline]
    fn arena_set(&mut self, at: usize, bbox: Aabb, id: ElementId) {
        self.arena.set_box(at, bbox);
        self.arena.ids_mut()[at] = id;
    }

    /// Appends an entry to a cell's span, maintaining the slot directory
    /// and the running byte count. A full span relocates first.
    #[inline]
    fn cell_push(&mut self, cell: usize, bbox: Aabb, id: ElementId) {
        if self.spans[cell].len == self.spans[cell].cap {
            self.grow_span(cell);
        }
        let span = &mut self.spans[cell];
        let slot = span.len as usize;
        span.len += 1;
        let at = span.start as usize + slot;
        self.arena_set(at, bbox, id);
        if self.placement == GridPlacement::Center {
            self.note_slot(id, cell, slot);
        }
    }

    /// Swap-removes entry `pos` of a cell's span — `Vec::swap_remove`
    /// within the span — patching the directory entries of both the
    /// removed id and the entry swapped into its place, and clearing the
    /// vacated last slot to padding.
    #[inline]
    fn cell_swap_remove(&mut self, cell: usize, pos: usize) {
        let span = &mut self.spans[cell];
        span.len -= 1;
        let (at, last) = (span.start as usize + pos, span.live().end);
        let removed = self.arena.id_at(at);
        let moved = (at < last).then(|| self.arena.get(last));
        if let Some((bbox, id)) = moved {
            self.arena_set(at, bbox, id);
        }
        self.arena_set(last, Aabb::empty(), ElementId::MAX);
        if self.placement == GridPlacement::Center {
            self.slots[removed as usize] = NO_SLOT;
            if let Some((_, id)) = moved {
                self.note_slot(id, cell, pos);
            }
        }
    }

    /// Gives a full span room for more entries: relocates it to the arena
    /// tail with doubled capacity, or compacts the arena when the tail
    /// has no room left.
    #[cold]
    fn grow_span(&mut self, cell: usize) {
        let span = self.spans[cell];
        let cap = (span.cap * 2).max(MIN_SPAN_CAP);
        let start = self.arena.len();
        if start + cap as usize > self.arena.capacity() {
            self.compact(cell, cap);
            return;
        }
        for at in span.live() {
            let (bbox, id) = self.arena.get(at);
            self.arena.push(bbox, id);
        }
        pad(&mut self.arena, (cap - span.len) as usize);
        self.dead += span.cap as usize;
        self.spans[cell] = Span {
            start: arena_index(start),
            cap,
            ..span
        };
    }

    /// Copies every span, in cell order and with its capacity (`grow`
    /// taking `grow_cap`), into a new arena with the documented headroom;
    /// no slot is dead afterwards.
    fn compact(&mut self, grow: usize, grow_cap: u32) {
        self.spans[grow].cap = grow_cap;
        let live: usize = self.spans.iter().map(|s| s.cap as usize).sum();
        let mut arena = SoaAabbs::with_capacity(live + live / 8 + MIN_HEADROOM);
        for span in &mut self.spans {
            let start = arena_index(arena.len());
            for at in span.live() {
                let (bbox, id) = self.arena.get(at);
                arena.push(bbox, id);
            }
            pad(&mut arena, (span.cap - span.len) as usize);
            span.start = start;
        }
        self.bytes = self.bytes - self.arena.memory_bytes() + arena.memory_bytes();
        self.arena = arena;
        self.dead = 0;
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
        self.spans.iter().filter(|s| s.len > 0).count()
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

    /// Bulk-loads a dataset into the empty grid: the parallel assignment
    /// phase computes each element's bounding box and target cell(s); a
    /// counting sort then lays the `(bbox, id)` entries out in the arena —
    /// count per cell, prefix-sum into exact-fit spans, scatter in input
    /// order.
    fn bulk_insert(&mut self, elements: &[Element]) {
        debug_assert!(self.arena.is_empty(), "bulk loads fill an empty grid");
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
        // Phase 2 (sequential): count, prefix-sum, scatter.
        let mut max_id = 0;
        for chunk in &chunks {
            self.max_half_extent = self.max_half_extent.max(chunk.max_half);
            max_id = max_id.max(chunk.max_id as usize);
            for &(cell, ..) in &chunk.entries {
                self.spans[cell as usize].cap += 1;
            }
        }
        self.id_bound = self.id_bound.max(max_id + 1);
        let mut total = 0usize;
        for span in &mut self.spans {
            span.start = arena_index(total);
            total += span.cap as usize;
        }
        let center = self.placement == GridPlacement::Center;
        if center {
            self.slots = vec![NO_SLOT; max_id + 1];
        }
        let mut sorted = vec![(Aabb::empty(), 0); total];
        for (cell, bbox, id) in chunks.into_iter().flat_map(|c| c.entries) {
            let span = &mut self.spans[cell as usize];
            sorted[(span.start + span.len) as usize] = (bbox, id);
            if center {
                self.slots[id as usize] = (cell, span.len);
            }
            span.len += 1;
        }
        self.arena = SoaAabbs::from_entries(&sorted);
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
                            if let Some(pos) = self.position_in(idx, id) {
                                self.cell_swap_remove(idx, pos);
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
    /// box is refreshed either way, keeping the stored boxes exact).
    /// The old cell comes from the slot directory under center placement
    /// (debug builds check it is `old`'s centre's), from `old`'s box under
    /// replication.
    pub fn update(&mut self, old: &Element, new: &Element) -> bool {
        debug_assert_eq!(old.id, new.id);
        match self.placement {
            GridPlacement::Center => {
                self.debug_assert_filed(old.id, &old.shape);
                self.move_centered(new.id, &new.shape)
            }
            GridPlacement::Replicate => {
                let new_bbox = new.aabb();
                let (olo, ohi) = self.cell_range(&old.aabb());
                let (nlo, nhi) = self.cell_range(&new_bbox);
                if (olo, ohi) == (nlo, nhi) {
                    for z in olo[2]..=ohi[2] {
                        for y in olo[1]..=ohi[1] {
                            for x in olo[0]..=ohi[0] {
                                let idx = self.cell_index([x, y, z]);
                                if let Some(pos) = self.position_in(idx, old.id) {
                                    let at = self.spans[idx].start as usize + pos;
                                    self.arena.set_box(at, new_bbox);
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

    /// Debug builds: the directory files `id` in the cell of `old`'s centre.
    #[inline]
    fn debug_assert_filed(&self, id: ElementId, old: &Shape) {
        debug_assert!(
            self.slot_of(id)
                .is_none_or(|(cell, _)| cell == self.cell_index(self.clamp_coord(&old.center()))),
            "slot directory files element {id} away from its old centre's cell"
        );
    }

    /// The one per-entry move under center placement: takes `id`'s entry
    /// from the slot directory and rewrites its box in place (absorbed) or
    /// swap-removes and pushes it onto `shape`'s centre's cell. Returns
    /// whether it changed cells; an id the directory lacks is left alone.
    fn move_centered(&mut self, id: ElementId, shape: &Shape) -> bool {
        let Some((cell, pos)) = self.slot_of(id) else {
            return false;
        };
        let bbox = shape.aabb();
        let to = self.cell_index(self.clamp_coord(&shape.center()));
        if to == cell {
            self.arena
                .set_box(self.spans[cell].start as usize + pos, bbox);
        } else {
            self.cell_swap_remove(cell, pos);
            self.cell_push(to, bbox, id);
        }
        self.note_element(id, &bbox);
        to != cell
    }

    /// Candidate ids whose **stored** bounding boxes intersect `probe`
    /// (deduplicated under replication), **without** exact refinement.
    /// Under center placement the cell walk is additionally inflated by the
    /// recorded maximum half-extent so every overlapping cell is visited.
    ///
    /// Callers that tolerate staleness (FLAT's seed phase) pass a probe
    /// already inflated by their drift bound; the stored boxes are the
    /// boxes at insert/update time, so the filter is sound against such a
    /// probe. Used by structures that layer their own refinement on top.
    pub fn range_bbox_candidates(&self, probe: &Aabb) -> Vec<ElementId> {
        with_scratch(|scratch| {
            self.range_bbox_candidates_into(probe, scratch);
            scratch.candidates.clone()
        })
    }

    /// Allocation-free form of [`UniformGrid::range_bbox_candidates`]:
    /// appends candidates to `scratch.candidates`. Under replication the
    /// dedupe pass claims `scratch.visited` for a new epoch.
    pub fn range_bbox_candidates_into(&self, probe: &Aabb, scratch: &mut QueryScratch) {
        let candidates = &mut scratch.candidates;
        self.for_each_survivor(probe, &mut scratch.visited, |id, _, _| candidates.push(id));
    }

    /// The grid's one cell walk: runs the batched bbox filter over the
    /// entries of every cell `probe` reaches and calls `emit(id, inside,
    /// at)` for each stored box that intersects `probe`, in walk order —
    /// cells in z, y, x order, entries in span order, and under
    /// replication only the first replica of each id (deduplicated through
    /// `visited`, which this claims for a new epoch). `inside` says the
    /// stored box lies within `probe`; `at` is its arena position. Under
    /// center placement the cell walk is inflated by the recorded maximum
    /// half-extent so every overlapping cell is visited. The filter runs
    /// once per row run (see the module doc), from its first span's start
    /// to its last non-empty span's live end.
    fn for_each_survivor(
        &self,
        probe: &Aabb,
        visited: &mut VisitedTable,
        mut emit: impl FnMut(ElementId, bool, usize),
    ) {
        let walk = match self.placement {
            GridPlacement::Center => probe.inflate(self.max_half_extent),
            GridPlacement::Replicate => *probe,
        };
        let (lo, hi) = self.cell_range(&walk);
        let dedupe = self.placement == GridPlacement::Replicate;
        if dedupe {
            visited.begin(self.id_bound);
        }
        let mut scan = |run: std::ops::Range<usize>| {
            let base = run.start;
            self.arena
                .view(run)
                .for_each_intersecting(0, probe, |i, id, inside| {
                    // A replica cell visited earlier already produced this
                    // id (generation-stamped, no hashing).
                    if id != ElementId::MAX && (!dedupe || visited.mark(id)) {
                        emit(id, inside, base + i as usize);
                    }
                });
        };
        let mut scanned = 0u64;
        // An inverted probe has `lo > hi` on some axis: its rows are empty.
        let row_len = (hi[0] + 1).saturating_sub(lo[0]);
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let row = self.cell_index([lo[0], y, z]);
                // `cap_end`: where the run's last span's capacity ends.
                let (mut run, mut cap_end) = (0..0, usize::MAX);
                for span in &self.spans[row..row + row_len] {
                    scanned += u64::from(span.len);
                    let start = span.start as usize;
                    if start != cap_end {
                        scan(std::mem::replace(&mut run, start..start));
                    }
                    cap_end = start + span.cap as usize;
                    if span.len > 0 {
                        run.end = span.live().end;
                    }
                }
                scan(run);
            }
        }
        // Counter semantics: one element-level test per span *lane* — the
        // physical batched comparisons. Under replication this counts each
        // replica (the seed counted one test per deduplicated candidate
        // after its sort+dedup pass), so replicated grids report ~r x more
        // element tests than the seed methodology for replication factor r;
        // `elements_scanned` is unchanged (raw lanes, as before). A caller
        // that refines survivors adds one test per exact test it runs.
        stats::record_elements_scanned(scanned);
        stats::record_element_tests(scanned);
    }
}

/// `n` spare slots at the end of `arena`.
fn pad(arena: &mut SoaAabbs, n: usize) {
    for _ in 0..n {
        arena.push(Aabb::empty(), ElementId::MAX);
    }
}

/// An arena position as a span field.
#[inline]
fn arena_index(at: usize) -> u32 {
    u32::try_from(at).expect("grid arena outgrew u32 positions")
}

impl SpatialIndex for UniformGrid {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Filter, then refine, then emit once: the walk collects the query's
    /// survivors in walk order into `scratch.candidates`, flagging the
    /// *crossing* ones (stored box not within `query`) in the bits of
    /// `scratch.mask`. One pass gathers the crossing survivors' shapes
    /// from `data` into `scratch.shapes`, a second tests them in the same
    /// bit order, and the hits are compacted in place; the sink receives
    /// them in one [`RangeSink::push_all`], in the order the
    /// filter-then-refine reply always had.
    ///
    /// The skip needs every stored box to contain its element's geometry
    /// — the same invariant the filter relies on for completeness — and
    /// debug builds check it on every sure hit. (FLAT's deliberately stale
    /// seed grid reaches the walk only through
    /// [`UniformGrid::range_bbox_candidates_into`], which ignores
    /// `inside`.)
    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        let (candidates, mask) = (&mut scratch.candidates, &mut scratch.mask);
        candidates.clear();
        mask.clear();
        self.for_each_survivor(query, &mut scratch.visited, |id, inside, at| {
            debug_assert!(
                !inside || self.arena.box_at(at).contains(&data[id as usize].aabb()),
                "stored box of element {id} no longer bounds its geometry"
            );
            let n = candidates.len();
            mask.resize(n / 64 + 1, 0);
            mask[n / 64] |= u64::from(!inside) << (n % 64);
            candidates.push(id);
        });
        // A set bit marks a crossing survivor. The gather has no
        // data-dependent branch, so its `data[id]` loads overlap; the test
        // clears each hit's bit, leaving set exactly the misses.
        let shapes = &mut scratch.shapes;
        shapes.clear();
        for (w, &word) in mask.iter().enumerate() {
            let mut crossing = word;
            while crossing != 0 {
                let id = candidates[w * 64 + crossing.trailing_zeros() as usize];
                shapes.push(data[id as usize].shape);
                crossing &= crossing - 1;
            }
        }
        let mut gathered = shapes.iter();
        for word in mask.iter_mut() {
            let mut crossing = *word;
            while crossing != 0 {
                let bit = crossing.trailing_zeros();
                crossing &= crossing - 1;
                if gathered.next().is_some_and(|s| s.intersects_aabb(query)) {
                    *word &= !(1 << bit);
                }
            }
        }
        let mut hits = 0;
        for i in 0..candidates.len() {
            candidates[hits] = candidates[i];
            hits += usize::from(mask[i / 64] >> (i % 64) & 1 == 0);
        }
        stats::record_element_tests(shapes.len() as u64);
        sink.push_all(&candidates[..hits]);
    }

    /// O(1): the running count (checked against the cell walk in debug
    /// builds).
    fn memory_bytes(&self) -> usize {
        debug_assert_eq!(self.bytes, self.walk_bytes(), "running byte count drifted");
        self.bytes
    }

    /// Migrates each updated element on its own, so K updates cost O(K)
    /// whatever the dataset size. Under center placement the old geometry
    /// is never read: the move takes the old cell from the slot directory;
    /// replication reads the old box. Duplicate ids resolve last-write-wins,
    /// because each migration starts from the entry's current (already
    /// updated) place. Always succeeds.
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        let mut cost = ShardApplyCost::default();
        for &(id, shape) in updates {
            let Some(e) = data.get_mut(id as usize) else {
                continue;
            };
            let moved = if self.placement == GridPlacement::Center {
                self.debug_assert_filed(id, &e.shape);
                e.shape = shape;
                self.move_centered(id, &shape)
            } else {
                let old = e.clone();
                e.shape = shape;
                self.update(&old, e)
            };
            if moved {
                cost.structural += 1;
            } else {
                cost.absorbed += 1;
            }
        }
        Some(cost)
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
            let ids = self.arena.ids_mut();
            for (c, span) in self.spans.iter().enumerate() {
                for (s, id) in ids[span.live()].iter_mut().enumerate() {
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
    /// kNN over grids that partition the elements — one grid, or the
    /// levels of a [`crate::MultiGrid`] — against **one** best-k heap, so
    /// earlier levels' k-th best prunes later levels. The heap's reach is
    /// the largest level's: the probe's magnitude plus the origin's and one
    /// cell's, the coordinates the slab bounds start from.
    pub(crate) fn knn_levels(
        levels: &[UniformGrid],
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        if k == 0 {
            return;
        }
        let o = Point3::ORIGIN;
        let reach = |g: &UniformGrid| p.distance(&o) + g.origin.distance(&o) + g.cell;
        let reach = levels.iter().map(reach).fold(0.0, f32::max);
        let mut best = KnnHeap::with_reach(&mut scratch.knn_best, k, reach);
        for level in levels {
            level.knn_core(data, p, &mut scratch.dists, &mut scratch.visited, &mut best);
        }
        best.emit(sink);
    }

    /// The expanding-shell kNN search core, filling a caller-owned best-k
    /// heap; rings expand in Chebyshev shells until none can improve. Once
    /// the heap is full it prunes twice (`MINDIST` pruning, Roussopoulos et
    /// al., SIGMOD 1995): a cell whose slab, less `max_half_extent` per
    /// axis, lies beyond the k-th best is skipped unread, and every other
    /// span runs the batched kernel ([`SoaView::min_dist2_into`]), so an
    /// entry pays the exact distance only if the heap admits its box
    /// ([`KnnHeap::may_admit`]). Boundary cells are open to ±∞ on their
    /// outer faces: `clamp_coord` files a centre moved past the build
    /// region there.
    fn knn_core(
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
            let ring_min = (ring as f32 - 1.0) * self.cell - self.max_half_extent;
            if ring_min > 0.0 && !best.may_admit(ring_min * ring_min) {
                break;
            }
            let mut any_cell = false;
            self.for_ring(center, ring, |c, cell_idx| {
                any_cell = true;
                let bounded = best.is_full();
                if bounded && !best.may_admit(self.slab_gap2(p, c)) {
                    return;
                }
                let entries = self.cell_view(cell_idx);
                if entries.is_empty() {
                    return;
                }
                if bounded {
                    entries.min_dist2_into(p, dists);
                    stats::record_lower_bound_evals(entries.len() as u64);
                }
                for (i, &id) in entries.ids().iter().enumerate() {
                    if dedupe && !visited.mark(id) {
                        continue;
                    }
                    seen += 1;
                    // lb ≤ exact: the stored box contains the surface.
                    if bounded && !best.may_admit(dists[i]) {
                        continue;
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

    /// Squared distance from `p` to cell `c`'s slab, less `max_half_extent`
    /// per axis; boundary cells are open outward.
    fn slab_gap2(&self, p: &Point3, c: [usize; 3]) -> f32 {
        (0..3).fold(0.0, |sum, d| {
            let (x, lo) = (p.axis(d) - self.origin.axis(d), c[d] as f32 * self.cell);
            let below = if c[d] > 0 { lo - x } else { 0.0 };
            let outer = c[d] + 1 == self.dims[d];
            let above = if outer { 0.0 } else { x - lo - self.cell };
            let gap = (below.max(above) - self.max_half_extent).max(0.0);
            sum + gap * gap
        })
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
        Self::knn_levels(std::slice::from_ref(self), data, p, k, scratch, sink);
    }
}

impl UniformGrid {
    /// Hands `f` the coordinates and index of every in-bounds cell at
    /// Chebyshev distance `ring` from `c`.
    fn for_ring(&self, c: [usize; 3], ring: usize, mut f: impl FnMut([usize; 3], usize)) {
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
                        let cell = [x as usize, y as usize, z as usize];
                        f(cell, self.cell_index(cell));
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
        for (n, r, side) in [(3000, 0.6, 5.0), (2500, 0.5, 4.0)] {
            let data = scattered(n, r);
            let scan = LinearScan::build(&data);
            for placement in [GridPlacement::Center, GridPlacement::Replicate] {
                let g = UniformGrid::build(&data, GridConfig::with_cell_side(side, placement));
                assert_eq!(g.len(), n as usize);
                for q in queries() {
                    let mut a = g.range(&data, &q);
                    let mut b = scan.range(&data, &q);
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{n} {placement:?} {q:?}");
                }
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

    /// Points on a plane or a line have a zero bounds volume; the auto cell
    /// sides of the grid and the multigrid must come from the axes with
    /// extent, not fall to their 1e-6 floor and fill the cell budget (six
    /// coplanar points took 89.8 MB either way, and a k = 1 multigrid
    /// search over them 1.4 s).
    #[test]
    fn auto_config_on_flat_points_stays_small_and_exact() {
        let plane = (0..6).map(|i| Point3::new(0.7 * (i % 3) as f32, 1.4 * (i / 3) as f32, 0.5));
        let line = (0..40).map(|i| Point3::new(0.35 * i as f32, 0.7, 0.7));
        for (name, centres) in [
            ("plane", plane.collect::<Vec<_>>()),
            ("line", line.collect()),
        ] {
            let data: Vec<Element> = (0..)
                .zip(centres)
                .map(|(i, c)| Element::new(i, Shape::Sphere(Sphere::new(c, 0.0))))
                .collect();
            let g = UniformGrid::build(&data, GridConfig::auto(&data));
            let mg = crate::MultiGrid::build(&data, crate::MultiGridConfig::auto(&data));
            for (what, bytes) in [("grid", g.memory_bytes()), ("multigrid", mg.memory_bytes())] {
                assert!(bytes < 64 << 10, "{name} {what}: {bytes} B");
            }
            let scan = LinearScan::build(&data);
            let k = data.len() + 2;
            for p in [Point3::new(0.3, 0.2, 0.5), Point3::new(-1.0, 3.0, 2.0)] {
                let want = scan.knn(&data, &p, k);
                assert_eq!(g.knn(&data, &p, k), want, "{name} grid at {p:?}");
                assert_eq!(mg.knn(&data, &p, k), want, "{name} multigrid at {p:?}");
            }
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
    fn update_in_place_matches_sequential_updates() {
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
        let batch: Vec<(ElementId, Shape)> = moved.iter().map(|e| (e.id, e.shape)).collect();
        let cost = batched.update_in_place(&mut data.clone(), &batch).unwrap();
        assert_eq!(cost.structural + cost.absorbed, data.len() as u64);
        assert!(cost.structural > 0, "some large moves must switch cells");
        assert!(cost.absorbed > 0, "small moves must be absorbed");

        let mut sequential = UniformGrid::build(&data, config);
        let mut seq_structural = 0;
        for (o, n) in data.iter().zip(moved.iter()) {
            if sequential.update(o, n) {
                seq_structural += 1;
            }
        }
        assert_eq!(cost.structural, seq_structural);
        let q = Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(60.0, 60.0, 60.0));
        let mut a = batched.range(&moved, &q);
        let mut b = sequential.range(&moved, &q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn update_in_place_equals_sequential_update_byte_for_byte() {
        // Every batch holds duplicate ids (last write wins), an unknown id,
        // a mover pushed past the build region (clamped into a boundary
        // cell) and a mover whose box outgrows the recorded largest
        // half-extent, which only the move's `note_element` makes the
        // center-placement walk reach: the probe on its surface checks it.
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let mut rng = Rng(0xB17E);
            let mut data: Vec<Element> = (0..400).map(|i| random_element(&mut rng, i)).collect();
            let config = GridConfig::with_cell_side(4.0, placement);
            let mut batched = UniformGrid::build(&data, config);
            let mut twin = batched.clone();
            let mut twin_data = data.clone();
            for round in 0..24 {
                let what = format!("{placement:?} round {round}");
                let n = data.len();
                let mut updates: Vec<(ElementId, Shape)> = (0..1 + rng.below(24))
                    .map(|_| {
                        let id = rng.below(n);
                        (id as ElementId, hopped(&mut rng, &data[id]).shape)
                    })
                    .collect();
                let (again, far, grown) = (updates[0].0, rng.below(n), rng.below(n));
                let mut out = data[far].clone();
                out.translate(Vec3::new(-30.0, 70.0, 15.0));
                let radius = 2.5 + round as f32 * 0.25;
                let bulge = Sphere::new(data[grown].center(), radius);
                updates.extend([
                    (again, hopped(&mut rng, &data[again as usize]).shape),
                    (n as ElementId + 3, out.shape),
                    (far as ElementId, out.shape),
                    (grown as ElementId, Shape::Sphere(bulge)),
                    (again, hopped(&mut rng, &data[again as usize]).shape),
                ]);
                let cost = batched.update_in_place(&mut data, &updates).unwrap();
                let mut twin_cost = ShardApplyCost::default();
                for &(id, shape) in &updates {
                    let Some(old) = twin_data.get(id as usize).cloned() else {
                        continue;
                    };
                    let new = Element::new(id, shape);
                    if twin.update(&old, &new) {
                        twin_cost.structural += 1;
                    } else {
                        twin_cost.absorbed += 1;
                    }
                    twin_data[id as usize] = new;
                }
                assert_eq!(data, twin_data, "{what}: data");
                assert_eq!(
                    (cost.structural, cost.absorbed),
                    (twin_cost.structural, twin_cost.absorbed),
                    "{what}: cost"
                );
                assert_eq!(batched.arena, twin.arena, "{what}: arena");
                assert_eq!(batched.spans, twin.spans, "{what}: spans");
                assert_eq!(batched.slots, twin.slots, "{what}: slot directory");
                assert_eq!(
                    (batched.len, batched.dead, batched.id_bound, batched.bytes),
                    (twin.len, twin.dead, twin.id_bound, twin.bytes),
                    "{what}: counts"
                );
                assert_eq!(
                    batched.max_half_extent.to_bits(),
                    twin.max_half_extent.to_bits(),
                    "{what}: largest half-extent"
                );
                let scan = LinearScan::build(&data);
                let surface = bulge.center + Vec3::new(0.95 * radius, 0.0, 0.0);
                let mut probes = walk_probes();
                probes.push(Aabb::from_point(surface));
                for (q, probe) in probes.iter().enumerate() {
                    let reply = batched.range(&data, probe);
                    assert_eq!(reply, twin.range(&data, probe), "{what}: probe {q}");
                    let (mut got, mut want) = (reply, scan.range(&data, probe));
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{what}: probe {q} against the scan");
                }
                for p in [surface, out.center(), Point3::new(20.0, 20.0, 20.0)] {
                    let knn = batched.knn(&data, &p, 8);
                    assert_eq!(knn, twin.knn(&data, &p, 8), "{what}: kNN at {p:?}");
                }
            }
        }
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
            assert_eq!(a.arena, b.arena, "{placement:?}");
            assert_eq!(a.spans, b.spans, "{placement:?}");
            assert_eq!(a.slots, b.slots, "{placement:?}");
            assert_eq!((a.len, a.id_bound), (b.len, b.id_bound));
            // Dense new ids: the directory is exactly one entry per element.
            if placement == GridPlacement::Center {
                assert_eq!(a.slots.len(), a.len);
                assert!(a.slots.iter().all(|&s| s != NO_SLOT));
            }
        }
    }

    /// Test-only model of a grid's cells: one `Vec` per cell, written with
    /// `push` and `swap_remove` — the per-cell layout the arena replaced,
    /// with the cell geometry borrowed from the grid under test.
    struct CellModel {
        cells: Vec<Vec<(Aabb, ElementId)>>,
    }

    impl CellModel {
        fn of(g: &UniformGrid) -> Self {
            let mut model = Self {
                cells: vec![Vec::new(); g.spans.len()],
            };
            for (cell, span) in model.cells.iter_mut().zip(&g.spans) {
                cell.extend(span.live().map(|at| g.arena.get(at)));
            }
            model
        }

        fn cells_of(g: &UniformGrid, e: &Element) -> Vec<usize> {
            let (lo, hi) = match g.placement {
                GridPlacement::Center => {
                    let c = g.clamp_coord(&e.center());
                    (c, c)
                }
                GridPlacement::Replicate => g.cell_range(&e.aabb()),
            };
            let mut out = Vec::new();
            for z in lo[2]..=hi[2] {
                for y in lo[1]..=hi[1] {
                    for x in lo[0]..=hi[0] {
                        out.push(g.cell_index([x, y, z]));
                    }
                }
            }
            out
        }

        fn insert(&mut self, g: &UniformGrid, e: &Element) {
            for c in Self::cells_of(g, e) {
                self.cells[c].push((e.aabb(), e.id));
            }
        }

        fn remove(&mut self, g: &UniformGrid, e: &Element) {
            for c in Self::cells_of(g, e) {
                if let Some(pos) = self.cells[c].iter().position(|x| x.1 == e.id) {
                    self.cells[c].swap_remove(pos);
                }
            }
        }

        fn update(&mut self, g: &UniformGrid, old: &Element, new: &Element) {
            if Self::cells_of(g, old) != Self::cells_of(g, new) {
                self.remove(g, old);
                self.insert(g, new);
                return;
            }
            for c in Self::cells_of(g, old) {
                if let Some(x) = self.cells[c].iter_mut().find(|x| x.1 == old.id) {
                    x.0 = new.aabb();
                }
            }
        }

        fn splice(&mut self, g: &UniformGrid, removed: &[Element], remap: &[ElementId]) {
            for e in removed {
                self.remove(g, e);
            }
            for (_, id) in self.cells.iter_mut().flatten() {
                *id = remap[*id as usize];
            }
        }

        /// Every cell's entries in order, the slot directory and the
        /// running byte count.
        fn check(&self, g: &UniformGrid, what: &str) {
            assert_eq!(self.cells, Self::of(g).cells, "{what}: cell entries");
            assert_eq!(g.bytes, g.walk_bytes(), "{what}: running byte count");
            assert!(
                g.dead <= live_slots(g) / 8 + MIN_HEADROOM,
                "{what}: dead slots"
            );
            if g.placement == GridPlacement::Center {
                let mut slots = vec![NO_SLOT; g.slots.len()];
                for (c, cell) in self.cells.iter().enumerate() {
                    for (s, &(_, id)) in cell.iter().enumerate() {
                        slots[id as usize] = (c as u32, s as u32);
                    }
                }
                assert_eq!(g.slots, slots, "{what}: slot directory");
            }
        }
    }

    /// Arena slots some span owns.
    fn live_slots(g: &UniformGrid) -> usize {
        g.spans.iter().map(|s| s.cap as usize).sum()
    }

    /// xorshift64*, so the sequences need no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    fn random_element(rng: &mut Rng, id: ElementId) -> Element {
        let c = Point3::new(rng.unit() * 40.0, rng.unit() * 40.0, rng.unit() * 40.0);
        let r = 0.2 + rng.unit();
        Element::new(id, Shape::Sphere(Sphere::new(c, r)))
    }

    /// A hop of at most 0.5 per axis, one in eight up to 8.
    fn hopped(rng: &mut Rng, e: &Element) -> Element {
        let reach = if rng.below(8) == 0 { 8.0 } else { 0.5 };
        let mut moved = e.clone();
        moved.translate(Vec3::new(
            (rng.unit() * 2.0 - 1.0) * reach,
            (rng.unit() * 2.0 - 1.0) * reach,
            (rng.unit() * 2.0 - 1.0) * reach,
        ));
        moved
    }

    /// Drives a seeded write history — inserts, hops, `update_in_place`
    /// batches, remove-and-reinsert and splices, which swap-remove,
    /// relocate spans and compact the arena — over a built (odd seed) or
    /// incrementally filled (even seed) grid, mirrored in a [`CellModel`].
    /// `check` sees the grid, the data and the model after every step.
    fn write_history(
        placement: GridPlacement,
        seed: u64,
        mut check: impl FnMut(&UniformGrid, &[Element], &CellModel, &str),
    ) {
        let what = |step: usize, op: &str| format!("{placement:?} seed {seed} step {step} {op}");
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut data: Vec<Element> = (0..300).map(|i| random_element(&mut rng, i)).collect();
        let config = GridConfig::with_cell_side(4.0, placement);
        let mut g = if seed % 2 == 1 {
            UniformGrid::build(&data, config)
        } else {
            let bounds = Aabb::union_all(data.iter().map(Element::aabb));
            let mut g = UniformGrid::empty_over(bounds, config, data.len());
            for e in &data {
                g.insert(e);
            }
            g
        };
        let mut model = CellModel::of(&g);
        // Ids stay dense: a removed element is inserted again, and only
        // `splice` lets ids depart, renumbering the survivors.
        for step in 0..400 {
            let id = rng.below(data.len());
            let op = match rng.below(10) {
                0 => {
                    let e = random_element(&mut rng, data.len() as ElementId);
                    g.insert(&e);
                    model.insert(&g, &e);
                    data.push(e);
                    "insert"
                }
                1..=4 => {
                    let new = hopped(&mut rng, &data[id]);
                    g.update(&data[id], &new);
                    model.update(&g, &data[id], &new);
                    data[id] = new;
                    "update"
                }
                5..=7 => {
                    // Duplicates included: last write wins.
                    let updates: Vec<(ElementId, Shape)> = (0..1 + rng.below(12))
                        .map(|_| {
                            let id = rng.below(data.len());
                            (id as ElementId, hopped(&mut rng, &data[id]).shape)
                        })
                        .collect();
                    let mut grid_data = data.clone();
                    g.update_in_place(&mut grid_data, &updates);
                    for &(id, shape) in &updates {
                        let new = Element::new(id, shape);
                        model.update(&g, &data[id as usize], &new);
                        data[id as usize] = new;
                    }
                    assert_eq!(grid_data, data);
                    "update_in_place"
                }
                8 => {
                    assert!(g.remove(id as ElementId, &data[id]));
                    model.remove(&g, &data[id]);
                    g.insert(&data[id]);
                    model.insert(&g, &data[id]);
                    "remove"
                }
                _ => {
                    let (new, removed, remap, inserted) = random_change(&mut rng, &data);
                    assert!(g.splice(&removed, &remap, &inserted));
                    model.splice(&g, &removed, &remap);
                    for e in &inserted {
                        model.insert(&g, e);
                    }
                    data = new;
                    "splice"
                }
            };
            check(&g, &data, &model, &what(step, op));
        }
    }

    /// The per-cell walk the row runs replaced: one filter call per
    /// non-empty cell over its live entries, returning each emitted
    /// `(id, inside, at)` in walk order.
    fn per_cell_walk(g: &UniformGrid, probe: &Aabb) -> Vec<(ElementId, bool, usize)> {
        let walk = match g.placement {
            GridPlacement::Center => probe.inflate(g.max_half_extent),
            GridPlacement::Replicate => *probe,
        };
        let (lo, hi) = g.cell_range(&walk);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let span = g.spans[g.cell_index([x, y, z])];
                    let base = span.start as usize;
                    g.arena
                        .view(span.live())
                        .for_each_intersecting(0, probe, |i, id, inside| {
                            if g.placement == GridPlacement::Center || seen.insert(id) {
                                out.push((id, inside, base + i as usize));
                            }
                        });
                }
            }
        }
        out
    }

    /// Random boxes plus the edge cases of the cell range: inverted,
    /// unbounded, half-unbounded, clamped past the region and outside it.
    fn walk_probes() -> Vec<Aabb> {
        let mut rng = Rng(0x5EED);
        let mut probes: Vec<Aabb> = (0..12)
            .map(|_| {
                let c = Point3::new(
                    rng.unit() * 50.0 - 5.0,
                    rng.unit() * 50.0 - 5.0,
                    rng.unit() * 50.0 - 5.0,
                );
                let side = 1.0 + rng.unit() * 14.0;
                Aabb::new(
                    c,
                    Point3::new(c.x + side, c.y + side * 0.7, c.z + side * 1.3),
                )
            })
            .collect();
        let (inf, big) = (f32::INFINITY, Point3::new(1e3, 1e3, 1e3));
        probes.extend([
            Aabb {
                min: Point3::new(30.0, 10.0, 10.0),
                max: Point3::new(10.0, 30.0, 30.0),
            },
            Aabb {
                min: Point3::new(20.0, 20.0, 20.0),
                max: Point3::new(21.0, 21.0, 19.0),
            },
            Aabb::new(Point3::new(-inf, -inf, -inf), Point3::new(inf, inf, inf)),
            Aabb::new(Point3::new(-inf, 10.0, -inf), Point3::new(15.0, inf, 25.0)),
            Aabb::new(Point3::new(30.0, 30.0, 30.0), big),
            Aabb::new(Point3::new(-1e3, -1e3, -1e3), Point3::new(2.0, 3.0, 4.0)),
            Aabb::new(
                Point3::new(100.0, 100.0, 100.0),
                Point3::new(120.0, 120.0, 120.0),
            ),
            Aabb::from_point(Point3::new(20.0, 20.0, 20.0)),
        ]);
        probes
    }

    #[test]
    fn arena_writes_match_a_per_cell_vec_model() {
        let probes = walk_probes();
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            for seed in 1..=4u64 {
                write_history(placement, seed, |g, data, model, what| {
                    assert_eq!(g.len(), data.len(), "{what}");
                    model.check(g, what);
                    // The row-run walk emits what the per-cell walk emits,
                    // order and arena positions included, and the reply is
                    // that walk's filter-then-refine list.
                    let mut visited = VisitedTable::default();
                    for (q, probe) in probes.iter().enumerate() {
                        let expected = per_cell_walk(g, probe);
                        let mut walked = Vec::new();
                        g.for_each_survivor(probe, &mut visited, |id, inside, at| {
                            walked.push((id, inside, at));
                        });
                        assert_eq!(walked, expected, "{what}: probe {q} walk");
                        let refined: Vec<ElementId> = expected
                            .iter()
                            .filter(|&&(id, inside, _)| {
                                inside || data[id as usize].shape.intersects_aabb(probe)
                            })
                            .map(|&(id, ..)| id)
                            .collect();
                        assert_eq!(g.range(data, probe), refined, "{what}: probe {q} reply");
                    }
                });
            }
        }
    }

    #[test]
    fn padding_slots_stay_empty() {
        // Row runs filter across the spare slots of the spans they chain,
        // so every slot past a span's `len` must hold the padding entry;
        // a stale copy left by a swap-remove would be emitted twice.
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            for seed in 1..=4u64 {
                let (mut relocated, mut compacted) = (false, false);
                let mut before: Option<(usize, Vec<Span>)> = None;
                write_history(placement, seed, |g, _, _, what| {
                    // A compaction makes a new arena; a relocation moves a
                    // span within the same one.
                    if let Some((capacity, spans)) = &before {
                        let moved = spans.iter().zip(&g.spans).any(|(a, b)| a.start != b.start);
                        let fresh = *capacity != g.arena.capacity();
                        compacted |= fresh;
                        relocated |= moved && !fresh;
                    }
                    before = Some((g.arena.capacity(), g.spans.clone()));
                    for (cell, span) in g.spans.iter().enumerate() {
                        for at in span.live().end..(span.start + span.cap) as usize {
                            assert_eq!(
                                g.arena.get(at),
                                (Aabb::empty(), ElementId::MAX),
                                "{what}: cell {cell} slot {at}"
                            );
                        }
                    }
                });
                assert!(
                    relocated && compacted,
                    "{placement:?} seed {seed}: {relocated} {compacted}"
                );
            }
        }
    }

    /// A random splice over dense ids: every survivor keeps its order,
    /// about one element in twenty departs, and up to four arrivals land
    /// anywhere, the end included.
    #[allow(clippy::type_complexity)]
    fn random_change(
        rng: &mut Rng,
        data: &[Element],
    ) -> (Vec<Element>, Vec<Element>, Vec<ElementId>, Vec<Element>) {
        let lands: Vec<usize> = (0..rng.below(5))
            .map(|_| rng.below(data.len() + 1))
            .collect();
        let (mut new, mut removed, mut inserted) = (Vec::new(), Vec::new(), Vec::new());
        let mut remap = Vec::new();
        for i in 0..=data.len() {
            for _ in lands.iter().filter(|&&l| l == i) {
                let e = random_element(rng, new.len() as ElementId);
                inserted.push(e.clone());
                new.push(e);
            }
            let Some(e) = data.get(i) else { break };
            remap.push(new.len() as ElementId);
            if rng.below(20) == 0 {
                removed.push(e.clone());
            } else {
                new.push(Element::new(new.len() as ElementId, e.shape));
            }
        }
        (new, removed, remap, inserted)
    }

    #[test]
    fn hop_away_hop_home_cycles_hold_memory_level() {
        // `sim_mixed`'s shape: 2 % movers hop at most 0.5 per axis away
        // and back each cycle, on cells about eight times that side.
        for placement in [GridPlacement::Center, GridPlacement::Replicate] {
            let mut rng = Rng(0xC0FFEE);
            let home: Vec<Element> = (0..5000)
                .map(|i| {
                    let c = Point3::new(rng.unit() * 60.0, rng.unit() * 60.0, rng.unit() * 60.0);
                    Element::new(i, Shape::Sphere(Sphere::new(c, 0.3)))
                })
                .collect();
            let movers: Vec<ElementId> = (0..home.len() as ElementId).step_by(50).collect();
            let away: Vec<(ElementId, Shape)> = movers
                .iter()
                .map(|&id| {
                    let mut e = home[id as usize].clone();
                    e.translate(Vec3::new(
                        rng.unit() - 0.5,
                        rng.unit() - 0.5,
                        rng.unit() - 0.5,
                    ));
                    (id, e.shape)
                })
                .collect();
            let back: Vec<(ElementId, Shape)> = movers
                .iter()
                .map(|&id| (id, home[id as usize].shape))
                .collect();
            let mut data = home.clone();
            let mut g = UniformGrid::build(&data, GridConfig::with_cell_side(4.0, placement));
            let mut level = 0;
            for cycle in 1..=64 {
                let there = g.update_in_place(&mut data, &away).unwrap();
                let again = g.update_in_place(&mut data, &back).unwrap();
                if cycle == 1 {
                    assert!(
                        there.structural > 0 && again.structural > 0,
                        "{placement:?}: no cell switch"
                    );
                    assert!(there.absorbed > 0, "{placement:?}: no absorbed hop");
                }
                assert!(
                    g.dead <= live_slots(&g) / 8 + MIN_HEADROOM,
                    "{placement:?} cycle {cycle}: {} dead slots of {}",
                    g.dead,
                    live_slots(&g)
                );
                if cycle == 2 {
                    level = g.memory_bytes();
                }
            }
            assert_eq!(g.memory_bytes(), level, "{placement:?}: memory drifted");
            assert_eq!(data, home);
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
