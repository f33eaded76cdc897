//! Region-sharded batch execution on top of [`QueryEngine`].
//!
//! The engine is the natural seam for scaling out: everything below it
//! (index plans, sinks, scratch) already treats a batch as the unit of
//! work, so a shard layer only has to decide *which* shard executes *which*
//! queries and how per-shard emissions merge back into one sink.
//!
//! That decision is split into three separately addressable pieces:
//!
//! * [`ShardExecutor`] — one shard's execution state: a compact clone of
//!   its elements (re-identified with dense local ids so any index type,
//!   including dataset-dependent structures like the linear scan, works
//!   unchanged), the index built over them, and a private [`QueryEngine`].
//!   Its batch entry points ([`ShardExecutor::range_batch`],
//!   [`ShardExecutor::knn_batch`]) emit **global** ids, so an executor can
//!   live on its own worker thread and ship results back for merging.
//! * [`RangeLane`] / [`KnnLane`] — the routed sub-batch for one shard plus
//!   the buffers its results land in. Lanes are plain owned data (`Send`),
//!   so they travel through channels to per-shard workers and come back
//!   for merging; reused lanes keep their allocations.
//! * [`ShardPlanner`] — the routing and merging half: a [`ShardRouter`]
//!   fans queries out into lanes, and the merge passes stream deduplicated
//!   results into the caller's sink in batch order, dropping replicas of
//!   boundary-straddling elements by facts the planner already keeps (a
//!   range hit comes from the first lane its route and its query share;
//!   per-shard kNN top-k lists merge under the global ascending
//!   `(distance, id)` order, where an element's replicas sit side by side).
//!
//! A [`ShardSet`] holds the three and writes the sharded sequence once:
//! [`ShardSet::read`] routes, runs a wave of lanes, routes the kNN fan-out,
//! runs that wave and merges; [`ShardSet::write`] routes, runs one wave
//! and folds the lane reports. A *runner* closure decides only where a
//! wave's lanes execute. [`ShardedEngine`] is a shard set over its own
//! executors that runs every lane in shard order on the calling thread —
//! the serial reference; `simspatial_service::ShardedBackend` holds one
//! over its work-stealing pool.
//!
//! **The write path** mirrors the query path lane for lane, and has one
//! entry at every layer: an ordered batch of [`WriteOp`]s (`Set`, `Insert`,
//! `Remove`) routes through [`ShardPlanner::route_writes`] into per-shard
//! [`UpdateLane`]s (the planner keeps each element's *route*, not its
//! geometry: it allocates insert ids, resolves each id's ops in batch
//! order, and reads each written id's old shard set from its route table,
//! so each write touches only the shards of the old and new envelope and
//! every lane agrees with its shard), executors apply their lane
//! ([`UpdateLane::run`]: membership changes — cross-shard **migrations**,
//! inserts, removals — are spliced into the element clone and id map at
//! their sorted positions, then the index absorbs the lane **in place**
//! when it can splice the membership change ([`SpatialIndex::splice`]) and
//! move the resident elements ([`SpatialIndex::update_in_place`]), so a
//! tick pays per mover, not per element — otherwise it is rebuilt by the
//! function attached with [`ShardedEngine::with_rebuild`]), and the
//! [`UpdateLaneReport`]s carry the write counters back for accounting.
//! [`ShardedEngine::write_batch`] and the service's
//! backend both run it through [`ShardSet::write`]. After any batch,
//! executors hold their elements sorted by global id — the invariant that
//! keeps per-shard top-k tie-breaking, and therefore post-write query
//! results, byte-identical to an unsharded engine over the same data.
//!
//! **One copy of the geometry** — an element's shape lives only in the
//! clones of the shards it routes to. A shard torn by a panic keeps its
//! clone, and [`ShardExecutor::restart`] brings it back from there: it
//! replays the torn lane's membership change if the clone does not show it
//! yet, rewrites the lane's shapes, checks the clone against the planner's
//! route table and rebuilds the index. A clone the route table disagrees
//! with cannot be repaired from anywhere else, so it is reported
//! ([`RestartError::Diverged`]) and never served.
//!
//! **Partitioning** — the [`ShardRouter`] splits the dataset envelope into
//! K slabs along its longest axis: equal-width by default
//! ([`ShardRouter::new`]), or at per-axis coordinate medians
//! ([`ShardRouter::median_cut`]) so clustered datasets get balanced shard
//! populations. Every element is **replicated** into each shard whose
//! bounding box overlaps the shard's region, so a query only ever needs the
//! shards its box overlaps, and kNN's bounded two-phase fan-out (home shard
//! first, then only shards whose region `MINDIST` can still improve on the
//! home k-th bound) stays exact: the result is **byte-identical** to
//! running the same exact index unsharded (approximate structures like LSH
//! hash differently per shard and are exempt from that guarantee).
//!
//! **Accounting** — per-shard [`QueryStats`] predicate-counter deltas
//! travel in their lanes and are summed at the merge, wherever the lanes
//! ran; elapsed time is the overall wall clock and `results` counts
//! post-merge (deduplicated) emissions.
//! [`ShardedEngine::memory_bytes`] counts the full sharded structure, and
//! [`ShardedEngine::memory_parts`] itemises it ([`MemoryParts`]): the
//! planner's route table, its merge scratch, the lanes, and per shard the
//! replicated element clone, id map, index and engine scratch.

use crate::engine::{BatchResults, KnnBatchResults, QueryEngine};
use crate::grid::UniformGrid;
use crate::traits::{
    KnnIndex, KnnSink, QueryStats, RangeSink, ShardApplyCost, SpatialIndex, UpdateStats,
};
use crate::util::{admit_limit2, knn_reach};
use simspatial_geom::{stats, Aabb, Element, ElementId, Point3, Shape};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The per-shard index (re)build function stored by updatable executors:
/// called with the shard's re-identified local elements after a write batch
/// mutates them. Shared (`Arc`) so every shard and every rebuild reuses one
/// allocation; `Send + Sync` so executors can live on worker threads.
pub type ShardRebuild<I> = Arc<dyn Fn(&[Element]) -> I + Send + Sync>;

/// How a [`ShardRouter`] places its K-1 interior cuts along the split axis.
#[derive(Debug, Clone)]
enum Split {
    /// Equal-width slabs: slab lookup is one subtract/divide.
    Uniform { width: f32 },
    /// Explicit ascending cut positions (median-cut mode): slab lookup is a
    /// binary search over `shards - 1` cuts.
    Cuts(Vec<f32>),
}

/// Region split of a dataset envelope into K slabs along its longest axis —
/// the routing function shared by element placement and query fan-out.
///
/// Two split modes:
///
/// * [`ShardRouter::new`] — **uniform** equal-width slabs (the default used
///   by [`ShardedEngine::build`]).
/// * [`ShardRouter::median_cut`] — cuts at the per-axis coordinate medians
///   (quantiles of element centers), so skewed/clustered datasets get
///   balanced per-shard element counts instead of balanced widths.
///
/// Both modes expose identical routing semantics, and the sharded engine's
/// byte-identical-merge guarantee holds for either: regions tile the
/// envelope with closed boundaries, and an element is replicated into every
/// shard its bounding box overlaps.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    bounds: Aabb,
    axis: usize,
    shards: usize,
    split: Split,
}

impl ShardRouter {
    /// A router over `bounds` with `shards` equal slabs along the longest
    /// axis of `bounds`.
    pub fn new(bounds: Aabb, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let axis = if bounds.is_empty() {
            0
        } else {
            bounds.longest_axis()
        };
        let width = if bounds.is_empty() {
            0.0
        } else {
            bounds.extent().axis(axis) / shards as f32
        };
        Self {
            bounds,
            axis,
            shards,
            split: Split::Uniform { width },
        }
    }

    /// A router over the envelope of `data` with cuts at the `shards`-iles
    /// of element-center coordinates along the longest axis — balanced
    /// shard populations for skewed datasets. Falls back to the uniform
    /// split when there is nothing to take a median of.
    pub fn median_cut(data: &[Element], shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let bounds = Aabb::union_all(data.iter().map(Element::aabb));
        if shards == 1 || bounds.is_empty() || data.is_empty() {
            return Self::new(bounds, shards);
        }
        let axis = bounds.longest_axis();
        let mut coords: Vec<f32> = data.iter().map(|e| e.aabb().center().axis(axis)).collect();
        coords.sort_unstable_by(f32::total_cmp);
        let n = coords.len();
        let cuts: Vec<f32> = (1..shards)
            .map(|i| coords[(i * n / shards).min(n - 1)])
            .collect();
        Self {
            bounds,
            axis,
            shards,
            split: Split::Cuts(cuts),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The split axis (0 = x, 1 = y, 2 = z).
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// True when this router uses median cuts rather than uniform slabs.
    pub fn is_median_cut(&self) -> bool {
        matches!(self.split, Split::Cuts(_))
    }

    /// Heap + inline bytes of the routing structure.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.split {
                Split::Uniform { .. } => 0,
                Split::Cuts(cuts) => cuts.capacity() * std::mem::size_of::<f32>(),
            }
    }

    /// True when the split is degenerate (empty envelope or zero width) and
    /// everything routes everywhere.
    fn degenerate(&self) -> bool {
        match &self.split {
            Split::Uniform { width } => *width <= 0.0,
            Split::Cuts(_) => false,
        }
    }

    /// The slab a coordinate value falls in, clamped into `0..shards`.
    fn slab(&self, v: f32) -> usize {
        match &self.split {
            Split::Uniform { width } => {
                let lo = self.bounds.min.axis(self.axis);
                (((v - lo) / width).floor() as isize).clamp(0, self.shards as isize - 1) as usize
            }
            Split::Cuts(cuts) => cuts.partition_point(|&c| c <= v),
        }
    }

    /// The lower boundary of slab `i` along the split axis.
    fn slab_lo(&self, i: usize) -> f32 {
        if i == 0 {
            return self.bounds.min.axis(self.axis);
        }
        match &self.split {
            Split::Uniform { width } => self.bounds.min.axis(self.axis) + i as f32 * width,
            Split::Cuts(cuts) => cuts[i - 1],
        }
    }

    /// The region of shard `i`: the envelope restricted to slab `i` along
    /// the split axis.
    pub fn region(&self, i: usize) -> Aabb {
        assert!(i < self.shards);
        if self.bounds.is_empty() || self.degenerate() {
            return self.bounds;
        }
        let lo = self.slab_lo(i);
        let hi = if i + 1 == self.shards {
            self.bounds.max.axis(self.axis)
        } else {
            self.slab_lo(i + 1)
        };
        let mut region = self.bounds;
        *region.min.axis_mut(self.axis) = lo;
        *region.max.axis_mut(self.axis) = hi;
        region
    }

    /// The contiguous range of shards whose regions a box overlaps. Boxes
    /// outside the envelope clamp to the nearest slab, so routing is total;
    /// a degenerate (zero-width) split routes everything everywhere.
    pub fn route(&self, b: &Aabb) -> Range<usize> {
        if self.degenerate() || b.is_empty() {
            return 0..self.shards;
        }
        let first = self.slab(b.min.axis(self.axis));
        let last = self.slab(b.max.axis(self.axis));
        first..last + 1
    }

    /// The home shard of a probe point: the slab its (clamped) coordinate
    /// falls in — where a kNN search is most likely to find its k nearest.
    pub fn home(&self, p: &Point3) -> usize {
        self.route(&Aabb::from_point(*p)).start
    }
}

/// Forwarding range sink that translates a shard's dense local ids back to
/// global element ids as they are emitted.
struct GlobalRangeSink<'a> {
    inner: &'a mut dyn RangeSink,
    global: &'a [ElementId],
}

impl RangeSink for GlobalRangeSink<'_> {
    fn begin_query(&mut self, qi: u32) {
        self.inner.begin_query(qi);
    }

    #[inline]
    fn push(&mut self, id: ElementId) {
        self.inner.push(self.global[id as usize]);
    }

    /// Translates through a stack buffer, so a shard's per-query hit list
    /// reaches `inner` in a few [`RangeSink::push_all`] calls.
    fn push_all(&mut self, ids: &[ElementId]) {
        let mut buf = [0; 64];
        for chunk in ids.chunks(buf.len()) {
            for (out, &id) in buf.iter_mut().zip(chunk) {
                *out = self.global[id as usize];
            }
            self.inner.push_all(&buf[..chunk.len()]);
        }
    }
}

/// Forwarding kNN sink that translates local ids to global ids.
///
/// Local ids are assigned in data-slice order, and the index layer requires
/// element ids to equal data-slice positions (plans address `data[id]`), so
/// ascending local id within a shard is ascending global id too: the
/// shard's `(distance, local id)` top-k selection picks exactly the
/// elements a global `(distance, id)` selection would, and the merge pass
/// only has to interleave shards — that is what keeps sharded results
/// byte-identical to unsharded execution, ties included.
struct GlobalKnnSink<'a> {
    inner: &'a mut dyn KnnSink,
    global: &'a [ElementId],
}

impl KnnSink for GlobalKnnSink<'_> {
    fn begin_query(&mut self, qi: u32) {
        self.inner.begin_query(qi);
    }

    #[inline]
    fn push(&mut self, id: ElementId, dist: f32) {
        self.inner.push(self.global[id as usize], dist);
    }
}

/// One shard's execution state: a compact re-identified clone of its
/// elements, the index built over them, and a private [`QueryEngine`].
///
/// Executors are self-contained and `Send` (for `Send` index types): the
/// service layer moves each one onto a persistent worker thread and drives
/// it with [`RangeLane`]/[`KnnLane`] jobs. Batch results are emitted with
/// **global** element ids, so merging never needs shard-local state.
///
/// The clone is the only copy of its elements' geometry: the planner keeps
/// routes, not shapes. An executor torn by a panic restarts from its own
/// clone ([`ShardExecutor::restart`]).
pub struct ShardExecutor<I> {
    region: Aabb,
    /// Local elements, re-identified with dense ids `0..n`. Kept sorted by
    /// global id (see [`ShardExecutor::global_ids`]) so local-id order
    /// always agrees with global-id order — the invariant behind the
    /// byte-identical kNN tie-breaking — and so update lanes, sorted the
    /// same way, resolve global ids by one forward walk.
    data: Vec<Element>,
    /// Local id → global id; strictly ascending.
    global: Vec<ElementId>,
    index: I,
    engine: QueryEngine,
    /// Index (re)build function for the write path; `None` for read-only
    /// engines (see [`ShardedEngine::with_rebuild`]).
    rebuild: Option<ShardRebuild<I>>,
}

impl<I> ShardExecutor<I> {
    /// The routing region this executor serves.
    pub fn region(&self) -> Aabb {
        self.region
    }

    /// Number of elements stored in this shard (replicas included).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the shard holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The shard's index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Local id → global id translation table (strictly ascending: shard
    /// clones are kept sorted by global id, which is what makes per-shard
    /// `(distance, local id)` top-k selection agree with the global
    /// `(distance, id)` order, ties included).
    pub fn global_ids(&self) -> &[ElementId] {
        &self.global
    }

    /// True when this executor can apply update lanes (a rebuild function
    /// was attached, see [`ShardedEngine::with_rebuild`]).
    pub fn is_updatable(&self) -> bool {
        self.rebuild.is_some()
    }
}

/// Why [`ShardExecutor::restart`] could not bring a torn shard back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartError {
    /// No rebuild function is attached ([`ShardedEngine::with_rebuild`]).
    NoRecipe,
    /// The clone shows the torn lane's membership change only in part, or
    /// disagrees with the planner's route table. The clone is the only
    /// copy of its elements' geometry, so there is nothing to repair it
    /// from.
    Diverged,
}

/// A lane changes a shard's membership in place only while the arrivals
/// plus departures stay within this fraction of the shard; a bigger change
/// rebuilds, which also re-fits the index to where the elements now are.
const SPLICE_MAX_FRACTION: usize = 4;

/// The invariant every write lane rests on. The planner that routed it
/// reads each id's old shard set from its route table, which advances in
/// lockstep with the executors, so a lane cannot disagree with its shard;
/// one that does means the executor is corrupt, and panicking hands it to
/// supervision (a restart finds the clone diverged and the shard dies).
const LANE_AGREES: &str = "update lane disagrees with its shard: every update and removal id \
     must be resident, no insert id may be, and each list must strictly ascend by global id";

/// Position of `gid` in the ascending `global`, searched from `from` on:
/// a forward gallop (probes at doubling distances) brackets it, then a
/// binary search inside the bracket finds it. Walking a sorted lane this
/// way costs O(log gap) per id instead of a full binary search each, and
/// touches `global` front to back. `Err` carries the insertion position,
/// like [`slice::binary_search`].
fn gallop(global: &[ElementId], from: usize, gid: ElementId) -> Result<usize, usize> {
    let rest = &global[from.min(global.len())..];
    let mut bound = 1;
    while bound < rest.len() && rest[bound - 1] < gid {
        bound *= 2;
    }
    let lo = bound / 2;
    let hi = bound.min(rest.len());
    rest[lo..hi]
        .binary_search(&gid)
        .map(|i| from + lo + i)
        .map_err(|i| from + lo + i)
}

/// After an in-place membership change the element clone and the id map
/// give back spare capacity only beyond this fraction of their length: the
/// slack a build's push-doubling leaves is dropped at the first change, but
/// a shard whose membership oscillates (elements crossing a cut and
/// returning) keeps the few spare slots and stops reallocating — and, when
/// the allocator cannot grow the block where it lies, copying — its whole
/// clone every cycle.
const SPLICE_SLACK_FRACTION: usize = 16;

fn trim_slack<T>(v: &mut Vec<T>) {
    if (v.capacity() - v.len()) * SPLICE_SLACK_FRACTION > v.len() {
        v.shrink_to_fit();
    }
}

/// Per-lane working set of the write path, kept across runs so a lane
/// allocates once: the local-id translation of its updates and, for a lane
/// that changes membership, the arguments of [`SpatialIndex::splice`].
#[derive(Default)]
struct LaneScratch {
    /// `updates` translated to the executor's local ids by the last run.
    local: Vec<(ElementId, Shape)>,
    /// Old local id → new local id; a departing id maps to the id its
    /// successor takes, so the map is monotone over every old id.
    remap: Vec<ElementId>,
    /// Departing elements under their old local ids, ascending.
    removed: Vec<Element>,
    /// Arriving elements under their new local ids, ascending …
    inserted: Vec<Element>,
    /// … and their global ids, parallel to `inserted`.
    inserted_global: Vec<ElementId>,
}

impl LaneScratch {
    fn memory_bytes(&self) -> usize {
        self.local.capacity() * std::mem::size_of::<(ElementId, Shape)>()
            + (self.remap.capacity() + self.inserted_global.capacity())
                * std::mem::size_of::<ElementId>()
            + (self.removed.capacity() + self.inserted.capacity()) * std::mem::size_of::<Element>()
    }
}

/// Applies a sorted membership change to `v` in place: drops the entries at
/// the positions `removed[..].id`, then opens the positions
/// `inserted[..].id` (final coordinates) and fills slot `j` of them with
/// `arrival(j)`. Two shifting passes over the affected tail, and growth
/// beyond the capacity at hand is exact-fit — a vector that gains a few
/// entries never doubles.
fn splice_sorted<T: Clone>(
    v: &mut Vec<T>,
    removed: &[Element],
    inserted: &[Element],
    arrival: impl Fn(usize) -> T,
) {
    if !removed.is_empty() {
        let (mut at, mut next) = (0usize, 0usize);
        v.retain(|_| {
            let dead = removed.get(next).is_some_and(|e| e.id as usize == at);
            at += 1;
            next += usize::from(dead);
            !dead
        });
    }
    let Some(last) = inserted.len().checked_sub(1) else {
        return;
    };
    let mut src = v.len();
    v.reserve_exact(inserted.len());
    v.resize(src + inserted.len(), arrival(last));
    let mut j = inserted.len();
    for dst in (inserted[0].id as usize..v.len()).rev() {
        if j > 0 && inserted[j - 1].id as usize == dst {
            j -= 1;
            v[dst] = arrival(j);
        } else {
            src -= 1;
            v.swap(dst, src);
        }
    }
}

impl<I: SpatialIndex> ShardExecutor<I> {
    /// Bytes held by this shard: index structure, replicated element clone,
    /// id map and engine scratch.
    pub fn memory_bytes(&self) -> usize {
        self.memory_parts().total()
    }

    /// [`ShardExecutor::memory_bytes`] by part: the shard fills `clones`,
    /// `id_maps`, `indexes` and `engine_scratch`.
    pub fn memory_parts(&self) -> MemoryParts {
        MemoryParts {
            clones: self.data.capacity() * std::mem::size_of::<Element>(),
            id_maps: self.global.capacity() * std::mem::size_of::<ElementId>(),
            indexes: self.index.memory_bytes(),
            engine_scratch: self.engine.memory_bytes(),
            ..MemoryParts::default()
        }
    }

    /// Brings a shard torn by a panic back from its own element clone —
    /// the only copy of its elements' geometry — and rebuilds its index
    /// with the shard's own recipe. `torn` is the write lane the shard was
    /// running when it panicked, if any. The panic may have struck anywhere
    /// in [`UpdateLane::run`]; since the clone's splice calls no code that
    /// can panic, the clone shows the lane's membership change whole or
    /// not at all, and any subset of its shapes. The restart brings the
    /// clone to its post-lane state exactly once:
    ///
    /// 1. it applies the membership change only if the clone does not
    ///    already show it (arrivals present, departures absent);
    /// 2. it writes every update's and arrival's shape, which is
    ///    idempotent;
    /// 3. it checks the clone against the planner's route table: the
    ///    shard holds exactly the ids routed to it, each with geometry that
    ///    routes where the table says;
    /// 4. it rebuilds the index over the clone, local ids made dense again.
    ///
    /// A restart that panics in the recipe leaves a clone the next attempt
    /// accepts at step 1. A read lane changes no clone, so a shard torn by
    /// one restarts with `torn` set to `None`.
    pub fn restart(
        &mut self,
        planner: &ShardPlanner,
        shard: usize,
        torn: Option<&mut UpdateLane>,
    ) -> Result<(), RestartError> {
        let rebuild = self.rebuild.clone().ok_or(RestartError::NoRecipe)?;
        if self.data.len() != self.global.len() {
            return Err(RestartError::Diverged);
        }
        if let Some(lane) = torn {
            self.replay(lane)?;
        }
        for (li, e) in self.data.iter_mut().enumerate() {
            e.id = li as ElementId;
        }
        if !planner.agrees_with(shard, &self.global, &self.data) {
            return Err(RestartError::Diverged);
        }
        self.data.shrink_to_fit();
        self.global.shrink_to_fit();
        self.engine = QueryEngine::new();
        self.index = rebuild(&self.data);
        Ok(())
    }

    /// Steps 1 and 2 of [`ShardExecutor::restart`] for the torn `lane`.
    fn replay(&mut self, lane: &mut UpdateLane) -> Result<(), RestartError> {
        let UpdateLane {
            updates,
            inserts,
            removals,
            scratch,
            ..
        } = lane;
        let resident = |gid: &ElementId| self.global.binary_search(gid).is_ok();
        let arrived = inserts.iter().filter(|(gid, _)| resident(gid)).count();
        let departed = removals.iter().filter(|gid| !resident(gid)).count();
        if arrived < inserts.len() || departed < removals.len() {
            if arrived > 0 || departed > 0 {
                return Err(RestartError::Diverged);
            }
            self.plan_splice(inserts, removals, scratch);
            self.splice_clone(scratch);
        }
        for &(gid, shape) in updates.iter().chain(inserts.iter()) {
            let li = self
                .global
                .binary_search(&gid)
                .map_err(|_| RestartError::Diverged)?;
            self.data[li].shape = shape;
        }
        Ok(())
    }

    /// Applies one routed write sub-batch — one membership path, then the
    /// index absorbs the lane in place or is rebuilt.
    ///
    /// The updates are translated to local ids by one forward galloping
    /// walk over the id map (the lane ascends by global id, see
    /// [`UpdateLane`]; an id the walk cannot find panics with
    /// [`LANE_AGREES`]), the membership change is resolved into the
    /// arguments of [`SpatialIndex::splice`]
    /// ([`ShardExecutor::plan_splice`]) and arrivals and departures are
    /// shifted into the element clone and the id map at their sorted
    /// positions, so the shard's two invariants (dense local ids, sorted by
    /// global id) hold after every lane. Then:
    ///
    /// * **In place** — when the membership change is at most a quarter of
    ///   the shard and the index accepted it (asked before anything is
    ///   shifted), the index moves the resident updates under their
    ///   post-splice local ids, in ascending id order
    ///   ([`SpatialIndex::update_in_place`]) — which walks the element
    ///   clone, the index's slot directory and its cells front to back. K
    ///   movers cost O(K) plus, when membership changed, one renumbering
    ///   pass.
    /// * **Rebuild** — otherwise, or when the index declines the write
    ///   (`None`): the new geometry is written into the clone and the
    ///   attached rebuild function rebuilds the index over it, which also
    ///   re-fits the index to where the elements now are. A declined write
    ///   after an accepted splice is still correct: the clone is spliced.
    ///   An index that rebuilt itself inside the write (its cost reports
    ///   `rebuilds > 0`) counts the same way: every element's entry was
    ///   rewritten, and no rebuild was avoided.
    ///
    /// Every step is a pure function of the executor's state and the lane
    /// (the determinism contract of [`SpatialIndex::update_in_place`]).
    ///
    /// Returns the lane report with the executor-level counters filled
    /// ([`UpdateLane::run`] adds `shipped`). Panics when no
    /// rebuild function is attached ([`ShardExecutor::is_updatable`] is
    /// false), and when the lane disagrees with the shard ([`LANE_AGREES`]).
    fn apply_updates(
        &mut self,
        updates: &[(ElementId, Shape)],
        inserts: &[(ElementId, Shape)],
        removals: &[ElementId],
        scratch: &mut LaneScratch,
    ) -> UpdateLaneReport {
        let rebuild = Arc::clone(
            self.rebuild
                .as_ref()
                .expect("write batch on a read-only shard — build the engine with_rebuild"),
        );
        scratch.local.clear();
        let mut next = 0;
        for &(gid, shape) in updates {
            let li = gallop(&self.global, next, gid).expect(LANE_AGREES);
            scratch.local.push((li as ElementId, shape));
            next = li + 1;
        }
        let changed = inserts.len() + removals.len();
        let mut in_place = true;
        if changed > 0 {
            self.plan_splice(inserts, removals, scratch);
            in_place = changed * SPLICE_MAX_FRACTION <= self.data.len()
                && self
                    .index
                    .splice(&scratch.removed, &scratch.remap, &scratch.inserted);
            self.splice_clone(scratch);
            if in_place {
                trim_slack(&mut self.data);
                trim_slack(&mut self.global);
            }
            for entry in scratch.local.iter_mut() {
                entry.0 = scratch.remap[entry.0 as usize];
            }
        }
        let report = UpdateLaneReport {
            migrated_in: inserts.len() as u64,
            migrated_out: removals.len() as u64,
            ..UpdateLaneReport::default()
        };
        let cost = if in_place {
            self.index.update_in_place(&mut self.data, &scratch.local)
        } else {
            None
        };
        let rebuilds = match cost {
            Some(cost) if cost.rebuilds == 0 => {
                return UpdateLaneReport {
                    structural: cost.structural + changed as u64,
                    absorbed: cost.absorbed,
                    rebuilds_avoided: 1,
                    ..report
                }
            }
            // The index rebuilt itself inside the write (a rebuild
            // strategy): the lane counts as a rebuild, not as one avoided.
            Some(cost) => cost.rebuilds,
            None => {
                for &(li, shape) in &scratch.local {
                    self.data[li as usize].shape = shape;
                }
                self.data.shrink_to_fit();
                self.global.shrink_to_fit();
                self.index = rebuild(&self.data);
                1
            }
        };
        UpdateLaneReport {
            // A rebuild touches every element's index entry — the write
            // amplification the in-place path exists to avoid.
            structural: self.data.len() as u64,
            rebuilds,
            ..report
        }
    }

    /// Resolves a lane's membership change against this shard into the
    /// arguments of [`SpatialIndex::splice`] (`scratch.removed`, `.remap`,
    /// `.inserted`, `.inserted_global`). Panics when the lane disagrees
    /// with the shard ([`LANE_AGREES`]).
    fn plan_splice(
        &self,
        inserts: &[(ElementId, Shape)],
        removals: &[ElementId],
        scratch: &mut LaneScratch,
    ) {
        let LaneScratch {
            remap,
            removed,
            inserted,
            inserted_global,
            ..
        } = scratch;
        // Both lists ascend by global id (the lane contract), so one
        // forward walk each resolves them, already in local-id order.
        removed.clear();
        let mut next = 0;
        for &gid in removals {
            let li = gallop(&self.global, next, gid).expect(LANE_AGREES);
            removed.push(self.data[li].clone());
            next = li + 1;
        }
        // Arrivals carry their global id until the merge below hands out
        // local ones.
        inserted.clear();
        let mut next = 0;
        for &(gid, shape) in inserts {
            next = gallop(&self.global, next, gid).expect_err(LANE_AGREES);
            inserted.push(Element::new(gid, shape));
        }
        assert!(
            inserted.windows(2).all(|w| w[0].id < w[1].id),
            "{LANE_AGREES}"
        );
        // One merge over the old id map: survivors and arrivals take
        // consecutive new ids in global-id order.
        remap.clear();
        remap.reserve_exact(self.global.len());
        inserted_global.clear();
        let mut next = 0 as ElementId;
        let mut departures = removed.iter().peekable();
        let mut arrivals = inserted.iter_mut().peekable();
        for (old, &gid) in self.global.iter().enumerate() {
            while let Some(e) = arrivals.next_if(|e| e.id < gid) {
                inserted_global.push(std::mem::replace(&mut e.id, next));
                next += 1;
            }
            remap.push(next);
            if departures.next_if(|e| e.id as usize == old).is_none() {
                next += 1;
            }
        }
        for e in arrivals {
            inserted_global.push(std::mem::replace(&mut e.id, next));
            next += 1;
        }
    }

    /// Shifts the membership change [`ShardExecutor::plan_splice`]
    /// resolved into the id map and the element clone, and renumbers the
    /// shifted elements' local ids.
    fn splice_clone(&mut self, scratch: &LaneScratch) {
        let (removed, inserted) = (&scratch.removed, &scratch.inserted);
        let first = removed
            .first()
            .into_iter()
            .chain(inserted.first())
            .map(|e| e.id as usize)
            .min()
            .unwrap_or(0);
        splice_sorted(&mut self.global, removed, inserted, |j| {
            scratch.inserted_global[j]
        });
        splice_sorted(&mut self.data, removed, inserted, |j| inserted[j].clone());
        for (li, e) in self.data.iter_mut().enumerate().skip(first) {
            e.id = li as ElementId;
        }
    }

    /// Runs a routed sub-batch of range queries through the shard's engine,
    /// collecting **global** ids per query into `out` (reset first).
    pub fn range_batch(&mut self, queries: &[Aabb], out: &mut BatchResults) -> QueryStats {
        out.reset();
        let mut sink = GlobalRangeSink {
            inner: out,
            global: &self.global,
        };
        self.engine
            .range_batch(&self.index, &self.data, queries, &mut sink)
    }
}

impl<I: KnnIndex> ShardExecutor<I> {
    /// Runs a routed sub-batch of `(point, k)` probes through the shard's
    /// engine, collecting **global** `(id, distance)` lists per probe into
    /// `out` (reset first).
    pub fn knn_batch(
        &mut self,
        probes: &[(Point3, usize)],
        out: &mut KnnBatchResults,
    ) -> QueryStats {
        out.reset();
        let mut sink = GlobalKnnSink {
            inner: out,
            global: &self.global,
        };
        self.engine
            .knn_probes_into(&self.index, &self.data, probes, &mut sink)
    }
}

/// The routed range sub-batch for one shard plus its result buffers — the
/// job payload a [`ShardPlanner`] fills, a [`ShardExecutor`] runs, and the
/// planner's merge pass consumes. Owned data (`Send`): lanes travel through
/// channels to per-shard workers; reused lanes keep their allocations.
#[derive(Default)]
pub struct RangeLane {
    /// Global query index per routed query (ascending).
    routed: Vec<u32>,
    /// The routed query boxes, parallel to `routed`.
    queries: Vec<Aabb>,
    /// Per-routed-query global-id result lists, filled by [`RangeLane::run`].
    results: BatchResults,
    /// Accounting of the shard execution.
    stats: QueryStats,
    /// Merge cursor into `routed`.
    cursor: usize,
}

impl RangeLane {
    /// An empty lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries routed to this lane.
    pub fn len(&self) -> usize {
        self.routed.len()
    }

    /// True when no queries are routed here.
    pub fn is_empty(&self) -> bool {
        self.routed.is_empty()
    }

    /// The routed query boxes.
    pub fn queries(&self) -> &[Aabb] {
        &self.queries
    }

    /// Global query indices routed to this lane (ascending) — lets an
    /// orchestrator attribute a lane it decided to skip (a dead shard) to
    /// the batch queries it would have served.
    pub fn routed(&self) -> &[u32] {
        &self.routed
    }

    /// Accounting of the last [`RangeLane::run`].
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Empties the lane (allocations kept): the planner clears every lane
    /// before routing into it, and an emptied lane is skipped by the
    /// scatter and contributes nothing to the merge — how an orchestrator
    /// drops a routed sub-batch aimed at a dead shard.
    pub fn clear(&mut self) {
        self.routed.clear();
        self.queries.clear();
        self.results.reset();
        self.stats = QueryStats::default();
        self.cursor = 0;
    }

    /// Executes the lane's sub-batch on `exec`, filling the result buffers
    /// and recording the shard's [`QueryStats`].
    pub fn run<I: SpatialIndex>(&mut self, exec: &mut ShardExecutor<I>) {
        let Self {
            queries,
            results,
            stats,
            ..
        } = self;
        *stats = exec.range_batch(queries, results);
    }

    /// Heap bytes held by the lane's buffers.
    pub fn memory_bytes(&self) -> usize {
        self.routed.capacity() * std::mem::size_of::<u32>()
            + self.queries.capacity() * std::mem::size_of::<Aabb>()
    }
}

/// The routed kNN sub-batch for one shard plus its result buffers — the kNN
/// mirror of [`RangeLane`], used for both the home phase and the bounded
/// fan-out phase.
#[derive(Default)]
pub struct KnnLane {
    /// Global probe index per routed probe (ascending).
    routed: Vec<u32>,
    /// The routed `(point, k)` probes, parallel to `routed`.
    probes: Vec<(Point3, usize)>,
    /// Per-routed-probe global `(id, distance)` lists, filled by
    /// [`KnnLane::run`].
    results: KnnBatchResults,
    /// Accounting of the shard execution.
    stats: QueryStats,
    /// Merge cursor into `routed`.
    cursor: usize,
}

impl KnnLane {
    /// An empty lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of probes routed to this lane.
    pub fn len(&self) -> usize {
        self.routed.len()
    }

    /// True when no probes are routed here.
    pub fn is_empty(&self) -> bool {
        self.routed.is_empty()
    }

    /// The routed `(point, k)` probes.
    pub fn probes(&self) -> &[(Point3, usize)] {
        &self.probes
    }

    /// Global probe indices routed to this lane (ascending) — lets an
    /// orchestrator attribute a lane it decided to skip (a dead shard) to
    /// the batch probes it would have served.
    pub fn routed(&self) -> &[u32] {
        &self.routed
    }

    /// Accounting of the last [`KnnLane::run`].
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Empties the lane, keeping allocations (see [`RangeLane::clear`]).
    pub fn clear(&mut self) {
        self.routed.clear();
        self.probes.clear();
        self.results.reset();
        self.stats = QueryStats::default();
        self.cursor = 0;
    }

    /// Executes the lane's sub-batch on `exec`, filling the result buffers
    /// and recording the shard's [`QueryStats`].
    pub fn run<I: KnnIndex>(&mut self, exec: &mut ShardExecutor<I>) {
        let Self {
            probes,
            results,
            stats,
            ..
        } = self;
        *stats = exec.knn_batch(probes, results);
    }

    /// Heap bytes held by the lane's buffers.
    pub fn memory_bytes(&self) -> usize {
        self.routed.capacity() * std::mem::size_of::<u32>()
            + self.probes.capacity() * std::mem::size_of::<(Point3, usize)>()
    }
}

/// Per-shard write counters of one executed [`UpdateLane`], filled by
/// [`UpdateLane::run`] and folded into the batch's [`UpdateStats`]. The
/// shard's size and memory are not copied here: they are read from the
/// executor ([`ShardExecutor::len`], [`ShardExecutor::memory_parts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateLaneReport {
    /// Elements migrated *into* the shard by this batch.
    pub migrated_in: u64,
    /// Elements migrated *out of* the shard by this batch.
    pub migrated_out: u64,
    /// Write operations shipped to this shard (updates + inserts +
    /// removals) — the lane's share of the write-amplification numerator.
    pub shipped: u64,
    /// Structural index work this lane caused: cells/nodes dirtied plus
    /// elements spliced in or out on the in-place path, every surviving
    /// element on a rebuild.
    pub structural: u64,
    /// Updates absorbed in place with no structural work.
    pub absorbed: u64,
    /// Full index rebuilds this lane performed (the executor fallback, or
    /// a rebuild the index performed inside its in-place write).
    pub rebuilds: u64,
    /// 1 when the lane ran in place with no rebuild — geometry and, if it
    /// carried any, membership changes — 0 otherwise.
    pub rebuilds_avoided: u64,
}

impl UpdateLaneReport {
    /// Folds this lane's write-amplification counters into batch-level
    /// [`UpdateStats`] (plan-level fields — applied/migrations/skipped and
    /// membership counts — are the planner's to fill).
    pub fn fold_into(&self, stats: &mut UpdateStats) {
        stats.shipped += self.shipped;
        stats.structural += self.structural;
        stats.absorbed += self.absorbed;
        stats.rebuilds += self.rebuilds;
        stats.rebuilds_avoided += self.rebuilds_avoided;
        // Only an in-place lane reports membership changes without a
        // rebuild: those are the ones it spliced.
        if self.rebuilds_avoided == 1 {
            stats.spliced += self.migrated_in + self.migrated_out;
        }
    }
}

/// One operation of a write batch — the one write vocabulary every layer
/// carries, from the service's write run down to
/// [`ShardPlanner::route_writes`], which resolves a batch of them in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// Replace live element `id`'s geometry.
    Set(ElementId, Shape),
    /// Add an element; the planner allocates its id.
    Insert(Shape),
    /// Remove element `id`: its id is tombstoned and never comes back.
    Remove(ElementId),
}

impl WriteOp {
    /// The geometry the op leaves its element with — `None` for a removal.
    pub fn shape(&self) -> Option<Shape> {
        match *self {
            WriteOp::Set(_, shape) | WriteOp::Insert(shape) => Some(shape),
            WriteOp::Remove(_) => None,
        }
    }
}

/// The routed write sub-batch for one shard — the write-path mirror of
/// [`RangeLane`]/[`KnnLane`]: a [`ShardPlanner`] fills it
/// ([`ShardPlanner::route_writes`]), a [`ShardExecutor`] applies it
/// ([`UpdateLane::run`]), and the post-apply [`UpdateLaneReport`] travels
/// back for accounting. Owned data (`Send`), so lanes ship over channels to
/// per-shard workers; reused lanes keep their allocations.
///
/// **Order contract:** each of the three lists strictly ascends by global
/// id (the planner routes a batch's winners in id order). The executor
/// leans on it: it resolves each list with one forward walk over its id
/// map, and a list that breaks the order is a lane that disagrees with its
/// shard.
#[derive(Default)]
pub struct UpdateLane {
    /// `(global id, new geometry)` for elements staying in this shard,
    /// ascending by id.
    updates: Vec<(ElementId, Shape)>,
    /// `(global id, new geometry)` for elements entering this shard,
    /// ascending by id.
    inserts: Vec<(ElementId, Shape)>,
    /// Global ids leaving this shard, ascending.
    removals: Vec<ElementId>,
    /// Working set of the last [`UpdateLane::run`].
    scratch: LaneScratch,
    /// Accounting of the last [`UpdateLane::run`].
    report: UpdateLaneReport,
}

impl UpdateLane {
    /// An empty lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of write operations (updates + inserts + removals) routed to
    /// this lane.
    pub fn len(&self) -> usize {
        self.updates.len() + self.inserts.len() + self.removals.len()
    }

    /// True when no write operations are routed here (the executor round
    /// trip can be skipped entirely).
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty() && self.inserts.is_empty() && self.removals.is_empty()
    }

    /// Accounting of the last [`UpdateLane::run`].
    pub fn report(&self) -> &UpdateLaneReport {
        &self.report
    }

    /// Empties the lane (allocations kept): the planner clears every lane
    /// before routing into it, and an orchestrator drops a routed write
    /// sub-batch aimed at a dead shard this way (the route table already
    /// advanced; there is no executor left to apply to).
    pub fn clear(&mut self) {
        self.updates.clear();
        self.inserts.clear();
        self.removals.clear();
        self.report = UpdateLaneReport::default();
    }

    /// Applies the lane's write sub-batch to `exec` — membership spliced
    /// into the shard's element clone and id map, then geometry applied in
    /// place by the index where it can ([`SpatialIndex::update_in_place`]),
    /// by index rebuild otherwise — and records the lane's write counters
    /// in its report. The shard's post-apply size and memory stay on the
    /// executor, where whoever reports them reads them. An empty lane does
    /// nothing and keeps its empty report.
    ///
    /// Panics when `exec` has no rebuild function attached
    /// ([`ShardedEngine::with_rebuild`]).
    pub fn run<I: SpatialIndex>(&mut self, exec: &mut ShardExecutor<I>) {
        if self.is_empty() {
            return;
        }
        self.report = UpdateLaneReport {
            shipped: self.len() as u64,
            ..exec.apply_updates(
                &self.updates,
                &self.inserts,
                &self.removals,
                &mut self.scratch,
            )
        };
    }

    /// Heap bytes held by the lane's buffers, the write path's scratch
    /// (id translation, splice arguments) included.
    pub fn memory_bytes(&self) -> usize {
        (self.updates.capacity() + self.inserts.capacity())
            * std::mem::size_of::<(ElementId, Shape)>()
            + self.removals.capacity() * std::mem::size_of::<ElementId>()
            + self.scratch.memory_bytes()
    }
}

/// Grows or shrinks `lanes` to exactly `n` entries, each emptied by `clear`
/// (allocations kept).
fn size_lanes<L: Default>(lanes: &mut Vec<L>, n: usize, clear: impl FnMut(&mut L)) {
    lanes.resize_with(n, L::default);
    lanes.iter_mut().for_each(clear);
}

/// The bytes of a sharded structure by part. [`MemoryParts::total`] is
/// its `memory_bytes`: [`ShardedEngine::memory_parts`] fills every part,
/// [`ShardExecutor::memory_parts`] the four per-shard ones,
/// [`ShardSet::plan_memory_parts`] the three outside the executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryParts {
    /// The planner's routing state: the 2 B per element route table, the
    /// router and the kNN fan-out regions.
    pub route_table: usize,
    /// The planner's scratch, sized by a batch, not by the id bound: the
    /// kNN merge's staging and fan-out bounds, and the write path's
    /// id-order buffer.
    pub merge_scratch: usize,
    /// Every lane's buffers, the write path's per-lane scratch and the
    /// engine's staged kNN probes included.
    pub lanes: usize,
    /// The shards' element clones, replicas included.
    pub clones: usize,
    /// The shards' local → global id maps.
    pub id_maps: usize,
    /// The shards' index structures.
    pub indexes: usize,
    /// The shard engines' scratch high-water marks.
    pub engine_scratch: usize,
}

impl MemoryParts {
    /// The sum of every part.
    pub fn total(&self) -> usize {
        self.route_table
            + self.merge_scratch
            + self.lanes
            + self.clones
            + self.id_maps
            + self.indexes
            + self.engine_scratch
    }
}

impl std::ops::Add for MemoryParts {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            route_table: self.route_table + o.route_table,
            merge_scratch: self.merge_scratch + o.merge_scratch,
            lanes: self.lanes + o.lanes,
            clones: self.clones + o.clones,
            id_maps: self.id_maps + o.id_maps,
            indexes: self.indexes + o.indexes,
            engine_scratch: self.engine_scratch + o.engine_scratch,
        }
    }
}

impl std::iter::Sum for MemoryParts {
    fn sum<It: Iterator<Item = Self>>(parts: It) -> Self {
        parts.fold(Self::default(), std::ops::Add::add)
    }
}

/// The routing + merging half of sharded execution: fans query batches out
/// into per-shard [`RangeLane`]s/[`KnnLane`]s and merges executed lanes back
/// into one sink under the single-engine result contract (deduplicated
/// range ids; kNN top-k under ascending `(distance, id)`).
///
/// A planner never touches shard indexes, so callers are free to run the
/// lanes wherever they like — through a [`ShardSet`] runner (inline for
/// [`ShardedEngine`], on the service layer's work-stealing shard pool) or
/// by hand. It holds no geometry: each element's shape lives only in the
/// clones of the shards it routes to, and the planner keeps where each
/// element routes.
pub struct ShardPlanner {
    router: ShardRouter,
    /// Per-shard kNN fan-out pruning regions, hoisted out of the hot loops.
    /// These are the *extended* regions — restricted only on the split
    /// axis, with the two outer slabs open-ended — so the `MINDIST` bound
    /// stays exact even after updates move elements outside the build-time
    /// envelope (routing clamps such elements into the nearest slab; the
    /// extended region of that slab still covers them).
    fan_regions: Vec<Aabb>,
    /// Global id → the shard range its current envelope routes to, as
    /// `(start, end)` (2 B per id; its length is the id bound), read by a
    /// write for its *old* shard set and by the range merge. The range is
    /// empty exactly for a removed (or never-existing) id — the
    /// **tombstone**, kept apart from the geometry, so an element whose
    /// geometry is the empty box is as live as any other (it routes to
    /// every shard).
    routes: Vec<(u8, u8)>,
    /// `(id, batch position)` pairs of the last routed write batch, sorted
    /// by id — the buffer of [`ShardPlanner::route_writes`], reused across
    /// batches.
    order: Vec<(ElementId, u32)>,
    /// One probe's kNN merge candidates, `(distance, id)`.
    knn_queue: Vec<(f32, ElementId)>,
    /// Per-probe kNN fan-out pruning bounds of the batch in flight.
    bounds: Vec<f32>,
}

/// Most shards a [`ShardPlanner`] routes: its route table stores each
/// element's shard range as two `u8`s.
const MAX_SHARDS: usize = u8::MAX as usize;

/// The route-table entry of a tombstone (an empty range).
const DEAD: (u8, u8) = (0, 0);

/// Packs a shard range into a route-table entry (`shards ≤ MAX_SHARDS`,
/// asserted where the planner is built).
fn pack(route: Range<usize>) -> (u8, u8) {
    (route.start as u8, route.end as u8)
}

/// The shard range a route-table entry holds.
fn unpack((start, end): (u8, u8)) -> Range<usize> {
    start as usize..end as usize
}

impl ShardPlanner {
    /// A planner over `router` holding the route of every element of
    /// `data` (dataset convention: `element.id == position`), so that each
    /// write touches only the shards of the element's old and new
    /// envelope.
    ///
    /// Panics when `router` has more than 255 shards (the route table
    /// stores each element's shard range in two bytes).
    pub fn with_elements(router: ShardRouter, data: &[Element]) -> Self {
        let shards = router.shards();
        assert!(
            shards <= MAX_SHARDS,
            "a shard planner routes at most {MAX_SHARDS} shards, not {shards}"
        );
        let ids = data.iter().map(|e| e.id as usize + 1).max().unwrap_or(0);
        let mut routes = vec![DEAD; ids];
        for e in data {
            routes[e.id as usize] = pack(router.route(&e.aabb()));
        }
        let axis = router.axis();
        let all = Aabb::new(
            Point3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
            Point3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        );
        let fan_regions = (0..shards)
            .map(|i| {
                if router.degenerate() || router.bounds.is_empty() {
                    return all;
                }
                let mut r = all;
                if i > 0 {
                    *r.min.axis_mut(axis) = router.slab_lo(i);
                }
                if i + 1 < shards {
                    *r.max.axis_mut(axis) = router.slab_lo(i + 1);
                }
                r
            })
            .collect();
        Self {
            router,
            fan_regions,
            routes,
            order: Vec::new(),
            knn_queue: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// The shard range element `id` routes to — empty for a tombstone.
    /// Reads the route table, so it costs no routing.
    fn route_of(&self, id: ElementId) -> Range<usize> {
        unpack(self.routes[id as usize])
    }

    /// True when `global` (ascending) and the parallel `data` are exactly
    /// shard `shard`'s membership under the route table — every id whose
    /// route holds the shard, and no other — and each element's geometry
    /// routes where the table says. What [`ShardExecutor::restart`] checks
    /// a clone against; O(id bound).
    fn agrees_with(&self, shard: usize, global: &[ElementId], data: &[Element]) -> bool {
        let members =
            (0..self.routes.len() as ElementId).filter(|&id| self.route_of(id).contains(&shard));
        members.eq(global.iter().copied())
            && global
                .iter()
                .zip(data)
                .all(|(&gid, e)| self.router.route(&e.aabb()) == self.route_of(gid))
    }

    /// The routing function in force.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards planned for.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// Bytes held by the router, the 2 B per element route table, the
    /// fan-out regions, the write path's order buffer and the merge
    /// scratch.
    pub fn memory_bytes(&self) -> usize {
        self.memory_parts().total()
    }

    /// [`ShardPlanner::memory_bytes`] by part: the planner fills
    /// `route_table` and `merge_scratch`.
    pub fn memory_parts(&self) -> MemoryParts {
        MemoryParts {
            route_table: self.router.memory_bytes()
                + self.routes.capacity() * std::mem::size_of::<(u8, u8)>()
                + self.fan_regions.capacity() * std::mem::size_of::<Aabb>(),
            merge_scratch: self.knn_queue.capacity() * std::mem::size_of::<(f32, ElementId)>()
                + self.bounds.capacity() * std::mem::size_of::<f32>()
                + self.order.capacity() * std::mem::size_of::<(ElementId, u32)>(),
            ..MemoryParts::default()
        }
    }

    /// Routes a range batch: each query lands in every lane whose shard
    /// region its box overlaps. `lanes` is resized to the shard count and
    /// fully reset (allocations kept).
    pub fn route_range(&self, queries: &[Aabb], lanes: &mut Vec<RangeLane>) {
        size_lanes(lanes, self.shard_count(), RangeLane::clear);
        for (qi, q) in queries.iter().enumerate() {
            for s in self.router.route(q) {
                lanes[s].routed.push(qi as u32);
                lanes[s].queries.push(*q);
            }
        }
    }

    /// Merges executed range lanes into `sink`: per query in batch order,
    /// lanes in shard order, each id at its first emission. The first lane
    /// holding a query is copied straight through; a later holding lane's
    /// hit is emitted only when its route starts after the previous
    /// holding lane. That is exact because routes are contiguous shard
    /// ranges and every served index answers a range query exactly, so an
    /// earlier holding lane in the route emitted the hit — and a dead
    /// shard's cleared lane holds nothing and counts for nothing. Returns
    /// the post-merge result count and the summed per-shard predicate
    /// counters (`elapsed_s` is zero — the orchestrator owns the wall
    /// clock).
    pub fn merge_range(
        &mut self,
        n_queries: usize,
        lanes: &mut [RangeLane],
        sink: &mut dyn RangeSink,
    ) -> QueryStats {
        let mut counts = stats::PredicateCounts::default();
        for lane in lanes.iter_mut() {
            lane.cursor = 0;
            counts.add(&lane.stats.counts);
        }
        let mut results = 0u64;
        for qi in 0..n_queries as u32 {
            sink.begin_query(qi);
            let mut previous = None;
            for (s, lane) in lanes.iter_mut().enumerate() {
                if lane.routed.get(lane.cursor) != Some(&qi) {
                    continue;
                }
                let list = lane.results.query_results(lane.cursor);
                lane.cursor += 1;
                let Some(prev) = previous.replace(s) else {
                    sink.push_all(list);
                    results += list.len() as u64;
                    continue;
                };
                for &global in list {
                    if self.routes[global as usize].0 as usize > prev {
                        sink.push(global);
                        results += 1;
                    }
                }
            }
        }
        QueryStats {
            elapsed_s: 0.0,
            results,
            counts,
        }
    }

    /// Routes one ordered write batch into per-shard [`UpdateLane`]s and
    /// advances the planner's route table. `lanes` is resized to the
    /// shard count and fully reset (allocations kept). Returns the ids the
    /// batch's [`WriteOp::Insert`]s allocated — ascending, contiguous from
    /// the previous id bound, in batch order — and the plan-level
    /// accounting (`elapsed_s` is zero: the orchestrator owns the wall
    /// clock).
    ///
    /// Ids are allocated first, in batch order, by the planner; the
    /// executors splice the arrivals in under them.
    /// The batch's `(id, position)` pairs are then sorted once by id, and
    /// each id's run resolves in batch order the way a serial run would:
    /// a `Set` or `Remove` on an unknown or dead id (removed earlier, or
    /// placed before the `Insert` that allocates it) is `skipped`, a `Set`
    /// that a later `Set` or `Remove` to the same id overrides is
    /// `skipped`, and an id inserted and removed in one batch is allocated,
    /// tombstoned and shipped nowhere. An element that ends the batch live
    /// lands in every shard its final envelope overlaps: removed from
    /// departed shards, inserted into entered ones (a **migration**, when
    /// it was live before too), updated in place where it stays — so
    /// boundary replicas remain exactly the set of shards the envelope
    /// overlaps, which is what keeps post-write query fan-out and the
    /// byte-identical merge guarantee intact. A removed element leaves
    /// every shard; its route-table entry becomes the **tombstone** (an
    /// empty range, which no later write resurrects).
    ///
    /// Resolved ids are routed in ascending order, so every lane list
    /// comes out sorted by global id (the [`UpdateLane`] contract). An
    /// id's old shard set is read from the route table and its new route
    /// written back; no shape is read or stored — the lanes carry the
    /// geometry to the shard clones, its only copy. The work is the sort
    /// plus, per written id, one routing of the final envelope and one
    /// table write.
    pub fn route_writes(
        &mut self,
        ops: &[WriteOp],
        lanes: &mut Vec<UpdateLane>,
    ) -> (Vec<ElementId>, UpdateStats) {
        size_lanes(lanes, self.shard_count(), UpdateLane::clear);
        let Self {
            router,
            routes,
            order,
            ..
        } = self;
        let first_new = routes.len() as ElementId;
        let mut next_new = first_new;
        order.clear();
        order.extend(ops.iter().zip(0..).map(|(op, pos)| match *op {
            WriteOp::Set(id, _) | WriteOp::Remove(id) => (id, pos),
            WriteOp::Insert(_) => {
                next_new += 1;
                (next_new - 1, pos)
            }
        }));
        // An id allocated here starts dead: ops placed before its insert
        // find no element, as they would in a serial run.
        routes.resize(next_new as usize, DEAD);
        // Stable, so each id's run keeps batch order; sorting on the id
        // alone is also faster than on whole pairs.
        order.sort_by_key(|&(id, _)| id);
        let mut stats = UpdateStats::default();
        let mut next = 0;
        while next < order.len() {
            let id = order[next].0;
            let run = next;
            next += 1;
            while order.get(next).is_some_and(|&(other, _)| other == id) {
                next += 1;
            }
            let Some(route) = routes.get_mut(id as usize) else {
                stats.skipped += (next - run) as u64;
                continue;
            };
            let old_route = unpack(*route);
            let (mut live, mut set, mut last) = (!old_route.is_empty(), false, None);
            for &(_, pos) in &order[run..next] {
                match ops[pos as usize] {
                    WriteOp::Insert(_) => {
                        live = true;
                        stats.inserted += 1;
                    }
                    WriteOp::Set(..) if live => {
                        stats.skipped += set as u64;
                        set = true;
                    }
                    WriteOp::Remove(_) if live => {
                        stats.skipped += set as u64;
                        (live, set) = (false, false);
                        stats.removed += 1;
                    }
                    _ => {
                        stats.skipped += 1;
                        continue;
                    }
                }
                last = Some(pos);
            }
            let Some(pos) = last else { continue };
            stats.applied += set as u64;
            let shape = ops[pos as usize].shape();
            let new_route = shape.map_or(0..0, |shape| router.route(&shape.aabb()));
            *route = pack(new_route.clone());
            if !old_route.is_empty() && !new_route.is_empty() && old_route != new_route {
                stats.migrations += 1;
            }
            let span = old_route.start.min(new_route.start)..old_route.end.max(new_route.end);
            for (s, lane) in lanes.iter_mut().enumerate().take(span.end).skip(span.start) {
                match (
                    old_route.contains(&s),
                    shape.filter(|_| new_route.contains(&s)),
                ) {
                    (true, Some(shape)) => lane.updates.push((id, shape)),
                    (true, None) => lane.removals.push(id),
                    (false, Some(shape)) => lane.inserts.push((id, shape)),
                    (false, None) => {}
                }
            }
        }
        ((first_new..next_new).collect(), stats)
    }

    /// Routes kNN phase 1: every `(point, k)` probe lands in the lane of
    /// its *home* shard (the slab its point falls in). `lanes` is resized
    /// to the shard count and fully reset.
    pub fn route_knn_home(&self, probes: &[(Point3, usize)], lanes: &mut Vec<KnnLane>) {
        size_lanes(lanes, self.shard_count(), KnnLane::clear);
        for (qi, probe) in probes.iter().enumerate() {
            let home = self.router.home(&probe.0);
            lanes[home].routed.push(qi as u32);
            lanes[home].probes.push(*probe);
        }
    }

    /// Routes kNN phase 2 from the **executed** home lanes: each probe fans
    /// out only to the shards whose region `MINDIST` can still beat (or
    /// tie) its home k-th-best distance — with replication-by-bbox, any
    /// element within distance `d` of the probe lives in a shard whose
    /// region `MINDIST ≤ d`, so the bounded fan-out is exact.
    pub fn route_knn_fanout(
        &mut self,
        probes: &[(Point3, usize)],
        home: &[KnnLane],
        fan: &mut Vec<KnnLane>,
    ) {
        size_lanes(fan, self.shard_count(), KnnLane::clear);
        // Per-probe pruning bound: the home shard's k-th best distance
        // (+∞ when the home shard held fewer than k elements).
        let bounds = &mut self.bounds;
        bounds.clear();
        bounds.resize(probes.len(), f32::INFINITY);
        for lane in home {
            for (j, (&qi, &(_, k))) in lane.routed.iter().zip(&lane.probes).enumerate() {
                let list = lane.results.query_results(j);
                if k > 0 && list.len() >= k {
                    bounds[qi as usize] = list[list.len() - 1].1;
                }
            }
        }
        for (qi, probe) in probes.iter().enumerate() {
            let p = &probe.0;
            let home_shard = self.router.home(p);
            // The indexes' bound rule: a tie with a smaller id must still
            // be able to displace the home k-th best, rounding included.
            let limit2 = admit_limit2(bounds[qi], knn_reach(p, &self.router.bounds));
            for (s, lane) in fan.iter_mut().enumerate() {
                if s == home_shard {
                    continue;
                }
                if self.fan_regions[s].min_distance2(p) <= limit2 {
                    lane.routed.push(qi as u32);
                    lane.probes.push(*probe);
                }
            }
        }
    }

    /// Merges executed home + fan-out kNN lanes of `probes` into `sink`:
    /// per probe, the union of per-shard top-k lists sorted under ascending
    /// `(distance, global id)`, replicas dropped, and the probe's k best
    /// emitted. The sort puts an element's replicas side by side — every
    /// index reports [`simspatial_geom::predicates::element_distance`] of
    /// the same cloned shape, so they carry bit-equal distances — and a
    /// candidate repeating the id kept last is dropped. Returns the
    /// post-merge result count and summed predicate counters.
    pub fn merge_knn(
        &mut self,
        probes: &[(Point3, usize)],
        home: &mut [KnnLane],
        fan: &mut [KnnLane],
        sink: &mut dyn KnnSink,
    ) -> QueryStats {
        let mut counts = stats::PredicateCounts::default();
        for lane in home.iter_mut().chain(fan.iter_mut()) {
            lane.cursor = 0;
            counts.add(&lane.stats.counts);
        }
        let mut results = 0u64;
        let merge = &mut self.knn_queue;
        for (qi, &(_, k)) in probes.iter().enumerate() {
            sink.begin_query(qi as u32);
            merge.clear();
            for lane in home.iter_mut().chain(fan.iter_mut()) {
                if lane.cursor < lane.routed.len() && lane.routed[lane.cursor] == qi as u32 {
                    for &(global, d) in lane.results.query_results(lane.cursor) {
                        merge.push((d, global));
                    }
                    lane.cursor += 1;
                }
            }
            merge.sort_unstable_by(crate::util::knn_key_cmp);
            merge.dedup_by_key(|&mut (_, global)| global);
            let emitted = &merge[..merge.len().min(k)];
            debug_assert!(
                (1..emitted.len()).all(|i| emitted[..i].iter().all(|c| c.1 != emitted[i].1)),
                "kNN merge emits an id twice: its replicas reported unequal distances"
            );
            for &(d, global) in emitted {
                sink.push(global, d);
            }
            results += emitted.len() as u64;
        }
        QueryStats {
            elapsed_s: 0.0,
            results,
            counts,
        }
    }
}

/// One wave of routed lanes, one slot per shard: lanes that do not
/// depend on each other, so a runner may run them in any order, on any
/// thread. A kind the wave does not carry is an empty slice.
pub struct Wave<'a> {
    /// Range lanes (a read's first wave).
    pub range: &'a mut [RangeLane],
    /// kNN home lanes (a read's first wave) or fan-out lanes (its second).
    pub knn: &'a mut [KnnLane],
    /// Write lanes (a write's one wave).
    pub update: &'a mut [UpdateLane],
}

/// The one sharded execution path: a [`ShardPlanner`], the shard
/// executors `E` and the lanes between them. [`ShardSet::read`] and
/// [`ShardSet::write`] are the route → wave → merge sequences; a
/// **runner** — a closure given the planner, the executors and one
/// [`Wave`] — decides only where the wave's lanes execute, and answers
/// whether the wave came back whole. [`ShardedEngine`] runs its own
/// executors inline; `simspatial_service::ShardedBackend` runs a pool.
pub struct ShardSet<E> {
    planner: ShardPlanner,
    executors: E,
    range_lanes: Vec<RangeLane>,
    knn_home: Vec<KnnLane>,
    knn_fan: Vec<KnnLane>,
    update_lanes: Vec<UpdateLane>,
    /// The `(point, k)` probes of the batch in flight of
    /// [`ShardedEngine::knn_batch_into`], which gets points and one `k`.
    probes: Vec<(Point3, usize)>,
}

impl<E> ShardSet<E> {
    /// A shard set over `planner` and its shards' executors.
    pub fn from_parts(planner: ShardPlanner, executors: E) -> Self {
        Self {
            planner,
            executors,
            range_lanes: Vec::new(),
            knn_home: Vec::new(),
            knn_fan: Vec::new(),
            update_lanes: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Splits the set into its planner and executors, for callers that
    /// route, run and merge lanes by hand.
    pub fn into_parts(self) -> (ShardPlanner, E) {
        (self.planner, self.executors)
    }

    /// The shard executors.
    pub fn executors(&self) -> &E {
        &self.executors
    }

    /// The shard executors, mutably.
    pub fn executors_mut(&mut self) -> &mut E {
        &mut self.executors
    }

    /// The routing function in force.
    pub fn router(&self) -> &ShardRouter {
        self.planner.router()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.planner.shard_count()
    }

    /// Bytes of the planner and of every lane's buffers — the footprint of
    /// the set outside its executors — by part: `route_table`,
    /// `merge_scratch` and `lanes`.
    pub fn plan_memory_parts(&self) -> MemoryParts {
        let lanes = self
            .range_lanes
            .iter()
            .map(RangeLane::memory_bytes)
            .chain(
                self.knn_home
                    .iter()
                    .chain(&self.knn_fan)
                    .map(KnnLane::memory_bytes),
            )
            .chain(self.update_lanes.iter().map(UpdateLane::memory_bytes))
            .sum::<usize>()
            + self.probes.capacity() * std::mem::size_of::<(Point3, usize)>();
        MemoryParts {
            lanes,
            ..self.planner.memory_parts()
        }
    }

    /// The read sequence: route `boxes` and the kNN home lanes of `probes`,
    /// run that wave; route the fan-out from the executed home lanes, run
    /// that wave; merge into `range_sink` and `knn_sink`. A wave that
    /// comes back not whole re-routes the read from scratch. Returns the
    /// range and kNN accounting (`elapsed_s` is the caller's to fill).
    pub fn read(
        &mut self,
        boxes: &[Aabb],
        probes: &[(Point3, usize)],
        range_sink: &mut dyn RangeSink,
        knn_sink: &mut dyn KnnSink,
        mut run: impl FnMut(&ShardPlanner, &mut E, Wave<'_>) -> bool,
    ) -> (QueryStats, QueryStats) {
        loop {
            self.planner.route_range(boxes, &mut self.range_lanes);
            self.planner.route_knn_home(probes, &mut self.knn_home);
            let first = Wave {
                range: &mut self.range_lanes,
                knn: &mut self.knn_home,
                update: &mut [],
            };
            if !run(&self.planner, &mut self.executors, first) {
                continue;
            }
            self.planner
                .route_knn_fanout(probes, &self.knn_home, &mut self.knn_fan);
            let fan_out = Wave {
                range: &mut [],
                knn: &mut self.knn_fan,
                update: &mut [],
            };
            if run(&self.planner, &mut self.executors, fan_out) {
                break;
            }
        }
        let planner = &mut self.planner;
        (
            planner.merge_range(boxes.len(), &mut self.range_lanes, range_sink),
            planner.merge_knn(probes, &mut self.knn_home, &mut self.knn_fan, knn_sink),
        )
    }

    /// The write sequence: [`ShardPlanner::route_writes`] advances the
    /// planner's route table and fills the update lanes, `run` executes
    /// them as one wave, and each lane's [`UpdateLaneReport`] folds into
    /// the batch's [`UpdateStats`]. Returns the ids the batch's inserts
    /// allocated and the accounting. A runner empties a lane aimed at a
    /// dead shard. `run`'s answer is not consulted, and a write never
    /// re-routes: the route table has advanced, so a runner whose lane
    /// tore a shard hands that lane to the shard's restart
    /// ([`ShardExecutor::restart`]), which replays it on the shard's own
    /// clone, or declares the shard dead.
    pub fn write(
        &mut self,
        ops: &[WriteOp],
        run: impl FnOnce(&ShardPlanner, &mut E, Wave<'_>) -> bool,
    ) -> (Vec<ElementId>, UpdateStats) {
        let start = Instant::now();
        let (ids, mut stats) = self.planner.route_writes(ops, &mut self.update_lanes);
        let wave = Wave {
            range: &mut [],
            knn: &mut [],
            update: &mut self.update_lanes,
        };
        run(&self.planner, &mut self.executors, wave);
        for lane in &self.update_lanes {
            lane.report().fold_into(&mut stats);
        }
        stats.elapsed_s = start.elapsed().as_secs_f64();
        (ids, stats)
    }
}

/// The engine's runner for one lane kind: each lane runs on its shard's
/// executor, in shard order, on the calling thread.
fn run_serial<I, L>(
    executors: &mut [ShardExecutor<I>],
    lanes: &mut [L],
    run: impl Fn(&mut L, &mut ShardExecutor<I>),
) -> bool {
    for (exec, lane) in executors.iter_mut().zip(lanes) {
        run(lane, exec);
    }
    true
}

/// A region-sharded query engine: K shards, each owning a [`QueryEngine`]
/// and its own index over its slice of the dataset, behind the same sink
/// contracts as a single engine. Every lane runs on the calling thread in
/// shard order — the serial reference the service's pool is checked
/// against. See the module docs for the architecture.
///
/// ```
/// use simspatial_datagen::ElementSoupBuilder;
/// use simspatial_geom::{Aabb, Point3};
/// use simspatial_index::engine::sharded::ShardedEngine;
/// use simspatial_index::{BatchResults, GridConfig, UniformGrid};
///
/// let data = ElementSoupBuilder::new().count(2000).seed(9).build();
/// let mut sharded =
///     ShardedEngine::build(data.elements(), 4, |part| UniformGrid::build(part, GridConfig::auto(part)));
/// let queries = vec![Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(40.0, 40.0, 40.0))];
/// let mut results = BatchResults::new();
/// let stats = sharded.range_collect(&queries, &mut results);
/// assert_eq!(stats.results as usize, results.total());
/// ```
pub type ShardedEngine<I> = ShardSet<Vec<ShardExecutor<I>>>;

impl<I> ShardedEngine<I> {
    /// Partitions `data` into `shards` uniform region shards and builds one
    /// index per shard with `build` (called with the shard's re-identified
    /// local elements). Replicates boundary-straddling elements into every
    /// shard their bounding box overlaps.
    ///
    /// Panics when `shards` is 0 or more than 255: the planner keeps each
    /// element's shard range in a two-byte route table.
    pub fn build(data: &[Element], shards: usize, build: impl Fn(&[Element]) -> I) -> Self {
        let bounds = Aabb::union_all(data.iter().map(Element::aabb));
        Self::build_with_router(data, ShardRouter::new(bounds, shards), build)
    }

    /// Like [`ShardedEngine::build`] but with median-cut shard boundaries
    /// ([`ShardRouter::median_cut`]): balanced per-shard element counts on
    /// skewed/clustered datasets.
    pub fn build_median(data: &[Element], shards: usize, build: impl Fn(&[Element]) -> I) -> Self {
        Self::build_with_router(data, ShardRouter::median_cut(data, shards), build)
    }

    /// Partitions `data` with an explicit router and builds one index per
    /// shard with `build`.
    ///
    /// `data` must follow the index layer's identification convention —
    /// `element.id == position in the slice` (plans address `data[id]`).
    /// Shard clones are re-identified the same way, which also makes each
    /// shard's local-id order agree with global-id order: that agreement is
    /// what keeps per-shard top-k tie-breaking, and therefore the sharded
    /// results, byte-identical to unsharded execution.
    pub fn build_with_router(
        data: &[Element],
        router: ShardRouter,
        build: impl Fn(&[Element]) -> I,
    ) -> Self {
        // The planner routes every element once into its route table,
        // which precise update routing and restart checks read; the
        // partition below reads that table instead of routing again.
        let planner = ShardPlanner::with_elements(router, data);
        let shards = planner.shard_count();
        let mut parts: Vec<Vec<Element>> = (0..shards).map(|_| Vec::new()).collect();
        let mut globals: Vec<Vec<ElementId>> = (0..shards).map(|_| Vec::new()).collect();
        for e in data {
            for s in planner.route_of(e.id) {
                let local = parts[s].len() as ElementId;
                parts[s].push(Element::new(local, e.shape));
                globals[s].push(e.id);
            }
        }
        let executors = parts
            .into_iter()
            .zip(globals)
            .enumerate()
            .map(|(i, (part, global))| ShardExecutor {
                region: planner.router().region(i),
                index: build(&part),
                data: part,
                global,
                engine: QueryEngine::new(),
                rebuild: None,
            })
            .collect();
        Self::from_parts(planner, executors)
    }

    /// Attaches an index (re)build function to every shard, enabling the
    /// write path ([`ShardedEngine::write_batch`] and the service layer's
    /// update lanes). Called with a shard's re-identified local elements
    /// whenever the index declines to absorb a write batch in place
    /// ([`SpatialIndex::update_in_place`]), and to restart a torn shard
    /// ([`ShardExecutor::restart`]).
    ///
    /// Separate from the build closure so the read-only constructors keep
    /// accepting short-lived borrows; pass the same function to both for
    /// identical build parameters:
    ///
    /// ```
    /// use simspatial_datagen::ElementSoupBuilder;
    /// use simspatial_geom::{Aabb, Point3, Shape};
    /// use simspatial_index::{BatchResults, LinearScan, ShardedEngine, WriteOp};
    ///
    /// let data = ElementSoupBuilder::new().count(500).seed(3).build();
    /// let mut sharded =
    ///     ShardedEngine::build(data.elements(), 2, LinearScan::build).with_rebuild(LinearScan::build);
    /// // Move element 7 to a new envelope (its geometry becomes the box).
    /// let target = Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(2.0, 2.0, 2.0));
    /// let (_, stats) = sharded.write_batch(&[WriteOp::Set(7, Shape::Box(target))]);
    /// assert_eq!(stats.applied, 1);
    /// let mut out = BatchResults::new();
    /// sharded.range_collect(&[target], &mut out);
    /// assert!(out.query_results(0).contains(&7));
    /// ```
    pub fn with_rebuild(mut self, build: impl Fn(&[Element]) -> I + Send + Sync + 'static) -> Self {
        let rebuild: ShardRebuild<I> = Arc::new(build);
        for exec in &mut self.executors {
            exec.rebuild = Some(Arc::clone(&rebuild));
        }
        self
    }

    /// True when every shard can apply write batches (a rebuild function is
    /// attached, see [`ShardedEngine::with_rebuild`]).
    pub fn is_updatable(&self) -> bool {
        self.executors.iter().all(ShardExecutor::is_updatable)
    }

    /// Elements stored per shard (replicas counted once per shard they
    /// land in — diagnostics for the replication factor and for split-mode
    /// balance comparisons).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.executors.iter().map(ShardExecutor::len).collect()
    }

    /// The routing region of shard `i`.
    pub fn shard_region(&self, i: usize) -> Aabb {
        self.executors[i].region()
    }
}

impl ShardedEngine<UniformGrid> {
    /// Kept only so the benchmark crate still builds. The argument is
    /// ignored: its one caller passes `migrate_in_place`, a per-element
    /// [`UniformGrid::update`] loop, which makes the same per-entry moves
    /// as the grid's own write ([`SpatialIndex::update_in_place`]).
    #[deprecated(note = "a grid shard writes in place through `SpatialIndex::update_in_place`")]
    #[doc(hidden)]
    pub fn with_apply(
        self,
        _: impl Fn(&mut UniformGrid, &mut [Element], &[(ElementId, Shape)]) -> ShardApplyCost,
    ) -> Self {
        assert!(
            self.is_updatable(),
            "incremental write mode needs the rebuild fallback — call with_rebuild first"
        );
        self
    }
}

impl<I: SpatialIndex> ShardedEngine<I> {
    /// Total bytes of the sharded structure: per-shard indexes, replicated
    /// element clones and id maps, engine scratch high-water marks, the
    /// router, the route table and the merge/lane scratch. Replication
    /// makes this larger than an unsharded index over the same data.
    pub fn memory_bytes(&self) -> usize {
        self.memory_parts().total()
    }

    /// [`ShardedEngine::memory_bytes`] by part.
    pub fn memory_parts(&self) -> MemoryParts {
        self.plan_memory_parts()
            + self
                .executors
                .iter()
                .map(ShardExecutor::memory_parts)
                .sum::<MemoryParts>()
    }
}

impl<I: SpatialIndex + Send> ShardedEngine<I> {
    /// Runs a range batch across the shards — a [`ShardSet::read`] with no
    /// probes: each query fans out to the shards its box overlaps, every
    /// shard executes its sub-batch through its own engine, and the merge
    /// pass streams deduplicated global ids into `sink` grouped by query in
    /// batch order. Returns the aggregated accounting.
    pub fn range_batch(&mut self, queries: &[Aabb], sink: &mut dyn RangeSink) -> QueryStats {
        let start = Instant::now();
        let no_probes = &mut KnnBatchResults::new();
        let (mut stats, _) = self.read(queries, &[], sink, no_probes, |_, execs, wave| {
            run_serial(execs, wave.range, RangeLane::run)
        });
        stats.elapsed_s = start.elapsed().as_secs_f64();
        stats
    }

    /// Runs the batch and collects per-query result lists into `out`
    /// (reset first, allocations kept).
    pub fn range_collect(&mut self, queries: &[Aabb], out: &mut BatchResults) -> QueryStats {
        out.reset();
        self.range_batch(queries, out)
    }

    /// Applies one ordered write batch across the shards
    /// ([`ShardSet::write`]): `Set`s replace geometry, `Insert`s get fresh
    /// global ids, `Remove`s tombstone theirs, each id resolved in batch
    /// order ([`ShardPlanner::route_writes`]). Elements whose envelope
    /// overlaps a different shard set afterwards are **migrated** —
    /// removed from departed shards, inserted into entered ones — keeping
    /// replicas and id maps exactly consistent with envelope overlap;
    /// every touched shard then applies its lane in place or rebuilds its
    /// index over its post-batch local elements (see [`UpdateLane::run`]).
    /// After the batch, query results are byte-identical to a single
    /// engine over the same written dataset. Returns the allocated ids
    /// (ascending, in batch order) and the accounting.
    ///
    /// Requires a rebuild function ([`ShardedEngine::with_rebuild`]);
    /// panics on an engine without one, before the planner advances.
    pub fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateStats) {
        assert!(
            self.is_updatable(),
            "write batch on a read-only sharded engine — attach a rebuild function with with_rebuild"
        );
        self.write(ops, |_, executors, wave| {
            run_serial(executors, wave.update, UpdateLane::run)
        })
    }
}

impl<I: KnnIndex + Send> ShardedEngine<I> {
    /// Runs a kNN batch across the shards — a [`ShardSet::read`] with no
    /// boxes — in **two bounded phases**, so far shards never pay an
    /// unbounded search:
    ///
    /// 1. Every probe executes on its *home* shard (the slab its point
    ///    falls in), yielding a candidate k-th-best distance per probe.
    /// 2. The probe then fans out only to shards whose region `MINDIST`
    ///    can still beat (or tie) that bound — with replication-by-bbox,
    ///    any element within distance `d` of the probe lives in a shard
    ///    whose region `MINDIST ≤ d`, so the bounded fan-out is exact.
    ///
    /// Both phases run shard-major through each shard's engine. The merge
    /// pass unions per-shard best-k lists under the global ascending
    /// `(distance, id)` order — dropping replicated boundary elements,
    /// which surface from several shards at the same distance — and emits
    /// the `k` best per probe.
    pub fn knn_batch_into(
        &mut self,
        points: &[Point3],
        k: usize,
        sink: &mut dyn KnnSink,
    ) -> QueryStats {
        let start = Instant::now();
        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        probes.extend(points.iter().map(|&p| (p, k)));
        let no_boxes = &mut BatchResults::new();
        let (_, mut stats) = self.read(&[], &probes, no_boxes, sink, |_, execs, wave| {
            run_serial(execs, wave.knn, KnnLane::run)
        });
        self.probes = probes;
        stats.elapsed_s = start.elapsed().as_secs_f64();
        stats
    }

    /// Runs the kNN batch and collects per-probe result lists into `out`
    /// (reset first, allocations kept).
    pub fn knn_collect(
        &mut self,
        points: &[Point3],
        k: usize,
        out: &mut KnnBatchResults,
    ) -> QueryStats {
        out.reset();
        self.knn_batch_into(points, k, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridConfig, LinearScan, UniformGrid};
    use simspatial_geom::{QueryScratch, Shape, Sphere};
    use std::collections::BTreeSet;

    fn soup(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                let r = if i % 23 == 0 { 4.0 } else { 0.4 };
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
            })
            .collect()
    }

    /// A heavily skewed soup: most elements in one dense corner cluster.
    fn skewed(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let (scale, base) = if i % 10 == 0 { (99.0, 0.0) } else { (5.0, 2.0) };
                let x = base + (h % 997) as f32 / 997.0 * scale;
                let y = base + ((h >> 10) % 997) as f32 / 997.0 * scale;
                let z = base + ((h >> 20) % 997) as f32 / 997.0 * scale;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.3)))
            })
            .collect()
    }

    fn queries() -> Vec<Aabb> {
        (0..10)
            .map(|i| {
                let c = Point3::new((i * 9) as f32, (i * 7) as f32, (i * 5) as f32);
                Aabb::new(c, Point3::new(c.x + 15.0, c.y + 11.0, c.z + 9.0))
            })
            .collect()
    }

    #[test]
    fn router_covers_and_clamps() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::new(100.0, 10.0, 10.0));
        let router = ShardRouter::new(bounds, 4);
        assert_eq!(router.axis(), 0);
        assert!(!router.is_median_cut());
        // Regions tile the envelope.
        for i in 0..4 {
            assert!(!router.region(i).is_empty());
        }
        assert_eq!(router.region(0).min.x, 0.0);
        assert_eq!(router.region(3).max.x, 100.0);
        // A box inside one slab routes to exactly that slab.
        let b = Aabb::new(Point3::new(30.0, 1.0, 1.0), Point3::new(40.0, 2.0, 2.0));
        assert_eq!(router.route(&b), 1..2);
        // A straddling box routes to both.
        let b = Aabb::new(Point3::new(20.0, 1.0, 1.0), Point3::new(30.0, 2.0, 2.0));
        assert_eq!(router.route(&b), 0..2);
        // Out-of-envelope boxes clamp to the nearest slab.
        let far = Aabb::new(Point3::new(-50.0, 0.0, 0.0), Point3::new(-40.0, 1.0, 1.0));
        assert_eq!(router.route(&far), 0..1);
    }

    #[test]
    fn median_router_balances_skewed_data() {
        let data = skewed(2000);
        let uniform = ShardedEngine::build(&data, 4, LinearScan::build);
        let median = ShardedEngine::build_median(&data, 4, LinearScan::build);
        assert!(median.router().is_median_cut());
        let max_u = *uniform.shard_sizes().iter().max().unwrap();
        let max_m = *median.shard_sizes().iter().max().unwrap();
        // ~90% of elements live in the low corner: a uniform split dumps
        // them in one slab, the median split spreads them out.
        assert!(
            max_m * 2 < max_u,
            "median cut should rebalance: uniform max {max_u}, median max {max_m}"
        );
        // Regions still tile the envelope in order.
        let router = median.router();
        for i in 1..4 {
            assert_eq!(
                router.region(i).min.axis(router.axis()),
                router.region(i - 1).max.axis(router.axis())
            );
        }
    }

    #[test]
    fn median_router_degenerate_inputs() {
        // Empty data: falls back to a uniform router that routes everywhere.
        let router = ShardRouter::median_cut(&[], 3);
        assert_eq!(router.route(&Aabb::from_point(Point3::ORIGIN)), 0..3);
        // All-coincident centers: duplicate cuts, routing still total.
        let coincident: Vec<Element> = (0..10)
            .map(|i| {
                Element::new(
                    i,
                    Shape::Sphere(Sphere::new(Point3::new(1.0, 2.0, 3.0), 0.5)),
                )
            })
            .collect();
        let router = ShardRouter::median_cut(&coincident, 4);
        let mut seen = 0usize;
        for e in &coincident {
            let r = router.route(&e.aabb());
            assert!(!r.is_empty());
            seen += r.len();
        }
        assert!(seen >= coincident.len());
    }

    #[test]
    fn replication_covers_every_element() {
        let data = soup(500);
        let sharded = ShardedEngine::build(&data, 4, LinearScan::build);
        assert_eq!(sharded.shard_count(), 4);
        let total: usize = sharded.shard_sizes().iter().sum();
        assert!(total >= data.len(), "every element must land somewhere");
        // Every global id appears in at least one shard.
        let mut seen = vec![false; data.len()];
        for exec in &sharded.executors {
            for &g in exec.global_ids() {
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sharded_range_matches_single_engine() {
        let data = soup(2000);
        for k in [1usize, 2, 4] {
            let mut sharded = ShardedEngine::build(&data, k, |part| {
                UniformGrid::build(part, GridConfig::auto(part))
            });
            let single = UniformGrid::build(&data, GridConfig::auto(&data));
            let mut engine = QueryEngine::new();
            let qs = queries();
            let mut want = BatchResults::new();
            engine.range_collect(&single, &data, &qs, &mut want);
            let mut got = BatchResults::new();
            let stats = sharded.range_collect(&qs, &mut got);
            assert_eq!(got.len(), qs.len());
            assert_eq!(stats.results as usize, got.total());
            for qi in 0..qs.len() {
                let mut a = got.query_results(qi).to_vec();
                let mut b = want.query_results(qi).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "K={k} query {qi}");
            }
        }
    }

    #[test]
    fn sharded_knn_matches_single_engine() {
        let data = soup(1500);
        for k_shards in [1usize, 2, 4] {
            let mut sharded = ShardedEngine::build(&data, k_shards, |part| {
                UniformGrid::build(part, GridConfig::auto(part))
            });
            let single = UniformGrid::build(&data, GridConfig::auto(&data));
            let mut engine = QueryEngine::new();
            let points: Vec<Point3> = (0..8)
                .map(|i| Point3::new((i * 11) as f32, (i * 9) as f32, (i * 13) as f32))
                .collect();
            let mut want = KnnBatchResults::new();
            engine.knn_collect(&single, &data, &points, 6, &mut want);
            let mut got = KnnBatchResults::new();
            sharded.knn_collect(&points, 6, &mut got);
            for qi in 0..points.len() {
                assert_eq!(
                    got.query_results(qi),
                    want.query_results(qi),
                    "K={k_shards} probe {qi}"
                );
            }
        }
    }

    #[test]
    fn planner_and_executors_compose_manually() {
        // The decomposed API (route → run → merge) must agree with the
        // composed ShardedEngine — this is exactly what the service layer's
        // per-shard workers do.
        let data = soup(1200);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut composed = ShardedEngine::build(&data, 3, build);
        let qs = queries();
        let mut want = BatchResults::new();
        composed.range_collect(&qs, &mut want);

        let (mut planner, mut executors) = ShardedEngine::build(&data, 3, build).into_parts();
        let mut lanes = Vec::new();
        planner.route_range(&qs, &mut lanes);
        for (exec, lane) in executors.iter_mut().zip(lanes.iter_mut()) {
            lane.run(exec);
        }
        let mut got = BatchResults::new();
        let stats = planner.merge_range(qs.len(), &mut lanes, &mut got);
        assert_eq!(stats.results as usize, got.total());
        for qi in 0..qs.len() {
            assert_eq!(got.query_results(qi), want.query_results(qi), "query {qi}");
        }

        // kNN: two routed phases, then merge.
        let points: Vec<Point3> = (0..6)
            .map(|i| Point3::new((i * 17) as f32, (i * 3) as f32, (i * 8) as f32))
            .collect();
        let mut want_knn = KnnBatchResults::new();
        composed.knn_collect(&points, 5, &mut want_knn);
        let probes: Vec<(Point3, usize)> = points.iter().map(|&p| (p, 5)).collect();
        let (mut home, mut fan) = (Vec::new(), Vec::new());
        planner.route_knn_home(&probes, &mut home);
        for (exec, lane) in executors.iter_mut().zip(home.iter_mut()) {
            lane.run(exec);
        }
        planner.route_knn_fanout(&probes, &home, &mut fan);
        for (exec, lane) in executors.iter_mut().zip(fan.iter_mut()) {
            lane.run(exec);
        }
        let mut got_knn = KnnBatchResults::new();
        planner.merge_knn(&probes, &mut home, &mut fan, &mut got_knn);
        for qi in 0..points.len() {
            assert_eq!(
                got_knn.query_results(qi),
                want_knn.query_results(qi),
                "probe {qi}"
            );
        }
    }

    #[test]
    fn memory_accounting_includes_replicas_and_scratch() {
        let data = soup(800);
        let mut sharded = ShardedEngine::build(&data, 4, |part| {
            UniformGrid::build(part, GridConfig::auto(part))
        });
        let before = sharded.memory_bytes();
        let index_only: usize = sharded
            .executors
            .iter()
            .map(|e| e.index().memory_bytes())
            .sum();
        assert!(
            before > index_only,
            "accounting must include replicas, router and scratch"
        );
        // Running batches grows scratch/lane high-water marks, which the
        // accounting must observe.
        let mut out = BatchResults::new();
        sharded.range_collect(&queries(), &mut out);
        let mut knn = KnnBatchResults::new();
        sharded.knn_collect(&[Point3::ORIGIN], 5, &mut knn);
        assert!(sharded.memory_bytes() >= before);
    }

    /// Applies `updates` to a plain element vector with the write-path
    /// semantics (geometry replaced, last write wins) — the oracle state.
    fn apply_serially(data: &mut [Element], updates: &[(ElementId, Shape)]) {
        for &(id, shape) in updates {
            if (id as usize) < data.len() {
                data[id as usize].shape = shape;
            }
        }
    }

    fn box_at(x: f32, y: f32, z: f32, half: f32) -> Shape {
        Shape::Box(Aabb::new(
            Point3::new(x - half, y - half, z - half),
            Point3::new(x + half, y + half, z + half),
        ))
    }

    /// `updates` as `Set` ops.
    fn sets(updates: &[(ElementId, Shape)]) -> Vec<WriteOp> {
        updates
            .iter()
            .map(|&(id, shape)| WriteOp::Set(id, shape))
            .collect()
    }

    /// `shapes` as `Insert` ops.
    fn inserts(shapes: &[Shape]) -> Vec<WriteOp> {
        shapes.iter().map(|&shape| WriteOp::Insert(shape)).collect()
    }

    /// `ids` as `Remove` ops.
    fn removes(ids: &[ElementId]) -> Vec<WriteOp> {
        ids.iter().map(|&id| WriteOp::Remove(id)).collect()
    }

    #[test]
    fn update_batch_migrates_and_matches_single_engine() {
        let data = soup(1500);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        for median in [false, true] {
            let mut sharded = if median {
                ShardedEngine::build_median(&data, 4, build)
            } else {
                ShardedEngine::build(&data, 4, build)
            }
            .with_rebuild(build);
            assert!(sharded.is_updatable());
            let sizes_before = sharded.shard_sizes();

            // Sweep a batch of elements across the whole split axis (forcing
            // cross-shard migrations), move some out of the build envelope
            // entirely, and fatten one straddler.
            let mut updates: Vec<(ElementId, Shape)> = Vec::new();
            for i in 0..120u32 {
                let t = (i % 10) as f32 / 10.0;
                updates.push((i * 7, box_at(99.0 * t, 50.0, 50.0, 0.4)));
            }
            updates.push((3, box_at(250.0, 250.0, 250.0, 1.0))); // escapes the envelope
            updates.push((9, box_at(50.0, 50.0, 50.0, 30.0))); // straddles many shards
            let stats = sharded.write_batch(&sets(&updates)).1;
            assert_eq!(stats.applied, 122);
            assert!(stats.migrations > 0, "sweep must cross shard boundaries");

            // Oracle: a single engine over the serially updated dataset.
            let mut updated = data.clone();
            apply_serially(&mut updated, &updates);
            let single = UniformGrid::build(&updated, GridConfig::auto(&updated));
            let mut engine = QueryEngine::new();
            let mut qs = queries();
            qs.push(Aabb::new(
                Point3::new(240.0, 240.0, 240.0),
                Point3::new(260.0, 260.0, 260.0),
            ));
            let mut want = BatchResults::new();
            engine.range_collect(&single, &updated, &qs, &mut want);
            let mut got = BatchResults::new();
            sharded.range_collect(&qs, &mut got);
            for qi in 0..qs.len() {
                let mut a = got.query_results(qi).to_vec();
                let mut b = want.query_results(qi).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "median={median} range query {qi}");
            }

            // kNN stays exact too, including a probe near the escapee.
            let points: Vec<Point3> = (0..8)
                .map(|i| Point3::new((i * 11) as f32, (i * 9) as f32, (i * 13) as f32))
                .chain([Point3::new(251.0, 249.0, 250.0)])
                .collect();
            let mut want_knn = KnnBatchResults::new();
            engine.knn_collect(&single, &updated, &points, 6, &mut want_knn);
            let mut got_knn = KnnBatchResults::new();
            sharded.knn_collect(&points, 6, &mut got_knn);
            for qi in 0..points.len() {
                assert_eq!(
                    got_knn.query_results(qi),
                    want_knn.query_results(qi),
                    "median={median} probe {qi}"
                );
            }

            // Migration bookkeeping: shard populations changed, every shard
            // stays sorted by global id, and every element is replicated in
            // exactly the shards its new envelope overlaps.
            let sizes_after = sharded.shard_sizes();
            assert_ne!(sizes_before, sizes_after, "migrations reshape shards");
            for exec in &sharded.executors {
                assert!(exec.global_ids().windows(2).all(|w| w[0] < w[1]));
            }
            let router = sharded.router().clone();
            for e in &updated {
                let want_shards: Vec<usize> = router.route(&e.aabb()).collect();
                let got_shards: Vec<usize> = (0..sharded.shard_count())
                    .filter(|&s| {
                        sharded.executors[s]
                            .global_ids()
                            .binary_search(&e.id)
                            .is_ok()
                    })
                    .collect();
                assert_eq!(got_shards, want_shards, "median={median} element {}", e.id);
            }
        }
    }

    #[test]
    fn update_batch_last_write_wins_and_skips_unknown() {
        let data = soup(400);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 3, build).with_rebuild(build);
        let final_box = box_at(10.0, 10.0, 10.0, 0.5);
        let updates = vec![
            (5u32, box_at(90.0, 90.0, 90.0, 0.5)), // superseded
            (9999u32, final_box),                  // unknown id
            (5u32, final_box),                     // wins
        ];
        let stats = sharded.write_batch(&sets(&updates)).1;
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.skipped, 2);
        let mut out = KnnBatchResults::new();
        sharded.knn_collect(&[Point3::new(10.0, 10.0, 10.0)], 1, &mut out);
        assert_eq!(out.query_results(0)[0].0, 5);
    }

    #[test]
    fn repeated_update_batches_track_memory_and_sizes() {
        let data = soup(1000);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 4, build).with_rebuild(build);
        // Drain (almost) everything into the last slab: earlier shards must
        // shrink, and the memory accounting must follow the shrink.
        let mem_before = sharded.memory_bytes();
        let sizes_before = sharded.shard_sizes();
        for round in 0..4u32 {
            let updates: Vec<(ElementId, Shape)> = (0..1000u32)
                .filter(|i| i % 4 == round)
                .map(|i| (i, box_at(95.0, 95.0, 95.0, 0.2)))
                .collect();
            sharded.write_batch(&sets(&updates));
        }
        let sizes_after = sharded.shard_sizes();
        let last = sharded.shard_count() - 1;
        // The last shard holds (at least) everything that was moved there.
        assert!(sizes_after[last] >= 1000, "{sizes_after:?}");
        for s in 0..last {
            assert!(
                sizes_after[s] <= sizes_before[s],
                "shard {s}: {sizes_before:?} -> {sizes_after:?}"
            );
        }
        // Replication collapses (everything is in one slab now), so the
        // element clones + id maps shrink and the accounting observes it.
        assert!(
            sizes_after.iter().sum::<usize>() <= sizes_before.iter().sum::<usize>(),
            "replication must not grow when elements collapse into one slab"
        );
        let _ = mem_before; // memory depends on index internals; key check:
        let clone_bytes: usize = sharded
            .executors
            .iter()
            .map(|e| e.data.capacity() * std::mem::size_of::<Element>())
            .sum();
        assert_eq!(
            clone_bytes,
            sizes_after.iter().sum::<usize>() * std::mem::size_of::<Element>(),
            "shrunk clones must be counted at their post-migration size"
        );
    }

    /// Range and kNN answers of `sharded` against a single grid over `data`.
    fn assert_matches_single(sharded: &mut ShardedEngine<UniformGrid>, data: &[Element]) {
        let single = UniformGrid::build(data, GridConfig::auto(data));
        let mut engine = QueryEngine::new();
        let qs = queries();
        let (mut want, mut got) = (BatchResults::new(), BatchResults::new());
        engine.range_collect(&single, data, &qs, &mut want);
        sharded.range_collect(&qs, &mut got);
        for qi in 0..qs.len() {
            let mut a = got.query_results(qi).to_vec();
            let mut b = want.query_results(qi).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "range query {qi}");
        }
        let points: Vec<Point3> = (0..8)
            .map(|i| Point3::new((i * 11) as f32, (i * 9) as f32, (i * 13) as f32))
            .collect();
        let (mut want, mut got) = (KnnBatchResults::new(), KnnBatchResults::new());
        engine.knn_collect(&single, data, &points, 6, &mut want);
        sharded.knn_collect(&points, 6, &mut got);
        for qi in 0..points.len() {
            assert_eq!(got.query_results(qi), want.query_results(qi), "probe {qi}");
        }
    }

    #[test]
    fn membership_lanes_splice_in_place_and_bulk_changes_rebuild() {
        let mut data = soup(2000);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 4, build).with_rebuild(build);

        // A few cross-shard moves beside resident jitter: every touched
        // lane runs in place, membership changes included.
        let mut updates: Vec<(ElementId, Shape)> = (0..40u32)
            .map(|i| {
                let c = data[(i * 13) as usize].aabb().center();
                (i * 13, box_at(c.x + 0.1, c.y, c.z, 0.3))
            })
            .collect();
        for i in 0..12u32 {
            updates.push((1000 + i, box_at(8.0 * i as f32 + 2.0, 40.0, 40.0, 0.4)));
        }
        let stats = sharded.write_batch(&sets(&updates)).1;
        apply_serially(&mut data, &updates);
        assert!(stats.migrations > 0);
        assert_eq!(
            stats.rebuilds, 0,
            "small membership changes must not rebuild"
        );
        assert_eq!(stats.rebuilds_avoided, 4);
        let moved: u64 = sharded
            .update_lanes
            .iter()
            .map(|l| l.report().migrated_in + l.report().migrated_out)
            .sum();
        assert!(moved > 0);
        assert_eq!(stats.spliced, moved);
        for exec in &sharded.executors {
            assert!(exec.global_ids().windows(2).all(|w| w[0] < w[1]));
            assert!(exec
                .data
                .iter()
                .enumerate()
                .all(|(i, e)| e.id as usize == i));
            assert_eq!(exec.index().len(), exec.len());
        }
        assert_matches_single(&mut sharded, &data);

        // Inserts and removals splice too.
        let (ids, stats) = sharded.write_batch(&inserts(&[box_at(30.0, 30.0, 30.0, 0.5)]));
        data.push(Element::new(ids[0], box_at(30.0, 30.0, 30.0, 0.5)));
        assert_eq!((stats.rebuilds, stats.spliced), (0, 1));
        let stats = sharded.write_batch(&removes(&[5, 6])).1;
        for id in [5usize, 6] {
            data[id].shape = Shape::Box(Aabb::empty());
        }
        assert_eq!(stats.rebuilds, 0);
        assert!(stats.spliced >= 2);
        // Tombstones (empty boxes) intersect nothing, so a scan over the
        // full-length vector is the oracle.
        let mut got = BatchResults::new();
        sharded.range_collect(&queries(), &mut got);
        let scan = LinearScan::build(&data);
        for (qi, q) in queries().iter().enumerate() {
            let mut a = got.query_results(qi).to_vec();
            let mut b = scan.range(&data, q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "after insert/remove, query {qi}");
        }

        // Past a quarter of the shard the lane rebuilds (and re-fits).
        let sizes = sharded.shard_sizes();
        let bulk: Vec<(ElementId, Shape)> = sharded.executors[0]
            .global_ids()
            .iter()
            .take(sizes[0] / 2)
            .map(|&g| (g, box_at(95.0, 50.0, 50.0, 0.3)))
            .collect();
        let stats = sharded.write_batch(&sets(&bulk)).1;
        assert!(stats.rebuilds >= 1, "a bulk membership change rebuilds");
    }

    #[test]
    fn oscillating_membership_stops_reallocating() {
        // An element that joins a shard and leaves again, cycle after
        // cycle: from the second cycle on the shard's clone and id map sit
        // in the block they already have (the spare slot is kept), and
        // what is kept stays within a sixteenth of the length.
        let data = soup(2000);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 4, build).with_rebuild(build);
        let blocks = |sharded: &ShardedEngine<UniformGrid>| -> Vec<_> {
            sharded
                .executors
                .iter()
                .map(|e| {
                    (
                        (e.data.as_ptr(), e.data.capacity()),
                        (e.global.as_ptr(), e.global.capacity()),
                    )
                })
                .collect()
        };
        let built = blocks(&sharded);
        let mut settled = None;
        for cycle in 0..6 {
            let (ids, stats) = sharded.write_batch(&inserts(&[box_at(30.0, 30.0, 30.0, 0.5)]));
            assert_eq!((stats.rebuilds, stats.spliced), (0, 1));
            let joined = blocks(&sharded);
            let stats = sharded.write_batch(&removes(&ids)).1;
            assert_eq!((stats.rebuilds, stats.spliced), (0, 1));
            if cycle >= 1 {
                let settled = settled.get_or_insert(joined.clone());
                assert_eq!(*settled, joined, "cycle {cycle}, joined");
                assert_eq!(*settled, blocks(&sharded), "cycle {cycle}, left");
            }
        }
        let settled = settled.expect("six cycles ran");
        let mut touched = 0;
        for (s, e) in sharded.executors.iter().enumerate() {
            if settled[s] == built[s] {
                continue; // the box never reached this shard
            }
            touched += 1;
            assert!((e.data.capacity() - e.data.len()) * SPLICE_SLACK_FRACTION <= e.data.len());
            assert!(
                (e.global.capacity() - e.global.len()) * SPLICE_SLACK_FRACTION <= e.global.len()
            );
        }
        assert!(touched > 0);
    }

    /// A linear scan that writes geometry in place but keeps the default
    /// `splice`: an index that absorbs moves and declines membership
    /// changes.
    struct InPlaceScan(LinearScan);

    impl SpatialIndex for InPlaceScan {
        fn name(&self) -> &'static str {
            "InPlaceScan"
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn range_into(
            &self,
            data: &[Element],
            query: &Aabb,
            scratch: &mut QueryScratch,
            sink: &mut dyn RangeSink,
        ) {
            self.0.range_into(data, query, scratch, sink);
        }

        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }

        fn update_in_place(
            &mut self,
            data: &mut [Element],
            updates: &[(ElementId, Shape)],
        ) -> Option<ShardApplyCost> {
            for &(id, shape) in updates {
                data[id as usize].shape = shape;
            }
            Some(ShardApplyCost::default())
        }
    }

    impl KnnIndex for InPlaceScan {
        fn knn_into(
            &self,
            data: &[Element],
            p: &Point3,
            k: usize,
            scratch: &mut QueryScratch,
            sink: &mut dyn KnnSink,
        ) {
            self.0.knn_into(data, p, k, scratch, sink);
        }
    }

    #[test]
    fn index_that_declines_to_splice_rebuilds_untouched() {
        // A membership lane on an index that writes in place but keeps the
        // default `splice` takes the rebuild path, and the index's write
        // never sees the lane.
        let data = soup(600);
        let build = |part: &[Element]| InPlaceScan(LinearScan::build(part));
        let mut sharded = ShardedEngine::build(&data, 2, build).with_rebuild(build);
        let resident = sharded.write_batch(&sets(&[(3, data[3].shape)])).1;
        assert_eq!((resident.rebuilds, resident.rebuilds_avoided), (0, 1));
        let target = if data[7].aabb().center().x < 50.0 {
            95.0
        } else {
            4.0
        };
        let stats = sharded
            .write_batch(&sets(&[(7, box_at(target, 50.0, 50.0, 0.3))]))
            .1;
        assert_eq!(stats.migrations, 1);
        assert_eq!(
            (stats.rebuilds, stats.rebuilds_avoided, stats.spliced),
            (2, 0, 0)
        );
        let mut out = KnnBatchResults::new();
        sharded.knn_collect(&[Point3::new(target, 50.0, 50.0)], 1, &mut out);
        assert_eq!(out.query_results(0)[0].0, 7);
    }

    /// The route table agrees with the shards' clones: each id's entry is
    /// exactly the shards that hold it — empty for a tombstone — every
    /// holder's geometry routes there, and the replicas' geometry agrees.
    fn assert_routes_match_clones<I>(
        planner: &ShardPlanner,
        executors: &[ShardExecutor<I>],
        step: &str,
    ) {
        for id in 0..planner.routes.len() as ElementId {
            let route = planner.route_of(id);
            let held: Vec<(usize, Shape)> = executors
                .iter()
                .enumerate()
                .filter_map(|(s, exec)| {
                    let li = exec.global.binary_search(&id).ok()?;
                    Some((s, exec.data[li].shape))
                })
                .collect();
            let holders: Vec<usize> = held.iter().map(|&(s, _)| s).collect();
            assert_eq!(
                holders,
                route.clone().collect::<Vec<_>>(),
                "{step}: id {id}"
            );
            for &(s, shape) in &held {
                assert_eq!(
                    planner.router.route(&shape.aabb()),
                    route,
                    "{step}: id {id} in shard {s}"
                );
                assert_eq!(shape, held[0].1, "{step}: id {id} replicas");
            }
        }
    }

    #[test]
    fn empty_box_geometry_is_live_not_a_tombstone() {
        let mut data = soup(1500);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 3, build).with_rebuild(build);
        let empty = Shape::Box(Aabb::empty());
        let real = box_at(42.0, 42.0, 42.0, 0.5);
        for shape in [empty, real] {
            let stats = sharded.write_batch(&sets(&[(7, shape)])).1;
            assert_eq!((stats.applied, stats.skipped), (1, 0));
            apply_serially(&mut data, &[(7, shape)]);
            assert_matches_single(&mut sharded, &data);
            assert_routes_match_clones(&sharded.planner, &sharded.executors, "set");
        }
        let mut out = BatchResults::new();
        sharded.range_collect(&[real.aabb()], &mut out);
        assert!(out.query_results(0).contains(&7));

        // Back to the empty box (replicated into every shard), then removed:
        // it leaves every shard.
        sharded.write_batch(&sets(&[(7, empty)]));
        assert!(sharded
            .executors
            .iter()
            .all(|e| e.global_ids().contains(&7)));
        let stats = sharded.write_batch(&removes(&[7])).1;
        assert_eq!((stats.removed, stats.skipped), (1, 0));
        assert!(sharded
            .executors
            .iter()
            .all(|e| !e.global_ids().contains(&7)));
        assert_routes_match_clones(&sharded.planner, &sharded.executors, "remove");
    }

    #[test]
    fn both_write_modes_leave_identical_executor_state() {
        // The rebuild twin is a `LinearScan` engine, which never writes in
        // place: the two compare executor state, not index layout.
        let data = soup(2000);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut reb =
            ShardedEngine::build(&data, 4, LinearScan::build).with_rebuild(LinearScan::build);
        let mut inc = ShardedEngine::build(&data, 4, build).with_rebuild(build);
        let check = |reb: &ShardedEngine<LinearScan>, inc: &ShardedEngine<UniformGrid>, step| {
            for (s, (a, b)) in reb.executors.iter().zip(&inc.executors).enumerate() {
                assert_eq!(a.global, b.global, "{step}: shard {s} id map");
                assert_eq!(a.data, b.data, "{step}: shard {s} elements");
                assert!(
                    b.data.iter().enumerate().all(|(i, e)| e.id as usize == i),
                    "{step}: shard {s} dense local ids"
                );
                assert_eq!(a.index().len(), a.len(), "{step}: shard {s} index size");
                assert_eq!(b.index().len(), b.len(), "{step}: shard {s} index size");
            }
        };
        let jitter: Vec<(ElementId, Shape)> = (0..60u32)
            .map(|i| {
                let c = data[(i * 31) as usize].aabb().center();
                (i * 31, box_at(c.x + 0.1, c.y, c.z, 0.3))
            })
            .collect();
        let migrations: Vec<(ElementId, Shape)> = (0..12u32)
            .map(|i| (1000 + i, box_at(8.0 * i as f32 + 2.0, 40.0, 40.0, 0.4)))
            .collect();
        for (step, batch) in [("jitter", &jitter), ("migrations", &migrations)] {
            reb.write_batch(&sets(batch));
            let stats = inc.write_batch(&sets(batch)).1;
            assert_eq!(stats.rebuilds, 0, "{step} runs in place");
            check(&reb, &inc, step);
        }
        let shape = box_at(30.0, 30.0, 30.0, 0.5);
        assert_eq!(
            reb.write_batch(&inserts(&[shape])).0,
            inc.write_batch(&inserts(&[shape])).0
        );
        check(&reb, &inc, "insert");
        reb.write_batch(&removes(&[5, 6]));
        inc.write_batch(&removes(&[5, 6]));
        check(&reb, &inc, "remove");
        let quarter = reb.shard_sizes()[0] / 4 + 1;
        let bulk: Vec<(ElementId, Shape)> = reb.executors[0]
            .global_ids()
            .iter()
            .take(quarter)
            .map(|&g| (g, box_at(95.0, 50.0, 50.0, 0.3)))
            .collect();
        reb.write_batch(&sets(&bulk));
        assert!(
            inc.write_batch(&sets(&bulk)).1.rebuilds >= 1,
            "bulk change rebuilds"
        );
        check(&reb, &inc, "bulk");
        let empty = [(11, Shape::Box(Aabb::empty()))];
        reb.write_batch(&sets(&empty));
        inc.write_batch(&sets(&empty));
        check(&reb, &inc, "empty box");
    }

    #[test]
    #[should_panic(expected = "read-only shard")]
    fn update_batch_without_rebuild_panics() {
        let data = soup(50);
        let mut sharded = ShardedEngine::build(&data, 2, LinearScan::build);
        assert!(!sharded.is_updatable());
        sharded.write_batch(&sets(&[(0, box_at(1.0, 1.0, 1.0, 0.5))]));
    }

    #[test]
    fn empty_dataset_and_empty_batch() {
        let mut sharded = ShardedEngine::build(&[], 3, LinearScan::build);
        let mut out = BatchResults::new();
        let stats = sharded.range_collect(&queries(), &mut out);
        assert_eq!(stats.results, 0);
        let mut knn = KnnBatchResults::new();
        let s = sharded.knn_collect(&[Point3::ORIGIN], 5, &mut knn);
        assert_eq!(s.results, 0);
        assert_eq!(knn.query_results(0), &[]);
        let s = sharded.range_batch(&[], &mut out);
        assert_eq!(s.results, 0);
    }

    #[test]
    fn build_time_shards_match_the_route_table() {
        let mut data = soup(900);
        // An empty box routes to every shard and is as live as any shape.
        data.push(Element::new(900, Shape::Box(Aabb::empty())));
        let sharded = ShardedEngine::build(&data, 3, LinearScan::build);
        let (planner, executors) = sharded.into_parts();
        for (s, exec) in executors.iter().enumerate() {
            let want: Vec<(ElementId, Shape)> = data
                .iter()
                .filter(|e| planner.router().route(&e.aabb()).contains(&s))
                .map(|e| (e.id, e.shape))
                .collect();
            let got: Vec<(ElementId, Shape)> = exec
                .global_ids()
                .iter()
                .zip(&exec.data)
                .map(|(&g, e)| (g, e.shape))
                .collect();
            assert_eq!(got, want, "shard {s} elements");
        }
        assert_eq!(planner.route_of(900), 0..3, "the empty box is live");
        assert_routes_match_clones(&planner, &executors, "build");
    }

    #[test]
    fn route_table_tracks_every_write() {
        let data = soup(1200);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let mut sharded = ShardedEngine::build(&data, 4, build).with_rebuild(build);
        let check = |sharded: &ShardedEngine<UniformGrid>, step| {
            assert_routes_match_clones(&sharded.planner, &sharded.executors, step)
        };
        check(&sharded, "build");

        // Sweep elements across the split axis.
        let migrations: Vec<(ElementId, Shape)> = (0..60u32)
            .map(|i| (i * 17, box_at(8.0 * (i % 12) as f32 + 2.0, 40.0, 40.0, 0.4)))
            .collect();
        assert!(sharded.write_batch(&sets(&migrations)).1.migrations > 0);
        check(&sharded, "migration tick");

        let empty = Shape::Box(Aabb::empty());
        sharded.write_batch(&sets(&[(11, empty)]));
        assert_eq!(
            sharded.planner.route_of(11),
            0..4,
            "an empty box routes everywhere"
        );
        check(&sharded, "empty-box write");

        let (ids, _) = sharded.write_batch(&inserts(&[box_at(30.0, 30.0, 30.0, 0.5), empty]));
        check(&sharded, "insert");
        let stats = sharded.write_batch(&removes(&[5, ids[1], 11])).1;
        assert_eq!(stats.removed, 3);
        check(&sharded, "remove");

        let stats = sharded
            .write_batch(&sets(&[(5, box_at(50.0, 50.0, 50.0, 0.5))]))
            .1;
        assert_eq!(
            (stats.applied, stats.skipped),
            (0, 1),
            "removed id stays dead"
        );
        assert!(sharded.planner.route_of(5).is_empty());
        check(&sharded, "write to a removed id");

        let (planner, mut executors) = sharded.into_parts();
        for (s, exec) in executors.iter_mut().enumerate() {
            let ids = exec.global_ids().to_vec();
            assert_eq!(exec.restart(&planner, s, None), Ok(()), "shard {s}");
            assert_eq!(exec.global_ids(), ids, "restart of shard {s}");
        }
        check(&ShardSet::from_parts(planner, executors), "restart");
    }

    #[test]
    #[should_panic(expected = "a shard planner routes at most 255 shards, not 256")]
    fn planner_refuses_more_shards_than_its_route_table_holds() {
        ShardedEngine::build(&soup(50), 256, LinearScan::build);
    }

    #[test]
    fn route_writes_fills_id_sorted_lanes_with_last_writes() {
        let data = soup(900);
        let (mut planner, mut executors) = ShardedEngine::build(&data, 4, LinearScan::build)
            .with_rebuild(LinearScan::build)
            .into_parts();
        let mut lanes = Vec::new();
        let run = |executors: &mut [ShardExecutor<LinearScan>], lanes: &mut [UpdateLane]| {
            for (exec, lane) in executors.iter_mut().zip(lanes) {
                lane.run(exec);
            }
        };
        planner.route_writes(&removes(&[40, 41]), &mut lanes);
        run(&mut executors, &mut lanes);
        // Every third id written three times over, plus unknown and removed
        // ids, in a shuffled order: the last write of each id is its third.
        let mut batch: Vec<(ElementId, Shape)> = Vec::new();
        for round in 0..3u32 {
            for i in 0..150u32 {
                let x = ((i * 37 + round * 29) % 100) as f32;
                batch.push((i * 3, box_at(x, 50.0, 50.0, 0.3 + round as f32)));
            }
        }
        batch.extend([
            (40, box_at(1.0, 1.0, 1.0, 0.5)),
            (41, box_at(99.0, 1.0, 1.0, 0.5)),
        ]);
        batch.extend([
            (5000, box_at(1.0, 1.0, 1.0, 0.5)),
            (5000, box_at(2.0, 1.0, 1.0, 0.5)),
        ]);
        for i in (1..batch.len()).rev() {
            let j = (i as u32).wrapping_mul(2654435761) as usize % (i + 1);
            batch.swap(i, j);
        }
        let mut last = std::collections::BTreeMap::new();
        for &(id, shape) in &batch {
            last.insert(id, shape);
        }
        let live: Vec<ElementId> = last
            .keys()
            .copied()
            .filter(|&id| (id as usize) < data.len() && id != 40 && id != 41)
            .collect();

        let (ids, stats) = planner.route_writes(&sets(&batch), &mut lanes);
        assert!(ids.is_empty());
        assert_eq!(stats.applied, live.len() as u64);
        assert_eq!(stats.skipped, (batch.len() - live.len()) as u64);
        let ascends = |ids: &mut dyn Iterator<Item = ElementId>| {
            let ids: Vec<ElementId> = ids.collect();
            ids.windows(2).all(|w| w[0] < w[1])
        };
        let mut routed = std::collections::BTreeSet::new();
        for (s, lane) in lanes.iter().enumerate() {
            assert!(
                ascends(&mut lane.updates.iter().map(|e| e.0)),
                "shard {s} updates"
            );
            assert!(
                ascends(&mut lane.inserts.iter().map(|e| e.0)),
                "shard {s} inserts"
            );
            assert!(
                ascends(&mut lane.removals.iter().copied()),
                "shard {s} removals"
            );
            for &(id, shape) in lane.updates.iter().chain(&lane.inserts) {
                assert_eq!(
                    shape, last[&id],
                    "shard {s}: id {id} carries its last write"
                );
                routed.insert(id);
            }
        }
        assert_eq!(routed.into_iter().collect::<Vec<_>>(), live);
        run(&mut executors, &mut lanes);
        for &id in &live {
            let route = planner.router().route(&last[&id].aabb());
            assert_eq!(planner.route_of(id), route, "id {id} route");
            for (s, exec) in executors.iter().enumerate() {
                let held = exec
                    .global
                    .binary_search(&id)
                    .ok()
                    .map(|li| exec.data[li].shape);
                let want = route.contains(&s).then_some(last[&id]);
                assert_eq!(held, want, "shard {s}: id {id} carries its last write");
            }
        }
        assert_routes_match_clones(&planner, &executors, "last writes");
    }

    /// Seeded random mixed batches on a 4-shard set, checked after each
    /// batch against an op-by-op model of the dataset: the route table,
    /// every shard clone's `(global id, shape)` pairs, each lane's three
    /// lists and the counters. The batches name ids already named in the
    /// batch, unknown ids and the id the next insert allocates, so every
    /// per-id pattern occurs.
    #[test]
    fn route_writes_matches_an_op_by_op_model() {
        let data = soup(300);
        let (mut planner, mut executors) = ShardedEngine::build(&data, 4, LinearScan::build)
            .with_rebuild(LinearScan::build)
            .into_parts();
        let router = planner.router().clone();
        let route = |shape: Option<Shape>| shape.map_or(0..0, |s| router.route(&s.aabb()));
        let mut model: Vec<Option<Shape>> = data.iter().map(|e| Some(e.shape)).collect();
        let mut lanes = Vec::new();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Occurrences of: duplicate set, unknown id, insert→set, set→remove,
        // remove→set, insert→remove, set before its insert.
        let mut seen = [0u32; 7];
        for batch in 0..40 {
            let bound = model.len() as ElementId;
            let mut ops = Vec::new();
            let mut named: Vec<ElementId> = Vec::new();
            let mut next_new = bound;
            for _ in 0..1 + next() % 40 {
                let r = next();
                let shape = box_at(
                    (r % 97) as f32,
                    ((r >> 8) % 89) as f32,
                    ((r >> 16) % 83) as f32,
                    0.2 + ((r >> 24) % 4) as f32,
                );
                let kind = (r >> 32) % 10;
                if kind < 3 {
                    ops.push(WriteOp::Insert(shape));
                    named.push(next_new);
                    next_new += 1;
                    continue;
                }
                let pick = (r >> 48) as u32;
                let id = match (r >> 40) % 6 {
                    0 | 1 if !named.is_empty() => named[pick as usize % named.len()],
                    2 => next_new,
                    3 => bound + 1000 + pick % 5,
                    _ => pick % bound,
                };
                named.push(id);
                ops.push(if kind < 8 {
                    WriteOp::Set(id, shape)
                } else {
                    WriteOp::Remove(id)
                });
            }
            let final_bound = next_new;

            // The op-by-op model.
            let before = model.clone();
            let mut want = UpdateStats::default();
            let mut want_ids = Vec::new();
            let (mut pending, mut touched) = (BTreeSet::new(), BTreeSet::new());
            let (mut born, mut removed) = (BTreeSet::new(), BTreeSet::new());
            for &op in &ops {
                let id = match op {
                    WriteOp::Insert(shape) => {
                        let id = model.len() as ElementId;
                        model.push(Some(shape));
                        want_ids.push(id);
                        born.insert(id);
                        touched.insert(id);
                        want.inserted += 1;
                        continue;
                    }
                    WriteOp::Set(id, _) | WriteOp::Remove(id) => id,
                };
                if model.get(id as usize).copied().flatten().is_none() {
                    want.skipped += 1;
                    let set = matches!(op, WriteOp::Set(..));
                    if id >= final_bound {
                        seen[1] += 1;
                    } else if set && removed.contains(&id) {
                        seen[4] += 1;
                    } else if set && id >= model.len() as ElementId {
                        seen[6] += 1;
                    }
                    continue;
                }
                touched.insert(id);
                model[id as usize] = op.shape();
                if let WriteOp::Set(..) = op {
                    seen[2] += born.contains(&id) as u32;
                    if !pending.insert(id) {
                        want.skipped += 1;
                        seen[0] += 1;
                    }
                    continue;
                }
                if pending.remove(&id) {
                    want.skipped += 1;
                    seen[3] += 1;
                }
                seen[5] += born.contains(&id) as u32;
                removed.insert(id);
                want.removed += 1;
            }
            want.applied = pending.len() as u64;
            let old_shape = |id: ElementId| before.get(id as usize).copied().flatten();
            want.migrations = touched
                .iter()
                .filter(|&&id| {
                    let (old, new) = (route(old_shape(id)), route(model[id as usize]));
                    !old.is_empty() && !new.is_empty() && old != new
                })
                .count() as u64;

            let (ids, stats) = planner.route_writes(&ops, &mut lanes);
            let step = format!("batch {batch}");
            assert_eq!(ids, want_ids, "{step}: allocated ids");
            assert_eq!(
                (stats.applied, stats.skipped, stats.migrations),
                (want.applied, want.skipped, want.migrations),
                "{step}: applied, skipped, migrations"
            );
            assert_eq!(
                (stats.inserted, stats.removed),
                (want.inserted, want.removed),
                "{step}"
            );
            assert_eq!(planner.routes.len(), model.len(), "{step}: route table");
            for (id, &shape) in model.iter().enumerate() {
                let got = planner.route_of(id as ElementId);
                assert_eq!(got, route(shape), "{step}: route of {id}");
            }
            for (s, (exec, lane)) in executors.iter_mut().zip(lanes.iter_mut()).enumerate() {
                lane.run(exec);
                let members: Vec<(ElementId, Shape)> = (0..model.len() as ElementId)
                    .filter_map(|id| model[id as usize].map(|shape| (id, shape)))
                    .filter(|&(_, shape)| route(Some(shape)).contains(&s))
                    .collect();
                let clone: Vec<(ElementId, Shape)> = exec
                    .global
                    .iter()
                    .zip(&exec.data)
                    .map(|(&g, e)| (g, e.shape))
                    .collect();
                assert_eq!(clone, members, "{step}: shard {s}");
                let (mut updates, mut inserts, mut removals) = (Vec::new(), Vec::new(), Vec::new());
                for &id in &touched {
                    let new = model[id as usize];
                    match (route(old_shape(id)).contains(&s), route(new).contains(&s)) {
                        (true, true) => updates.push((id, new.unwrap())),
                        (false, true) => inserts.push((id, new.unwrap())),
                        (true, false) => removals.push(id),
                        (false, false) => {}
                    }
                }
                let ascends = |ids: Vec<ElementId>| ids.windows(2).all(|w| w[0] < w[1]);
                assert!(ascends(lane.updates.iter().map(|e| e.0).collect()));
                assert!(ascends(lane.inserts.iter().map(|e| e.0).collect()));
                assert!(ascends(lane.removals.clone()));
                assert_eq!(lane.updates, updates, "{step}: shard {s} updates");
                assert_eq!(lane.inserts, inserts, "{step}: shard {s} inserts");
                assert_eq!(lane.removals, removals, "{step}: shard {s} removals");
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "patterns seen: {seen:?}");
    }

    /// A grid that splices membership changes in place but panics inside
    /// its in-place write after moving the first half of the lane's
    /// entries: the shard's clone is spliced and holds some of the new
    /// shapes, the grid is torn.
    struct TornAfterSplice(UniformGrid);

    impl SpatialIndex for TornAfterSplice {
        fn name(&self) -> &'static str {
            "TornAfterSplice"
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn range_into(
            &self,
            data: &[Element],
            query: &Aabb,
            scratch: &mut QueryScratch,
            sink: &mut dyn RangeSink,
        ) {
            self.0.range_into(data, query, scratch, sink);
        }

        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }

        fn splice(
            &mut self,
            removed: &[Element],
            remap: &[ElementId],
            inserted: &[Element],
        ) -> bool {
            self.0.splice(removed, remap, inserted)
        }

        fn update_in_place(
            &mut self,
            data: &mut [Element],
            updates: &[(ElementId, Shape)],
        ) -> Option<ShardApplyCost> {
            self.0.update_in_place(data, &updates[..updates.len() / 2]);
            panic!("in-place write torn after the splice");
        }
    }

    impl KnnIndex for TornAfterSplice {
        fn knn_into(
            &self,
            data: &[Element],
            p: &Point3,
            k: usize,
            scratch: &mut QueryScratch,
            sink: &mut dyn KnnSink,
        ) {
            self.0.knn_into(data, p, k, scratch, sink);
        }
    }

    /// A write of every kind over `data`: in-place moves, migrations
    /// across the slab cuts, an insert and a removal. Returns the ops and
    /// the model dataset after them (`None` for the removed id).
    fn mixed_write(data: &[Element]) -> (Vec<WriteOp>, Vec<Option<Shape>>) {
        let mut ops: Vec<WriteOp> = (0..40u32)
            .map(|i| {
                let c = data[(i * 13) as usize].aabb().center();
                WriteOp::Set(i * 13, box_at(c.x + 0.1, c.y, c.z, 0.3))
            })
            .collect();
        ops.extend(
            (0..12u32)
                .map(|i| WriteOp::Set(1000 + i, box_at(8.0 * i as f32 + 2.0, 40.0, 40.0, 0.4))),
        );
        ops.push(WriteOp::Insert(box_at(30.0, 30.0, 30.0, 0.5)));
        ops.push(WriteOp::Remove(5));
        let mut model: Vec<Option<Shape>> = data.iter().map(|e| Some(e.shape)).collect();
        for op in &ops {
            match *op {
                WriteOp::Set(id, shape) => model[id as usize] = Some(shape),
                WriteOp::Insert(shape) => model.push(Some(shape)),
                WriteOp::Remove(id) => model[id as usize] = None,
            }
        }
        (ops, model)
    }

    /// Shard `shard`'s executor built fresh over `model`: the clone, id map
    /// and index a shard holds that never saw a write.
    fn fresh_executor(
        model: &[Option<Shape>],
        router: &ShardRouter,
        shard: usize,
        build: impl Fn(&[Element]) -> UniformGrid,
    ) -> ShardExecutor<UniformGrid> {
        let (data, global): (Vec<Element>, Vec<ElementId>) = model
            .iter()
            .enumerate()
            .filter_map(|(id, shape)| Some((id as ElementId, (*shape)?)))
            .filter(|(_, shape)| router.route(&shape.aabb()).contains(&shard))
            .enumerate()
            .map(|(li, (gid, shape))| (Element::new(li as ElementId, shape), gid))
            .unzip();
        ShardExecutor {
            region: router.region(shard),
            index: build(&data),
            data,
            global,
            engine: QueryEngine::new(),
            rebuild: None,
        }
    }

    #[test]
    fn executor_torn_in_update_in_place_restarts_byte_identical() {
        let data = soup(2000);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let torn = move |part: &[Element]| TornAfterSplice(build(part));
        let (mut planner, mut executors) = ShardedEngine::build(&data, 4, torn)
            .with_rebuild(torn)
            .into_parts();
        let router = planner.router().clone();
        let (ops, model) = mixed_write(&data);
        let mut lanes = Vec::new();
        planner.route_writes(&ops, &mut lanes);
        let qs = queries();
        let probes: Vec<(Point3, usize)> = (0..6)
            .map(|i| {
                (
                    Point3::new((i * 17) as f32, (i * 3) as f32, (i * 8) as f32),
                    5,
                )
            })
            .collect();
        let mut spliced = 0;
        for (s, (exec, lane)) in executors.iter_mut().zip(lanes.iter_mut()).enumerate() {
            assert!(
                !lane.updates.is_empty(),
                "shard {s} moves elements in place"
            );
            let changes = lane.inserts.len() + lane.removals.len();
            let mut fresh = fresh_executor(&model, &router, s, build);
            let tore = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lane.run(exec)));
            assert!(tore.is_err(), "shard {s}: the in-place write tears");
            assert_eq!(exec.global, fresh.global, "shard {s}: the splice ran");
            assert_ne!(
                exec.data, fresh.data,
                "shard {s}: the moves did not all land"
            );
            spliced += usize::from(changes > 0);
            // A second restart over the same lane finds the clone at its
            // post-lane state and leaves it there.
            for attempt in 0..2 {
                assert_eq!(
                    exec.restart(&planner, s, Some(&mut *lane)),
                    Ok(()),
                    "shard {s}"
                );
                assert_eq!(
                    exec.global, fresh.global,
                    "shard {s}, restart {attempt}: id map"
                );
                assert_eq!(exec.data, fresh.data, "shard {s}, restart {attempt}: clone");
                assert_eq!(
                    format!("{:?}", exec.index().0),
                    format!("{:?}", fresh.index),
                    "shard {s}, restart {attempt}: index"
                );
            }
            let (mut a, mut b) = (BatchResults::new(), BatchResults::new());
            exec.range_batch(&qs, &mut a);
            fresh.range_batch(&qs, &mut b);
            for qi in 0..qs.len() {
                assert_eq!(a.query_results(qi), b.query_results(qi), "shard {s} q{qi}");
            }
            let (mut ka, mut kb) = (KnnBatchResults::new(), KnnBatchResults::new());
            exec.knn_batch(&probes, &mut ka);
            fresh.knn_batch(&probes, &mut kb);
            for qi in 0..probes.len() {
                assert_eq!(
                    ka.query_results(qi),
                    kb.query_results(qi),
                    "shard {s} probe {qi}"
                );
            }
        }
        assert!(
            spliced >= 2,
            "the write changes membership in {spliced} shards"
        );
        // Without a rebuild function there is no recipe to restart with.
        let (planner, mut executors) = ShardedEngine::build(&data, 4, build).into_parts();
        for (s, exec) in executors.iter_mut().enumerate() {
            assert_eq!(
                exec.restart(&planner, s, None),
                Err(RestartError::NoRecipe),
                "shard {s}"
            );
        }
    }

    #[test]
    fn clone_that_disagrees_with_the_route_table_is_diverged_on_restart() {
        let data = soup(1200);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
        let set = || {
            ShardedEngine::build(&data, 4, build)
                .with_rebuild(build)
                .into_parts()
        };
        // Each corruption of shard 1's clone, on a fresh set.
        type Corruption = fn(&mut ShardExecutor<UniformGrid>);
        let corruptions: [(&str, Corruption); 4] = [
            ("an element dropped", |e| {
                e.data.remove(3);
                e.global.remove(3);
            }),
            ("a stray id", |e| {
                let stray = (0..).find(|g| e.global.binary_search(g).is_err()).unwrap();
                let at = e.global.binary_search(&stray).unwrap_err();
                e.global.insert(at, stray);
                e.data.insert(at, e.data[3].clone());
            }),
            ("a shape that routes elsewhere", |e| {
                e.data[3].shape = box_at(95.0, 95.0, 95.0, 0.3)
            }),
            ("an id map longer than the clone", |e| {
                e.global.push(ElementId::MAX)
            }),
        ];
        for (what, corrupt) in corruptions {
            let (planner, mut executors) = set();
            assert_ne!(planner.route_of(executors[1].global[3]), 3..4);
            corrupt(&mut executors[1]);
            assert_eq!(
                executors[1].restart(&planner, 1, None),
                Err(RestartError::Diverged),
                "{what}"
            );
            assert_eq!(
                executors[2].restart(&planner, 2, None),
                Ok(()),
                "{what}: shard 2"
            );
        }

        // A torn lane whose clone shows one of its arrivals but not the
        // other: no single replay brings it to the post-lane state.
        let (mut planner, mut executors) = set();
        let (ops, _) = mixed_write(&data);
        let mut lanes = Vec::new();
        planner.route_writes(&ops, &mut lanes);
        let s = (0..4)
            .find(|&s| lanes[s].inserts.len() >= 2)
            .expect("a shard with two arrivals");
        let (gid, shape) = lanes[s].inserts[0];
        let exec = &mut executors[s];
        let at = exec.global.binary_search(&gid).unwrap_err();
        exec.global.insert(at, gid);
        exec.data.insert(at, Element::new(at as ElementId, shape));
        assert_eq!(
            exec.restart(&planner, s, Some(&mut lanes[s])),
            Err(RestartError::Diverged)
        );
    }
}
