//! Everything the generated load depends on, derived from `--seed` alone.
//!
//! One dataset shape serves all four workloads (800 neurons × 500 segments
//! ≈ 400 k elements, ≈40 MB of elements + grid — an order of magnitude past
//! the 4 MiB L2), so a number on one workload can be set beside the same
//! layer's number on another.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simspatial_datagen::{NeuronDatasetBuilder, QueryWorkload};
use simspatial_geom::{Aabb, Element, ElementId, Point3, Shape, Vec3};
use simspatial_index::ShardRouter;
use simspatial_service::Request;

pub const NEURONS: usize = 800;
/// Region shards of every sharded stack (served by a worker pool of
/// `min(SIMSPATIAL_THREADS, SHARDS)`).
pub const SHARDS: usize = 4;
pub const SEGMENTS_PER_NEURON: usize = 500;
/// Neighbours per kNN probe.
pub const KNN_K: usize = 8;

/// `engine_batch`: boxes per range request / probes per kNN request, and
/// how many distinct requests of each kind the rounds cycle through. The
/// pool's 2048 boxes already sweep every grid cell about twice, so cycling
/// it leaves nothing L2-resident; its size is capped by the linear-scan
/// oracle, which costs ≈1 ms per distinct box.
pub const ENGINE_BOXES: usize = 256;
pub const ENGINE_PROBES: usize = 64;
pub const ENGINE_POOL: usize = 8;

/// `svc_read` / `net_read`: small requests, three range requests to one kNN.
pub const SVC_BOXES: usize = 4;
pub const SVC_PROBES: usize = 2;
pub const SVC_RANGE_POOL: usize = 384;
pub const SVC_KNN_POOL: usize = SVC_RANGE_POOL / 3;

/// `sim_mixed`: per tick one `StepDelta` over `SIM_MOVED_FRAC` of the
/// elements, then `SIM_MONITORS` snapshot reads of `SIM_BOXES` boxes.
pub const SIM_MONITORS: usize = 32;
pub const SIM_BOXES: usize = 8;
pub const SIM_CYCLE: usize = 16;
pub const SIM_MOVED_FRAC: f64 = 0.02;
/// Movers hop between two positions at most this far apart per axis (µm;
/// grid cells are ≈4 µm, shard slabs ≈50 µm): most hops stay in their
/// cell, some switch cells, about one in a hundred crosses a shard cut.
pub const SIM_HOP: f32 = 0.5;
/// Movers of the last group whose hop carries them over the middle shard
/// cut, per direction — the same for every seed, so that every seed's slow
/// ticks migrate the same number of elements and rebuild the same shards.
pub const SIM_CROSSERS: usize = 32;

/// The dataset plus the query generator positioned after it.
pub struct Inputs {
    pub seed: u64,
    pub elements: Vec<Element>,
    pub universe: Aabb,
    queries: QueryWorkload,
    selectivity: f64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let n = NEURONS * (SEGMENTS_PER_NEURON + 1);
        // The density regime of `simspatial_bench::datasets::neuron_dataset`
        // (≈0.05 elements/µm³) and the selectivity rule of its
        // `paper_queries` (5×10⁻⁴ of n results, clamped to [16, 1000]) —
        // restated here because that crate drags the Criterion stand-in
        // and every experiment into the build.
        let side = (n as f32 / 0.05).cbrt().min(400.0);
        let data = NeuronDatasetBuilder::new()
            .neurons(NEURONS)
            .segments_per_neuron(SEGMENTS_PER_NEURON)
            .universe_side(side)
            .seed(seed)
            .build();
        let target_results = (n as f64 * 5e-4).clamp(16.0, 1000.0);
        let universe = data.universe();
        Inputs {
            seed,
            elements: data.elements().to_vec(),
            universe,
            queries: QueryWorkload::new(universe, seed ^ 0x51AB_1E5E_ED00_0001),
            selectivity: (target_results / n as f64).min(0.05),
        }
    }

    pub fn boxes(&mut self, n: usize) -> Vec<Aabb> {
        self.queries.range_queries(self.selectivity, n)
    }

    pub fn probes(&mut self, n: usize) -> Vec<Point3> {
        self.queries.knn_points(n)
    }

    /// Bytes of the element array (what every index is built over).
    pub fn element_bytes(&self) -> usize {
        self.elements.len() * std::mem::size_of::<Element>()
    }
}

/// A read workload's distinct requests; rounds cycle through them in the
/// fixed pattern `range × range_per_cycle, knn × 1`.
pub struct ReadPool {
    pub range: Vec<Request>,
    pub knn: Vec<Request>,
    pub range_per_cycle: usize,
}

impl ReadPool {
    fn generate(
        inputs: &mut Inputs,
        (ranges, boxes): (usize, usize),
        (knns, probes): (usize, usize),
        range_per_cycle: usize,
    ) -> Self {
        let range = (0..ranges)
            .map(|_| Request::Range(inputs.boxes(boxes)))
            .collect();
        let knn = (0..knns)
            .map(|_| {
                Request::Knn(
                    inputs
                        .probes(probes)
                        .into_iter()
                        .map(|p| (p, KNN_K))
                        .collect(),
                )
            })
            .collect();
        ReadPool {
            range,
            knn,
            range_per_cycle,
        }
    }

    pub fn engine_batch(inputs: &mut Inputs) -> Self {
        Self::generate(
            inputs,
            (ENGINE_POOL, ENGINE_BOXES),
            (ENGINE_POOL, ENGINE_PROBES),
            1,
        )
    }

    pub fn svc_read(inputs: &mut Inputs) -> Self {
        Self::generate(
            inputs,
            (SVC_RANGE_POOL, SVC_BOXES),
            (SVC_KNN_POOL, SVC_PROBES),
            3,
        )
    }

    /// The requests of cycle `c`, as `(pool slot, request)`; slots number
    /// the range pool first, then the kNN pool.
    pub fn cycle(&self, c: usize) -> impl Iterator<Item = (usize, &Request)> {
        let r = self.range_per_cycle;
        let ranges = (0..r).map(move |j| (c * r + j) % self.range.len());
        let knn = self.range.len() + c % self.knn.len();
        ranges
            .chain(std::iter::once(knn))
            .map(|slot| (slot, self.request(slot)))
    }

    pub fn request(&self, slot: usize) -> &Request {
        if slot < self.range.len() {
            &self.range[slot]
        } else {
            &self.knn[slot - self.range.len()]
        }
    }

    pub fn slots(&self) -> usize {
        self.range.len() + self.knn.len()
    }
}

/// Queries (boxes or probes) a request carries.
pub fn queries_in(request: &Request) -> u64 {
    request.len() as u64
}

/// The `sim_mixed` script: a 16-tick cycle of pre-generated absolute boxes.
///
/// Eight disjoint mover groups of `SIM_MOVED_FRAC · n` elements each; tick
/// `t` sends group `t mod 8` to its *away* boxes when `t mod 16 < 8` and
/// back *home* otherwise. The served state after `e` ticks therefore
/// depends on `e mod 16` only — sixteen serial states cover every epoch a
/// snapshot read can report, however long the run.
///
/// Groups 0–6 hold only movers whose hop keeps them in the shards they
/// started in, so their ticks' lanes are resident and take the incremental
/// in-shard path. Group 7 also holds exactly [`SIM_CROSSERS`] movers whose
/// hop makes them overlap the middle cut from the left and as many from the
/// right (and none over any other cut): ticks 7 and 15 of the cycle insert
/// them into / remove them from the two middle shards, which therefore
/// rebuild — one rebuild per pool worker — while the outer shards stay
/// incremental. What the slow path costs depends on the seed only through
/// the shards' sizes; a group left as drawn crossed all three cuts with a
/// seed-dependent number of movers, rebuilt all four shards on the two
/// workers, and its ticks cost 110 ms on one seed and 165 ms on another.
/// A cycle prices both write paths: `write_p50_us` sits on the first,
/// `write_p95_us` on the second.
pub struct SimScript {
    /// The dataset the backend is built over: the base elements, with every
    /// mover already stored as its envelope box (what a `StepDelta` turns
    /// it into), so state 0 is exactly "all movers home".
    pub elements: Vec<Element>,
    /// `ticks[t]` = the `StepDelta` payload of tick `t mod 16`.
    pub ticks: Vec<Vec<(ElementId, Aabb)>>,
    pub monitors: Vec<Request>,
    pub movers_per_tick: usize,
}

impl SimScript {
    pub fn generate(inputs: &mut Inputs) -> Self {
        let n = inputs.elements.len();
        let per_tick = (n as f64 * SIM_MOVED_FRAC) as usize;
        let groups = SIM_CYCLE / 2;
        let mut rng = SmallRng::seed_from_u64(inputs.seed ^ 0x0051_3D17_C4ED_0002);
        // Fisher–Yates: candidates are visited in a uniform random order.
        let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
        for i in 0..n - 1 {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        // The router `ShardedEngine::build` will derive from the same data.
        let bounds = Aabb::union_all(inputs.elements.iter().map(Element::aabb));
        let router = ShardRouter::new(bounds, SHARDS);
        let mut elements = inputs.elements.clone();
        let mut ticks: Vec<Vec<(ElementId, Aabb)>> = vec![Vec::new(); SIM_CYCLE];
        let mut candidates = ids.into_iter();
        // The middle cut separates shards `left` and `left + 1`.
        let left = SHARDS / 2 - 1;
        for g in 0..groups {
            // Crossers still wanted: [gaining shard `left`, gaining `left + 1`].
            let mut crossers = if g + 1 == groups {
                [SIM_CROSSERS; 2]
            } else {
                [0; 2]
            };
            while ticks[g].len() < per_tick {
                let id = candidates.next().expect("far more elements than movers");
                let home = elements[id as usize].aabb();
                let hop = Vec3::new(
                    rng.gen_range(-SIM_HOP..SIM_HOP),
                    rng.gen_range(-SIM_HOP..SIM_HOP),
                    rng.gen_range(-SIM_HOP..SIM_HOP),
                );
                let away = home.translate(hop);
                let (from, to) = (router.route(&home), router.route(&away));
                if from == to {
                    // A resident mover; leave room for the crossers.
                    if ticks[g].len() + crossers[0] + crossers[1] == per_tick {
                        continue;
                    }
                } else {
                    let gains = if to != (left..left + 2) {
                        continue;
                    } else if from == (left + 1..left + 2) {
                        0
                    } else if from == (left..left + 1) {
                        1
                    } else {
                        continue;
                    };
                    if crossers[gains] == 0 {
                        continue;
                    }
                    crossers[gains] -= 1;
                }
                elements[id as usize].shape = Shape::Box(home);
                ticks[g].push((id, away));
                ticks[g + groups].push((id, home));
            }
        }
        let monitors = (0..SIM_MONITORS)
            .map(|_| Request::Range(inputs.boxes(SIM_BOXES)))
            .collect();
        SimScript {
            elements,
            ticks,
            monitors,
            movers_per_tick: per_tick,
        }
    }

    /// Which of the sixteen serial states the service is in after `epoch`
    /// ticks have been applied.
    pub fn state_of(epoch: u64) -> usize {
        (epoch % SIM_CYCLE as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed's script migrates the same movers over the same cut: none
    /// in groups 0–6, `SIM_CROSSERS` into each middle shard in group 7.
    #[test]
    fn every_seed_crosses_the_same_cut_the_same_number_of_times() {
        for seed in [3, 1001] {
            let mut inputs = Inputs::generate(seed);
            let script = SimScript::generate(&mut inputs);
            let bounds = Aabb::union_all(script.elements.iter().map(Element::aabb));
            let router = ShardRouter::new(bounds, SHARDS);
            let groups = SIM_CYCLE / 2;
            for g in 0..groups {
                let mut gained = [0usize; SHARDS];
                for (&(id, away), &(back, home)) in
                    script.ticks[g].iter().zip(&script.ticks[g + groups])
                {
                    assert_eq!(id, back);
                    assert_eq!(script.elements[id as usize].aabb(), home);
                    let (from, to) = (router.route(&home), router.route(&away));
                    assert!(
                        from.start >= to.start && from.end <= to.end,
                        "crossers only grow"
                    );
                    for shard in to.filter(|s| !from.contains(s)) {
                        gained[shard] += 1;
                    }
                }
                assert_eq!(script.ticks[g].len(), script.movers_per_tick);
                let want = if g + 1 == groups {
                    [0, SIM_CROSSERS, SIM_CROSSERS, 0]
                } else {
                    [0; SHARDS]
                };
                assert_eq!(gained, want, "seed {seed} group {g}");
            }
        }
    }
}
