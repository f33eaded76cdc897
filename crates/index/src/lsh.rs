//! Locality-sensitive hashing for low-dimensional kNN (§3.3).
//!
//! "A possible approach for kNN queries could be to use locality sensitive
//! hashing (LSH, e.g., \[3\]). ... Crucially, LSH avoids a tree structure to
//! organize the data and instead uses several (spatial) hash functions to
//! index each spatial element."
//!
//! This is the p-stable-distribution scheme of Datar et al. specialised to
//! 3-D: each of `L` tables hashes an element centroid through `m` functions
//! `h(p) = ⌊(a·p + b) / w⌋` with Gaussian `a`, and the concatenated integer
//! vector keys a bucket. Queries probe their own bucket in every table plus
//! single-step perturbations (multiprobe), refine candidates by exact
//! element distance, and — since LSH is approximate by nature — fall back
//! to a linear scan only when fewer than `k` candidates surfaced, keeping
//! the API total.
//!
//! **Approximation contract:** `knn` returns `k` elements that are near but
//! not guaranteed nearest; recall is a measured quantity (experiment E8).

use crate::traits::{KnnIndex, KnnSink};
use crate::util::{knn_reach, mean_spacing, KnnHeap};
use simspatial_geom::{
    predicates, stats, Aabb, Element, ElementId, Point3, QueryScratch, SoaAabbs, Vec3,
};
use std::collections::HashMap;

/// Configuration of an [`Lsh`] index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Number of hash tables `L` (more tables ⇒ higher recall, more memory).
    pub tables: usize,
    /// Hash functions concatenated per table key `m`.
    pub hashes_per_table: usize,
    /// Bucket width `w`, in dataset units.
    pub width: f32,
    /// RNG seed for the hash functions.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            tables: 8,
            hashes_per_table: 3,
            width: 4.0,
            seed: 0x15_4A11,
        }
    }
}

impl LshConfig {
    /// Derives a width from the data: several times the mean inter-element
    /// spacing, so a bucket holds a neighbourhood rather than a point.
    pub fn auto(elements: &[Element]) -> Self {
        let mut cfg = Self::default();
        if elements.is_empty() {
            return cfg;
        }
        cfg.width = (2.5 * mean_spacing(elements)).max(1e-6);
        cfg
    }

    fn validate(&self) {
        assert!(self.tables >= 1, "need at least one table");
        assert!(
            (1..=8).contains(&self.hashes_per_table),
            "1..=8 hashes per table"
        );
        assert!(self.width > 0.0, "width must be positive");
    }
}

/// One hash function `h(p) = ⌊(a·p + b)/w⌋`.
#[derive(Debug, Clone, Copy)]
struct HashFn {
    a: Vec3,
    b: f32,
}

impl HashFn {
    #[inline]
    fn eval(&self, p: &Point3, w: f32) -> i32 {
        let v = self.a.x * p.x + self.a.y * p.y + self.a.z * p.z + self.b;
        (v / w).floor() as i32
    }
}

/// A multi-table LSH index over element centroids.
#[derive(Debug, Clone)]
pub struct Lsh {
    config: LshConfig,
    /// `tables × hashes_per_table` functions.
    fns: Vec<Vec<HashFn>>,
    /// One bucket map per table, keyed by the mixed integer hash vector.
    tables: Vec<HashMap<u64, Vec<ElementId>>>,
    /// Build-time element bounding boxes in id order: the SoA store the
    /// batched candidate-scoring kernel streams over.
    boxes: SoaAabbs,
    /// Union of `boxes`, for the kNN heap's reach.
    envelope: Aabb,
    len: usize,
}

impl Lsh {
    /// Builds the index over element centroids.
    pub fn build(elements: &[Element], config: LshConfig) -> Self {
        config.validate();
        let mut state = config.seed | 1;
        let mut next = move || {
            // xorshift64*: deterministic, dependency-free Gaussian-ish via CLT.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut gauss = move || {
            // Sum of 12 uniforms − 6: mean 0, variance 1 (Irwin–Hall CLT).
            let s: f64 = (0..12).map(|_| next()).sum::<f64>() - 6.0;
            s as f32
        };
        let fns: Vec<Vec<HashFn>> = (0..config.tables)
            .map(|_| {
                (0..config.hashes_per_table)
                    .map(|_| HashFn {
                        a: Vec3::new(gauss(), gauss(), gauss()),
                        b: (gauss().abs() % 1.0) * config.width,
                    })
                    .collect()
            })
            .collect();

        let mut tables: Vec<HashMap<u64, Vec<ElementId>>> =
            (0..config.tables).map(|_| HashMap::new()).collect();
        let mut boxes = SoaAabbs::with_capacity(elements.len());
        for e in elements {
            let c = e.center();
            for (t, table_fns) in fns.iter().enumerate() {
                let key = mix_key(table_fns.iter().map(|f| f.eval(&c, config.width)));
                tables[t].entry(key).or_default().push(e.id);
            }
            boxes.push(e.aabb(), e.id);
        }
        Self {
            config,
            fns,
            tables,
            envelope: boxes.union_all(),
            boxes,
            len: elements.len(),
        }
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate memory footprint.
    pub fn memory_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>() + self.boxes.memory_bytes();
        for t in &self.tables {
            total += t.len() * (8 + std::mem::size_of::<Vec<ElementId>>());
            for v in t.values() {
                total += v.capacity() * std::mem::size_of::<ElementId>();
            }
        }
        total
    }

    /// Collects candidate ids for a query point into `scratch.candidates`:
    /// own bucket plus ±1 multiprobe perturbations in every table,
    /// deduplicated through the generation-stamped visited table (no
    /// sort + dedup pass, no per-query candidate vector).
    fn candidates_into(&self, p: &Point3, scratch: &mut QueryScratch) {
        let w = self.config.width;
        scratch.candidates.clear();
        scratch.visited.begin(self.len);
        let QueryScratch {
            candidates,
            visited,
            ..
        } = scratch;
        let mut take = |ids: &[ElementId]| {
            for &id in ids {
                if visited.mark(id) {
                    candidates.push(id);
                }
            }
        };
        for (t, table_fns) in self.fns.iter().enumerate() {
            let base: [i32; 8] = {
                let mut b = [0i32; 8];
                for (j, f) in table_fns.iter().enumerate() {
                    b[j] = f.eval(p, w);
                }
                b
            };
            let m = table_fns.len();
            // Exact bucket.
            if let Some(ids) = self.tables[t].get(&mix_key(base[..m].iter().copied())) {
                take(ids);
            }
            // Multiprobe: one coordinate perturbed by ±1.
            for i in 0..m {
                for delta in [-1i32, 1] {
                    let probe =
                        base[..m]
                            .iter()
                            .enumerate()
                            .map(|(j, &h)| if j == i { h + delta } else { h });
                    if let Some(ids) = self.tables[t].get(&mix_key(probe)) {
                        take(ids);
                    }
                }
            }
        }
    }

    /// The seed implementation's scoring path, kept as the reference the
    /// deferred scoring is tested against: every surfaced candidate pays the
    /// exact element-surface distance; results are the `k` best by
    /// `(distance, id)`.
    #[cfg(test)]
    pub fn knn_scalar_reference(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
    ) -> Vec<(ElementId, f32)> {
        use simspatial_geom::scratch::with_scratch;
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(ElementId, f32)> = with_scratch(|scratch| {
            self.candidates_into(p, scratch);
            if scratch.candidates.len() < k {
                scratch.candidates.clear();
                scratch.candidates.extend(0..self.len as ElementId);
            }
            scratch
                .candidates
                .iter()
                .map(|&id| (id, predicates::element_distance(&data[id as usize], p)))
                .collect()
        });
        let k = k.min(scored.len());
        scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

impl KnnIndex for Lsh {
    /// Batched candidate scoring with deferred refinement: one
    /// gather-addressed [`SoaAabbs::min_dist2_gather_into`] pass computes a
    /// box lower bound per surfaced candidate; the exact element-surface
    /// distance is then paid only by candidates whose bound can still beat
    /// the current k-th best. Same results as the seed scoring path
    /// (`knn_scalar_reference`), fewer exact geometry tests. Candidate
    /// list, lower bounds and the best-k heap all live in the caller's
    /// scratch — no allocation per probe.
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
        self.candidates_into(p, scratch);
        if scratch.candidates.len() < k {
            // Too few candidates surfaced: fall back to scoring
            // everything (keeps the result total).
            scratch.candidates.clear();
            scratch.candidates.extend(0..self.len as ElementId);
        }
        let QueryScratch {
            candidates,
            dists,
            knn_best,
            ..
        } = scratch;
        self.boxes.min_dist2_gather_into(p, candidates, dists);
        stats::record_lower_bound_evals(candidates.len() as u64);
        let mut best = KnnHeap::with_reach(knn_best, k, knn_reach(p, &self.envelope));
        // The build-time box contains the element surface: lb ≤ exact.
        best.refine(dists, candidates, |id| {
            predicates::element_distance(&data[id as usize], p)
        });
        best.emit(sink);
    }
}

/// Mixes an integer hash vector into one 64-bit bucket key (FxHash-style).
fn mix_key(values: impl Iterator<Item = i32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h ^= v as u32 as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;
    use simspatial_geom::{Shape, Sphere};

    fn scattered(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.2)))
            })
            .collect()
    }

    #[test]
    fn returns_k_results() {
        let data = scattered(2000);
        let lsh = Lsh::build(&data, LshConfig::auto(&data));
        let res = lsh.knn(&data, &Point3::new(50.0, 50.0, 50.0), 10);
        assert_eq!(res.len(), 10);
        // Sorted ascending.
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn recall_is_reasonable() {
        let data = scattered(3000);
        let lsh = Lsh::build(&data, LshConfig::auto(&data));
        let scan = LinearScan::build(&data);
        let mut hits = 0usize;
        let mut total = 0usize;
        for i in 0..20 {
            let p = Point3::new((i * 5) as f32, (i * 4) as f32, (i * 3) as f32);
            let approx: std::collections::HashSet<ElementId> = lsh
                .knn(&data, &p, 10)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            for (id, _) in scan.knn(&data, &p, 10) {
                total += 1;
                if approx.contains(&id) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.7, "recall too low: {recall}");
    }

    #[test]
    fn tiny_dataset_falls_back() {
        let data = scattered(5);
        let lsh = Lsh::build(&data, LshConfig::default());
        let res = lsh.knn(&data, &Point3::ORIGIN, 5);
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn deterministic() {
        let data = scattered(500);
        let a = Lsh::build(&data, LshConfig::auto(&data));
        let b = Lsh::build(&data, LshConfig::auto(&data));
        let p = Point3::new(30.0, 30.0, 30.0);
        assert_eq!(a.knn(&data, &p, 5), b.knn(&data, &p, 5));
    }

    #[test]
    fn empty() {
        let lsh = Lsh::build(&[], LshConfig::default());
        assert!(lsh.is_empty());
        assert!(lsh.knn(&[], &Point3::ORIGIN, 3).is_empty());
    }

    /// Mixed-size random soup: mostly small spheres plus some large ones.
    fn mixed(n: u32, seed: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                let r = if i % 31 == 0 { 5.0 } else { 0.3 };
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
            })
            .collect()
    }

    /// Two mixed soups and the degenerate sets: empty, a single point, all
    /// elements coincident, and a line of touching spheres.
    fn all_datasets() -> Vec<Vec<Element>> {
        let sphere = |c: Point3, r: f32| Shape::Sphere(Sphere::new(c, r));
        let coincident = (0..64)
            .map(|i| Element::new(i, sphere(Point3::new(5.0, 5.0, 5.0), 0.25)))
            .collect();
        let line = (0..40)
            .map(|i| Element::new(i, sphere(Point3::new(i as f32 * 0.5, 0.0, 0.0), 0.25)))
            .collect();
        vec![
            Vec::new(),
            vec![Element::new(0, sphere(Point3::ORIGIN, 0.0))],
            coincident,
            line,
            mixed(2500, 0),
            mixed(900, 0xBEEF),
        ]
    }

    #[test]
    fn deferred_scoring_equals_seed_reference() {
        for data in all_datasets() {
            let lsh = Lsh::build(&data, LshConfig::auto(&data));
            for i in 0..10 {
                let p = Point3::new((i * 11) as f32, (i * 9) as f32, (i * 7) as f32);
                for k in [1usize, 5, 17] {
                    let a = lsh.knn(&data, &p, k);
                    let b = lsh.knn_scalar_reference(&data, &p, k);
                    assert_eq!(a, b, "lsh diverged at {p:?} k={k} (n={})", data.len());
                }
            }
        }
    }
}
