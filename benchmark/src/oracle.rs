//! The correctness oracle: expected results from `LinearScan`, compared
//! with every timed reply by result count and id checksum.
//!
//! A reply is reduced to one [`Digest`]. Range results are digested per
//! query as `(count, Σ mix(id))` — order-free, because a sharded merge and
//! a scan emit the same ids in different orders — then folded in query
//! order. kNN results are folded in emission order: every stack promises
//! ascending `(distance, id)`, so the order is part of the answer.

use crate::data::{ReadPool, SimScript, KNN_K, SIM_CYCLE};
use simspatial_geom::{Aabb, Element, ElementId, Point3};
use simspatial_index::{BatchResults, KnnBatchResults, LinearScan, QueryEngine};
use simspatial_service::{Request, Response};

pub type Digest = u64;

/// SplitMix64 finaliser: spreads dense ids over the checksum's 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One range query's order-free summary. Additive over disjoint element
/// sets, which lets `sim_mixed` scan its static elements once and only the
/// movers per state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangePart {
    count: u64,
    sum: u64,
}

impl RangePart {
    pub fn of(ids: &[ElementId]) -> Self {
        RangePart {
            count: ids.len() as u64,
            sum: ids
                .iter()
                .fold(0u64, |s, &id| s.wrapping_add(mix(u64::from(id)))),
        }
    }

    fn plus(self, other: RangePart) -> RangePart {
        RangePart {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

pub fn digest_range(parts: impl Iterator<Item = RangePart>) -> Digest {
    parts.fold(0x52, |h, p| mix(h ^ p.sum ^ (p.count << 44)))
}

pub fn digest_knn<'a>(lists: impl Iterator<Item = &'a [(ElementId, f32)]>) -> Digest {
    lists.fold(0x4B, |h, list| {
        let probe = list
            .iter()
            .fold(list.len() as u64, |p, &(id, _)| mix(p ^ u64::from(id)));
        mix(h ^ probe)
    })
}

/// The digest of a served reply; `None` for a response shape the read
/// workloads never ask for.
pub fn digest_response(response: &Response) -> Option<Digest> {
    match response {
        Response::Range(lists) => Some(digest_range(lists.iter().map(|l| RangePart::of(l)))),
        Response::Knn(lists) => Some(digest_knn(lists.iter().map(Vec::as_slice))),
        _ => None,
    }
}

pub fn digest_batch(out: &BatchResults) -> Digest {
    digest_range(out.iter().map(RangePart::of))
}

pub fn digest_knn_batch(out: &KnnBatchResults) -> Digest {
    digest_knn(out.iter())
}

/// Runs `scan` over the two halves of `items` on two threads and
/// concatenates what they return, in order.
fn on_two_threads<T: Sync, R: Send>(items: &[T], scan: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2).max(1);
    let scan = &scan;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(half)
            .map(|part| s.spawn(move || scan(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle scan thread panicked"))
            .collect()
    })
}

/// `LinearScan` summaries of `boxes` over `elements` (ids need not be
/// dense: the scan reports `element.id`). Batches of 256 boxes ride the
/// scan's one-pass plan.
fn scan_range(elements: &[Element], boxes: &[Aabb]) -> Vec<RangePart> {
    let scan = LinearScan::build(elements);
    on_two_threads(boxes, |part| {
        let mut engine = QueryEngine::new();
        let mut out = BatchResults::new();
        let mut parts = Vec::with_capacity(part.len());
        for batch in part.chunks(256) {
            engine.range_collect(&scan, elements, batch, &mut out);
            parts.extend(out.iter().map(RangePart::of));
        }
        parts
    })
}

/// `LinearScan` kNN lists of `probes`, nearest first.
fn scan_knn(elements: &[Element], probes: &[Point3]) -> Vec<Vec<(ElementId, f32)>> {
    let scan = LinearScan::build(elements);
    on_two_threads(probes, |part| {
        let mut engine = QueryEngine::new();
        let mut out = KnnBatchResults::new();
        engine.knn_collect(&scan, elements, part, KNN_K, &mut out);
        out.iter().map(<[_]>::to_vec).collect()
    })
}

fn boxes_of(request: &Request) -> &[Aabb] {
    match request {
        Request::Range(boxes) => boxes,
        other => panic!("not a range request: {other:?}"),
    }
}

/// Per-request range summaries for a list of range requests, scanned as
/// one concatenated box list.
fn scan_requests(elements: &[Element], requests: &[Request]) -> Vec<Vec<RangePart>> {
    let flat: Vec<Aabb> = requests
        .iter()
        .flat_map(|r| boxes_of(r).iter().copied())
        .collect();
    let mut parts = scan_range(elements, &flat).into_iter();
    requests
        .iter()
        .map(|r| parts.by_ref().take(boxes_of(r).len()).collect())
        .collect()
}

/// Expected digest per pool slot (range slots first, then kNN slots).
pub fn expect_pool(elements: &[Element], pool: &ReadPool) -> Vec<Digest> {
    let mut digests: Vec<Digest> = scan_requests(elements, &pool.range)
        .into_iter()
        .map(|parts| digest_range(parts.into_iter()))
        .collect();
    let probes: Vec<Point3> = pool
        .knn
        .iter()
        .flat_map(|r| match r {
            Request::Knn(ps) => ps.iter().map(|&(p, _)| p),
            other => panic!("not a kNN request: {other:?}"),
        })
        .collect();
    let lists = scan_knn(elements, &probes);
    let mut lists = lists.iter().map(Vec::as_slice);
    for request in &pool.knn {
        digests.push(digest_knn(lists.by_ref().take(request.len())));
    }
    digests
}

/// `expected[state][monitor]` for the sixteen serial states of the
/// `sim_mixed` cycle: the elements no tick ever moves are scanned once,
/// the movers once per state at the boxes that state puts them in.
pub fn expect_sim(script: &SimScript) -> Vec<Vec<Digest>> {
    let mut is_mover = vec![false; script.elements.len()];
    for &(id, _) in script.ticks.iter().flatten() {
        is_mover[id as usize] = true;
    }
    let fixed: Vec<Element> = script
        .elements
        .iter()
        .filter(|e| !is_mover[e.id as usize])
        .cloned()
        .collect();
    let fixed_parts = scan_requests(&fixed, &script.monitors);

    // State 0 is the built dataset; state s+1 applies tick s to state s.
    let mut live = script.elements.clone();
    let mut expected = Vec::with_capacity(SIM_CYCLE);
    for state in 0..SIM_CYCLE {
        let movers: Vec<Element> = live
            .iter()
            .filter(|e| is_mover[e.id as usize])
            .cloned()
            .collect();
        let mover_parts = scan_requests(&movers, &script.monitors);
        expected.push(
            fixed_parts
                .iter()
                .zip(&mover_parts)
                .map(|(f, m)| digest_range(f.iter().zip(m).map(|(a, b)| a.plus(*b))))
                .collect(),
        );
        for &(id, env) in &script.ticks[state] {
            live[id as usize].shape = simspatial_geom::Shape::Box(env);
        }
    }
    expected
}

/// `--corrupt-oracle`: perturbs the first request's expectation the way one
/// flipped id would, so the self-test can show a wrong reply is caught.
pub fn corrupt(digest: &mut Digest) {
    *digest = digest.wrapping_add(mix(1).wrapping_sub(mix(0)));
}

/// Requests counted against requests that failed (refused, errored, shed
/// with `Retry`, or answered differently from the oracle).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_digest_ignores_order_within_a_query_only() {
        let a = digest_range([RangePart::of(&[1, 2, 3]), RangePart::of(&[9])].into_iter());
        let b = digest_range([RangePart::of(&[3, 1, 2]), RangePart::of(&[9])].into_iter());
        let swapped = digest_range([RangePart::of(&[9]), RangePart::of(&[1, 2, 3])].into_iter());
        let flipped = digest_range([RangePart::of(&[1, 2, 2]), RangePart::of(&[9])].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, swapped);
        assert_ne!(a, flipped);
        assert_eq!(
            RangePart::of(&[1, 2]).plus(RangePart::of(&[3])),
            RangePart::of(&[1, 2, 3])
        );
    }

    #[test]
    fn knn_digest_depends_on_order() {
        let near_first: &[(ElementId, f32)] = &[(4, 0.5), (7, 1.0)];
        let far_first: &[(ElementId, f32)] = &[(7, 1.0), (4, 0.5)];
        assert_ne!(
            digest_knn([near_first].into_iter()),
            digest_knn([far_first].into_iter())
        );
    }
}
