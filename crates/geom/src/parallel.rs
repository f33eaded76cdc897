//! Minimal data-parallel helpers over `std::thread::scope`.
//!
//! The build paths (STR bulk load, grid construction, FLAT link building)
//! are embarrassingly parallel over elements, but this workspace cannot
//! take a `rayon` dependency (the build environment is offline), so these
//! helpers provide the small slice-parallel surface the indexes need.
//! Everything degrades to a plain inline loop when one thread is available
//! or the input is below `min_chunk` — on a single-core host the overhead
//! is a branch.
//!
//! Thread count comes from `std::thread::available_parallelism`, overridable
//! with the `SIMSPATIAL_THREADS` environment variable (set it to `1` to
//! force serial execution for differential benchmarking).

use std::sync::atomic::{AtomicUsize, Ordering};

static CACHED: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads parallel helpers will use.
pub fn num_threads() -> usize {
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("SIMSPATIAL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Overrides the thread count for every subsequent parallel helper call
/// (and the sharded-backend worker pool), bypassing `SIMSPATIAL_THREADS`.
/// `benchmark/` pins its worker count with this and `tests/service_pool.rs`
/// sweeps 1/2/4 threads inside one process; `n` is clamped to at least 1.
pub fn set_num_threads(n: usize) {
    CACHED.store(n.max(1), Ordering::Relaxed);
}

/// Maps disjoint chunks of `items` through `f` on worker threads, returning
/// one result per chunk in order. Chunks are at least `min_chunk` items, so
/// small inputs run inline on the calling thread.
pub fn par_map_chunks<T: Sync, R: Send>(
    items: &[T],
    min_chunk: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let threads = num_threads();
    let n = items.len();
    if threads <= 1 || n <= min_chunk.max(1) {
        if n == 0 {
            return Vec::new();
        }
        return vec![f(0, items)];
    }
    let chunk = n.div_ceil(threads).max(min_chunk.max(1));
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| (i * chunk, c))
        .collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(offset, c)| scope.spawn(move || f(offset, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Runs `f` over each mutable slice on worker threads. The slices must come
/// from disjoint regions (the borrow checker enforces this at the call
/// site via `split_at_mut`-style decomposition).
pub fn par_for_each_slice<T: Send>(slices: Vec<&mut [T]>, f: impl Fn(&mut [T]) + Sync) {
    let threads = num_threads();
    if threads <= 1 || slices.len() <= 1 {
        for s in slices {
            f(s);
        }
        return;
    }
    // Round-robin the slices across up to `threads` workers.
    let mut buckets: Vec<Vec<&mut [T]>> =
        (0..threads.min(slices.len())).map(|_| Vec::new()).collect();
    for (i, s) in slices.into_iter().enumerate() {
        let k = i % buckets.len();
        buckets[k].push(s);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    for s in bucket {
                        f(s);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
}

/// Splits `items` at the given cut points (ascending, within bounds) and
/// returns the resulting disjoint mutable sub-slices.
pub fn split_at_many<'a, T>(mut items: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0;
    for &c in cuts {
        debug_assert!(c >= prev && c <= prev + items.len());
        let (head, tail) = items.split_at_mut(c - prev);
        out.push(head);
        items = tail;
        prev = c;
    }
    out.push(items);
    out
}

/// Sorts `items` by the cached f32 `key`, in parallel when worthwhile.
///
/// Builds an 8-byte `(key, index)` permutation, sorts it (chunked sort +
/// k-way merge across threads), and gathers `items` through it. Even
/// single-threaded this beats `sort_unstable_by` with a recomputed-key
/// comparator on wide items: comparisons touch 8 contiguous bytes instead
/// of recomputing geometry per probe.
pub fn par_sort_by_cached_key<T: Copy>(items: &mut [T], key: impl Fn(&T) -> f32 + Sync) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let threads = num_threads();
    if threads <= 1 || n < 1 << 14 {
        sort_by_cached_key_serial(items, key);
        return;
    }
    let mut perm: Vec<(f32, u32)> = items
        .iter()
        .enumerate()
        .map(|(i, t)| (key(t), i as u32))
        .collect();
    {
        // Chunked parallel sort, then iterative pairwise merge.
        let chunk = n.div_ceil(threads);
        let cuts: Vec<usize> = (1..threads).map(|i| (i * chunk).min(n)).collect();
        par_for_each_slice(split_at_many(&mut perm, &cuts), |s| {
            s.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        });
        let mut runs: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(n))
            .collect();
        runs.dedup();
        let mut buf: Vec<(f32, u32)> = Vec::with_capacity(n);
        while runs.len() > 2 {
            buf.clear();
            let mut next_runs = vec![0usize];
            let mut i = 0;
            while i + 2 < runs.len() {
                merge_runs(
                    &perm[runs[i]..runs[i + 1]],
                    &perm[runs[i + 1]..runs[i + 2]],
                    &mut buf,
                );
                next_runs.push(buf.len());
                i += 2;
            }
            if i + 1 < runs.len() {
                buf.extend_from_slice(&perm[runs[i]..runs[i + 1]]);
                next_runs.push(buf.len());
            }
            perm.copy_from_slice(&buf);
            runs = next_runs;
        }
    }

    let gathered: Vec<T> = perm.iter().map(|&(_, i)| items[i as usize]).collect();
    items.copy_from_slice(&gathered);
}

/// The serial cached-key sort: build the 8-byte `(key, index)` permutation,
/// sort it, gather. Shared by [`par_sort_by_cached_key`]'s single-thread
/// branch and by call sites that are already inside a parallel region and
/// must not fan out further (e.g. the per-slab STR sorts).
pub fn sort_by_cached_key_serial<T: Copy>(items: &mut [T], key: impl Fn(&T) -> f32) {
    if items.len() < 2 {
        return;
    }
    let mut perm: Vec<(f32, u32)> = items
        .iter()
        .enumerate()
        .map(|(i, t)| (key(t), i as u32))
        .collect();
    perm.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let gathered: Vec<T> = perm.iter().map(|&(_, i)| items[i as usize]).collect();
    items.copy_from_slice(&gathered);
}

fn merge_runs(a: &[(f32, u32)], b: &[(f32, u32)], out: &mut Vec<(f32, u32)>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0.total_cmp(&b[j].0).is_le() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_covers_everything() {
        let data: Vec<u64> = (0..10_000).collect();
        let partials = par_map_chunks(&data, 64, |_, c| c.iter().sum::<u64>());
        let total: u64 = partials.into_iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
        assert!(par_map_chunks(&[] as &[u64], 8, |_, c| c.len()).is_empty());
    }

    #[test]
    fn map_chunks_offsets_are_correct() {
        let data: Vec<u32> = (0..5000).collect();
        let checks = par_map_chunks(&data, 16, |offset, c| {
            c.iter().enumerate().all(|(i, &v)| v as usize == offset + i)
        });
        assert!(checks.into_iter().all(|ok| ok));
    }

    #[test]
    fn split_and_parallel_slices() {
        let mut data: Vec<u32> = (0..100).collect();
        let slices = split_at_many(&mut data, &[10, 40, 40, 90]);
        assert_eq!(
            slices.iter().map(|s| s.len()).collect::<Vec<_>>(),
            vec![10, 30, 0, 50, 10]
        );
        par_for_each_slice(slices, |s| {
            for v in s.iter_mut() {
                *v += 1;
            }
        });
        assert_eq!(data, (1..101).collect::<Vec<u32>>());
    }

    #[test]
    fn cached_key_sort_sorts() {
        let mut items: Vec<(f32, u64)> = (0..50_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                ((h % 100_000) as f32 * 0.25 - 12_500.0, i)
            })
            .collect();
        par_sort_by_cached_key(&mut items, |t| t.0);
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(items.len(), 50_000);
    }
}
