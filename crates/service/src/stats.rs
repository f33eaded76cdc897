//! Service-level observability: queue depth, coalescing effectiveness,
//! per-request latency and the aggregated execution accounting.

use simspatial_geom::stats::PredicateCounts;
use std::time::Duration;

/// Number of power-of-two latency buckets (microsecond-indexed): bucket
/// `i` counts requests whose latency was below `2^i` µs, giving usable
/// percentiles from sub-microsecond up to ~35 minutes.
pub const LATENCY_BUCKETS: usize = 32;

/// Number of power-of-two batch-size buckets: bucket `i` counts dispatches
/// that coalesced `[2^i, 2^(i+1))` requests.
pub const BATCH_BUCKETS: usize = 16;

/// A log₂-bucketed latency histogram with exact count/sum/max — compact
/// enough to update under the stats lock on every completion, precise
/// enough for p50/p95/p99 summaries.
#[derive(Debug, Clone, Copy)]
pub struct LatencyHistogram {
    /// Requests recorded.
    pub count: u64,
    /// Sum of latencies, seconds.
    pub sum_s: f64,
    /// Largest latency, seconds.
    pub max_s: f64,
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one request latency.
    pub fn record(&mut self, latency: Duration) {
        let s = latency.as_secs_f64();
        self.count += 1;
        self.sum_s += s;
        self.max_s = self.max_s.max(s);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = if us == 0 {
            0
        } else {
            (u64::BITS - us.leading_zeros()) as usize
        };
        self.buckets[idx.min(LATENCY_BUCKETS - 1)] += 1;
    }

    /// Mean latency in seconds (0 when nothing was recorded).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile latency in seconds
    /// (`q` in `[0, 1]`): the upper edge of the histogram bucket the
    /// quantile falls in, never above [`LatencyHistogram::max_s`]. 0 when
    /// nothing was recorded.
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket i spans latencies below 2^i µs.
                return ((1u64 << i) as f64 * 1e-6).min(self.max_s);
            }
        }
        self.max_s
    }
}

/// Per-tenant admission/completion accounting for multi-tenant front
/// ends. The in-process service has no tenant dimension — every
/// [`ServiceStats`](crate::ServiceStats) it snapshots carries an empty
/// tenant list — but a front end multiplexing many clients onto the
/// intake queue (e.g. `simspatial-net`'s TCP server, which admits tenants
/// by weighted deficit round-robin) maintains one of these per declared
/// tenant and injects them into the snapshots it exports.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Tenant name as declared at handshake.
    pub name: String,
    /// Configured fair-admission weight (share of intake capacity under
    /// contention).
    pub weight: u32,
    /// Requests admitted into the shared intake queue on this tenant's
    /// behalf.
    pub admitted: u64,
    /// Requests shed before admission (staging quota exceeded) and
    /// answered with a protocol-level retry hint.
    pub shed: u64,
    /// Admitted requests that completed with a successful response.
    pub completed: u64,
    /// Admitted requests that completed with a typed error.
    pub failed: u64,
    /// Stage→completion latency distribution (includes fair-admission
    /// queueing, so a starved tenant shows up here, not just in `shed`).
    pub latency: LatencyHistogram,
}

/// A point-in-time snapshot of the service counters, returned by
/// [`ServiceHandle::stats`](crate::ServiceHandle::stats) and
/// [`SpatialService::stats`](crate::SpatialService::stats).
///
/// Everything a load test or operator dashboard needs: admission counters
/// and queue depth (backpressure), the batch-size histogram (is coalescing
/// actually forming big batches?), per-request latency percentiles, the
/// aggregated [`QueryStats`](simspatial_index::QueryStats)-style execution
/// accounting, and the backend's structure sizes.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed (responses delivered or abandoned by the client).
    pub completed: u64,
    /// Nonblocking submissions rejected because the queue was full.
    pub rejected: u64,
    /// Requests currently queued (admission-time gauge).
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: usize,
    /// Scheduler dispatch cycles executed.
    pub dispatches: u64,
    /// Total requests over all dispatches (`/ dispatches` = mean coalesced
    /// batch size).
    pub coalesced_requests: u64,
    /// Dispatches by coalesced request count: bucket `i` counts dispatches
    /// that drained `[2^i, 2^(i+1))` requests.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Seconds spent inside backend batch execution (excludes queueing).
    pub exec_elapsed_s: f64,
    /// Total results emitted across all dispatches.
    pub results: u64,
    /// Aggregated predicate counters across all dispatches.
    pub counts: PredicateCounts,
    /// Submit→completion latency distribution.
    pub latency: LatencyHistogram,
    /// Element updates applied through the write path (after
    /// last-write-wins coalescing of duplicate ids per application).
    pub updates_applied: u64,
    /// Elements whose shard set changed while applying updates (shard
    /// migrations; always 0 on one shard).
    pub migrations: u64,
    /// Updates not applied: unknown ids plus superseded duplicates.
    pub updates_skipped: u64,
    /// Element updates shipped into shard lanes before the executor
    /// decided what to touch. `updates_shipped / structural_touches` is
    /// the write-amplification ratio: a rebuild charges every surviving
    /// element, an incremental application only the dirty cells/nodes.
    pub updates_shipped: u64,
    /// Elements structurally touched while applying writes (moved between
    /// cells/nodes, reinserted, or rewritten by a rebuild).
    pub structural_touches: u64,
    /// Updates absorbed in place by an incremental executor: geometry
    /// rewritten with no structural work at all.
    pub updates_absorbed: u64,
    /// Whole-shard index rebuilds performed by write applications.
    pub shard_rebuilds: u64,
    /// Shard write lanes served incrementally where the rebuild fallback
    /// would otherwise have run.
    pub rebuilds_avoided: u64,
    /// Membership changes applied in place: elements a shard took in or
    /// gave up (migrations, inserts, removals) by splicing its index
    /// instead of rebuilding.
    pub spliced: u64,
    /// Elements added through `Request::Insert` (planner-allocated ids).
    pub elements_inserted: u64,
    /// Elements tombstoned through `Request::Remove`.
    pub elements_removed: u64,
    /// Backend update applications executed (one per coalesced write run).
    pub update_dispatches: u64,
    /// Total element updates over all applications (`/ update_dispatches`
    /// = mean coalesced update batch size).
    pub coalesced_updates: u64,
    /// Update applications by coalesced update count: bucket `i` counts
    /// applications that carried `[2^i, 2^(i+1))` element updates.
    pub update_hist: [u64; BATCH_BUCKETS],
    /// Backend structure bytes (index + replicas + scratch + router),
    /// captured at service start and refreshed after every update
    /// application (so post-migration shrink is visible).
    pub memory_bytes: usize,
    /// Elements per backend shard (one entry for a one-shard backend);
    /// refreshed after every update application.
    pub shard_sizes: Vec<usize>,
    /// Panics caught anywhere in the serving path: shard-worker jobs
    /// supervised inside the backend plus backend panics that unwound to
    /// the dispatcher and were absorbed there.
    pub panics_caught: u64,
    /// Shards successfully rebuilt from the planner's element store after
    /// a panic.
    pub shard_restarts: u64,
    /// Shards declared dead (restart budget exhausted / no rebuild path).
    pub shards_dead: u64,
    /// Backend pool jobs executed by a worker other than the owner of the
    /// queue they were scattered to — how often work-stealing rebalanced
    /// an uneven shard split. Zero for a one-worker pool, which has no
    /// sibling to steal from.
    pub worker_steals: u64,
    /// Per-pool-worker cumulative busy time (nanoseconds executing shard
    /// jobs). The spread across entries shows load imbalance; a one-worker
    /// pool runs its jobs on the dispatcher and reports one entry. Empty
    /// for backends that run no shard jobs.
    pub worker_busy_ns: Vec<u64>,
    /// Requests completed with `RecvError::DeadlineExceeded` — shed in the
    /// queue or expired by completion time.
    pub deadline_expired: u64,
    /// Successful range/count responses that skipped dead shards (their
    /// results are lower bounds over the surviving shards).
    pub partial_responses: u64,
    /// Requests completed with `RecvError::WorkerFailed`.
    pub failed_requests: u64,
    /// The last published epoch (see [`Consistency`](crate::Consistency)).
    /// Epoch 0 publishes at service start; every applied write barrier
    /// publishes the next.
    pub current_epoch: u64,
    /// Epochs published over the service lifetime: `current_epoch + 1` by
    /// construction (the startup epoch plus one per write barrier).
    pub epochs_published: u64,
    /// Reads served at `Consistency::Snapshot`/`ReadYourWrites` at the last
    /// published epoch instead of on the barrier path.
    pub snapshot_reads: u64,
    /// Snapshot reads that were hoisted over at least one write barrier
    /// admitted before them in the same dispatch — reads whose (stale but
    /// consistent) answer is the relaxation's visible payoff: each one
    /// skipped waiting on a write application. `snapshot_reads -
    /// stale_reads` ran with no write pending anyway.
    pub stale_reads: u64,
    /// Bytes held by snapshot copies: always 0, because snapshot reads run
    /// against live state and no backend keeps a copy. Kept only because
    /// the benchmark still reads it.
    pub snapshot_clone_bytes: u64,
    /// Per-tenant admission accounting, populated by multi-tenant front
    /// ends (empty for in-process services — see [`TenantStats`]).
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// Mean number of requests coalesced per dispatch.
    pub fn mean_batch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.coalesced_requests as f64 / self.dispatches as f64
        }
    }

    /// Mean number of element updates coalesced per backend update
    /// application.
    pub fn mean_update_batch(&self) -> f64 {
        if self.update_dispatches == 0 {
            0.0
        } else {
            self.coalesced_updates as f64 / self.update_dispatches as f64
        }
    }

    /// Machine-readable JSON snapshot (hand-rolled — the offline build has
    /// no serde). Single line, stable key order; latency histograms are
    /// summarized as mean/p50/p95/p99/max in microseconds; new keys are
    /// appended, never inserted. This is the payload a `Stats` wire
    /// request returns.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(
            s,
            "\"submitted\":{},\"completed\":{},\"rejected\":{},\"queue_depth\":{},\"max_queue_depth\":{}",
            self.submitted, self.completed, self.rejected, self.queue_depth, self.max_queue_depth
        );
        let _ = write!(
            s,
            ",\"dispatches\":{},\"coalesced_requests\":{},\"mean_batch\":{:.3}",
            self.dispatches,
            self.coalesced_requests,
            self.mean_batch()
        );
        let _ = write!(
            s,
            ",\"exec_elapsed_s\":{:.6},\"results\":{}",
            self.exec_elapsed_s, self.results
        );
        s.push_str(",\"latency\":");
        latency_json(&mut s, &self.latency);
        let _ = write!(
            s,
            ",\"updates_applied\":{},\"migrations\":{},\"updates_skipped\":{},\"elements_inserted\":{},\"elements_removed\":{},\"spliced\":{}",
            self.updates_applied,
            self.migrations,
            self.updates_skipped,
            self.elements_inserted,
            self.elements_removed,
            self.spliced
        );
        let _ = write!(
            s,
            ",\"panics_caught\":{},\"shard_restarts\":{},\"shards_dead\":{},\"deadline_expired\":{},\"partial_responses\":{},\"failed_requests\":{}",
            self.panics_caught,
            self.shard_restarts,
            self.shards_dead,
            self.deadline_expired,
            self.partial_responses,
            self.failed_requests
        );
        let _ = write!(
            s,
            ",\"current_epoch\":{},\"epochs_published\":{},\"snapshot_reads\":{},\"stale_reads\":{},\"snapshot_clone_bytes\":{}",
            self.current_epoch,
            self.epochs_published,
            self.snapshot_reads,
            self.stale_reads,
            self.snapshot_clone_bytes,
        );
        let _ = write!(s, ",\"memory_bytes\":{}", self.memory_bytes);
        s.push_str(",\"shard_sizes\":[");
        for (i, sz) in self.shard_sizes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{sz}");
        }
        s.push_str("],\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"weight\":{},\"admitted\":{},\"shed\":{},\"completed\":{},\"failed\":{},\"latency\":",
                json_string(&t.name),
                t.weight,
                t.admitted,
                t.shed,
                t.completed,
                t.failed
            );
            latency_json(&mut s, &t.latency);
            s.push('}');
        }
        let _ = write!(
            s,
            "],\"updates_shipped\":{},\"structural_touches\":{},\"updates_absorbed\":{},\"shard_rebuilds\":{},\"rebuilds_avoided\":{},\"update_dispatches\":{},\"mean_update_batch\":{:.3},\"worker_steals\":{}",
            self.updates_shipped,
            self.structural_touches,
            self.updates_absorbed,
            self.shard_rebuilds,
            self.rebuilds_avoided,
            self.update_dispatches,
            self.mean_update_batch(),
            self.worker_steals
        );
        s.push_str(",\"worker_busy_ns\":[");
        for (i, ns) in self.worker_busy_ns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{ns}");
        }
        let _ = write!(
            s,
            "],\"tree_tests\":{},\"element_tests\":{}}}",
            self.counts.tree_tests, self.counts.element_tests
        );
        s
    }

    /// Multi-line human-readable summary (for examples and harnesses).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "requests: {} submitted, {} completed, {} rejected (queue depth {}, max {})\n",
            self.submitted, self.completed, self.rejected, self.queue_depth, self.max_queue_depth
        ));
        s.push_str(&format!(
            "dispatches: {} (mean batch {:.2} requests)\n",
            self.dispatches,
            self.mean_batch()
        ));
        s.push_str(&format!(
            "latency: mean {:.1}µs  p50 ≤{:.1}µs  p95 ≤{:.1}µs  p99 ≤{:.1}µs  max {:.1}µs\n",
            self.latency.mean_s() * 1e6,
            self.latency.quantile_s(0.50) * 1e6,
            self.latency.quantile_s(0.95) * 1e6,
            self.latency.quantile_s(0.99) * 1e6,
            self.latency.max_s * 1e6,
        ));
        s.push_str(&format!(
            "execution: {:.3}s in backend, {} results, {} tree / {} element tests\n",
            self.exec_elapsed_s, self.results, self.counts.tree_tests, self.counts.element_tests
        ));
        s.push_str(&format!(
            "writes: {} applied, {} migrations, {} skipped in {} applications (mean update batch {:.2})\n",
            self.updates_applied,
            self.migrations,
            self.updates_skipped,
            self.update_dispatches,
            self.mean_update_batch()
        ));
        s.push_str(&format!(
            "write amp: {} shipped → {} structural + {} absorbed ({} rebuilds, {} avoided, {} spliced); {} inserted, {} removed\n",
            self.updates_shipped,
            self.structural_touches,
            self.updates_absorbed,
            self.shard_rebuilds,
            self.rebuilds_avoided,
            self.spliced,
            self.elements_inserted,
            self.elements_removed,
        ));
        s.push_str(&format!(
            "failures: {} panics caught, {} shard restarts, {} shards dead, {} deadline-expired, {} failed, {} partial\n",
            self.panics_caught,
            self.shard_restarts,
            self.shards_dead,
            self.deadline_expired,
            self.failed_requests,
            self.partial_responses,
        ));
        s.push_str(&format!(
            "epochs: current {}, {} published, {} snapshot reads ({} stale)\n",
            self.current_epoch, self.epochs_published, self.snapshot_reads, self.stale_reads,
        ));
        if !self.worker_busy_ns.is_empty() {
            let busy_ms: Vec<String> = self
                .worker_busy_ns
                .iter()
                .map(|&ns| format!("{:.1}", ns as f64 / 1e6))
                .collect();
            s.push_str(&format!(
                "pool: {} workers, busy [{}] ms, {} steals\n",
                self.worker_busy_ns.len(),
                busy_ms.join(", "),
                self.worker_steals,
            ));
        }
        for t in &self.tenants {
            s.push_str(&format!(
                "tenant {}: weight {}, {} admitted, {} shed, {} completed, {} failed, p99 ≤{:.1}µs\n",
                t.name,
                t.weight,
                t.admitted,
                t.shed,
                t.completed,
                t.failed,
                t.latency.quantile_s(0.99) * 1e6,
            ));
        }
        s.push_str(&format!(
            "backend: {} bytes, shard sizes {:?}",
            self.memory_bytes, self.shard_sizes
        ));
        s
    }
}

/// Appends the JSON summary object of one latency histogram
/// (microsecond-scaled mean/p50/p95/p99/max plus the count).
fn latency_json(out: &mut String, h: &LatencyHistogram) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}",
        h.count,
        h.mean_s() * 1e6,
        h.quantile_s(0.50) * 1e6,
        h.quantile_s(0.95) * 1e6,
        h.quantile_s(0.99) * 1e6,
        h.max_s * 1e6,
    );
}

/// Minimal JSON string escaping for tenant names.
fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::default();
        for us in [1u64, 2, 4, 100, 100, 100, 100, 100, 10_000, 50_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count, 10);
        assert!(h.mean_s() > 0.0);
        // p50 falls in the 100µs cluster → upper bound 128µs.
        let p50 = h.quantile_s(0.5);
        assert!((100e-6..=256e-6).contains(&p50), "p50 = {p50}");
        // p99 falls at the 50ms outlier → bucket edge 65.536ms, clamped to
        // the recorded maximum.
        let p99 = h.quantile_s(0.99);
        assert!((50e-3..=128e-3).contains(&p99), "p99 = {p99}");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(h.quantile_s(q) <= h.max_s, "q = {q}");
        }
        assert!(h.quantile_s(0.0) > 0.0);
        assert_eq!(LatencyHistogram::default().quantile_s(0.5), 0.0);
    }

    #[test]
    fn mean_batch_handles_zero() {
        assert_eq!(ServiceStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn stats_json_shape() {
        let mut stats = ServiceStats {
            submitted: 7,
            completed: 6,
            ..ServiceStats::default()
        };
        stats.latency.record(Duration::from_micros(120));
        stats.shard_sizes = vec![3, 4];
        stats.updates_shipped = 11;
        stats.worker_busy_ns = vec![5, 6];
        stats.counts.tree_tests = 12;
        stats.counts.element_tests = 34;
        stats.tenants.push(TenantStats {
            name: "si\"m".into(),
            weight: 9,
            admitted: 5,
            shed: 2,
            ..TenantStats::default()
        });
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"submitted\":7"), "{json}");
        assert!(json.contains("\"shard_sizes\":[3,4]"), "{json}");
        assert!(json.contains("\"name\":\"si\\\"m\""), "{json}");
        assert!(json.contains("\"weight\":9"), "{json}");
        assert!(json.contains("\"shed\":2"), "{json}");
        assert!(json.contains("\"p99_us\""), "{json}");
        // The write-amplification, pool and predicate counters `summary()`
        // prints.
        assert!(json.contains("\"updates_shipped\":11"), "{json}");
        assert!(json.contains("\"worker_busy_ns\":[5,6],"), "{json}");
        assert!(
            json.ends_with("\"tree_tests\":12,\"element_tests\":34}"),
            "{json}"
        );
        for key in [
            "structural_touches",
            "updates_absorbed",
            "shard_rebuilds",
            "rebuilds_avoided",
            "update_dispatches",
            "mean_update_batch",
            "worker_steals",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "{key} missing: {json}"
            );
        }
        assert!(!json.contains('\n'), "single line: {json}");
    }
}
