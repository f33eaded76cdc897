//! Service-level observability: queue depth, coalescing effectiveness,
//! per-request latency and the aggregated execution accounting.
//!
//! [`ServiceStats`] and [`TenantStats`] are each declared by one table that
//! also generates their JSON and summary: a counter is added by one table
//! row plus its increment.

use simspatial_geom::stats::PredicateCounts;
use std::fmt::{Display, Write as _};
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

    /// Mean, p50, p95, p99 and max latency, in microseconds.
    fn summary_us(&self) -> [f64; 5] {
        let q = |q| self.quantile_s(q);
        [self.mean_s(), q(0.50), q(0.95), q(0.99), self.max_s].map(|s| s * 1e6)
    }
}

/// Declares a stats struct from one table of rows and implements `Table`
/// for it. A field row is `/// doc` then `pub name: Type => "group"
/// "label",`. A derived row, `fn method => "group" "label",`, writes the
/// method's value in its place without adding a field. Since the two
/// kinds interleave, rows are consumed one at a time into the field list
/// and the visit list.
macro_rules! stats_table {
    (@rows $name:ident $head:tt [$($fields:tt)*] [$($rows:tt)*]
        $(#[$doc:meta])* pub $f:ident: $ty:ty => $group:literal $label:literal, $($rest:tt)*) => {
        stats_table!(@rows $name $head [$($fields)* $(#[$doc])* pub $f: $ty,]
            [$($rows)* [$f ($f) $group $label]] $($rest)*);
    };
    (@rows $name:ident $head:tt [$($fields:tt)*] [$($rows:tt)*]
        fn $f:ident => $group:literal $label:literal, $($rest:tt)*) => {
        stats_table!(@rows $name $head [$($fields)*]
            [$($rows)* [$f ($f()) $group $label]] $($rest)*);
    };
    (@rows $name:ident [$($head:tt)*] [$($fields:tt)*]
        [$([$f:ident ($($value:tt)*) $group:literal $label:literal])*]) => {
        $($head)* pub struct $name { $($fields)* }

        impl Table for $name {
            fn visit(&self, visit: &mut dyn FnMut(&str, &dyn StatValue, &'static str, &str)) {
                $(visit(stringify!($f), &self.$($value)*, $group, $label);)*
            }
        }
    };
    ($(#[$meta:meta])* pub struct $name:ident { $($rows:tt)* }) => {
        stats_table!(@rows $name [$(#[$meta])*] [] [] $($rows)*);
    };
}

stats_table! {
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
        pub name: String => "tenant" "",
        /// Configured fair-admission weight (share of intake capacity under
        /// contention).
        pub weight: u32 => "tenant" "weight",
        /// Requests admitted into the shared intake queue on this tenant's
        /// behalf.
        pub admitted: u64 => "tenant" "admitted",
        /// Requests shed before admission (staging quota exceeded) and
        /// answered with a protocol-level retry hint.
        pub shed: u64 => "tenant" "shed",
        /// Admitted requests that completed with a successful response.
        pub completed: u64 => "tenant" "completed",
        /// Admitted requests that completed with a typed error.
        pub failed: u64 => "tenant" "failed",
        /// Stage→completion latency distribution (includes fair-admission
        /// queueing, so a starved tenant shows up here, not just in `shed`).
        pub latency: LatencyHistogram => "tenant" "requests",
    }
}

stats_table! {
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
        pub submitted: u64 => "requests" "submitted",
        /// Requests completed (responses delivered or abandoned by the client).
        pub completed: u64 => "requests" "completed",
        /// Nonblocking submissions rejected because the queue was full.
        pub rejected: u64 => "requests" "rejected",
        /// Requests currently queued (admission-time gauge).
        pub queue_depth: usize => "requests" "queued",
        /// High-water mark of `queue_depth`.
        pub max_queue_depth: usize => "requests" "max queued",
        /// Scheduler dispatch cycles executed.
        pub dispatches: u64 => "dispatch" "cycles",
        /// Total requests over all dispatches (`/ dispatches` = mean coalesced
        /// batch size).
        pub coalesced_requests: u64 => "dispatch" "requests",
        fn mean_batch => "dispatch" "mean batch",
        /// Seconds spent inside backend batch execution (excludes queueing).
        pub exec_elapsed_s: f64 => "execution" "s in backend",
        /// Total results emitted across all dispatches.
        pub results: u64 => "execution" "results",
        /// Submit→completion latency distribution.
        pub latency: LatencyHistogram => "latency" "requests",
        /// Element updates applied through the write path (after
        /// last-write-wins coalescing of duplicate ids per application).
        pub updates_applied: u64 => "writes" "applied",
        /// Elements whose shard set changed while applying updates (shard
        /// migrations; always 0 on one shard).
        pub migrations: u64 => "writes" "migrations",
        /// Updates not applied: unknown ids plus superseded duplicates.
        pub updates_skipped: u64 => "writes" "skipped",
        /// Elements added through `Request::Insert` (planner-allocated ids).
        pub elements_inserted: u64 => "writes" "inserted",
        /// Elements tombstoned through `Request::Remove`.
        pub elements_removed: u64 => "writes" "removed",
        /// Membership changes applied in place: elements a shard took in or
        /// gave up (migrations, inserts, removals) by splicing its index
        /// instead of rebuilding.
        pub spliced: u64 => "write amp" "spliced",
        /// Panics caught anywhere in the serving path: shard-worker jobs
        /// supervised inside the backend plus backend panics that unwound to
        /// the dispatcher and were absorbed there.
        pub panics_caught: u64 => "failures" "panics caught",
        /// Shards successfully restarted from their own element clones after
        /// a panic.
        pub shard_restarts: u64 => "failures" "shard restarts",
        /// Shards declared dead (restart budget exhausted / no rebuild path).
        pub shards_dead: u64 => "failures" "shards dead",
        /// Requests completed with `RecvError::DeadlineExceeded` — shed in the
        /// queue or expired by completion time.
        pub deadline_expired: u64 => "failures" "deadline-expired",
        /// Successful range/count responses that skipped dead shards (their
        /// results are lower bounds over the surviving shards).
        pub partial_responses: u64 => "failures" "partial",
        /// Requests completed with `RecvError::WorkerFailed`.
        pub failed_requests: u64 => "failures" "failed",
        /// The last published epoch (see [`Consistency`](crate::Consistency)).
        /// Epoch 0 publishes at service start; every applied write run
        /// publishes the next.
        pub current_epoch: u64 => "epochs" "current",
        /// Epochs published over the service lifetime: `current_epoch + 1` by
        /// construction (the startup epoch plus one per applied write run).
        pub epochs_published: u64 => "epochs" "published",
        /// Reads served at `Consistency::Snapshot`/`ReadYourWrites` at the last
        /// published epoch instead of on the barrier path.
        pub snapshot_reads: u64 => "epochs" "snapshot reads",
        /// Snapshot reads that were hoisted over at least one write barrier
        /// admitted before them in the same dispatch — reads whose (stale but
        /// consistent) answer is the relaxation's visible payoff: each one
        /// skipped waiting on a write application. `snapshot_reads -
        /// stale_reads` ran with no write pending anyway.
        pub stale_reads: u64 => "epochs" "stale",
        /// Bytes held by snapshot copies: always 0, because snapshot reads run
        /// against live state and no backend keeps a copy. Kept only because
        /// the benchmark still reads it.
        pub snapshot_clone_bytes: u64 => "epochs" "snapshot clone bytes",
        /// Backend structure bytes (index + replicas + scratch + router),
        /// captured at service start and read from the backend again at the
        /// end of every run, read or write (so read scratch growth and
        /// post-migration shrink are both visible).
        pub memory_bytes: usize => "backend" "bytes",
        /// Elements per backend shard (one entry for a one-shard backend);
        /// read from the backend at the end of every run.
        pub shard_sizes: Vec<usize> => "backend" "shards, sizes",
        /// Per-tenant admission accounting, populated by multi-tenant front
        /// ends (empty for in-process services — see [`TenantStats`]).
        pub tenants: Vec<TenantStats> => "tenants" "declared",
        /// Element updates shipped into shard lanes before the executor
        /// decided what to touch. `updates_shipped / structural_touches` is
        /// the write-amplification ratio: a rebuild charges every surviving
        /// element, an incremental application only the dirty cells/nodes.
        pub updates_shipped: u64 => "write amp" "shipped",
        /// Elements structurally touched while applying writes (moved between
        /// cells/nodes, reinserted, or rewritten by a rebuild).
        pub structural_touches: u64 => "write amp" "structural",
        /// Updates absorbed in place by an incremental executor: geometry
        /// rewritten with no structural work at all.
        pub updates_absorbed: u64 => "write amp" "absorbed",
        /// Whole-shard index rebuilds performed by write applications.
        pub shard_rebuilds: u64 => "write amp" "rebuilds",
        /// Shard write lanes served incrementally where the rebuild fallback
        /// would otherwise have run.
        pub rebuilds_avoided: u64 => "write amp" "rebuilds avoided",
        /// Backend update applications executed (one per coalesced write run).
        pub update_dispatches: u64 => "writes" "applications",
        fn mean_update_batch => "writes" "mean update batch",
        /// Backend pool jobs executed by a worker other than the owner of the
        /// queue they were scattered to — how often work-stealing rebalanced
        /// an uneven shard split, counting the jobs the dispatcher (worker 0)
        /// took from a pool thread's queue. Zero for a one-worker pool, which
        /// has no sibling to steal from.
        pub worker_steals: u64 => "steals" "pool jobs",
        /// Per-pool-worker cumulative busy time (nanoseconds executing shard
        /// jobs). The spread across entries shows load imbalance. Entry 0 is
        /// the dispatcher, which runs lanes while it gathers a wave; entries
        /// 1.. are the pool threads, so a one-worker pool reports one entry.
        /// Empty for backends that run no shard jobs.
        pub worker_busy_ns: Vec<u64> => "pool" "workers, busy ns",
        /// Dispatches by coalesced request count: bucket `i` counts dispatches
        /// that drained `[2^i, 2^(i+1))` requests.
        pub batch_hist: [u64; BATCH_BUCKETS] => "dispatch" "batch-size buckets",
        /// Total element updates over all applications (`/ update_dispatches`
        /// = mean coalesced update batch size).
        pub coalesced_updates: u64 => "writes" "updates coalesced",
        /// Update applications by coalesced update count: bucket `i` counts
        /// applications that carried `[2^i, 2^(i+1))` element updates.
        pub update_hist: [u64; BATCH_BUCKETS] => "writes" "update-size buckets",
        /// Aggregated predicate counters across all dispatches.
        pub counts: PredicateCounts => "execution" "tests",
    }
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
    /// no serde). Single line, one member per table row in table order,
    /// with the predicate counters (`tree_tests`, `element_tests`) last;
    /// latency histograms are summarized as mean/p50/p95/p99/max in
    /// microseconds. This is the payload a `Stats` wire request returns.
    pub fn to_json(&self) -> String {
        json_object(self)
    }

    /// Multi-line human-readable summary (for examples and harnesses): one
    /// `group: value label, …` line per summary group.
    pub fn summary(&self) -> String {
        summary_lines(self)
    }
}

/// A struct declared by `stats_table!`.
trait Table {
    /// Calls `visit(key, value, group, label)` per row, in table order.
    fn visit(&self, visit: &mut dyn FnMut(&str, &dyn StatValue, &'static str, &str));
}

/// `table` as one JSON object: each row's member in table order.
fn json_object(table: &dyn Table) -> String {
    let mut out = String::from("{");
    let mut sep = "";
    table.visit(&mut |key, value, _, _| {
        out.push_str(std::mem::replace(&mut sep, ","));
        value.member(key, &mut out);
    });
    out.push('}');
    out
}

/// `table`'s summary: one `group: value label, …` line per group, groups
/// in order of first appearance.
fn summary_lines(table: &dyn Table) -> String {
    let mut lines: Vec<(&str, String)> = Vec::new();
    table.visit(&mut |_, value, group, label| {
        let i = lines
            .iter()
            .position(|(g, _)| *g == group)
            .unwrap_or_else(|| {
                lines.push((group, String::new()));
                lines.len() - 1
            });
        let line = &mut lines[i].1;
        if !line.is_empty() {
            line.push_str(", ");
        }
        value.text(label, line);
    });
    let lines: Vec<String> = lines
        .iter()
        .map(|(g, line)| format!("{g}: {line}"))
        .collect();
    lines.join("\n")
}

/// How a row's value is written: as a JSON member and as a summary item.
trait StatValue {
    /// Appends the JSON value.
    fn json(&self, out: &mut String);

    /// Appends the JSON member `"key":value`.
    fn member(&self, key: &str, out: &mut String) {
        let _ = write!(out, "\"{key}\":");
        self.json(out);
    }

    /// Appends the summary item, `value label`.
    fn text(&self, label: &str, out: &mut String);
}

/// Appends `value label`, or just `value` for an empty label.
fn labelled(out: &mut String, value: impl Display, label: &str) {
    let sep = if label.is_empty() { "" } else { " " };
    let _ = write!(out, "{value}{sep}{label}");
}

/// Numbers: JSON at full precision, summary text in the given format.
macro_rules! number_values {
    ($($t:ty => $text:literal),*) => {$(
        impl StatValue for $t {
            fn json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn text(&self, label: &str, out: &mut String) {
                labelled(out, format_args!($text, self), label);
            }
        }
    )*};
}

number_values!(u32 => "{}", u64 => "{}", usize => "{}", f64 => "{:.3}");

/// Lists: a JSON array, and `len label [items]` as summary text.
macro_rules! list_values {
    ($([$($generics:tt)*] $t:ty),*) => {$(
        impl<$($generics)*> StatValue for $t {
            fn json(&self, out: &mut String) {
                out.push('[');
                for (i, item) in self.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    item.json(out);
                }
                out.push(']');
            }
            fn text(&self, label: &str, out: &mut String) {
                labelled(out, self.len(), label);
                out.push_str(" [");
                for (i, item) in self.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.text("", out);
                }
                out.push(']');
            }
        }
    )*};
}

list_values!([T: StatValue] Vec<T>, [T: StatValue, const N: usize] [T; N]);

/// Tenants: nested objects, and one indented summary line each.
impl StatValue for Vec<TenantStats> {
    fn json(&self, out: &mut String) {
        let objects: Vec<String> = self.iter().map(|t| json_object(t)).collect();
        let _ = write!(out, "[{}]", objects.join(","));
    }
    fn text(&self, label: &str, out: &mut String) {
        labelled(out, self.len(), label);
        for tenant in self {
            let _ = write!(out, "\n  {}", summary_lines(tenant));
        }
    }
}

/// Minimal JSON string escaping (tenant names).
impl StatValue for String {
    fn json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
    }
    fn text(&self, label: &str, out: &mut String) {
        labelled(out, self, label);
    }
}

/// A histogram writes microsecond-scaled mean/p50/p95/p99/max plus the
/// count.
impl StatValue for LatencyHistogram {
    fn json(&self, out: &mut String) {
        let [mean, p50, p95, p99, max] = self.summary_us();
        let _ = write!(
            out,
            "{{\"count\":{},\"mean_us\":{mean:.1},\"p50_us\":{p50:.1},\"p95_us\":{p95:.1},\"p99_us\":{p99:.1},\"max_us\":{max:.1}}}",
            self.count
        );
    }
    fn text(&self, label: &str, out: &mut String) {
        let [mean, p50, p95, p99, max] = self.summary_us();
        let _ = write!(
            out,
            "mean {mean:.1}µs p50 ≤{p50:.1}µs p95 ≤{p95:.1}µs p99 ≤{p99:.1}µs max {max:.1}µs over "
        );
        labelled(out, self.count, label);
    }
}

/// The predicate counters flatten into two top-level members,
/// `tree_tests` and `element_tests`.
impl StatValue for PredicateCounts {
    fn json(&self, out: &mut String) {
        out.push('{');
        self.member("", out);
        out.push('}');
    }
    fn member(&self, _key: &str, out: &mut String) {
        let _ = write!(
            out,
            "\"tree_tests\":{},\"element_tests\":{}",
            self.tree_tests, self.element_tests
        );
    }
    fn text(&self, label: &str, out: &mut String) {
        let (tree, element) = (self.tree_tests, self.element_tests);
        labelled(out, format_args!("{tree} tree / {element} element"), label);
    }
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
