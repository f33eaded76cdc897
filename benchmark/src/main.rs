//! `simspatial-benchmark` — the repository's end-to-end + per-layer
//! benchmark. See `benchmark/README.md` for what each workload isolates,
//! how the metrics interact and why the estimator is the fast-quartile
//! round.
//!
//! ```text
//! simspatial-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      [--corrupt-oracle]
//! simspatial-benchmark --smoke [--seed <n>] [--corrupt-oracle]
//! ```
//!
//! Prints one line per metric (`workload name value unit`), a `host {...}`
//! line, and last the contract's JSON summary. Exits non-zero when any
//! reply was wrong, refused or failed.

mod data;
mod host;
mod ladder;
mod oracle;
mod reference;
mod stats;
mod trace;
mod workloads;

use data::Inputs;
use oracle::Tally;
use reference::Yardstick;
use simspatial_service::ServiceStats;
use stats::{fast_quartile, percentile, rel_iqr, Better};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;
use workloads::{metric, Kind, Metric, Round, Stack, WINDOW};

/// `SIMSPATIAL_THREADS`, pinned: the shard pool gets `min(2, 4 shards)`
/// workers and the parallel build helpers two threads, whatever the host.
const THREADS: usize = 2;
const ROUNDS: usize = 12;
const SETUP_REPS: usize = 12;
/// Share of a round's wall time that is workload (the rest is yardstick).
const WORK_SHARE: f64 = 0.82;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_oracle: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simspatial-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--corrupt-oracle]\n       simspatial-benchmark --smoke [--seed <n>] [--corrupt-oracle]",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        corrupt_oracle: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(Kind::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || (args.workload.is_none() && !args.smoke)
    {
        usage();
    }
    args
}

/// How much of everything one workload measurement does.
struct Plan {
    warmup: usize,
    rounds: usize,
    setup_reps: usize,
    /// Cycles of the request pattern per round — fixed work, a function of
    /// `--seconds` alone.
    cycles: usize,
    /// Follow every measured round with an untraced twin (traced run of
    /// the workload under test: gives `trace_overhead_frac`).
    twin: bool,
    /// Record spans, and take the stack's probe measurements afterwards.
    traced: bool,
}

impl Plan {
    /// 1 discarded warm-up round + 12 measured rounds that together take
    /// ≈ `seconds` on the reference host.
    fn full(kind: Kind, seconds: f64) -> Plan {
        let per_round = kind.nominal_cycles_per_s() * WORK_SHARE * seconds / (ROUNDS + 1) as f64;
        let quantum = kind.cycle_quantum();
        // Only the simulation must stay on whole script cycles; the read
        // workloads just need their quantum of samples.
        let cycles = match kind {
            Kind::SimMixed => (per_round / quantum as f64).round().max(1.0) as usize * quantum,
            _ => (per_round.round() as usize).max(quantum),
        };
        Plan {
            warmup: 1,
            rounds: ROUNDS,
            setup_reps: SETUP_REPS,
            cycles,
            twin: false,
            traced: false,
        }
    }

    /// The traced run: same rounds, fewer of them, one build.
    fn traced(kind: Kind, seconds: f64, under_test: bool) -> Plan {
        Plan {
            rounds: 3,
            setup_reps: 1,
            twin: under_test,
            traced: true,
            ..Plan::full(kind, seconds)
        }
    }

    /// `--smoke`: one short round, oracle on.
    fn smoke(kind: Kind) -> Plan {
        Plan {
            warmup: 0,
            rounds: 1,
            setup_reps: 1,
            cycles: match kind {
                Kind::SimMixed => kind.cycle_quantum(),
                _ => (kind.nominal_cycles_per_s() * 0.2) as usize,
            },
            twin: false,
            traced: false,
        }
    }
}

/// Everything one workload measurement produced.
struct Measured {
    kind: Kind,
    cycles: usize,
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// Untraced twins of `rounds` (empty unless `Plan::twin`).
    twins: Vec<Round>,
    mem_bytes: usize,
    /// Service counters before and after the measured rounds.
    stats: Option<(ServiceStats, ServiceStats)>,
    probes: Vec<Metric>,
    tracer: Tracer,
    tally: Tally,
}

fn measure(kind: Kind, inputs: &mut Inputs, plan: &Plan, corrupt_oracle: bool) -> Measured {
    let prepared = workloads::prepare(kind, inputs, corrupt_oracle);
    let yard_probes = inputs.boxes(reference::PASS_BOXES);
    let mut yardstick = Yardstick::build(&inputs.elements, &yard_probes);
    // How slow the host is right now: the yardstick's pass time over its
    // nominal time, and that ratio with the workloads' gain.
    let mut pass_ratio = move || yardstick.pass_ratio();
    let inputs: &Inputs = inputs;
    let mut tally = Tally::default();

    // setup_s: inputs in memory → first reply served, several full builds,
    // each divided by the mean pass ratio around it.
    let mut setup_s = Vec::with_capacity(plan.setup_reps);
    let mut stack: Option<Box<dyn Stack + '_>> = None;
    let mut before = pass_ratio();
    for _ in 0..plan.setup_reps {
        if let Some(previous) = stack.take() {
            previous.shutdown(&mut tally);
            before = pass_ratio();
        }
        let started = Instant::now();
        stack = Some(workloads::build(kind, inputs, &prepared, &mut tally));
        let built_s = started.elapsed().as_secs_f64();
        let after = pass_ratio();
        setup_s.push(built_s / ((before + after) / 2.0));
        before = after;
    }
    let mut stack = stack.expect("at least one build");
    let mut host_now = move || pass_ratio().powf(reference::GAIN);
    let mut edge = before.powf(reference::GAIN);

    // A round is `plan.cycles` cycles driven in segments of ~120 ms, with
    // one yardstick pass before, between and after them; each segment's
    // timings are normalised by the mean of the two passes around it.
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(plan.traced);
    let step = kind.segment_cycles();
    let mut run_round = |stack: &mut Box<dyn Stack + '_>,
                         tracer: &mut Tracer,
                         tally: &mut Tally| {
        let mut round = Round::default();
        for first in (0..plan.cycles).step_by(step) {
            let mut segment = stack.segment(first..(first + step).min(plan.cycles), tracer, tally);
            let after = host_now();
            segment.normalise((edge + after) / 2.0);
            edge = after;
            round.absorb(segment);
        }
        round
    };
    for _ in 0..plan.warmup {
        run_round(&mut stack, &mut off, &mut tally);
    }
    let before = stack.service_stats();
    let (mut rounds, mut twins) = (Vec::new(), Vec::new());
    for _ in 0..plan.rounds {
        rounds.push(run_round(&mut stack, &mut tracer, &mut tally));
        if plan.twin {
            twins.push(run_round(&mut stack, &mut off, &mut tally));
        }
    }
    let stats = before.zip(stack.service_stats());
    let mem_bytes = stack.memory_bytes();
    let mut probes = Vec::new();
    if plan.traced {
        stack.probe(inputs, &mut probes);
    }
    stack.shutdown(&mut tally);
    Measured {
        kind,
        cycles: plan.cycles,
        setup_s,
        rounds,
        twins,
        mem_bytes,
        stats,
        probes,
        tracer,
        tally,
    }
}

/// Per-round series of `f`, reduced to the fast-quartile round.
fn per_round(rounds: &[Round], better: Better, f: impl Fn(&Round) -> f64) -> f64 {
    let series: Vec<f64> = rounds.iter().map(f).collect();
    fast_quartile(&series, better)
}

fn latency(samples: &[f64], p: f64) -> f64 {
    percentile(&mut samples.to_vec(), p)
}

/// Fewest samples a round needs for its own p95 (ten beyond it).
const ROUND_SAMPLES: usize = 200;

/// A latency percentile of one request class: per round and then the
/// fast-quartile round, when every round holds enough samples for its own
/// p95; otherwise over the measured rounds pooled (`sim_mixed` has 16
/// write acks a round, 192 a run — still ten beyond the p95).
fn latency_metric(rounds: &[Round], class: fn(&Round) -> &Vec<f64>, p: f64) -> f64 {
    if rounds.iter().all(|r| class(r).len() >= ROUND_SAMPLES) {
        per_round(rounds, Better::Lower, |r| latency(class(r), p))
    } else {
        let mut pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|r| class(r).iter().copied())
            .collect();
        percentile(&mut pooled, p)
    }
}

fn qps(r: &Round) -> f64 {
    r.queries as f64 / r.wall_s
}

/// The eight end-to-end metrics. Every workload reports all of them (the
/// benchmark contract requires it); the README says what `tick_*` and
/// `write_*` stand for on the workloads that have no simulation tick. The
/// two p95 latencies could not hold a bound on a shared host and are
/// reported by the traced run (`tail_latencies`).
fn end_to_end(m: &Measured, elements: usize) -> Vec<Metric> {
    let r = &m.rounds;
    vec![
        metric("setup_s", fast_quartile(&m.setup_s, Better::Lower), "s"),
        metric("read_qps", per_round(r, Better::Higher, qps), "query/s"),
        metric("read_p50_us", latency_metric(r, |r| &r.read_us, 0.50), "us"),
        metric(
            "cpu_us_per_query",
            per_round(r, Better::Lower, |r| r.cpu_s * 1e6 / r.queries as f64),
            "us",
        ),
        metric(
            "tick_rate",
            per_round(r, Better::Higher, |r| r.cycles as f64 / r.wall_s),
            "tick/s",
        ),
        metric(
            "write_p50_us",
            latency_metric(r, |r| &r.other_us, 0.50),
            "us",
        ),
        metric(
            "cpu_ms_per_tick",
            per_round(r, Better::Lower, |r| r.cpu_s * 1e3 / r.cycles as f64),
            "ms",
        ),
        metric(
            "mem_bytes_per_elem",
            m.mem_bytes as f64 / elements as f64,
            "B",
        ),
    ]
}

/// `read_p95_us` / `write_p95_us` of a set of rounds.
fn tail_latencies(rounds: &[Round]) -> [Metric; 2] {
    [
        metric(
            "read_p95_us",
            latency_metric(rounds, |r| &r.read_us, 0.95),
            "us",
        ),
        metric(
            "write_p95_us",
            latency_metric(rounds, |r| &r.other_us, 0.95),
            "us",
        ),
    ]
}

/// Spans and counters on a workload itself (traced run).
fn layer_metrics(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    // Counters and spans are raw, so they are set against the raw clock.
    let wall_s: f64 = m.rounds.iter().chain(&m.twins).map(|r| r.raw_wall_s).sum();
    let ticks: u64 = m.rounds.iter().chain(&m.twins).map(|r| r.cycles).sum();
    let delta = |f: fn(&ServiceStats) -> u64| {
        let (before, after) = m.stats.as_ref().expect("service workload has stats");
        (f(after) - f(before)) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    match m.kind {
        Kind::EngineBatch => {}
        Kind::SvcRead => {
            let (before, after) = m.stats.as_ref().expect("service workload has stats");
            let busy_ns: u64 = after
                .worker_busy_ns
                .iter()
                .zip(&before.worker_busy_ns)
                .map(|(a, b)| a - b)
                .sum();
            let workers = after.worker_busy_ns.len().max(1) as f64;
            out.push(metric(
                "service.submit_us",
                m.tracer.mean_us("service.submit"),
                "us",
            ));
            out.push(metric(
                "service.redeem_wait_us",
                m.tracer.mean_us("service.redeem_wait"),
                "us",
            ));
            out.push(metric(
                "service.coalesce_mean",
                ratio(delta(|s| s.coalesced_requests), delta(|s| s.dispatches)),
                "count",
            ));
            out.push(metric(
                "service.exec_share",
                (after.exec_elapsed_s - before.exec_elapsed_s) / wall_s,
                "ratio",
            ));
            out.push(metric(
                "service.worker_busy_frac",
                busy_ns as f64 / 1e9 / (workers * wall_s),
                "ratio",
            ));
            out.push(metric(
                "service.worker_steals",
                delta(|s| s.worker_steals),
                "count",
            ));
            out.push(metric(
                "service.queue_depth_max",
                after.max_queue_depth as f64,
                "count",
            ));
        }
        Kind::NetRead => {
            out.push(metric("net.send_us", m.tracer.mean_us("net.send"), "us"));
            out.push(metric(
                "net.recv_wait_us",
                m.tracer.mean_us("net.recv_wait"),
                "us",
            ));
        }
        Kind::SimMixed => {
            let (_, after) = m.stats.as_ref().expect("service workload has stats");
            // Raw (un-normalised) ack time per tick, like the counters.
            let ack_us: f64 = m
                .rounds
                .iter()
                .map(|r| r.other_us.iter().sum::<f64>() * r.host_factor())
                .sum();
            let measured_ticks: u64 = m.rounds.iter().map(|r| r.cycles).sum();
            let mean_ack_us = ack_us / measured_ticks as f64;
            let applied = delta(|s| s.updates_applied);
            let avoided = delta(|s| s.rebuilds_avoided);
            // Every request but the tick's one write is a monitor read.
            let reads = delta(|s| s.completed) - ticks as f64;
            out.push(metric(
                "sharded.write_us_per_update",
                mean_ack_us / ratio(applied, ticks as f64),
                "us",
            ));
            out.push(metric(
                "sharded.write_amp",
                ratio(delta(|s| s.structural_touches), applied),
                "ratio",
            ));
            out.push(metric(
                "sharded.migrations_per_tick",
                delta(|s| s.migrations) / ticks as f64,
                "count",
            ));
            out.push(metric(
                "sharded.rebuilds_avoided_frac",
                ratio(avoided, avoided + delta(|s| s.shard_rebuilds)),
                "ratio",
            ));
            // Movers are spread over all four shards, so every tick
            // re-forks every shard: the bytes held by the published copies
            // are the bytes one publish copies.
            out.push(metric(
                "service.publish_bytes_per_tick",
                after.snapshot_clone_bytes as f64,
                "B",
            ));
            out.push(metric(
                "service.snapshot_read_frac",
                ratio(delta(|s| s.snapshot_reads), reads),
                "ratio",
            ));
            out.push(metric(
                "service.stale_reads",
                delta(|s| s.stale_reads) / ticks as f64,
                "count",
            ));
        }
    }
    out.extend(&m.probes);
    out
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, json_number(m.value), m.unit);
    }
}

/// The `host {...}` line: what the numbers were measured on and with.
fn host_line(args: &Args, inputs: &Inputs, measured: &[&Measured]) -> String {
    let mut line = String::from("host {");
    let mut field = |key: &str, value: String| {
        let sep = if line.ends_with('{') { "" } else { "," };
        let _ = write!(line, "{sep}\"{key}\":{value}");
    };
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    field("seed", args.seed.to_string());
    field("seconds", json_number(args.seconds));
    field("elements", inputs.elements.len().to_string());
    field(
        "element_mb",
        json_number(inputs.element_bytes() as f64 / 1e6),
    );
    if let Some(l2) = host::l2_bytes() {
        field("l2_mb", json_number(l2 as f64 / 1e6));
    }
    field("nproc", host::nproc().to_string());
    field("simspatial_threads", THREADS.to_string());
    field("generators", "1".into());
    field("window", WINDOW.to_string());
    field(
        "simd",
        quoted(&format!("{:?}", simspatial_geom::simd::level())),
    );
    field("rustc", quoted(&host::rustc_version()));
    field("git_rev", quoted(&host::git_rev()));
    if let Some(rss) = host::peak_rss_mib() {
        field("peak_rss_mib", json_number(rss));
    }
    for m in measured {
        let r = &m.rounds;
        let series =
            |f: &dyn Fn(&Round) -> f64| json_number(rel_iqr(&r.iter().map(f).collect::<Vec<_>>()));
        let mut w = String::from("{");
        let _ = write!(
            w,
            "\"rounds\":{},\"cycles_per_round\":{},\"stack_mb\":{},\
             \"read_samples_per_round\":{},\"other_samples_per_round\":{},",
            r.len(),
            m.cycles,
            json_number(m.mem_bytes as f64 / 1e6),
            r[0].read_us.len(),
            r[0].other_us.len()
        );
        let raw_qps: Vec<f64> = r.iter().map(|r| r.queries as f64 / r.raw_wall_s).collect();
        let list = |items: Vec<String>| items.join(",");
        let _ = write!(
            w,
            "\"raw_read_qps\":{},\"round_raw_read_qps\":[{}],\"round_host_factor\":[{}],",
            json_number(fast_quartile(&raw_qps, Better::Higher)),
            list(raw_qps.iter().map(|q| format!("{q:.0}")).collect()),
            list(
                r.iter()
                    .map(|r| format!("{:.3}", r.host_factor()))
                    .collect()
            )
        );
        let _ = write!(
            w,
            "\"round_iqr\":{{\"read_qps\":{},\"read_p50_us\":{},\"read_p95_us\":{},\
             \"cpu_us_per_query\":{},\"write_p50_us\":{},\"write_p95_us\":{}}},\"setup_iqr\":{}}}",
            series(&qps),
            series(&|r| latency(&r.read_us, 0.50)),
            series(&|r| latency(&r.read_us, 0.95)),
            series(&|r| r.cpu_s / r.queries as f64),
            series(&|r| latency(&r.other_us, 0.50)),
            series(&|r| latency(&r.other_us, 0.95)),
            json_number(rel_iqr(&m.setup_s))
        );
        field(m.kind.name(), w);
    }
    line.push('}');
    line
}

/// The contract's last line.
fn summary_json(tally: Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

/// `--trace 0`: the end-to-end run of one workload.
fn run_end_to_end(args: &Args, kind: Kind, inputs: &mut Inputs) -> (Tally, Vec<Metric>) {
    let plan = Plan::full(kind, args.seconds);
    let m = measure(kind, inputs, &plan, args.corrupt_oracle);
    let metrics = end_to_end(&m, inputs.elements.len());
    print_metrics(kind.name(), &metrics);
    println!("{}", host_line(args, inputs, &[&m]));
    (m.tally, metrics)
}

/// `--trace 1`: spans and counters on the service workloads (and on the
/// workload under test), then the ladder.
fn run_traced(args: &Args, kind: Kind, inputs: &mut Inputs) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut runs = Vec::new();
    for k in Kind::ALL {
        // `engine_batch` has no layer of its own beyond the ladder's rungs;
        // it is traced only when it is the workload under test.
        if k == Kind::EngineBatch && kind != k {
            continue;
        }
        let plan = Plan::traced(k, args.seconds, k == kind);
        let m = measure(k, inputs, &plan, args.corrupt_oracle);
        metrics.extend(layer_metrics(&m));
        tally.merge(m.tally);
        runs.push(m);
    }
    metrics.extend(ladder::run(inputs, &mut tally));

    let under_test = runs
        .iter()
        .find(|m| m.kind == kind)
        .expect("traced the workload under test");
    // The tails of the workload under test, from its untraced rounds.
    metrics.extend(tail_latencies(&under_test.twins));
    let traced_qps = per_round(&under_test.rounds, Better::Higher, qps);
    let plain_qps = per_round(&under_test.twins, Better::Higher, qps);
    metrics.push(metric(
        "trace_overhead_frac",
        traced_qps / plain_qps - 1.0,
        "ratio",
    ));

    let path = std::path::PathBuf::from(format!("benchmark/out/trace-{}.json", kind.name()));
    match under_test.tracer.write_json(&path, kind.name()) {
        Ok(()) => eprintln!(
            "wrote {} spans to {}",
            under_test.tracer.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    print_metrics(kind.name(), &metrics);
    println!(
        "{}",
        host_line(args, inputs, &runs.iter().collect::<Vec<_>>())
    );
    (tally, metrics)
}

/// `--smoke`: one short round of every workload, oracle on.
fn run_smoke(args: &Args, inputs: &mut Inputs) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    for kind in Kind::ALL {
        let m = measure(kind, inputs, &Plan::smoke(kind), args.corrupt_oracle);
        println!(
            "{} smoke attempted {} failed {}",
            kind.name(),
            m.tally.attempted,
            m.tally.failed
        );
        tally.merge(m.tally);
    }
    (tally, Vec::new())
}

fn main() {
    let args = parse_args();
    simspatial_geom::parallel::set_num_threads(THREADS);
    let mut inputs = Inputs::generate(args.seed);
    let (tally, metrics) = match (args.smoke, args.workload) {
        (true, _) => run_smoke(&args, &mut inputs),
        (false, Some(kind)) if args.trace => run_traced(&args, kind, &mut inputs),
        (false, Some(kind)) => run_end_to_end(&args, kind, &mut inputs),
        (false, None) => usage(),
    };
    println!("{}", summary_json(tally, &metrics));
    if tally.failed != 0 || tally.attempted == 0 {
        std::process::exit(1);
    }
}
