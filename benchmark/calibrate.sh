#!/usr/bin/env bash
# Calibration: is the benchmark steady enough to carry its own bounds?
#
# Runs two sets of RUNS end-to-end runs per workload (each run with another
# --seed, as the driver does), keeps every run's whole output, and writes
# benchmark/CALIBRATION.md: for every workload x metric both medians, the
# size of their relative gap, each set's interquartile range as a share of
# its median, and the farthest any single run lies from the median of all
# runs. Beside `read_qps` it prints the same figures for the un-normalised
# `raw_read_qps` of the same runs (from their `host` lines), so the report
# shows what dividing by the host yardstick buys.
#
# A bound in BENCHMARK.json holds when twice the gap is within it and, for
# every metric but `setup_s` (whose spread the driver does not judge either),
# every spread is, and no single run lies farther from the overall median
# than the bound (a seed whose inputs cost another amount of work shows
# there, not in the quartiles). The script
# exits non-zero when a bound does not hold. The report also lists how much
# of its bound each spread uses: a third or less is the target, met on a
# quiet host and not on a busy one.
#
#   benchmark/calibrate.sh                # 2 x 10 runs per workload, ~40 min
#   RUNS=5 benchmark/calibrate.sh         # the quick version, ~20 min
#   REPORT_ONLY=1 benchmark/calibrate.sh  # rewrite the report from the kept runs
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-10}"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
OUT=benchmark/out/calibration
mkdir -p "$OUT"

if [ -z "${REPORT_ONLY:-}" ]; then
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/simspatial-benchmark"
  rm -f "$OUT"/*.txt
  for set in 1 2; do
    for workload in engine_batch svc_read net_read sim_mixed; do
      for run in $(seq 1 "$RUNS"); do
        seed=$((set * 1000 + run))
        "$BIN" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
          > "$OUT/$workload.$set.$run.txt"
        echo "set $set $workload run $run/$RUNS done" >&2
      done
    done
  done
fi

python3 - "$OUT" > benchmark/CALIBRATION.md <<'PY'
import datetime, glob, json, math, platform, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
spec = {m["name"]: m for m in bench["end_to_end"]}
workloads = [w["name"] for w in bench["workloads"]]

def load(path, workload):
    lines = open(path).read().strip().split("\n")
    doc = json.loads(lines[-1])
    host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
    assert doc["correct"] and doc["failed"] == 0, path
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    values["raw_read_qps"] = host[workload]["raw_read_qps"]
    values["seed"] = host["seed"]
    return values, host[workload]["round_host_factor"], host[workload]["round_raw_read_qps"]

def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

def slope(xs, ys):
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

runs = len(glob.glob(f"{out}/{workloads[0]}.1.*.txt"))
print("# Calibration\n")
print(f"Written by `benchmark/calibrate.sh` on {datetime.date.today()} "
      f"({platform.processor() or platform.machine()}, two sets of {runs} runs per workload, "
      f"`--seconds {bench['run_seconds']}`, every run another `--seed`).\n")
print("""`gap` is the relative distance between the two sets' medians (two sets of the same code:
its sign means nothing). `iqr` is a set's interquartile range
(`statistics.quantiles(values, n=4)`) as a share of its median. `far` is the farthest any
one of the runs lies from the median of all of them. A bound holds (`ok`) when
`2 x gap <= bound` and, `setup_s` excepted (the driver does not judge its spread either),
`iqr <= bound` and `far <= bound`; `steady` means that every spread is also within a third of the bound. `raw_read_qps` is `read_qps` before the division by the host yardstick,
from the same runs' `host` lines; it has no bound and is printed to show what the
division buys. `host factor` is the range of the per-round yardstick factors over all
the workload's runs (1.0 = the quiet reference host), and `slope` the least-squares slope
of ln(raw throughput of a round) on ln(its host factor) over all those rounds: -1 means
the factor tracks the workload exactly (`GAIN` in `src/reference.rs` is what to adjust).
""")
failures = []
shares = []
listing = []
for w in workloads:
    sets, factors, raw = [], [], []
    for s in (1, 2):
        loaded = [load(f"{out}/{w}.{s}.{run}.txt", w) for run in range(1, runs + 1)]
        sets.append([values for values, _, _ in loaded])
        factors += [f for _, fs, _ in loaded for f in fs]
        raw += [q for _, _, qs in loaded for q in qs]
        listing += [(w, s, values, statistics.mean(fs)) for values, fs, _ in loaded]
    fitted = slope([math.log(f) for f in factors], [math.log(q) for q in raw])
    print(f"## {w}\n")
    print(f"host factor {min(factors):.2f} - {max(factors):.2f}, slope {fitted:.2f}\n")
    print("| metric | unit | median 1 | median 2 | gap | iqr 1 | iqr 2 | far | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
    rows = []
    for name, m in spec.items():
        rows.append((name, m["unit"], m["bound"]))
        if name == "read_qps":
            rows.append(("raw_read_qps", m["unit"], None))
    for name, unit, bound in rows:
        a = [v[name] for v in sets[0]]
        b = [v[name] for v in sets[1]]
        ma, mb, mall = statistics.median(a), statistics.median(b), statistics.median(a + b)
        gap = abs(mb - ma) / ma
        ia, ib = iqr_share(a), iqr_share(b)
        far = max(abs(v - mall) for v in a + b) / mall
        if bound is None:
            verdict, shown = "", "-"
        else:
            # The driver does not hold `setup_s` to its spread; nor is it held to `far` here.
            spread, stray = (0, 0) if name == "setup_s" else (max(ia, ib), far)
            ok = spread <= bound and 2 * gap <= bound and stray <= bound
            verdict = "DOES NOT HOLD" if not ok else "ok, steady" if 3 * spread <= bound else "ok"
            shown = f"{bound:.1%}"
            if not ok:
                failures.append(f"{w}/{name}")
            if name != "setup_s":
                shares.append((max(ia, ib) / bound, w, name))
        print(f"| `{name}` | {unit} | {ma:.6g} | {mb:.6g} | {gap:.2%} | {ia:.2%} | {ib:.2%} "
              f"| {far:.2%} | {shown} | {verdict} |")
    print()
shares.sort(reverse=True)
print("## Widest spreads, as a share of their bound\n")
for share, w, name in shares[:8]:
    print(f"- `{w}/{name}`: {share:.0%} of its bound")
print()
print("## Every run\n")
shown = ["raw_read_qps", "read_qps", "read_p50_us", "cpu_us_per_query", "write_p50_us", "setup_s"]
print("| workload | set | seed | host factor | " + " | ".join(shown) + " |")
print("|---|---:|---:|---:|" + "---:|" * len(shown))
for w, s, values, factor in listing:
    cells = " | ".join(f"{values[name]:.5g}" for name in shown)
    print(f"| `{w}` | {s} | {values['seed']} | {factor:.2f} | {cells} |")
print()
if failures:
    print("## Bounds that do not hold\n")
    for f in failures:
        print(f"- `{f}`")
    print(f"calibration: {len(failures)} bound(s) do not hold: {' '.join(failures)}", file=sys.stderr)
    sys.exit(1)
print("Every bound holds.")
PY
echo "wrote benchmark/CALIBRATION.md" >&2
