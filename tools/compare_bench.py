#!/usr/bin/env python3
"""Compare a benchmark JSON run against a committed baseline.

Used by the CI perf-smoke and scaling-smoke jobs:

    tools/compare_bench.py BENCH_sim_throughput.json candidate.json
    tools/compare_bench.py BENCH_n1_scaling.json candidate.json

Two input schemas are auto-detected per file:

  google-benchmark   {"benchmarks": [...]} — gates events/sec
                     (items_per_second, or the events_per_s counter
                     for end-to-end benches); higher is better.
  tg-bench-v1        {"schema": "tg-bench-v1", "metrics": [...]} —
                     the simulator's own BenchReport format.  Rate
                     units (MB/s, ops/s, .../s) gate on drops;
                     latency units (ns, us, ms) gate on increases.
                     Unitless and count-like metrics (hops, bytes)
                     are informational only, except under the exact
                     gate below.

Exits non-zero when any gated metric regressed by more than the
threshold (default 25%), or when a bench / metric present in the
baseline is missing from the candidate — a bench that stops emitting a
gated counter must fail the gate, not slip through it.  Improvements
and new benchmarks never fail; re-baseline by committing a fresh JSON
(see DESIGN.md section 9).  The one exception is `--threshold=0`, the
exact gate: it compares every numeric tg-bench-v1 metric, unitless and
zero-valued ones included, and any difference fails, in either
direction, since a deterministic metric that improved still means the
model changed.

`--metric-filter=SUBSTR` restricts the comparison to metrics whose
name contains SUBSTR on both sides.  Use it when the candidate ran a
subset of the committed sweep (e.g. bench_collectives --nodes=64
against the full BENCH_collectives.json: filter `.n64.`), so the
baseline's other tiers don't count as missing.

The default gate is deliberately loose: CI machines are noisy, and for
host-time benches (bench_sim_throughput) the job's purpose is catching
order-of-magnitude scheduler regressions, not 5% drift.  Simulated
metrics (bench_n1_scaling, bench_collectives) are deterministic, so CI
gates them exactly with `--threshold=0`.
"""

import argparse
import json
import sys

# Direction per metric: "up" = higher is better (rates), "down" = lower
# is better (latencies).
_RATE_UNITS = {"MB/s", "GB/s", "ops/s", "events/s", "items/s"}
_LATENCY_UNITS = {"ns", "us", "ms", "s", "ticks"}


def _tg_direction(unit):
    """Classify a tg-bench-v1 metric unit; None means don't gate."""
    if unit in _RATE_UNITS or unit.endswith("/s"):
        return "up"
    if unit in _LATENCY_UNITS:
        return "down"
    return None


def load_metrics(path, exact=False):
    """Map benchmark name -> {metric: (value, direction)}.  Only
    positive metrics with a direction, unless @p exact keeps every
    numeric tg-bench-v1 metric (direction None: no better side)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    out = {}
    if doc.get("schema") == "tg-bench-v1":
        metrics = {}
        for m in doc.get("metrics", []):
            value = m.get("value")
            if not isinstance(value, (int, float)):
                continue
            direction = _tg_direction(m.get("unit") or "")
            if exact or (value > 0 and direction is not None):
                metrics[m["name"]] = (float(value), direction)
        if metrics:
            out[doc.get("bench", path)] = metrics
        return out

    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        metrics = {}
        for key in ("items_per_second", "events_per_s"):
            value = bench.get(key)
            if isinstance(value, (int, float)) and value > 0:
                metrics[key] = (float(value), "up")
        if metrics:
            out[bench["name"]] = metrics
    return out


def _filter_metrics(benches, substr):
    """Keep only metrics whose name contains substr; drop empty benches."""
    out = {}
    for name, metrics in benches.items():
        kept = {m: v for m, v in metrics.items() if substr in m}
        if kept:
            out[name] = kept
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly measured JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--metric-filter",
        default="",
        help="only gate metrics whose name contains this substring",
    )
    args = parser.parse_args()

    exact = args.threshold == 0
    base = load_metrics(args.baseline, exact)
    cand = load_metrics(args.candidate, exact)
    if args.metric_filter:
        base = _filter_metrics(base, args.metric_filter)
        cand = _filter_metrics(cand, args.metric_filter)

    failures = []
    missing = []
    compared = 0
    for name, base_metrics in sorted(base.items()):
        cand_metrics = cand.get(name)
        if cand_metrics is None:
            missing.append(name)
            print(f"FAIL  {name}: missing from candidate run")
            continue
        for metric, (base_value, direction) in sorted(base_metrics.items()):
            entry = cand_metrics.get(metric)
            if entry is None:
                missing.append(f"{name}/{metric}")
                print(f"FAIL  {name}/{metric}: missing from candidate")
                continue
            cand_value, _ = entry
            compared += 1
            ratio = cand_value / base_value if base_value else float("nan")
            line = (
                f"{name}/{metric}: baseline {base_value:.3g}, "
                f"candidate {cand_value:.3g} ({ratio:.2f}x)"
            )
            if exact:
                regressed = cand_value != base_value
            elif direction == "up":
                regressed = ratio < 1.0 - args.threshold
            else:
                regressed = ratio > 1.0 + args.threshold
            if regressed:
                failures.append(line)
                print(f"FAIL  {line}")
            else:
                print(f"OK    {line}")

    if compared == 0 and not missing:
        print("ERROR no comparable rate metrics found", file=sys.stderr)
        return 2
    if missing:
        print(
            f"\n{len(missing)} baseline bench(es)/metric(s) missing from "
            f"the candidate run: {', '.join(missing)}",
            file=sys.stderr,
        )
    if failures and exact:
        print(
            f"\n{len(failures)} metric(s) differ from {args.baseline} "
            f"under the exact gate",
            file=sys.stderr,
        )
    elif failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} vs {args.baseline}",
            file=sys.stderr,
        )
    if failures or missing:
        return 1
    print(f"\nall {compared} gated metrics within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
