#!/usr/bin/env python3
"""Repository benchmark: simulator cost and simulated latency.

Builds perfbench/tgbench from the library sources on first use, then
repeats one workload in fresh processes for --seconds and prints every
metric by name and unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host CPU times in
reference seconds, see ref_seconds, as the median of the repetitions;
simulated values from the seed's deterministic run).  With --trace 1
the packet tracer and the benchmark's own spans are on, and the
metrics are the per-layer ones.

    python3 perfbench/run.py --workload star16-coherent --seed 1 \\
        --seconds 30 --trace 0

Exit status is 0 only when every repetition passed its oracle and all
repetitions of the seed produced the same trace hash and counters.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fattree256-uniform", "torus3d256-hostcoll", "star16-coherent")
# Workloads whose end-to-end configuration runs with the packet tracer on.
TRACED_BY_DEFAULT = ("fattree256-uniform",)
MIN_REPS = 3
REP_TIMEOUT_S = 150
# CPU seconds tgbench's calibration kernel takes on the idle machine the
# benchmark was tuned on (a 4-vCPU Xeon VM); see ref_seconds.
REFERENCE_CALIBRATION_S = 0.30

# End-to-end metrics: (name, unit, where the value comes from).  Host
# times are CPU times in reference seconds (see ref_seconds), median
# over the repetitions; memory is their median.
E2E = [
    ("setup_s", "s", "cpu"),
    ("run_s", "s", "cpu"),
    ("total_s", "s", "cpu"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_makespan_us", "us", "sim"),
    ("op_p50_us", "us", "sim"),
    ("op_p99_us", "us", "sim"),
    ("read_p99_us", "us", "sim"),
    ("anchor_error_pct", "%", "sim"),
]

SPAN_KINDS = ("write", "read", "atomic")
SPAN_POINTS = ("tc_grant", "hib_launch", "link_tx", "link_rx", "switch_fwd",
               "hib_handle", "completion")

# Per-layer metrics: (name, unit).
PER_LAYER = [
    ("api.build_s", "s"), ("api.alloc_s", "s"), ("api.communicator_s", "s"),
    ("api.spawn_s", "s"), ("api.teardown_s", "s"),
    ("api.setup_coverage", "ratio"),
    ("node.mem_touched_mb", "MB"),
    ("sim.events", "count"), ("sim.events_per_op", "events/op"),
    ("sim.host_ns_per_event", "ns"),
    ("net.switch_forwarded", "count"), ("net.forwards_per_op", "fwd/op"),
    ("net.arena_high_water", "packets"), ("net.retransmissions", "count"),
    ("net.wire_failures", "count"),
    ("trace.records", "count"), ("trace.bytes", "B"),
    ("trace.host_share", "ratio"), ("trace.span_overhead", "ratio"),
    ("node.cpu_ops", "count"), ("node.ctx_switches", "count"),
    ("node.cache_hit_rate", "ratio"), ("node.tlb_hit_rate", "ratio"),
    ("node.tc_transactions", "count"), ("node.tc_busy_us", "us"),
    ("node.tc_wait_us", "us"),
    ("hib.packets_handled", "count"), ("hib.outstanding_peak", "count"),
    ("hib.atomics", "count"), ("hib.counter_cache_stalls", "count"),
    ("hib.counter_cache_stall_us", "us"),
    ("coherence.reflected_writes", "count"),
    ("coherence.ignored_updates", "count"),
    ("coherence.useful_update_ratio", "ratio"),
] + [(f"span.{k}.{p}_ns", "ns") for k in SPAN_KINDS for p in SPAN_POINTS] \
  + [(f"span.{k}.hops", "hops") for k in SPAN_KINDS]


def log(msg=""):
    print(msg, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def build(out_dir):
    """Configure (once) and build tgbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = out_dir / "cmake"
        if not (cmake_dir / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir / "tgbench"


def run_rep(binary, workload, seed, scale, tracer, run_id, spans=None,
            corrupt=False):
    """One repetition in its own process; returns its parsed report, or
    None when the process crashed or printed no report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--tracer", tracer, "--run", str(run_id)]
    if spans:
        cmd += ["--spans", str(spans)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"  rep {run_id}: timed out after {REP_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"  rep {run_id}: no report (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-300:]}")
        return None


def fingerprint(rep):
    """Everything a same-seed repetition must reproduce exactly."""
    return {"fingerprint": rep["fingerprint"], "sim": rep["sim"],
            "classes": rep["classes"], "attempted": rep["attempted"]}


def median(reps, section, key):
    return statistics.median(r[section][key] for r in reps)


def ref_seconds(rep, key):
    """A CPU time of one repetition in reference seconds: scaled by how
    long the calibration kernel took in the same process.  On a shared
    host, neighbours slow the whole core for minutes at a time, and wall
    and CPU time both follow them.  The kernel calls no library code and
    slows with them, so the ratio keeps the program's own cost."""
    cpu = rep["cpu"]
    return cpu[key] * REFERENCE_CALIBRATION_S / cpu["calibration_s"]


def host_time(reps, key):
    """Median over the repetitions of a CPU time in reference seconds."""
    return statistics.median(ref_seconds(r, key) for r in reps)


def merge_spans(files, dest):
    """One Chrome trace_event document from the traced repetitions."""
    events, other = [], None
    for f in files:
        doc = json.loads(f.read_text())
        events += doc["traceEvents"]
        other = other or doc.get("otherData")
        f.unlink()
    dest.write_text(json.dumps({"displayTimeUnit": "ns",
                                "traceEvents": events,
                                "otherData": other}))


def per_layer(traced, plain, off):
    """Per-layer metrics from the traced (tracer + spans), plain (the
    end-to-end configuration) and tracer-off repetitions."""
    t0 = traced[0]
    fp, tr = t0["fingerprint"], t0["trace"]
    ops = t0["attempted"]
    m = {}
    for key in ("api.build_s", "api.alloc_s", "api.communicator_s",
                "api.spawn_s", "api.teardown_s"):
        m[key] = median(traced, "host", key)
    spans_setup = [sum(r["host"][k] for k in ("api.build_s", "api.alloc_s",
                                                "api.communicator_s",
                                                "api.spawn_s"))
                   / r["host"]["setup_s"] for r in traced]
    m["api.setup_coverage"] = statistics.median(spans_setup)
    for key in ("node.mem_touched_mb", "sim.events", "net.switch_forwarded",
                "net.arena_high_water", "net.retransmissions",
                "net.wire_failures", "node.cpu_ops", "node.ctx_switches",
                "node.cache_hit_rate", "node.tlb_hit_rate",
                "node.tc_transactions", "node.tc_busy_us", "node.tc_wait_us",
                "hib.packets_handled", "hib.outstanding_peak", "hib.atomics",
                "hib.counter_cache_stalls", "hib.counter_cache_stall_us",
                "coherence.reflected_writes", "coherence.ignored_updates",
                "coherence.useful_update_ratio"):
        m[key] = fp[key]
    m["sim.events_per_op"] = fp["sim.events"] / ops
    m["net.forwards_per_op"] = fp["net.switch_forwarded"] / ops
    plain_run = host_time(plain, "run_s")
    m["sim.host_ns_per_event"] = plain_run * 1e9 / fp["sim.events"]
    m["trace.records"] = tr["trace.records"]
    m["trace.bytes"] = tr["trace.bytes"]
    traced_run = host_time(traced, "run_s")
    off_run = host_time(off, "run_s")
    m["trace.host_share"] = 1 - off_run / traced_run
    m["trace.span_overhead"] = traced_run / plain_run - 1
    for k in SPAN_KINDS:
        for p in SPAN_POINTS:
            m[f"span.{k}.{p}_ns"] = tr[f"span.{k}.{p}_ns"]
        m[f"span.{k}.hops"] = tr[f"span.{k}.hops"]

    log(f"per-layer ({len(traced)} traced, {len(plain)} plain, "
        f"{len(off)} tracer-off repetitions; ratios with their base):")
    log(f"  sim.events_per_op      {m['sim.events_per_op']:.3f} = "
        f"{fp['sim.events']:.0f} events / {ops} ops")
    log(f"  net.forwards_per_op    {m['net.forwards_per_op']:.3f} = "
        f"{fp['net.switch_forwarded']:.0f} forwards / {ops} ops")
    log(f"  sim.host_ns_per_event  {m['sim.host_ns_per_event']:.2f} = "
        f"{plain_run:.4f} s plain run / {fp['sim.events']:.0f} events")
    log(f"  trace.host_share       {m['trace.host_share']:.4f} = 1 - "
        f"{off_run:.4f} s off / {traced_run:.4f} s on")
    log(f"  trace.span_overhead    {m['trace.span_overhead']:.4f} = "
        f"{traced_run:.4f} s traced / {plain_run:.4f} s plain - 1")
    log(f"  api.setup_coverage     {m['api.setup_coverage']:.4f} = "
        f"api spans / wall setup {median(traced, 'host', 'setup_s'):.4f} s")
    log(f"  node.cache_hit_rate    {m['node.cache_hit_rate']:.4f} of "
        f"{fp['node.cache_accesses']:.0f} accesses")
    log(f"  node.tlb_hit_rate      {m['node.tlb_hit_rate']:.4f} of "
        f"{fp['node.tlb_accesses']:.0f} accesses")
    log(f"  coherence.useful_update_ratio "
        f"{m['coherence.useful_update_ratio']:.4f} of "
        f"{fp['coherence.reflected_writes']:.0f} reflected writes")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small clusters for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one expected value (oracle self-test)")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    w = args.workload
    default_tracer = "on" if w in TRACED_BY_DEFAULT else "off"

    # Repetition plan: the end-to-end configuration only, or (traced run)
    # tracer + spans, the end-to-end configuration and — where that has
    # the tracer on — a tracer-off configuration, round-robin.
    if args.trace:
        plan = [("traced", "on", True), ("plain", default_tracer, False)]
        if default_tracer == "on":
            plan.append(("off", "off", False))
    else:
        plan = [("plain", default_tracer, False)]
    reps = {name: [] for name, _, _ in plan}
    span_files = []
    crashed = 0
    start = time.monotonic()
    run_id = 0
    log(f"perfbench {w} seed {args.seed} trace {args.trace} "
        f"({args.seconds:g} s)")
    while (time.monotonic() - start < args.seconds
           or min(len(v) for v in reps.values()) < MIN_REPS):
        for name, tracer, spans in plan:
            spans_path = None
            if spans:
                spans_path = (out_dir / "traces"
                              / f"{w}-{args.seed}-{run_id}.json")
                spans_path.parent.mkdir(parents=True, exist_ok=True)
            rep = run_rep(binary, w, args.seed, args.scale, tracer, run_id,
                          spans_path, args.corrupt)
            run_id += 1
            if rep is None:
                crashed += 1
                continue
            if spans_path:
                span_files.append(spans_path)
            reps[name].append(rep)
        if crashed and not any(reps.values()):
            break

    all_reps = [r for v in reps.values() for r in v]
    attempted = sum(r["attempted"] for r in all_reps) + crashed
    failed = sum(r["failed"] for r in all_reps) + crashed
    problems = [f"{crashed} repetition(s) crashed"] if crashed else []
    for r in all_reps:
        for why in r["why"]:
            problems.append(why)
    if any(not v for v in reps.values()):
        problems.append("a configuration produced no repetition")
    else:
        first = fingerprint(all_reps[0])
        if any(fingerprint(r) != first for r in all_reps[1:]):
            problems.append("same-seed repetitions differ (trace hash, "
                            "counters or simulated results)")

    metrics = {}
    if all_reps:
        base = reps["plain"] or all_reps
        r0 = base[0]
        counts = ", ".join(f"{k} {len(v)}" for k, v in reps.items())
        log(f"repetitions: {counts} in {time.monotonic() - start:.1f} s")
        for key, wall in (("setup_s", "setup_s"), ("run_s", "run_s"),
                          ("total_s", "wall_s")):
            log(f"host {key}: {host_time(base, key):.4f} ref s, median of "
                f"{len(base)} repetitions: " + " ".join(
                    f"{ref_seconds(r, key):.4f}" for r in base))
            log(f"  raw medians: cpu {median(base, 'cpu', key):.4f} s, "
                f"wall {median(base, 'host', wall):.4f} s")
        log(f"calibration kernel cpu s (reference "
            f"{REFERENCE_CALIBRATION_S}): " + " ".join(
                f"{r['cpu']['calibration_s']:.4f}" for r in base))
        log(f"trace hash {r0['fingerprint']['trace_hash']} "
            f"(length {r0['fingerprint']['trace_length']})")
        log("deterministic counters: " + ", ".join(
            f"{k}={v:g}" for k, v in r0["fingerprint"].items()
            if k not in ("trace_hash", "trace_length")))
        log("operation classes (simulated us, sample count):")
        for cls, c in r0["classes"].items():
            log(f"  {cls:<11} n={c['n']:<6} p50 {c['p50_us']:.3f}  "
                f"p99 {c['p99_us']:.3f}")
        s = r0["sim"]
        log(f"op_p50/op_p99 over {s['op_samples']} network-blocking ops; "
            f"read_p99 over {s['read_samples']} remote reads")
        log(f"anchor pass: write {s['anchor_write_us']:.4f} us (paper 0.70), "
            f"read {s['anchor_read_us']:.4f} us (paper 7.2)")
        log(f"ops_failed_frac {failed / max(attempted, 1):.6f} "
            f"({failed} / {attempted})")
        if args.trace:
            if all(reps.values()):
                off = reps.get("off") or reps["plain"]
                metrics = per_layer(reps["traced"], reps["plain"], off)
                metrics = {name: {"value": metrics[name], "unit": unit}
                           for name, unit in PER_LAYER}
            if span_files:
                dest = out_dir / "traces" / f"{w}-{args.seed}.trace.json"
                merge_spans(span_files, dest)
                log(f"spans + tg-breakdown-v1: {dest}")
        else:
            for name, unit, section in E2E:
                value = (host_time(base, name) if section == "cpu"
                         else median(base, section, name))
                metrics[name] = {"value": value, "unit": unit}
        log("metrics:")
        for name, v in metrics.items():
            log(f"  {name:<34} {v['value']:.6g} {v['unit']}")

    correct = not problems and failed == 0
    for p in problems[:10]:
        log(f"FAIL: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
