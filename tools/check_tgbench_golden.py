#!/usr/bin/env python3
"""Check the repository benchmark's simulated digests against a golden.

Runs perfbench's tgbench binary on every case the golden lists (three
workloads at seeds 1 and 1009), once with the packet tracer on and once
with it off, and compares what the model decides:

    fingerprint.trace_hash, fingerprint.trace_length, sim.events,
    the whole sim block, attempted and failed.

Host figures (times, RSS) and net.arena_high_water (host storage) are
not pinned.  Any difference fails, in either direction, and is printed
as `old -> new`.

    cmake -S perfbench -B build-tgbench -DCMAKE_BUILD_TYPE=Release
    cmake --build build-tgbench -j
    python3 tools/check_tgbench_golden.py --tgbench build-tgbench/tgbench

A golden changes only in a change that states a model change; that
change regenerates it (--write) and lists every moved value, old -> new,
in CHANGES.md (DESIGN.md section 7.4).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_GOLDEN = HERE / "tgbench_golden.json"
SCHEMA = "tgbench-golden-v1"
WORKLOADS = ("fattree256-uniform", "star16-coherent", "torus3d256-hostcoll")
SEEDS = (1, 1009)
TRACERS = ("on", "off")


def pinned(report):
    """The values of one tgbench report that the golden pins."""
    fp = report["fingerprint"]
    return {
        "trace_hash": fp["trace_hash"],
        "trace_length": fp["trace_length"],
        "sim.events": fp["sim.events"],
        "sim": report["sim"],
        "attempted": report["attempted"],
        "failed": report["failed"],
    }


def run_tgbench(binary, workload, seed, tracer):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--tracer", tracer]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"tgbench failed (exit {proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def diff(want, got, prefix=""):
    """Every pinned value of @p want that @p got does not reproduce, as
    (name, old, new); a key missing on one side reads as None."""
    out = []
    for key in sorted(set(want) | set(got)):
        name = prefix + key
        w, g = want.get(key), got.get(key)
        if isinstance(w, dict) and isinstance(g, dict):
            out += diff(w, g, name + ".")
        elif w != g:
            out.append((name, w, g))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tgbench", required=True, help="tgbench binary")
    ap.add_argument("--golden", default=str(DEFAULT_GOLDEN))
    ap.add_argument("--write", action="store_true",
                    help="regenerate the golden from this binary")
    args = ap.parse_args()

    if args.write:
        cases = []
        for w in WORKLOADS:
            for s in SEEDS:
                case = {"workload": w, "seed": s}
                case.update(pinned(run_tgbench(args.tgbench, w, s, "off")))
                cases.append(case)
        with open(args.golden, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "cases": cases}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(cases)} cases to {args.golden}")
        return 0

    golden = json.load(open(args.golden, encoding="utf-8"))
    if golden.get("schema") != SCHEMA or not golden.get("cases"):
        sys.exit(f"{args.golden}: not a {SCHEMA} document with cases")

    failures = 0
    for case in golden["cases"]:
        want = {k: v for k, v in case.items()
                if k not in ("workload", "seed")}
        for tracer in TRACERS:
            report = run_tgbench(args.tgbench, case["workload"],
                                 case["seed"], tracer)
            moved = diff(want, pinned(report))
            label = f"{case['workload']} seed {case['seed']} tracer {tracer}"
            if not moved:
                print(f"ok   {label}: {want['trace_hash']}")
                continue
            failures += 1
            print(f"FAIL {label}:")
            for name, old, new in moved:
                print(f"       {name}: {old} -> {new}")
    if failures:
        print(f"{failures} run(s) differ from {args.golden}")
        return 1
    runs = len(TRACERS) * len(golden["cases"])
    print(f"all {runs} runs match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
