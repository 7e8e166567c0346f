#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

Runs every workload at --scale tiny through perfbench/run.py and checks
two things:

  1. every metric BENCHMARK.json declares is printed with its unit
     (end-to-end metrics with --trace 0, per-layer ones with --trace 1),
     and the run is correct;
  2. the oracle rejects a corrupted expected value (--corrupt): the run
     reports correct=false, counts failures and exits non-zero.

    python3 perfbench/selftest.py      # from the repository root

Takes about a minute once tgbench is built.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, corrupt=False):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run(name, trace)
            check(rc == 0 and res["correct"] and res["failed"] == 0,
                  f"{name} trace {trace}: correct, exit 0")
            printed = res["metrics"]
            missing = [m["name"] for m in spec[key]
                       if printed.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{name} trace {trace}: every {key} metric "
                  f"printed with its unit {missing or ''}")
            extra = set(printed) - {m["name"] for m in spec[key]}
            check(not extra, f"{name} trace {trace}: no undeclared metric "
                  f"{sorted(extra) or ''}")
        rc, res = run(name, 0, corrupt=True)
        check(rc != 0 and not res["correct"] and res["failed"] > 0,
              f"{name}: oracle rejects a corrupted expected value")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
