#!/usr/bin/env python3
"""Unit tests for tools/check_tgbench_golden.py.

Run directly or via ctest (check_tgbench_golden_unit).  A stand-in
tgbench prints, for each workload and seed, a report that reproduces
the committed golden, so the checker must pass it; then one digit of a
pinned hash, or one simulated value, is changed in a copy of the golden
and the checker must fail and print the move old -> new.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "tools", "check_tgbench_golden.py")
GOLDEN = os.path.join(REPO, "tools", "tgbench_golden.json")

# Prints the golden's case for --workload/--seed in tgbench's report
# shape, with host figures and an unpinned fingerprint entry added.
FAKE_TGBENCH = """#!{python}
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
for case in json.load(open({golden!r}))["cases"]:
    if (case["workload"] == args["--workload"]
            and case["seed"] == int(args["--seed"])):
        break
else:
    sys.exit("no such case")
print(json.dumps({{
    "workload": case["workload"], "seed": case["seed"],
    "host": {{"run_s": 0.5, "peak_rss_mb": 12.0}},
    "sim": case["sim"],
    "fingerprint": {{"trace_hash": case["trace_hash"],
                    "trace_length": case["trace_length"],
                    "sim.events": case["sim.events"],
                    "net.arena_high_water": 999}},
    "attempted": case["attempted"], "failed": case["failed"],
}}))
"""

FAILURES = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"{status:4} {name}" + (f"  [{detail}]" if detail and not cond else ""))
    if not cond:
        FAILURES.append(name)


def run_checker(tgbench, golden):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--tgbench", tgbench, "--golden", golden],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def flip_digit(hexstr):
    """@p hexstr with its last hex digit changed."""
    last = hexstr[-1]
    return hexstr[:-1] + ("0" if last != "0" else "1")


def main():
    committed = json.load(open(GOLDEN, encoding="utf-8"))
    check("golden pins six cases", len(committed["cases"]) == 6)

    with tempfile.TemporaryDirectory() as tmp:
        fake = os.path.join(tmp, "tgbench")
        with open(fake, "w", encoding="utf-8") as fh:
            fh.write(FAKE_TGBENCH.format(python=sys.executable,
                                         golden=GOLDEN))
        os.chmod(fake, os.stat(fake).st_mode | stat.S_IXUSR)

        rc, out = run_checker(fake, GOLDEN)
        check("reproducing run passes", rc == 0, out)

        # One digit of one pinned hash changed: the checker fails and
        # names the move.
        bad = json.loads(json.dumps(committed))
        case = bad["cases"][2]
        old = case["trace_hash"]
        case["trace_hash"] = flip_digit(old)
        path = os.path.join(tmp, "golden.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        rc, out = run_checker(fake, path)
        check(
            "one changed hash digit fails",
            rc == 1 and f"trace_hash: {case['trace_hash']} -> {old}" in out,
            out,
        )

        # A simulated value of the sim block is pinned too.
        bad = json.loads(json.dumps(committed))
        bad["cases"][0]["sim"]["op_p99_us"] += 0.001
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        rc, out = run_checker(fake, path)
        check("moved sim value fails", rc == 1 and "sim.op_p99_us" in out,
              out)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("\nall check_tgbench_golden checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
