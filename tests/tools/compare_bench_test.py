#!/usr/bin/env python3
"""Unit tests for tools/compare_bench.py on fixture JSON.

Run directly or via ctest (compare_bench_unit).  Exercises both input
schemas and the missing-bench / missing-metric hard-fail paths added
after a bench that stopped emitting a gated counter slipped through CI.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "tools", "compare_bench.py")


def gb_doc(benches):
    """google-benchmark document: {name: {counter: value}}."""
    return {
        "benchmarks": [
            dict({"name": name, "run_type": "iteration"}, **counters)
            for name, counters in benches.items()
        ]
    }


def tg_doc(bench, metrics):
    """tg-bench-v1 document: [(name, value, unit), ...]."""
    return {
        "schema": "tg-bench-v1",
        "bench": bench,
        "metrics": [
            {"name": n, "value": v, "unit": u} for n, v, u in metrics
        ],
    }


def run_compare(tmpdir, baseline, candidate, *extra):
    bpath = os.path.join(tmpdir, "committed.json")
    cpath = os.path.join(tmpdir, "candidate.json")
    with open(bpath, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh)
    with open(cpath, "w", encoding="utf-8") as fh:
        json.dump(candidate, fh)
    proc = subprocess.run(
        [sys.executable, SCRIPT, bpath, cpath, *extra],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


FAILURES = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"{status:4} {name}" + (f"  [{detail}]" if detail and not cond else ""))
    if not cond:
        FAILURES.append(name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = gb_doc(
            {
                "BM_A": {"items_per_second": 1000.0},
                "BM_B": {"events_per_s": 500.0},
            }
        )

        # Identical candidate passes.
        rc, out = run_compare(tmp, base, base)
        check("identical run passes", rc == 0, out)

        # A >threshold drop on a gated counter fails.
        worse = gb_doc(
            {
                "BM_A": {"items_per_second": 100.0},
                "BM_B": {"events_per_s": 500.0},
            }
        )
        rc, out = run_compare(tmp, base, worse)
        check("regression fails", rc == 1 and "regressed" in out, out)

        # A whole bench missing from the candidate must fail, not warn.
        dropped_bench = gb_doc({"BM_A": {"items_per_second": 1000.0}})
        rc, out = run_compare(tmp, base, dropped_bench)
        check(
            "missing bench fails",
            rc == 1 and "BM_B" in out and "missing" in out,
            out,
        )

        # A bench that stops emitting one gated counter must also fail.
        base_two = gb_doc(
            {"BM_A": {"items_per_second": 1000.0, "events_per_s": 800.0}}
        )
        dropped_metric = gb_doc({"BM_A": {"items_per_second": 1000.0}})
        rc, out = run_compare(tmp, base_two, dropped_metric)
        check(
            "missing metric fails",
            rc == 1 and "events_per_s" in out and "missing" in out,
            out,
        )

        # New benches in the candidate never fail.
        grown = gb_doc(
            {
                "BM_A": {"items_per_second": 1000.0},
                "BM_B": {"events_per_s": 500.0},
                "BM_NEW": {"events_per_s": 1.0},
            }
        )
        rc, out = run_compare(tmp, base, grown)
        check("new benches pass", rc == 0, out)

        # tg-bench-v1: rates gate on drops, latencies gate on increases.
        tbase = tg_doc("n1", [("goodput", 100.0, "MB/s"), ("p99", 10.0, "us")])
        rc, out = run_compare(tmp, tbase, tbase)
        check("tg schema identical passes", rc == 0, out)

        tlat = tg_doc("n1", [("goodput", 100.0, "MB/s"), ("p99", 20.0, "us")])
        rc, out = run_compare(tmp, tbase, tlat)
        check("tg latency increase fails", rc == 1, out)

        tmiss = tg_doc("n1", [("goodput", 100.0, "MB/s")])
        rc, out = run_compare(tmp, tbase, tmiss)
        check("tg missing metric fails", rc == 1 and "p99" in out, out)

        # Empty intersection without missing entries is an input error.
        rc, out = run_compare(tmp, gb_doc({}), gb_doc({}))
        check("no comparable metrics errors", rc == 2, out)

        # --metric-filter: a candidate that ran only one tier of the
        # baseline sweep (e.g. bench_collectives --nodes=64) passes when
        # the other tiers are filtered out of both sides...
        tcoll = tg_doc(
            "coll",
            [
                ("torus2d.n64.barrier.nic_us", 30.0, "us"),
                ("torus2d.n1024.barrier.nic_us", 90.0, "us"),
            ],
        )
        tcoll_64 = tg_doc(
            "coll", [("torus2d.n64.barrier.nic_us", 31.0, "us")]
        )
        rc, out = run_compare(tmp, tcoll, tcoll_64)
        check("subset tier without filter fails", rc == 1 and "n1024" in out, out)
        rc, out = run_compare(tmp, tcoll, tcoll_64, "--metric-filter=.n64.")
        check("metric filter passes subset tier", rc == 0, out)

        # ...but a regression inside the filtered window still fails.
        tcoll_bad = tg_doc(
            "coll", [("torus2d.n64.barrier.nic_us", 300.0, "us")]
        )
        rc, out = run_compare(
            tmp, tcoll, tcoll_bad, "--metric-filter=.n64."
        )
        check("metric filter still gates", rc == 1, out)

        # A filter matching nothing is an input error, not a silent pass.
        rc, out = run_compare(
            tmp, tcoll, tcoll_64, "--metric-filter=nonesuch"
        )
        check("vacuous filter errors", rc == 2, out)

        # Threshold flag is honored (40% drop passes at --threshold=0.5).
        half = gb_doc(
            {
                "BM_A": {"items_per_second": 600.0},
                "BM_B": {"events_per_s": 500.0},
            }
        )
        rc, out = run_compare(tmp, base, half, "--threshold=0.5")
        check("threshold flag honored", rc == 0, out)

        # --threshold=0 is exact: a change in either direction fails,
        # on both schemas, and only an identical run passes.
        better = gb_doc(
            {
                "BM_A": {"items_per_second": 1001.0},
                "BM_B": {"events_per_s": 500.0},
            }
        )
        rc, out = run_compare(tmp, base, better, "--threshold=0")
        check("exact gate fails a rate gain", rc == 1 and "BM_A" in out, out)
        rc, out = run_compare(tmp, base, base, "--threshold=0")
        check("exact gate passes an identical run", rc == 0, out)
        tfast = tg_doc("n1", [("goodput", 100.0, "MB/s"), ("p99", 9.5, "us")])
        rc, out = run_compare(tmp, tbase, tfast, "--threshold=0")
        check(
            "exact gate fails a latency drop",
            rc == 1 and "p99" in out and "exact gate" in out,
            out,
        )
        rc, out = run_compare(tmp, tbase, tlat, "--threshold=0")
        check("exact gate fails a latency rise", rc == 1, out)
        # A positive threshold keeps its one-sided meaning.
        rc, out = run_compare(tmp, tbase, tfast, "--threshold=0.01")
        check("positive threshold passes an improvement", rc == 0, out)

        # The exact gate also compares metrics with no better side
        # (hops, unitless, zero), which a positive threshold ignores.
        thops = tg_doc(
            "n1",
            [("goodput", 100.0, "MB/s"), ("hops", 10.25, "hops"),
             ("epochs", 2, None), ("lost", 0, None)],
        )
        for metric, moved in (("hops", 99.0), ("epochs", 3), ("lost", 1)):
            cand_doc = tg_doc(
                "n1",
                [(n, moved if n == metric else v, u)
                 for n, v, u in [("goodput", 100.0, "MB/s"),
                                 ("hops", 10.25, "hops"),
                                 ("epochs", 2, None), ("lost", 0, None)]],
            )
            rc, out = run_compare(tmp, thops, cand_doc, "--threshold=0")
            check(f"exact gate fails a moved {metric}",
                  rc == 1 and metric in out, out)
            rc, out = run_compare(tmp, thops, cand_doc, "--threshold=0.01")
            check(f"positive threshold ignores {metric}", rc == 0, out)
        rc, out = run_compare(tmp, thops, thops, "--threshold=0")
        check("exact gate passes identical ungated metrics", rc == 0, out)

        # The committed table baselines: a candidate that lost its
        # tg-bench-v1 schema tag or emitted no metrics fails the exact
        # gate as a missing bench.
        for bench in ("p1", "r1"):
            with open(os.path.join(REPO, f"BENCH_{bench}.json"),
                      encoding="utf-8") as fh:
                committed = json.load(fh)
            for what, broken in (
                ("schema tg-bench-v0", dict(committed, schema="tg-bench-v0")),
                ("empty metrics", dict(committed, metrics=[])),
            ):
                rc, out = run_compare(tmp, committed, broken, "--threshold=0")
                check(
                    f"BENCH_{bench} with {what} fails",
                    rc == 1
                    and f"{committed['bench']}: missing from candidate run"
                    in out,
                    out,
                )

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("\nall compare_bench checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
