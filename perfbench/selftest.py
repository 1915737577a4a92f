#!/usr/bin/env python3
"""Self-test of the fsopt end-to-end benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (takes about two minutes).  Checks that:
  * every workload runs at minimal length, untraced and traced, with every
    op correct, and emits exactly the metrics BENCHMARK.json names, each
    with its unit;
  * a corrupted golden value is reported as a failed op and the run still
    completes;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    return p


def result_of(p, what):
    if p.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (what, p.returncode, p.stderr[-3000:]))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("FAIL %s: result keys %s" % (what, sorted(r)))
    return r


def check_metrics(r, expected, what):
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.exit("FAIL %s: metrics differ from BENCHMARK.json:\n got %s\n want %s"
                 % (what, got, want))
    for k, v in r["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            sys.exit("FAIL %s: %s is not a finite number" % (what, k))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = "%s --trace %s" % (w["name"], trace)
            r = result_of(run(["--workload", w["name"], "--seed", "1",
                               "--seconds", "1", "--trace", trace]), what)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit("FAIL %s: %s" % (what, r))
            check_metrics(r, expected, what)
            if trace == "0":
                for m in ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb",
                          "plan_fs_misses"):
                    if not r["metrics"][m]["value"] > 0:
                        sys.exit("FAIL %s: %s is not positive" % (what, m))
            print("ok  %s: %d ops" % (what, r["attempted"]))

    what = "ksr_speedup --corrupt-golden"
    r = result_of(run(["--workload", "ksr_speedup", "--seed", "1", "--seconds",
                       "1", "--trace", "0", "--corrupt-golden"]), what)
    if r["correct"] or r["failed"] < 1 or r["failed"] >= r["attempted"]:
        sys.exit("FAIL %s: expected some (not all) ops to fail: %s" % (what, r))
    print("ok  %s: %d of %d ops failed" % (what, r["failed"], r["attempted"]))

    what = "benchmark without the repository"
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "ksr_speedup", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        sys.exit("FAIL %s: exit %d, stdout %r" % (what, p.returncode, p.stdout))
    print("ok  %s: exit %d, no result" % (what, p.returncode))
    print("selftest passed")


if __name__ == "__main__":
    main()
