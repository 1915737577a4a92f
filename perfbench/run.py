#!/usr/bin/env python3
"""Build and run the fsopt end-to-end benchmark.

    python3 perfbench/run.py --workload plan_search|cache_sweep|ksr_speedup \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary and the fsopt
library it links are built from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench; a relative
path is taken from the checkout root).  Build output goes to stderr; the
binary's stdout is passed through, so the last line printed is the
result object.  Every FSOPT_* environment knob is cleared; the binary
pins FSOPT_THREADS to the experiment-pool width.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan_search", "cache_sweep", "ksr_speedup")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no fsopt sources at %s" % (ROOT / "src"))
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return bdir / "fsopt_perfbench"


def src_digest():
    """SHA-256 over the library sources: identifies the code under test
    even in a checkout without git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-golden", action="store_true",
                    help="self-test: corrupt one golden value")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    # The binary pins FSOPT_THREADS to the pool width itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSOPT_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", str(HERE / "golden.txt"), "--commit", commit(),
           "--src-digest", src_digest()]
    if args.corrupt_golden:
        cmd.append("--corrupt-golden")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
