#!/usr/bin/env python3
"""Build and run the end-to-end certification benchmark.

    python3 perfbench/run.py --workload fig10-prune|fig10-recover|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --make-golden

Run from the root of a checkout. The harness and the TALFT libraries it
links are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), in Release
mode; later runs rebuild only what changed. The last line of standard
output is the run's result as one JSON object. Results with their
provenance, and the spans of traced runs, go to the build tree's
results/ directory. --make-golden regenerates perfbench/golden/tables.json
with the oracle configuration; run it only when a verdict table is meant
to change.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "tables.json"
WORKLOADS = ("fig10-prune", "fig10-recover", "serve-mix")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs cmd in its own process group, output to stderr; kills the group
    on timeout so no forked worker outlives the run."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no TALFT sources under {ROOT / 'src'}; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_checked(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen, 300):
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_checked(["cmake", "--build", build_dir, "-j", jobs], 840):
        fail("build failed")
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--make-golden", action="store_true")
    args = ap.parse_args()

    if args.selftest or args.make_golden:
        build_dir = build()
        if args.selftest:
            sys.exit(run_checked([build_dir / "perfbench_selftest"], 120))
        sys.exit(run_checked([build_dir / "perfbench", "--make-golden", GOLDEN], 3600))

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not GOLDEN.is_file():
        fail(f"missing golden tables {GOLDEN}")

    build_dir = build()
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    cmd = [build_dir / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--golden", GOLDEN, "--out-dir", results]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds * 2 + 90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark run timed out", 3)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
