#!/usr/bin/env python3
"""Pipeline benchmark: build the runner from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_suite --seed 7 --seconds 45 --trace 0

builds perfbench/ (which builds the library from src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints every metric with its unit; the last line of stdout
is the JSON result. Each run also appends a detailed record (raw
samples, tail percentile, digests, failures) to
.bench_build/perfbench/results.jsonl, and a traced run writes its spans
to .bench_build/perfbench/trace-<workload>-seed<seed>.json (open it in
Perfetto).

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

compares the result files of two commits (see perfbench/compare.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "isolation", "verified_unbalanced")
REFERENCE = os.path.join(HERE, "reference", "digests.txt")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def build(out_dir):
    """Configure once, then bring the runner up to date. Returns its path."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return None
    return os.path.join(out_dir, "perfbench_runner")


def run_child(cmd):
    """Run cmd to completion; stop it if this process is told to stop."""
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        signal.signal(signal.SIGTERM, previous)


def run_workload(args):
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    runner = build(out_dir)
    if runner is None:
        return 1
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE,
           "--details-out", os.path.join(out_dir, "results.jsonl")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.write_reference:
        cmd += ["--write-reference", args.write_reference]
    sys.stdout.flush()
    return run_child(cmd)


def run_compare(args):
    sys.path.insert(0, HERE)
    import compare

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    rows = compare.compare(compare.load_results(args.base),
                           compare.load_results(args.change), benchmark)
    print(compare.render(rows))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare the result files of two commits.")
        p.add_argument("base", help="results.jsonl of the parent commit")
        p.add_argument("change", help="results.jsonl of the change")
        p.add_argument("--benchmark",
                       default=os.path.join(ROOT, "BENCHMARK.json"),
                       help="where the metrics' directions and bounds are")
        return run_compare(p.parse_args(argv[1:]))

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference",
                   help="append this run's digests as reference records")
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
