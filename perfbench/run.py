#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload power --seed 19620718 \
        --seconds 20 --trace 0

The harness (perfbench/src) prints every metric of the workload by name,
with its unit and sample count, and runs the workload's output checks.
This wrapper forwards those lines and ends with one JSON object holding
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Workloads not listed in BENCHMARK.json (`throughput`) print all of their
metrics. The exit code is 0 only when every output check passed.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench under the repository root); scratch files and span files go
beside it. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.abspath(target)
    return os.path.join(ROOT, ".bench_build")


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(f"build failed (log: {log_path}):\n{tail}")
    return os.path.join(build_dir, "perfbench")


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(cmd):
    """Runs the harness, forwarding its lines; returns (code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        last = ""
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return code, last


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=19620718)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sf", type=float, default=0.1,
                        help="scale factor (tests use a tiny one)")
    parser.add_argument("--tamper", default="",
                        help="sabotage one output check (tests only)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    listed = {w["name"] for w in spec["workloads"]}
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = os.path.join(root, "perfbench-out")
    work_dir = os.path.join(root, "perfbench-work", run_id)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sf", str(args.sf), "--work-dir", work_dir, "--out-dir", out_dir,
           "--commit", git_commit()]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        code, last = run_harness(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)  # also after a kill
    if not last:
        fail(f"harness exited with code {code} and no result", code or 2)
    result = json.loads(last)
    with open(os.path.join(out_dir, run_id + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    metrics = result["metrics"]
    if args.workload in listed:
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail(f"harness did not report {missing}")
        metrics = {name: metrics[name] for name in wanted}
    print(json.dumps({
        "correct": result["correct"] and code == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
