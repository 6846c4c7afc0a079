#!/usr/bin/env python3
"""The benchmark's own tests: tiny-SF smoke runs of every workload.

    python3 perfbench/tests/test_perfbench.py

Each workload runs untraced and traced at SF 0.002 for one second. The
tests check that every metric the workload defines is printed with its
unit, that run.py's last line carries exactly the metrics BENCHMARK.json
lists, and that every output check trips (non-zero exit, the check named)
when the harness is told to sabotage it. Builds the harness first, like
run.py does.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SF = "0.002"
SEED = "7"  # not the default seed: a held-out seed must run cleanly too

# Metrics each workload prints (README.md, "Metrics"), by run kind.
END_TO_END = {
    "power": ["setup_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms",
              "power_stream_s", "primary_s", "failed_frac"],
    "refresh_read": ["setup_s", "peak_rss_mb", "query_p50_ms",
                     "query_p95_ms", "refresh_rows_per_s", "recovery_s",
                     "primary_s", "failed_frac"],
    "throughput": ["setup_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms",
                   "qphds", "t_load_s", "t_qr_s", "t_dm_s", "primary_s",
                   "failed_frac"],
}
SETUP_LAYERS = ["dsgen.load_s", "dsgen.rows_per_s", "storage.analyze_s",
                "storage.checkpoint_save_s",
                "storage.checkpoint_bytes_per_row", "storage.attach_ms",
                "storage.audit_s", "qgen.instantiate_us.p50"]
PER_LAYER = {
    "power": SETUP_LAYERS + [
        "parser.parse_us.p50", "plan.build_us.p50", "plan.build_s",
        "plan.q_error.p50", "plan.q_error.max", "executor.exec_s",
        "executor.exec_ms.p50", "executor.exec_ms.p95", "executor.warmup_s",
        "executor.op.scan_s", "executor.op.star_semijoin_s",
        "executor.op.hash_join_s", "executor.op.index_join_s",
        "executor.op.filter_s", "executor.op.aggregate_s",
        "executor.op.window_s", "executor.op.project_s",
        "executor.op.sort_s", "executor.op.topk_s", "executor.op.set_op_s",
        "executor.op.other_s", "executor.rows_scanned",
        "executor.bytes_touched", "executor.morsels_pruned",
        "executor.bloom_rejects", "executor.topk_kept_frac",
        "executor.result_rows"],
    "refresh_read": SETUP_LAYERS + [
        "executor.exec_ms.p50", "executor.exec_ms.p95",
        "executor.rows_scanned", "executor.result_rows",
        "service.queue_ms.p50", "service.queue_ms.p95",
        "service.exec_ms.p50", "service.peak_queue_depth", "service.shed",
        "service.rejected", "maintenance.cycle_ms.p50", "maintenance.rows",
        "maintenance.op.scd_update_s", "maintenance.op.inplace_update_s",
        "maintenance.op.fact_insert_s", "maintenance.op.fact_delete_s",
        "wal.bytes_per_row", "recovery.checkpoint_load_s",
        "recovery.replay_s", "recovery.records_replayed",
        "recovery.verify_s", "loadgen.lag_p95_ms"],
    "throughput": [
        "storage.audit_s", "driver.t_qr1_s", "driver.t_qr2_s",
        "driver.retries", "service.peak_queue_depth", "service.shed",
        "service.rejected", "maintenance.rows"],
}
CHECKS = {
    "power": ["power-digest"],
    "refresh_read": ["refresh-lost-ticket", "refresh-counters",
                     "refresh-generation", "refresh-hash"],
    "throughput": ["throughput-failures", "throughput-counters",
                   "throughput-pool", "throughput-audit"],
}
METRIC_LINE = re.compile(r"^metric (\S+)\s+(-?[0-9.]+)\s+(\S+)\s+n=(\d+)$")


def run(workload, trace=0, tamper=None, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace), "--sf", SF]
    if tamper:
        cmd += ["--tamper", tamper]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        lines = done.stdout.strip().splitlines()
        printed = {}
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                printed[m.group(1)] = (m.group(3), int(m.group(4)))
        names = END_TO_END[workload] + (PER_LAYER[workload] if trace else [])
        for name in names:
            self.assertIn(name, printed, f"{workload}: {name} not printed")
        self.assertIn('"seed": 7', done.stdout)  # the fingerprint line

        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        s = spec()
        if workload in {w["name"] for w in s["workloads"]}:
            listed = s["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in listed})
            for m in listed:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertEqual(printed[m["name"]][0], m["unit"], m["name"])
                self.assertIsInstance(got["value"], (int, float))

    def test_power(self):
        self.check_run("power", 0)
        self.check_run("power", 1)

    def test_refresh_read(self):
        self.check_run("refresh_read", 0)
        self.check_run("refresh_read", 1)

    def test_throughput(self):
        self.check_run("throughput", 0)
        self.check_run("throughput", 1)

    def test_every_check_trips(self):
        for workload, checks in CHECKS.items():
            for check in checks:
                with self.subTest(check=check):
                    done = run(workload, tamper=check)
                    self.assertNotEqual(done.returncode, 0)
                    self.assertIn(f"CHECK FAILED {check}:", done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertFalse(result["correct"])

    def test_fails_without_the_engine_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build:
        # run.py must exit non-zero without printing a result.
        scratch = os.path.join(ROOT, ".bench_build", "isolated-test")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "power",
                 "--seed", SEED, "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
