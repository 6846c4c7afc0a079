#!/usr/bin/env python3
"""Perf-regression gate over bench_query_throughput JSON output.

Compares a fresh run against the checked-in baseline and fails when
aggregate scanned rows/sec drops by more than the threshold (default
30%). The agg_heavy / order_by_heavy group subtotals (when present in
both files) gate at the same threshold, so an aggregation- or
sort-specific regression cannot hide behind the workload-wide total.
Per-template drops are reported for context but do not gate: single
templates are noisy at smoke scale factors.

The WAL durability overhead gates within the current run alone (no
baseline needed): WAL-on data maintenance must keep at least
(1 - threshold) of the WAL-off refresh throughput.

The workload-profile groups (profile_hot_skew / profile_reporting /
profile_chains — the chaos-harness scenario classes run as closed
loops) gate rows/sec against the baseline at the standard threshold
and p99 latency against 3x the baseline p99 (25 ms floor), so a slow
path taken only under skewed binds or session chains cannot hide
behind the uniform sweep.

The optimizer group (join-heavy star templates, where join order and
key pushdown dominate the plan) gates its rows/sec against the baseline
at the standard threshold.

    scripts/check_perf.py <current.json> [baseline.json] [--threshold 0.30]
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / (
    "BENCH_query_throughput.json"
)


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("benchmark") != "bench_query_throughput":
        sys.exit(f"{path}: not a bench_query_throughput JSON file")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="JSON from this run")
    parser.add_argument("baseline", nargs="?", default=str(DEFAULT_BASELINE))
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max allowed fractional drop in rows/sec")
    args = parser.parse_args()

    cur = load(args.current)
    base = load(args.baseline)

    if cur.get("scale_factor") != base.get("scale_factor"):
        print(f"warning: scale factors differ (current "
              f"{cur.get('scale_factor')}, baseline "
              f"{base.get('scale_factor')}); rows/sec still comparable")

    cur_rate = cur["total_rows_per_sec"]
    base_rate = base["total_rows_per_sec"]
    change = (cur_rate - base_rate) / base_rate if base_rate else 0.0
    print(f"aggregate rows/sec: baseline {base_rate:,.0f} -> current "
          f"{cur_rate:,.0f} ({change:+.1%})")

    base_by_id = {t["id"]: t for t in base["templates"]}
    worst = []
    for t in cur["templates"]:
        b = base_by_id.get(t["id"])
        if not b or b["rows_per_sec"] <= 0:
            continue
        delta = (t["rows_per_sec"] - b["rows_per_sec"]) / b["rows_per_sec"]
        if delta < -args.threshold:
            worst.append((delta, t["id"], b["rows_per_sec"],
                          t["rows_per_sec"]))
    for delta, qid, was, now in sorted(worst)[:10]:
        print(f"  note: q{qid:02d} {was:,.0f} -> {now:,.0f} rows/sec "
              f"({delta:+.1%})")

    failures = []
    if base_rate and change < -args.threshold:
        failures.append(f"aggregate rows/sec dropped {-change:.1%}")

    # Operator-shaped subtotals: each group gates independently so a
    # regression confined to aggregation or ordering still fails.
    # service_concurrent gates the admission-control closed loop (128
    # sessions over 2 worker slots) the same way, so service overhead
    # cannot grow unnoticed.
    cur_groups = cur.get("groups", {})
    base_groups = base.get("groups", {})
    for name in ("agg_heavy", "order_by_heavy", "service_concurrent",
                 "optimizer", "profile_hot_skew", "profile_reporting",
                 "profile_chains"):
        if name not in cur_groups or name not in base_groups:
            continue
        cg, bg = cur_groups[name], base_groups[name]
        if not bg.get("rows_per_sec"):
            continue
        gchange = (cg["rows_per_sec"] - bg["rows_per_sec"]) / (
            bg["rows_per_sec"]
        )
        print(f"{name} rows/sec: baseline {bg['rows_per_sec']:,.0f} -> "
              f"current {cg['rows_per_sec']:,.0f} ({gchange:+.1%})")
        if gchange < -args.threshold:
            failures.append(f"{name} rows/sec dropped {-gchange:.1%}")

    # Workload-profile tail latency: each chaos-harness scenario class
    # (skewed binds, reporting-heavy mix, iterative chains) gates its own
    # p99 against 3x the baseline's. A 25 ms floor absorbs scheduler
    # noise on the millisecond-long smoke statements — a genuine tail
    # regression (a slow path taken only under skew or chaining) lands
    # well past 3x.
    for name in ("profile_hot_skew", "profile_reporting", "profile_chains"):
        cg = cur_groups.get(name, {})
        bg = base_groups.get(name, {})
        if cg.get("p99_ms") is None or bg.get("p99_ms") is None:
            continue
        limit = max(bg["p99_ms"], 25.0) * 3.0
        print(f"{name} latency: p50 {cg.get('p50_ms', 0):.1f} ms, "
              f"p99 {cg['p99_ms']:.1f} ms "
              f"(baseline p99 {bg['p99_ms']:.1f} ms, limit {limit:.1f} ms)")
        if cg["p99_ms"] > limit:
            failures.append(
                f"{name} p99 {cg['p99_ms']:.1f} ms exceeds "
                f"{limit:.1f} ms limit")

    # Tail latency of the concurrent-service loop, for context (the
    # closed loop's p99 tracks queue depth; rows/sec above is the gate).
    cur_svc = cur_groups.get("service_concurrent", {})
    if cur_svc.get("p50_ms") is not None:
        print(f"service_concurrent latency: p50 {cur_svc['p50_ms']:.1f} ms, "
              f"p95 {cur_svc.get('p95_ms', 0):.1f} ms, "
              f"p99 {cur_svc.get('p99_ms', 0):.1f} ms "
              f"(peak queue {cur_svc.get('peak_queue_depth', 0)}, "
              f"shed {cur_svc.get('shed', 0)}, "
              f"rejected {cur_svc.get('rejected', 0)})")

    # Durability overhead: WAL-on vs WAL-off maintenance throughput from
    # the same run — a self-relative gate, so it needs no baseline entry.
    dm_off = cur_groups.get("maintenance_wal_off", {})
    dm_on = cur_groups.get("maintenance_wal_on", {})
    if dm_off.get("rows_per_sec") and dm_on.get("rows_per_sec") is not None:
        ratio = dm_on["rows_per_sec"] / dm_off["rows_per_sec"]
        print(f"maintenance rows/sec: wal_off "
              f"{dm_off['rows_per_sec']:,.0f} -> wal_on "
              f"{dm_on['rows_per_sec']:,.0f} ({ratio - 1:+.1%})")
        if ratio < 1.0 - args.threshold:
            failures.append(
                f"WAL-on maintenance throughput is {ratio:.1%} of WAL-off")

    # mmap-attach overhead: attached storage serves queries straight out
    # of the mapping and must keep at least 90% of the heap-loaded
    # throughput from the same run — a fixed floor, independent of the
    # regression threshold, so zero-copy reads never silently decay into
    # a slow path.
    at_heap = cur_groups.get("attach_heap", {})
    at_mmap = cur_groups.get("attach_mmap", {})
    if at_heap.get("rows_per_sec") and at_mmap.get("rows_per_sec") is not None:
        ratio = at_mmap["rows_per_sec"] / at_heap["rows_per_sec"]
        print(f"cold-start rows/sec: heap {at_heap['rows_per_sec']:,.0f} -> "
              f"mmap {at_mmap['rows_per_sec']:,.0f} ({ratio - 1:+.1%}); "
              f"open {at_heap['open_seconds']:.4f}s -> "
              f"{at_mmap['open_seconds']:.4f}s")
        if ratio < 0.90:
            failures.append(
                f"mmap-attach throughput is {ratio:.1%} of heap-loaded "
                "(floor 90%)")

    if failures:
        sys.exit("FAIL: " + "; ".join(failures) +
                 f" (> {args.threshold:.0%} threshold)")
    print("perf gate passed")


if __name__ == "__main__":
    main()
