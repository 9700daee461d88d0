#!/usr/bin/env python3
"""saloha benchmark: end-to-end host-time metrics and a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload slotted-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --pin

One process runs one workload, one operation at a time (a closed loop
with a single client), for ``--seconds`` rounded to a whole number of
operations.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from traced operations, each paired
with an untraced one on the same seed to give the tracing overhead.
The last line of output is one JSON object.  ``--workload all`` runs
every workload and the liveness case, each in a fresh process, and
prints one table.  ``--pin`` re-records ``golden.json``; a change that
alters simulator output must say so when it re-pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

try:
    import workloads
except ImportError as exc:
    sys.exit(f"bench: {exc}")
from tracer import Tracer

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("us_per_uplink", "us"),
    ("peak_rss_mb", "MB"),
)

#: Wrapped functions reported as ``<name>.calls`` and ``<name>.self_s``.
CALLED = (
    "engine.enforce_duty_cycle",
    "timebase.round_half_away_div",
    "timebase.drift_error",
    "sync.needs_resync",
    "sync.SyncState",
    "sync.SyncAck",
    "sync.gateway_record_rx_end",
    "sync.compute_offset",
    "phy.time_on_air",
    "mac.plan_slot",
)
#: Wrapped entry points reported by inclusive time, as ``<metric>``.
TIMED = (
    ("engine.init_s", "engine.init"),
    ("config.load_scenario_s", "config.load_scenario"),
    ("engine.metrics_s", "engine.metrics"),
    ("report.emit_conflict_series_s", "report.emit_conflict_series"),
    ("report.write_summary_s", "report.write_summary"),
    ("report.scan_duty_cycle_s", "report.scan_duty_cycle"),
)
SIMULATED = (
    ("engine.uplinks", "count", "higher"),
    ("engine.ack_exchanges", "count", "lower"),
    ("engine.collided", "count", "lower"),
    ("engine.slotted_uplinks", "count", "higher"),
    ("engine.syncs", "count", "lower"),
    ("engine.gateway_airtime_frac", "ratio", "lower"),
    ("engine.ack_yield", "ratio", "higher"),
    ("engine.delivery_ratio", "ratio", "higher"),
)
PER_LAYER = (
    *((f"{name}.calls", "count", "lower") for name in CALLED),
    *((f"{name}.self_s", "s", "lower") for name in CALLED),
    ("engine.duty_deferrals", "count", "lower"),
    ("engine.core_self_s", "s", "lower"),
    *((metric, "s", "lower") for metric, _ in TIMED),
    ("report.csv_bytes", "bytes", "lower"),
    *SIMULATED,
    ("trace.overhead_s", "s", "lower"),
)

#: The zero predictions of the benchmark design (see README.md): which
#: layer counts must be 0, or above 0, on which workload at the commit
#: that defined the benchmark.  A refactor may change them; the traced
#: run reports each as held or not, and never fails on them.
PREDICTIONS = (
    ("engine.enforce_duty_cycle.calls", ("0", "0", ">0")),
    ("engine.duty_deferrals", ("0", "0", ">0")),
    ("timebase.drift_error.calls", (">0", "0", ">0")),
    ("sync.needs_resync.calls", ("0", "0", ">0")),
    ("sync.SyncState.calls", ("0", "0", ">0")),
    ("sync.SyncAck.calls", (">0", "0", ">0")),
    ("sync.gateway_record_rx_end.calls", (">0", "0", ">0")),
    ("sync.compute_offset.calls", (">0", "0", ">0")),
    ("report.csv_bytes", (">0", "0", "0")),
    ("report.scan_duty_cycle_s", (">0", "0", ">0")),
)
PREDICTED_WORKLOADS = ("slotted-default", "pure-default", "capped-dense")


def machine() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"{platform.system()}-{platform.machine()}"
    )


def spread(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name}: median {statistics.median(values):.6g} {unit} "
        f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})"
    )


def number(value) -> str:
    if value is None:
        return "-"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def timed_loop(seconds: float, once: bool, op):
    """Call ``op(i)`` for ``seconds``, rounded to the nearest whole call."""
    results = []
    start = perf_counter()
    while True:
        results.append(op(len(results)))
        elapsed = perf_counter() - start
        if once or elapsed * (len(results) + 0.5) / len(results) > seconds:
            return results


def measure(wl, bench_seed: int, seconds: float, golden: dict):
    """Untraced run: returns (ops, end-to-end metrics)."""
    setup = []

    def operation(i):
        # Set-up repetitions are spread over the run like the operations.
        seed = workloads.scenario_seed(wl, bench_seed, i)
        setup.extend(workloads.time_setup(wl, seed) for _ in range(workloads.SETUP_REPS))
        return workloads.attempt(wl, seed, golden)

    ops = timed_loop(seconds, wl.fixed_seed is not None, operation)
    good = [op for op in ops if not op.error]
    samples = {"setup_s": setup, "peak_rss_mb": [workloads.peak_rss_mb()]}
    if good:
        samples["wall_s"] = [op.wall_s for op in good]
        samples["us_per_uplink"] = [op.us_per_uplink for op in good]
    metrics = {}
    for name, unit in END_TO_END:
        if name in samples:
            print(spread(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return ops, metrics


def measure_traced(wl, bench_seed: int, seconds: float, golden: dict):
    """Traced run: returns (ops, per-layer metrics)."""
    seed = workloads.scenario_seed(wl, bench_seed, 0)

    def pair(_i):
        plain = workloads.attempt(wl, seed, golden)
        with Tracer() as tracer:
            traced = workloads.attempt(wl, seed, golden)
        return plain, traced, tracer.spans

    pairs = timed_loop(seconds, wl.fixed_seed is not None, pair)
    ops = [op for plain, traced, _ in pairs for op in (plain, traced)]
    good = [p for p in pairs if not p[0].error and not p[1].error]
    if not good:
        return ops, {}
    # Counts repeat exactly for one seed; times are medians over pairs.
    _, first, first_spans = good[0]
    values = {f"{name}.calls": first_spans[name].calls for name in CALLED}
    for name in CALLED:
        values[f"{name}.self_s"] = statistics.median(s[name].self_s for *_, s in good)
    values["engine.duty_deferrals"] = first_spans["engine.enforce_duty_cycle"].results
    values["engine.core_self_s"] = statistics.median(
        s["engine.run"].self_s for *_, s in good
    )
    for metric, span in TIMED:
        values[metric] = statistics.median(s[span].total_s for *_, s in good)
    values["report.csv_bytes"] = first.csv_bytes
    for name, _, _ in SIMULATED:
        values[name] = first.counts[name]
    overheads = [traced.wall_s - plain.wall_s for plain, traced, _ in good]
    print(spread("trace.overhead_s", overheads, "s"))
    values["trace.overhead_s"] = statistics.median(overheads)
    report_predictions(wl.name, values)
    return ops, {
        name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
    }


def report_predictions(workload: str, values: dict) -> None:
    if workload not in PREDICTED_WORKLOADS:
        return
    column = PREDICTED_WORKLOADS.index(workload)
    for metric, expected in PREDICTIONS:
        want = expected[column]
        held = values[metric] == 0 if want == "0" else values[metric] > 0
        print(
            f"prediction {metric} {want} on {workload}: "
            f"{'held' if held else 'NOT HELD'} ({values[metric]:.6g})"
        )


def run_one(args) -> int:
    wl = workloads.ALL_CASES[args.workload]
    golden = workloads.load_golden()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} machine {machine()}")
    try:
        if args.trace:
            ops, metrics = measure_traced(wl, args.seed, args.seconds, golden)
        else:
            ops, metrics = measure(wl, args.seed, args.seconds, golden)
    finally:
        workloads.clear_outputs()
    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"FAILED {wl.name} scenario seed {op.seed}: {op.error}")
    print(f"failed_frac: {len(failed)}/{len(ops)} operations")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload (and, untraced, the liveness case) in a fresh process."""
    names = [*workloads.WORKLOADS] + ([] if args.trace else [workloads.LIVENESS.name])
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
    print()
    if args.trace:
        print(f"{'metric':40}" + "".join(f"{n:>18}" for n in names) + "  unit")
        for metric, unit, _ in PER_LAYER:
            values = (results[n]["metrics"].get(metric, {}).get("value") for n in names)
            cells = "".join(f"{number(v):>18}" for v in values)
            print(f"{metric:40}{cells}  {unit}")
    else:
        header = [f"{m} [{u}]" for m, u in END_TO_END] + ["failed_frac"]
        print(f"{'workload':18}" + "".join(f"{h:>20}" for h in header))
        for name in names:
            res = results[name]
            cells = [number(res["metrics"].get(m, {}).get("value")) for m, _ in END_TO_END]
            frac = res["failed"] / res["attempted"]
            cells.append(f"{frac:.3g} ({res['failed']}/{res['attempted']})")
            print(f"{name:18}" + "".join(f"{c:>20}" for c in cells))
    return 0


def pin() -> int:
    """Record digests and counts of every workload on every scenario seed."""
    golden = {}
    for wl in workloads.WORKLOADS.values():
        golden[wl.name] = {}
        for seed in workloads.SCENARIO_SEEDS:
            with workloads.deadline(wl.deadline_s):
                res = workloads.run_op(wl, seed)
            golden[wl.name][str(seed)] = {"digests": res.digests, "counts": res.counts}
            print(f"pinned {wl.name} seed {seed}: {res.uplinks} uplinks, "
                  f"{res.wall_s:.2f} s")
    workloads.clear_outputs()
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload, 'liveness' or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-record golden.json")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.ALL_CASES:
        parser.error(f"--workload must be one of {', '.join(workloads.ALL_CASES)}, all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
