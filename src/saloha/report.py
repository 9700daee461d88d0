"""Figure-ready CSV emitters, summary report, and trace verification.

Every file is a pure function of (config, seed): rows are integers or
repr'd floats, so reruns are byte-identical.  The summary totals are
recomputed from the trace columns rather than copied from the engine's
counters, and the duty-cycle scanner here is an independent check, not
a reuse of the enforcement path.  Malformed arguments raise
``ValueError`` before any file is opened; an I/O failure propagates as
the ``OSError`` that names the path.
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter
from typing import Iterable, Sequence

from .config import config_digest
from .engine import Metrics, ScenarioConfig, Trace
from .mac import max_node_dc
from .timebase import MAX_ABS_DRIFT_PPM, NS_PER_MS, NS_PER_SEC, drift_error

#: The most rows a drift curve may hold, about 40 MB of CSV.
MAX_DRIFT_CURVE_ROWS = 1_000_000


def emit_conflict_series(trace: Trace, path: str) -> None:
    """One row per transmission, in event order: a 0/1 conflict series
    with timing context, ready for downstream plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,node_id,true_start_ns,slot_index,channel,conflict\n")
        rows = zip(
            trace.node_id,
            trace.true_start,
            trace.slot_index,
            trace.channel,
            trace.collided,
        )
        for i, (node, start, slot, channel, hit) in enumerate(rows):
            fh.write(
                f"{i},{node},{start},{'' if slot < 0 else slot},{channel},{hit}\n"
            )


def emit_dc_curve(
    policies: Sequence[str], n_range: Iterable[int], cap: float, path: str
) -> None:
    """Maximum per-node duty cycle versus network size, per policy."""
    if not policies:
        raise ValueError("empty policies for duty-cycle curve")
    rows = []
    for n in n_range:
        for policy in policies:
            rows.append((n, policy, max_node_dc(policy, n, cap)))
    if not rows:
        raise ValueError("empty n_range for duty-cycle curve")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n_nodes,policy,max_dc\n")
        for n, policy, dc in rows:
            fh.write(f"{n},{policy},{dc!r}\n")


def emit_drift_curve(
    ppm_values: Sequence[float], horizon: int, step: int, path: str
) -> None:
    """Accumulated clock error versus elapsed time, one column triple
    per row: elapsed seconds, ppm, error in milliseconds."""
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    if not ppm_values:
        raise ValueError("empty ppm values for drift curve")
    # Past the drift a scenario may hold, an error can overflow a float.
    if not all(abs(ppm) <= MAX_ABS_DRIFT_PPM for ppm in ppm_values):
        raise ValueError(
            f"ppm values must be finite and within ±{MAX_ABS_DRIFT_PPM:g}, "
            f"got {list(ppm_values)}"
        )
    rows = (horizon // step + 1) * len(ppm_values)
    if rows > MAX_DRIFT_CURVE_ROWS:
        raise ValueError(
            f"drift curve of {rows} rows exceeds {MAX_DRIFT_CURVE_ROWS}: "
            "raise the step or shorten the horizon"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("elapsed_s,ppm,error_ms\n")
        elapsed = 0
        while elapsed <= horizon:
            for ppm in ppm_values:
                err_ms = drift_error(ppm, elapsed) / NS_PER_MS
                fh.write(f"{elapsed / NS_PER_SEC!r},{ppm!r},{err_ms!r}\n")
            elapsed += step


def scan_duty_cycle(
    trace: Trace, n_nodes: int, cap: float, window: int
) -> list[tuple[int, int, float]]:
    """Post-hoc sliding-window duty-cycle audit.

    Returns (node_id, window_end_ns, fraction) for every violation,
    grouped by node and in start order within a node; an empty list
    means every node stayed within the cap in every window.  The maximum
    over all window placements is attained with the window ending at a
    transmission end, so those anchors suffice.

    One pass over the trace columns: each node keeps only the entries
    still inside its window.  A node's uplinks must appear in
    (start, duration) order, as the engine writes them.
    """
    if window <= 0:
        raise ValueError(f"duty-cycle window must be positive, got {window}")
    if len(trace) and (min(trace.node_id) < 0 or max(trace.node_id) >= n_nodes):
        raise ValueError(f"trace has a node_id outside [0, {n_nodes})")
    in_window: list[deque[tuple[int, int]]] = [deque() for _ in range(n_nodes)]
    running = [0] * n_nodes
    violations = []
    for node, start, dur in zip(trace.node_id, trace.true_start, trace.duration):
        txs = in_window[node]
        entry = (start, dur)
        # The newest entry never leaves its own window, so txs[-1] is
        # always this node's previous uplink.
        if txs and entry < txs[-1]:
            raise ValueError(
                f"node {node}: uplink {entry} precedes {txs[-1]} in the trace"
            )
        txs.append(entry)
        airtime = running[node] + dur
        end = start + dur
        win_start = end - window
        head_start, head_dur = txs[0]
        while head_start + head_dur <= win_start:
            airtime -= head_dur
            txs.popleft()
            head_start, head_dur = txs[0]
        running[node] = airtime
        # subtract the clipped part of the oldest partially-covered entry
        if head_start < win_start:
            airtime -= win_start - head_start
        fraction = airtime / window
        if fraction > cap:
            violations.append((node, end, fraction))
    violations.sort(key=itemgetter(0))
    return violations


def steady_ratio(pure: Metrics, slotted: Metrics) -> float:
    """Collision-probability reduction of slotted over pure access in
    steady state; infinite when the slotted run is collision-free."""
    s = slotted.steady_state_collision_probability
    p = pure.steady_state_collision_probability
    if s == 0.0:
        return math.inf if p > 0.0 else 1.0
    return p / s


def format_summary(config: ScenarioConfig, metrics: Metrics) -> str:
    """Human-readable run report; totals recomputed downstream of the
    trace, never a second bookkeeping path."""
    lines = [
        "saloha simulation summary",
        f"config_digest: {config_digest(config)}",
        f"seed: {config.seed}",
        f"policy: {config.policy.variant}",
        f"nodes: {config.n_nodes}",
        f"channels: {config.n_channels}",
        f"simulated: {config.duration / NS_PER_SEC!r} s",
        f"warmup_cutoff: {metrics.warmup_ns / NS_PER_SEC!r} s",
        f"transmissions: {metrics.transmissions}",
        f"conflicts: {metrics.conflicts}",
        f"collision_probability: {metrics.collision_probability!r}",
        f"steady_transmissions: {metrics.steady_transmissions}",
        f"steady_conflicts: {metrics.steady_conflicts}",
        "steady_state_collision_probability: "
        f"{metrics.steady_state_collision_probability!r}",
        f"warmup_transmissions: {metrics.warmup_transmissions}",
        f"warmup_conflicts: {metrics.warmup_conflicts}",
        f"throughput_fraction: {metrics.throughput_fraction!r}",
        "per_node (node transmissions conflicts):",
    ]
    for node, (tx, hit) in enumerate(metrics.per_node):
        lines.append(f"  {node} {tx} {hit}")
    return "\n".join(lines) + "\n"


def write_summary(config: ScenarioConfig, metrics: Metrics, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_summary(config, metrics))
