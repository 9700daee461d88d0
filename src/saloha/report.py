"""Figure-ready CSV emitters, summary report, and trace verification.

Every file is a pure function of (config, seed): rows are integers or
repr'd floats, so reruns are byte-identical.  The summary totals are
recomputed from the trace columns rather than copied from the engine's
counters, and the duty-cycle scanner here is an independent check, not
a reuse of the enforcement path.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .config import config_digest
from .engine import Metrics, ScenarioConfig, Trace
from .mac import max_node_dc
from .timebase import NS_PER_MS, NS_PER_SEC, drift_error


class ReportError(RuntimeError):
    """I/O failure while emitting results.  Malformed arguments raise
    ``ValueError`` before any file is opened."""


def emit_conflict_series(trace: Trace, path: str) -> None:
    """One row per transmission, in event order: a 0/1 conflict series
    with timing context, ready for downstream plotting."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,node_id,true_start_ns,slot_index,channel,conflict\n")
            for i in range(len(trace)):
                slot = trace.slot_index[i]
                fh.write(
                    f"{i},{trace.node_id[i]},{trace.true_start[i]},"
                    f"{'' if slot < 0 else slot},{trace.channel[i]},"
                    f"{trace.collided[i]}\n"
                )
    except OSError as exc:
        raise ReportError(f"cannot write conflict series to {path}: {exc}") from exc


def emit_dc_curve(
    policies: Sequence[str], n_range: Iterable[int], cap: float, path: str
) -> None:
    """Maximum per-node duty cycle versus network size, per policy."""
    rows = []
    for n in n_range:
        for policy in policies:
            rows.append((n, policy, max_node_dc(policy, n, cap)))
    if not rows:
        raise ValueError("empty n_range for duty-cycle curve")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n_nodes,policy,max_dc\n")
            for n, policy, dc in rows:
                fh.write(f"{n},{policy},{dc!r}\n")
    except OSError as exc:
        raise ReportError(f"cannot write duty-cycle curve to {path}: {exc}") from exc


def emit_drift_curve(
    ppm_values: Sequence[float], horizon: int, step: int, path: str
) -> None:
    """Accumulated clock error versus elapsed time, one column triple
    per row: elapsed seconds, ppm, error in milliseconds."""
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    if not all(math.isfinite(ppm) for ppm in ppm_values):
        raise ValueError(f"ppm values must be finite, got {list(ppm_values)}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("elapsed_s,ppm,error_ms\n")
            elapsed = 0
            while elapsed <= horizon:
                for ppm in ppm_values:
                    err_ms = drift_error(ppm, elapsed) / NS_PER_MS
                    fh.write(f"{elapsed / NS_PER_SEC!r},{ppm!r},{err_ms!r}\n")
                elapsed += step
    except OSError as exc:
        raise ReportError(f"cannot write drift curve to {path}: {exc}") from exc


def scan_duty_cycle(
    trace: Trace, n_nodes: int, cap: float, window: int
) -> list[tuple[int, int, float]]:
    """Post-hoc sliding-window duty-cycle audit.

    Returns (node_id, window_end_ns, fraction) for every violation; an
    empty list means every node stayed within the cap in every window.
    The maximum over all window placements is attained with the window
    ending at a transmission end, so those anchors suffice.
    """
    by_node: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for i in range(len(trace)):
        by_node[trace.node_id[i]].append((trace.true_start[i], trace.duration[i]))
    violations = []
    for node, txs in enumerate(by_node):
        txs.sort()
        lo = 0
        running = 0
        for start, dur in txs:
            end = start + dur
            running += dur
            win_start = end - window
            while lo < len(txs) and txs[lo][0] + txs[lo][1] <= win_start:
                running -= txs[lo][1]
                lo += 1
            # subtract the clipped part of the oldest partially-covered entry
            airtime = running
            if lo < len(txs) and txs[lo][0] < win_start:
                airtime -= win_start - txs[lo][0]
            fraction = airtime / window
            if fraction > cap:
                violations.append((node, end, fraction))
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_summary(config, metrics))
    except OSError as exc:
        raise ReportError(f"cannot write summary to {path}: {exc}") from exc
