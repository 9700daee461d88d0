"""Layer tracing from outside the program.

The tracer replaces saloha callables at their module or class
attributes with timing wrappers, and puts the originals back on exit.
Spans stay in memory: each one is folded into per-name aggregates as
it closes (calls, inclusive time, self time), where self time is the
span's duration minus the part its wrapped children cover.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: (span name, owner, attribute).  The owner is a module, or a module
#: and class joined by ``:``.  Several bindings of one function share a
#: span name, e.g. ``drift_error`` as imported by ``engine`` and ``sync``.
TARGETS = (
    ("config.load_scenario", "saloha.config", "load_scenario"),
    ("mac.plan_slot", "saloha.config", "plan_slot"),
    ("phy.time_on_air", "saloha.engine", "time_on_air"),
    ("phy.time_on_air", "saloha.mac", "time_on_air"),
    ("engine.init", "saloha.engine:Engine", "__init__"),
    ("engine.run", "saloha.engine:Engine", "run"),
    ("engine.metrics", "saloha.engine:Engine", "metrics"),
    ("engine.enforce_duty_cycle", "saloha.engine", "enforce_duty_cycle"),
    ("timebase.round_half_away_div", "saloha.engine", "round_half_away_div"),
    ("timebase.drift_error", "saloha.engine", "drift_error"),
    ("timebase.drift_error", "saloha.sync", "drift_error"),
    ("sync.needs_resync", "saloha.sync", "needs_resync"),
    ("sync.SyncState", "saloha.sync", "SyncState"),
    ("sync.SyncAck", "saloha.sync", "SyncAck"),
    ("sync.gateway_record_rx_end", "saloha.sync", "gateway_record_rx_end"),
    ("sync.compute_offset", "saloha.sync", "compute_offset"),
    ("report.emit_conflict_series", "saloha.report", "emit_conflict_series"),
    ("report.write_summary", "saloha.report", "write_summary"),
    ("report.scan_duty_cycle", "saloha.report", "scan_duty_cycle"),
)

#: Spans whose non-None results are also counted (duty deferrals).
COUNT_RESULTS = {"engine.enforce_duty_cycle"}


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Span:
    __slots__ = ("calls", "total_s", "self_s", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.results = 0


class Tracer:
    """Context manager that wraps ``targets`` while it is active.

    A target whose owner or attribute no longer exists is skipped, so
    its span reports 0 calls.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans = {name: Span() for name, _, _ in targets}
        self._stack: list[float] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, owner_path, attr in self.targets:
            owner = resolve_owner(owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(attr, original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, attr: str, fn, name: str):
        span = self.spans[name]
        stack = self._stack
        count_results = name in COUNT_RESULTS

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                span.calls += 1
                span.total_s += dur
                span.self_s += dur - child
                if count_results and result is not None:
                    span.results += 1
                if stack:
                    stack[-1] += dur

        traced.__name__ = attr
        traced.__wrapped__ = fn
        return traced
