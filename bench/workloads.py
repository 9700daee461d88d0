"""Benchmark workloads: scenarios, the timed operation, and output digests.

Each workload is one scenario run through the same library calls that
``saloha simulate`` or ``saloha compare`` make.  The benchmark seed
never reaches the simulator directly: it picks scenario seeds from a
pinned pool, so every operation's outputs can be checked against
digests recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import signal
import sys
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# The benchmark measures this checkout's source, never an installed copy.
sys.path.insert(0, str(SRC_DIR))
from saloha import config, engine, report  # noqa: E402

if Path(config.__file__).resolve().parent.parent != SRC_DIR:
    raise ImportError(f"saloha resolved to {config.__file__}, not under {SRC_DIR}")
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / ".out"

#: Scenario seeds with pinned digests.  Operation ``i`` of a run with
#: benchmark seed ``s`` simulates ``SCENARIO_SEEDS[(s + i) % 8]``.
SCENARIO_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Set-up repetitions before each operation; ``setup_s`` is their median.
SETUP_REPS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    writes_csv: bool  # emit_conflict_series + write_summary, as `simulate`
    audits: bool  # scan_duty_cycle after the run
    deadline_s: float
    fixed_seed: int | None = None  # a reproducer pins its scenario seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="slotted-default",
            why="default 7-day slotted run via the simulate path: a sync round "
            "trip per uplink, the clock map and the only CSV writers",
            scenario="[scenario]\nduration = 7 d\n",
            writes_csv=True,
            audits=True,
            deadline_s=90.0,
        ),
        Workload(
            name="pure-default",
            why="compare's 7-day pure baseline, run plus metrics: no sync, "
            "slot alignment, duty slow path or CSV, so those layers stay flat",
            scenario="[scenario]\nduration = 7 d\nconfirmed_uplinks = none\n"
            "[mac]\npolicy = pure\n",
            writes_csv=False,
            audits=False,
            deadline_s=45.0,
        ),
        Workload(
            name="capped-dense",
            why="60 nodes at 1.43% offered load against the 1% cap, 6 random "
            "channels: duty slow path, on-demand resync, heavy collisions",
            scenario="[scenario]\nn_nodes = 60\napp_period = 12 s\n"
            "n_channels = 6\nchannel_selection = uniform-random\n"
            "jitter = 2 s\nconfirmed_uplinks = on-demand\nduration = 2 h\n"
            "[mac]\npolicy = slotted\n",
            writes_csv=False,
            audits=True,
            deadline_s=45.0,
        ),
    )
}

#: Known defect, kept out of the timed workloads: an unslotted duty
#: deferral maps ``defer`` to local time and back to ``defer - 1``, so
#: ``enforce_duty_cycle`` returns the same instant forever.  The
#: operation must end as a deadline failure until the engine is fixed.
LIVENESS = Workload(
    name="liveness",
    why="pure ALOHA over the duty cap livelocks in _schedule_next_tx",
    scenario="[scenario]\nn_nodes = 4\napp_period = 15 s\nn_channels = 1\n"
    "confirmed_uplinks = none\nduration = 1 d\n[mac]\npolicy = pure\n",
    writes_csv=False,
    audits=False,
    deadline_s=5.0,
    fixed_seed=7,
)

ALL_CASES = {**WORKLOADS, LIVENESS.name: LIVENESS}


def scenario_seed(workload: Workload, bench_seed: int, index: int) -> int:
    if workload.fixed_seed is not None:
        return workload.fixed_seed
    return SCENARIO_SEEDS[(bench_seed + index) % len(SCENARIO_SEEDS)]


class DeadlineExceeded(Exception):
    """An operation ran past its workload's deadline."""


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread after ``seconds``."""

    def fire(_signum, _frame):
        raise DeadlineExceeded(f"missed its {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def time_setup(workload: Workload, seed: int) -> float:
    """Host seconds for config load plus engine construction."""
    t0 = perf_counter()
    engine.Engine(config.load_scenario(workload.scenario, seed=seed))
    return perf_counter() - t0


@dataclass
class OpResult:
    seed: int
    wall_s: float = 0.0
    run_s: float = 0.0
    uplinks: int = 0
    csv_bytes: int = 0
    counts: dict | None = None
    digests: dict | None = None
    error: str = ""

    @property
    def us_per_uplink(self) -> float:
        return self.run_s * 1e6 / self.uplinks


def run_op(workload: Workload, seed: int) -> OpResult:
    """One timed operation plus the digests of everything it produced.

    Library entry points are looked up through their modules at call
    time so that a traced run sees every call.
    """
    res = OpResult(seed=seed)
    csv_path = OUT_DIR / "trace.csv"
    summary_path = OUT_DIR / "summary.txt"
    if workload.writes_csv:
        OUT_DIR.mkdir(exist_ok=True)
    t0 = perf_counter()
    cfg = config.load_scenario(workload.scenario, seed=seed)
    eng = engine.Engine(cfg)
    t1 = perf_counter()
    trace, metrics = eng.run()
    t2 = perf_counter()
    if workload.writes_csv:
        report.emit_conflict_series(trace, str(csv_path))
        report.write_summary(cfg, metrics, str(summary_path))
    violations = []
    if workload.audits:
        violations = report.scan_duty_cycle(
            trace, cfg.n_nodes, cfg.duty_cycle_cap, cfg.dc_window
        )
    t3 = perf_counter()
    res.wall_s = t3 - t0
    res.run_s = t2 - t1
    res.uplinks = len(trace)
    res.counts = simulated_counts(eng, len(violations))
    res.digests = {"trace": trace_digest(trace)}
    if workload.writes_csv:
        res.csv_bytes = csv_path.stat().st_size
        res.digests["csv"] = file_digest(csv_path)
        res.digests["summary"] = file_digest(summary_path)
    else:
        summary = report.format_summary(cfg, metrics).encode("utf-8")
        res.digests["summary"] = hashlib.sha256(summary).hexdigest()
    return res


def simulated_counts(eng: engine.Engine, duty_violations: int) -> dict:
    """Behaviour counters of a finished run; they must repeat exactly."""
    trace = eng.trace
    n = len(trace)
    collided = sum(trace.collided)
    confirmed = sum(trace.confirmed)
    acked = sum(trace.acked)
    return {
        "engine.uplinks": n,
        "engine.ack_exchanges": confirmed,
        "engine.collided": collided,
        "engine.slotted_uplinks": n - trace.slot_index.count(-1),
        "engine.syncs": sum(nd.n_syncs for nd in eng.nodes),
        "engine.gateway_airtime_frac": eng.gateway_airtime / eng.config.duration,
        "engine.ack_yield": acked / confirmed if confirmed else 0.0,
        "engine.delivery_ratio": (n - collided) / n,
        "report.duty_violations": duty_violations,
    }


def trace_digest(trace: engine.Trace) -> str:
    h = hashlib.sha256()
    for name in ("node_id", "true_start", "local_start", "slot_index", "channel",
                 "duration"):
        h.update(name.encode())
        h.update(array("q", getattr(trace, name)).tobytes())
    for name in ("collided", "acked", "confirmed"):
        h.update(name.encode())
        h.update(bytes(getattr(trace, name)))
    return h.hexdigest()


def file_digest(path: Path) -> str:
    # Chunked, so that checking the CSV does not raise the peak RSS.
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(golden: dict, workload: Workload, res: OpResult) -> str:
    """Empty string when the operation's outputs match the pinned ones."""
    pinned = golden.get(workload.name, {}).get(str(res.seed))
    if pinned is None:
        return f"no pinned digests for seed {res.seed}"
    got = {"digests": res.digests, "counts": res.counts}
    bad = [
        f"{part}.{key}"
        for part in ("digests", "counts")
        for key in sorted(set(pinned[part]) | set(got[part]))
        if pinned[part].get(key) != got[part].get(key)
    ]
    return f"output differs from pinned: {', '.join(bad)}" if bad else ""


def attempt(workload: Workload, seed: int, golden: dict) -> OpResult:
    """Run one operation under its deadline; failures land in ``error``."""
    try:
        with deadline(workload.deadline_s):
            res = run_op(workload, seed)
    except DeadlineExceeded as exc:
        return OpResult(seed=seed, error=f"deadline: {exc}")
    except Exception as exc:  # an operation that raises counts as failed
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return OpResult(
            seed=seed,
            error=f"raised {type(exc).__name__}: {exc} "
            f"at {where.filename}:{where.lineno}",
        )
    res.error = check(golden, workload, res)
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_outputs() -> None:
    shutil.rmtree(OUT_DIR, ignore_errors=True)
