"""Acceptance gate: eight release criteria, one verdict line each.

Each test prints a single ``CRITERION n: PASS/FAIL`` line on the real
terminal (capture disabled for that line) and then asserts.  Tolerances
are pinned in the assertions themselves.
"""

import filecmp
import math
import os
import random
from dataclasses import replace

import pytest

from saloha import report
from saloha.cli import EXIT_OK, main
from saloha.config import load_scenario, pure_baseline
from saloha.engine import Engine
from saloha.mac import PURE_ALOHA_PEAK, SLOTTED_ALOHA_PEAK, plan_slot
from saloha.phy import RadioProfile, time_on_air
from saloha.timebase import NS_PER_MS, NS_PER_SEC, NS_PER_US, drift_error
from saloha.timebase import ppm_ratio, round_half_away_div

from oracles import node_misalignment
from test_phy import oracle_time_on_air_ns, random_profile

DAY = 86400 * NS_PER_SEC
GUARD = 400 * NS_PER_MS
SEEDS = range(1, 11)


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def paired_runs():
    """Ten paired-seed 7-day runs: 20 nodes, 30 s period, SF7 airtime
    172 ms (duty cycle 0.57%), slotted versus an unsynchronized pure
    baseline.  Traces are audited for duty-cycle compliance on the fly
    and then discarded."""
    results = []
    duty_violations = []
    for seed in SEEDS:
        slotted_cfg = load_scenario("", seed=seed, duration=7 * DAY, policy="slotted")
        pure_cfg = pure_baseline(slotted_cfg)
        for cfg in (pure_cfg, slotted_cfg):
            trace, metrics = Engine(cfg).run()
            duty_violations.extend(
                report.scan_duty_cycle(trace, cfg.n_nodes, 0.01, cfg.dc_window)
            )
            results.append((seed, cfg.policy.variant, metrics))
    return results, duty_violations


def test_criterion_1_airtime_checkpoints(capsys):
    short_range = RadioProfile(
        spreading_factor=7,
        bandwidth_hz=125_000,
        coding_rate_index=1,
        preamble_symbols=6,
        payload_bytes=101,
    )
    long_range = RadioProfile(
        spreading_factor=9,
        bandwidth_hz=250_000,
        coding_rate_index=1,
        preamble_symbols=6,
        payload_bytes=200,
    )
    toa_short = time_on_air(short_range)
    toa_long = time_on_air(long_range)
    ok_short = abs(toa_short - 167 * NS_PER_MS) <= 0.05 * 167 * NS_PER_MS
    ok_long = abs(toa_long - 546 * NS_PER_MS) <= 0.12 * 546 * NS_PER_MS
    rng = random.Random(1)
    mismatches = sum(
        1
        for _ in range(1000)
        if (lambda p: time_on_air(p) != oracle_time_on_air_ns(p))(random_profile(rng))
    )
    ok = ok_short and ok_long and mismatches == 0
    verdict(
        capsys,
        1,
        ok,
        f"toa {toa_short / NS_PER_MS:.3f} ms (167 +-5%), "
        f"{toa_long / NS_PER_MS:.3f} ms (546 +-12%), "
        f"oracle mismatches {mismatches}/1000",
    )


def test_criterion_2_slot_sizing(capsys):
    up = RadioProfile(
        spreading_factor=9, bandwidth_hz=250_000, preamble_symbols=6, payload_bytes=200
    )
    ack = RadioProfile(
        spreading_factor=9, bandwidth_hz=250_000, preamble_symbols=6, payload_bytes=13
    )
    plan = plan_slot(up, ack, NS_PER_SEC, GUARD, 100 * NS_PER_MS)
    interval = 4_812_500_000_000  # 4812.5 s, about 80 minutes
    # The guard absorbs the 15 ms sync residual plus 80 ppm of drift over
    # one resync interval; the interval is that relation solved back.
    residual = 15 * NS_PER_MS
    guard_back = residual + drift_error(80.0, interval)
    num, den = ppm_ratio(80.0)
    interval_back = round_half_away_div((GUARD - residual) * den, num)
    ok = (
        abs(plan.t_r - 1_600 * NS_PER_MS) <= 0.05 * 1_600 * NS_PER_MS
        and plan.t == 2 * NS_PER_SEC
        and abs(guard_back - GUARD) <= NS_PER_US
        and abs(interval_back - interval) <= NS_PER_US
    )
    verdict(
        capsys,
        2,
        ok,
        f"t_r {plan.t_r / NS_PER_SEC:.6f} s (~1.6 s), T {plan.t / NS_PER_SEC} s, "
        f"guard {guard_back / NS_PER_MS} ms, interval {interval_back / NS_PER_SEC} s "
        "(both exact to 1 us)",
    )


def test_criterion_3_synchronization_bound(capsys):
    base = replace(
        load_scenario("", seed=0, duration=DAY, warmup=0),
        n_nodes=1,
        app_period=1800 * NS_PER_SEC,
        confirmed_mode="on-demand",
    )
    post_bound = 15 * NS_PER_MS + 20 * NS_PER_US
    worst_pre = worst_post = 0
    failures = 0
    for k in range(10_000):
        engine = Engine(replace(base, seed=k))
        engine.run()
        node = engine.nodes[0]
        end_mis = abs(node_misalignment(node, base.duration))
        pre = max(node.max_mis_pre_sync, end_mis)
        worst_pre = max(worst_pre, pre)
        worst_post = max(worst_post, node.max_mis_post_sync)
        if node.n_syncs < 1 or pre >= GUARD or node.max_mis_post_sync > post_bound:
            failures += 1
    ok = failures == 0
    verdict(
        capsys,
        3,
        ok,
        f"10^4 nodes x 24 h: worst misalignment {worst_pre / NS_PER_MS:.3f} ms "
        f"(< 400 ms), worst post-sync {worst_post / NS_PER_MS:.3f} ms "
        f"(<= 15 ms + 20 us), {failures} violations",
    )


def test_criterion_4_throughput_analytics(capsys):
    n = 4000
    gs = [i / 1000 for i in range(n + 1)]
    # ALOHA throughput at offered load G: G·e^(-2G) pure, G·e^(-G) slotted.
    pure = [g * math.exp(-2.0 * g) for g in gs]
    slotted = [g * math.exp(-g) for g in gs]
    gp = gs[pure.index(max(pure))]
    gsl = gs[slotted.index(max(slotted))]
    ok = (
        abs(gp - 0.5) <= 1e-3
        and abs(max(pure) - 0.1839) <= 1e-4
        and abs(gsl - 1.0) <= 1e-3
        and abs(max(slotted) - 0.3679) <= 1e-4
        and math.isclose(max(pure), PURE_ALOHA_PEAK, rel_tol=1e-12)
        and math.isclose(max(slotted), SLOTTED_ALOHA_PEAK, rel_tol=1e-12)
    )
    verdict(
        capsys,
        4,
        ok,
        f"pure peak {max(pure):.5f} at G={gp} (0.1839 +-1e-4 at 0.5), "
        f"slotted peak {max(slotted):.5f} at G={gsl} (0.3679 +-1e-4 at 1.0)",
    )


def test_criterion_5_collision_reduction(capsys, paired_runs):
    results, _ = paired_runs
    by_seed = {}
    for seed, variant, metrics in results:
        by_seed.setdefault(seed, {})[variant] = metrics
    worst_ratio = float("inf")
    worst_slotted = 0.0
    worst_cluster = float("inf")
    ok = True
    for seed in SEEDS:
        pure = by_seed[seed]["pure"]
        slotted = by_seed[seed]["slotted"]
        ratio = report.steady_ratio(pure, slotted)
        steady = slotted.steady_state_collision_probability
        warmup = slotted.warmup_conflicts / slotted.warmup_transmissions
        cluster = warmup / steady if steady > 0 else float("inf")
        worst_ratio = min(worst_ratio, ratio)
        worst_slotted = max(worst_slotted, steady)
        worst_cluster = min(worst_cluster, cluster)
        ok = ok and ratio >= 3.0 and steady <= 0.01 and warmup >= 3 * steady
    verdict(
        capsys,
        5,
        ok,
        f"10 seeds x 7 d: min ratio {worst_ratio:.1f} (>= 3), max slotted steady "
        f"{worst_slotted:.4f} (<= 0.01), min warmup/steady {worst_cluster:.1f} (>= 3)",
    )


def test_criterion_6_regulatory_safety(capsys, paired_runs):
    _, violations = paired_runs
    ok = violations == []
    verdict(
        capsys,
        6,
        ok,
        f"independent 1-hour sliding-window scan of all 20 acceptance traces: "
        f"{len(violations)} windows above 1%",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    args = ["simulate", "--seed", "5", "--duration", "2 h", "--warmup", "30 min"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = main(args + ["--out", out_a])
    code_b = main(args + ["--out", out_b])
    identical = all(
        filecmp.cmp(os.path.join(out_a, f), os.path.join(out_b, f), shallow=False)
        for f in ("trace.csv", "summary.txt")
    )
    ok = code_a == EXIT_OK and code_b == EXIT_OK and identical
    verdict(
        capsys,
        7,
        ok,
        "simulate run twice with one seed: trace.csv and summary.txt "
        f"byte-identical = {identical}",
    )


def test_criterion_8_dc_curve_shape(capsys, tmp_path):
    path = tmp_path / "dc.csv"
    report.emit_dc_curve(["pure", "slotted"], range(1, 101), 0.01, str(path))
    curve = {"pure": {}, "slotted": {}}
    with open(path) as fh:
        next(fh)
        for line in fh:
            n, policy, dc = line.strip().split(",")
            curve[policy][int(n)] = float(dc)
    peaks = {"pure": 1 / (2 * 2.718281828459045), "slotted": 1 / 2.718281828459045}
    crossover = {}
    ok = True
    for policy, expected_cross in (("pure", 19), ("slotted", 37)):
        pts = curve[policy]
        first_decay = min(n for n in pts if pts[n] < 0.01)
        crossover[policy] = first_decay
        ok = ok and first_decay == expected_cross
        for n in range(1, first_decay):
            ok = ok and pts[n] == 0.01
        for n in range(first_decay, 101):
            ok = ok and abs(pts[n] - peaks[policy] / n) < 1e-12
    ok = ok and all(curve["slotted"][n] >= curve["pure"][n] for n in range(1, 101))
    verdict(
        capsys,
        8,
        ok,
        f"flat at 1% then S_max/N decay; first sub-cap N: pure {crossover['pure']} "
        f"(~18 flat), slotted {crossover['slotted']} (~36 flat); slotted >= pure "
        "pointwise",
    )
