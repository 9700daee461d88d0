"""Command-line front end.

Subcommands: airtime, plan-slot, dc-curve, drift-curve, simulate,
compare.  The radio and slot flags of airtime and plan-slot and
dc-curve's cap default to the default scenario's values
(``config.DEFAULT_SCENARIO``); plan-slot builds the ACK as a scenario
does (``config.ack_profile``).  Exit codes: 0 success, 2 configuration
error (a ``ValueError``; one from a ``--config`` file names its path),
3 I/O error (an ``OSError``, whose message names the path).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import report
from .config import (
    DEFAULTS,
    ConfigError,
    ack_profile,
    load_scenario,
    parse_duration,
    parse_fraction,
    pure_baseline,
    radio_profile,
)
from .engine import _MAX_NODES, Engine, ScenarioConfig
from .mac import plan_slot
from .phy import RadioProfile, duty_cycle, time_on_air
from .timebase import NS_PER_MS, NS_PER_SEC

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _profile_args(parser: argparse.ArgumentParser) -> None:
    # Each flag's dest is the [uplink] key it sets, and its default is
    # the default scenario's value.
    parser.add_argument("--sf", dest="spreading_factor", help="spreading factor 6-12")
    parser.add_argument("--bw", dest="bandwidth", help="bandwidth (125/250/500 kHz)")
    parser.add_argument("--cr", dest="coding_rate", help="coding rate 4/5..4/8")
    parser.add_argument("--preamble", dest="preamble_symbols", help="preamble symbols")
    parser.add_argument("--payload", dest="payload_bytes", help="payload bytes")
    parser.add_argument(
        "--implicit-header", dest="explicit_header", action="store_const", const="false"
    )
    parser.add_argument("--no-crc", dest="crc", action="store_const", const="false")
    parser.add_argument(
        "--ldro",
        dest="low_data_rate_optimize",
        action="store_const",
        const="true",
        help="low data rate optimize",
    )
    parser.set_defaults(**DEFAULTS["uplink"])


def _profile_from(ns: argparse.Namespace) -> RadioProfile:
    """The [uplink] profile the flags describe."""
    return radio_profile({key: getattr(ns, key) for key in DEFAULTS["uplink"]})


def _cmd_airtime(ns: argparse.Namespace) -> int:
    profile = _profile_from(ns)
    toa = time_on_air(profile)
    print(f"time_on_air_ns: {toa}")
    print(f"time_on_air_ms: {toa / NS_PER_MS!r}")
    if ns.period:
        period = parse_duration(ns.period)
        print(f"duty_cycle: {duty_cycle(toa, period)!r}")
    return EXIT_OK


def _cmd_plan_slot(ns: argparse.Namespace) -> int:
    uplink = _profile_from(ns)
    plan = plan_slot(
        uplink,
        ack_profile(uplink, ns.ack_payload),
        parse_duration(ns.rx1_delay),
        parse_duration(ns.guard),
        parse_duration(ns.rounding),
    )
    print(f"t_r_ns: {plan.t_r}")
    print(f"t_b_ns: {plan.t_b}")
    print(f"t_ns: {plan.t}")
    print(f"t_r_s: {plan.t_r / NS_PER_SEC!r}")
    print(f"t_s: {plan.t / NS_PER_SEC!r}")
    return EXIT_OK


def _cmd_dc_curve(ns: argparse.Namespace) -> int:
    # The curve holds every row before it writes: bound it by the most
    # nodes a scenario may hold.
    if ns.n_max > _MAX_NODES:
        raise ValueError(f"--n-max must be at most {_MAX_NODES}, got {ns.n_max}")
    policies = [p.strip() for p in ns.policies.split(",") if p.strip()]
    report.emit_dc_curve(
        policies,
        range(ns.n_min, ns.n_max + 1),
        parse_fraction(ns.cap),
        ns.out,
    )
    print(f"wrote {ns.out}")
    return EXIT_OK


def _cmd_drift_curve(ns: argparse.Namespace) -> int:
    ppm_values = [float(p) for p in ns.ppm.split(",") if p.strip()]
    report.emit_drift_curve(
        ppm_values, parse_duration(ns.horizon), parse_duration(ns.step), ns.out
    )
    print(f"wrote {ns.out}")
    return EXIT_OK


def _load_config(ns: argparse.Namespace, policy: Optional[str] = None) -> ScenarioConfig:
    overrides = dict(
        seed=ns.seed,
        duration=parse_duration(ns.duration) if ns.duration else None,
        warmup=parse_duration(ns.warmup) if ns.warmup else None,
        policy=policy,
    )
    if not ns.config:
        config = load_scenario("", **overrides)
    else:
        with open(ns.config, encoding="utf-8") as fh:
            text = fh.read()
        try:
            config = load_scenario(text, **overrides)
        except ConfigError as exc:
            raise ConfigError(f"{ns.config}: {exc}") from exc
    # The engine accepts such a run, but its steady-state figures would
    # come from no uplinks at all.
    if config.warmup >= config.duration:
        raise ConfigError(
            f"warmup ({config.warmup} ns) must end before the run does "
            f"(duration {config.duration} ns)"
        )
    return config


def _cmd_simulate(ns: argparse.Namespace) -> int:
    config = _load_config(ns)
    trace, metrics = Engine(config).run()
    os.makedirs(ns.out, exist_ok=True)
    report.emit_conflict_series(trace, os.path.join(ns.out, "trace.csv"))
    report.write_summary(config, metrics, os.path.join(ns.out, "summary.txt"))
    print(f"transmissions: {metrics.transmissions}")
    print(f"conflicts: {metrics.conflicts}")
    print(f"collision_probability: {metrics.collision_probability!r}")
    print(
        "steady_state_collision_probability: "
        f"{metrics.steady_state_collision_probability!r}"
    )
    print(f"wrote {ns.out}/trace.csv and {ns.out}/summary.txt")
    return EXIT_OK


def _seed_list(text: str) -> list[int]:
    """The seeds of ``--seeds``: distinct comma-separated integers."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"--seeds wants comma-separated integers, got {text!r}"
        ) from None
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"--seeds repeats seed {seed}: {text!r}")
    return seeds


def _cmd_compare(ns: argparse.Namespace) -> int:
    seeds = None if ns.seeds is None else _seed_list(ns.seeds)
    if seeds and ns.seed is None:
        # Every run takes its seed from --seeds, so the base needs none.
        ns.seed = seeds[0]
    base = _load_config(ns, policy="slotted")
    if seeds is None:
        seeds = [base.seed]
    rows = []
    for seed in seeds:
        slotted_cfg = replace(base, seed=seed)
        pure_cfg = pure_baseline(slotted_cfg)
        _, pure_metrics = Engine(pure_cfg).run()
        _, slotted_metrics = Engine(slotted_cfg).run()
        ratio = report.steady_ratio(pure_metrics, slotted_metrics)
        rows.append((seed, pure_metrics, slotted_metrics, ratio))
        print(
            f"seed {seed}: pure "
            f"{pure_metrics.steady_state_collision_probability:.5f} "
            f"slotted {slotted_metrics.steady_state_collision_probability:.5f} "
            f"ratio {ratio:.2f}"
        )
    os.makedirs(ns.out, exist_ok=True)
    path = os.path.join(ns.out, "compare.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "seed,pure_steady_collision_probability,"
            "slotted_steady_collision_probability,reduction_ratio\n"
        )
        for seed, pm, sm, ratio in rows:
            fh.write(
                f"{seed},{pm.steady_state_collision_probability!r},"
                f"{sm.steady_state_collision_probability!r},{ratio!r}\n"
            )
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saloha",
        description="Slotted-ALOHA overlay simulator for LoRaWAN-class networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("airtime", help="print time-on-air for a radio profile")
    _profile_args(p)
    p.add_argument("--period", help="also print the duty cycle at this period")
    p.set_defaults(func=_cmd_airtime)

    p = sub.add_parser("plan-slot", help="size a slot for uplink/ACK profiles")
    _profile_args(p)
    p.add_argument("--ack-payload", default=DEFAULTS["ack"]["payload_bytes"])
    p.add_argument("--rx1-delay", default=DEFAULTS["mac"]["rx1_delay"])
    p.add_argument("--guard", default=DEFAULTS["mac"]["guard"])
    p.add_argument("--rounding", default=DEFAULTS["mac"]["slot_rounding"])
    p.set_defaults(func=_cmd_plan_slot)

    p = sub.add_parser("dc-curve", help="emit the max duty-cycle vs N curve")
    p.add_argument("--policies", default="pure,slotted")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--cap", default=DEFAULTS["scenario"]["duty_cycle_cap"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dc_curve)

    p = sub.add_parser("drift-curve", help="emit clock error vs elapsed time")
    p.add_argument("--ppm", default="20,40,80")
    p.add_argument("--horizon", default="80 min")
    p.add_argument("--step", default="60 s")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_drift_curve)

    for name, func in (("simulate", _cmd_simulate), ("compare", _cmd_compare)):
        p = sub.add_parser(name, help=f"{name} a scenario")
        p.add_argument("--config", help="scenario file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="overrides the scenario seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--duration", help="override simulated duration, e.g. '7 d'")
        p.add_argument("--warmup", help="override warm-up cutoff, e.g. '1 h'")
        if name == "compare":
            p.add_argument("--seeds", help="comma-separated seed list for paired runs")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ValueError as exc:  # ConfigError and every library precondition
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
