"""Scenario files: INI-style sections with ``key = value`` entries.

All durations accept human-readable units (ns/us/ms/s/min/h/d) and are
normalized exactly to integer nanoseconds.  Fractions accept either a plain
number ("0.0056") or a percentage ("0.56 %").  Unknown sections or keys
are a hard error so typos cannot silently fall back to defaults, and
every rejection is a ``ConfigError``.  ``[ack]`` sets only the ACK's
payload: ``ack_profile`` takes the rest from ``[uplink]``.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import replace
from typing import Mapping, Optional

from .engine import ConfigError, ScenarioConfig
from .mac import BackoffPolicy, MacPolicy, plan_slot
from .phy import RadioProfile
from .timebase import round_half_away_div


_UNIT_NS = {
    "ns": 1,
    "us": 1_000,
    "µs": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
    "sec": 1_000_000_000,
    "min": 60_000_000_000,
    "h": 3_600_000_000_000,
    "d": 86_400_000_000_000,
}

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zµ]+)\s*$")


def parse_duration(text: str) -> int:
    """Parse e.g. '400 ms', '1.5 h', '30s' into integer nanoseconds.

    Exact: a fraction of a nanosecond rounds half away from zero.  Every
    duration must lie below 2^63 ns, as every instant of a run does; a
    longer one could overflow a float in ``ScenarioConfig.validate``."""
    m = _DURATION_RE.match(text.lower())
    if not m:
        raise ConfigError(f"cannot parse duration {text!r} (expected '<number> <unit>')")
    value, unit = m.groups()
    if unit not in _UNIT_NS:
        raise ConfigError(f"unknown duration unit {unit!r} in {text!r}")
    whole, _, frac = value.partition(".")
    ns = round_half_away_div(int(whole + frac) * _UNIT_NS[unit], 10 ** len(frac))
    if ns >= 1 << 63:
        raise ConfigError(f"duration {text!r} must be below 2^63 ns")
    return ns


def parse_fraction(text: str) -> float:
    """Parse '1 %', '0.56%' or a bare fraction like '0.01'."""
    t = text.strip()
    if t.endswith("%"):
        return float(t[:-1].strip()) / 100.0
    return float(t)


def parse_range(text: str) -> tuple[float, float]:
    """Parse 'low .. high' (or a single number meaning a degenerate range)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return float(lo), float(hi)
    v = float(text)
    return v, v


def parse_bool(text: str) -> bool:
    """Accept the words configparser's ``getboolean`` accepts."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"cannot parse boolean {text!r}") from None


_BANDWIDTH_RE = re.compile(r"^\s*([0-9]+)\s*(k?hz)?\s*$", re.IGNORECASE)


def parse_bandwidth(text: str) -> int:
    m = _BANDWIDTH_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse bandwidth {text!r}")
    value = int(m.group(1))
    unit = (m.group(2) or "hz").lower()
    return value * 1000 if unit == "khz" else value


def parse_coding_rate(text: str) -> int:
    """Accept '4/5'..'4/8' or the bare index 1..4."""
    t = text.strip()
    if "/" in t:
        num, den = t.split("/", 1)
        if num.strip() != "4":
            raise ConfigError(f"coding rate numerator must be 4 in {text!r}")
        index = int(den) - 4
    else:
        index = int(t)
    if not 1 <= index <= 4:
        raise ConfigError(f"coding rate {text!r} out of range 4/5..4/8")
    return index


DEFAULT_SCENARIO = """\
[scenario]
n_nodes = 20
app_period = 30 s
jitter = 0 s
n_channels = 3
channel_selection = fixed
drift_ppm = 20 .. 80
initial_offset = 5 s
confirmed_uplinks = all
duty_cycle_cap = 1 %
dc_window = 1 h
duration = 1 d
warmup = 1 h

[uplink]
spreading_factor = 7
bandwidth = 125 kHz
coding_rate = 4/5
preamble_symbols = 6
payload_bytes = 101
explicit_header = true
crc = true
low_data_rate_optimize = false

[ack]
payload_bytes = 13

[mac]
policy = slotted
rx1_delay = 1 s
guard = 400 ms
slot_rounding = 100 ms
max_phase_slots = auto

[sync]
drift_bound_ppm = 80
residual_mean = 10 ms
residual_std = 2.5 ms
residual_max = 15 ms
timestamp_error_max = 19 us
"""


def _read_ini(text: str) -> configparser.ConfigParser:
    # No header can name the default section, so a [DEFAULT] in a file
    # is an ordinary section, and an unknown one.
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#",),
        strict=True,
        default_section="\n",
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    return parser


#: Parsed once and never mutated: the one list of sections, keys and
#: default values.  ``seed`` has no default but is accepted in [scenario].
DEFAULTS = _read_ini(DEFAULT_SCENARIO)
_SECTIONS = {section: set(DEFAULTS[section]) for section in DEFAULTS.sections()}
_SECTIONS["scenario"].add("seed")


def _check_keys(parser: configparser.ConfigParser) -> None:
    problems = []
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                problems.append(f"unknown key {key!r} in [{section}]")
    if problems:
        raise ConfigError("; ".join(problems))


def load_scenario(
    text: str,
    *,
    seed: Optional[int] = None,
    duration: Optional[int] = None,
    warmup: Optional[int] = None,
    policy: Optional[str] = None,
) -> ScenarioConfig:
    """Build a ScenarioConfig from scenario text plus CLI overrides.

    Missing keys take the documented defaults; the seed must come from
    either the file or the override.
    """
    parser = _read_ini(text)
    _check_keys(parser)
    merged = {}
    for section in _SECTIONS:
        merged[section] = dict(DEFAULTS[section])
        if parser.has_section(section):
            merged[section].update(parser[section])

    sc = merged["scenario"]
    mc = merged["mac"]
    sy = merged["sync"]

    try:
        uplink = radio_profile(merged["uplink"])
        ack = ack_profile(uplink, merged["ack"]["payload_bytes"])
        policy_name = (policy or mc["policy"]).strip().lower()
        rx1_delay = parse_duration(mc["rx1_delay"])
        guard = parse_duration(mc["guard"])
        app_period = parse_duration(sc["app_period"])
        # [mac] is checked whatever the policy; only slotted carries it.
        plan = plan_slot(
            uplink, ack, rx1_delay, guard, parse_duration(mc["slot_rounding"])
        )
        raw_phase = mc["max_phase_slots"].strip().lower()
        if raw_phase == "auto":
            max_phase = max(1, app_period // plan.t)
        else:
            max_phase = int(raw_phase)
        backoff = BackoffPolicy(max_phase_slots=max_phase)
        if policy_name == "slotted":
            mac_policy = MacPolicy("slotted", plan=plan, backoff=backoff)
        else:
            mac_policy = MacPolicy(policy_name)

        seed_text = sc.get("seed")
        if seed is None:
            if seed_text is None:
                raise ConfigError("seed is mandatory: set it in [scenario] or via --seed")
            seed = int(seed_text)

        ts_error_max = parse_duration(sy["timestamp_error_max"])
        if ts_error_max % 1000:
            raise ConfigError(
                f"timestamp_error_max = {sy['timestamp_error_max'].strip()!r} "
                "is not a whole number of us"
            )

        config = ScenarioConfig(
            n_nodes=int(sc["n_nodes"]),
            app_period=app_period,
            jitter=parse_duration(sc["jitter"]),
            n_channels=int(sc["n_channels"]),
            channel_selection=sc["channel_selection"].strip(),
            drift_ppm_range=parse_range(sc["drift_ppm"]),
            initial_offset_max=parse_duration(sc["initial_offset"]),
            confirmed_mode=sc["confirmed_uplinks"].strip().lower(),
            duty_cycle_cap=parse_fraction(sc["duty_cycle_cap"]),
            dc_window=parse_duration(sc["dc_window"]),
            duration=duration if duration is not None else parse_duration(sc["duration"]),
            warmup=warmup if warmup is not None else parse_duration(sc["warmup"]),
            seed=seed,
            uplink_profile=uplink,
            ack_profile=ack,
            policy=mac_policy,
            rx1_delay=rx1_delay,
            drift_bound_ppm=float(sy["drift_bound_ppm"]),
            residual_mean=parse_duration(sy["residual_mean"]),
            residual_std=parse_duration(sy["residual_std"]),
            residual_max=parse_duration(sy["residual_max"]),
            timestamp_error_max_us=ts_error_max // 1000,
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def radio_profile(values: Mapping[str, str]) -> RadioProfile:
    """The profile an [uplink] section's text values describe."""
    return RadioProfile(
        spreading_factor=int(values["spreading_factor"]),
        bandwidth_hz=parse_bandwidth(values["bandwidth"]),
        coding_rate_index=parse_coding_rate(values["coding_rate"]),
        preamble_symbols=int(values["preamble_symbols"]),
        payload_bytes=int(values["payload_bytes"]),
        explicit_header=parse_bool(values["explicit_header"]),
        crc_enabled=parse_bool(values["crc"]),
        low_data_rate_optimize=parse_bool(values["low_data_rate_optimize"]),
    )


def ack_profile(uplink: RadioProfile, payload_bytes: str) -> RadioProfile:
    """The ACK's profile: RX1 answers at the uplink's data rate, so it is
    the uplink profile carrying the ``[ack]`` payload."""
    return replace(uplink, payload_bytes=int(payload_bytes))


def pure_baseline(config: ScenarioConfig) -> ScenarioConfig:
    """The unmodified deployment a slotted scenario is compared with:
    pure ALOHA and no sync service, hence no ACK-requesting uplinks."""
    return replace(config, policy=MacPolicy("pure"), confirmed_mode="none")


def config_digest(config: ScenarioConfig) -> str:
    """Stable digest of a scenario, for summary provenance lines."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]
