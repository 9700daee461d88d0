"""Scenario parsing: units, defaults, strict key checking."""

import configparser
from dataclasses import replace

import pytest

from saloha import config as config_module
from saloha.config import (
    DEFAULT_SCENARIO,
    ConfigError,
    config_digest,
    load_scenario,
    parse_bandwidth,
    parse_bool,
    parse_coding_rate,
    parse_duration,
    parse_fraction,
    parse_range,
    pure_baseline,
)
from saloha.engine import Engine, SimConfigError
from saloha.timebase import MAX_ABS_DRIFT_PPM, NS_PER_SEC

_RADIO_NON_DEFAULT = {
    "spreading_factor": "8",
    "bandwidth": "250 kHz",
    "coding_rate": "4/6",
    "preamble_symbols": "8",
    "payload_bytes": "20",
    "explicit_header": "false",
    "crc": "false",
    "low_data_rate_optimize": "true",
}
#: A valid value other than the default for every key of DEFAULT_SCENARIO.
NON_DEFAULT = {
    "scenario": {
        "n_nodes": "5",
        "app_period": "40 s",
        "jitter": "1 s",
        "n_channels": "2",
        "channel_selection": "round-robin",
        "drift_ppm": "10 .. 40",
        "initial_offset": "2 s",
        "confirmed_uplinks": "on-demand",
        "duty_cycle_cap": "2 %",
        "dc_window": "30 min",
        "duration": "2 d",
        "warmup": "2 h",
    },
    "uplink": _RADIO_NON_DEFAULT,
    "ack": _RADIO_NON_DEFAULT,
    "mac": {
        "policy": "pure",
        "rx1_delay": "2 s",
        "guard": "200 ms",
        "slot_rounding": "50 ms",
        "max_phase_slots": "4",
    },
    "sync": {
        "drift_bound_ppm": "100",
        "residual_mean": "5 ms",
        "residual_std": "1 ms",
        "residual_max": "12 ms",
        "timestamp_error_max": "10 us",
    },
}


_parser = configparser.ConfigParser(interpolation=None)
_parser.read_string(DEFAULT_SCENARIO)
#: Every (section, key, default value) written in DEFAULT_SCENARIO.
DEFAULT_PAIRS = [
    (section, key, value)
    for section in _parser.sections()
    for key, value in _parser[section].items()
]


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("400 ms", 400_000_000),
            ("30s", 30 * NS_PER_SEC),
            ("1.5 h", 5400 * NS_PER_SEC),
            ("19 us", 19_000),
            ("7 d", 7 * 86400 * NS_PER_SEC),
            ("250 NS", 250),
            ("2 min", 120 * NS_PER_SEC),
        ],
    )
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "fast", "10 parsecs", "-3 s", "1e3 ms"])
    def test_bad_durations(self, text):
        with pytest.raises(ConfigError):
            parse_duration(text)

    def test_fractions(self):
        assert parse_fraction("1 %") == 0.01
        assert parse_fraction("0.56%") == pytest.approx(0.0056)
        assert parse_fraction("0.003") == 0.003

    def test_ranges(self):
        assert parse_range("20 .. 80") == (20.0, 80.0)
        assert parse_range("50") == (50.0, 50.0)

    def test_bools(self):
        assert parse_bool("yes") and parse_bool("True") and parse_bool("1")
        assert not parse_bool("off")
        with pytest.raises(ConfigError):
            parse_bool("maybe")

    def test_bandwidth(self):
        assert parse_bandwidth("125 kHz") == 125_000
        assert parse_bandwidth("500000") == 500_000
        with pytest.raises(ConfigError):
            parse_bandwidth("wide")

    def test_coding_rate(self):
        assert parse_coding_rate("4/5") == 1
        assert parse_coding_rate("4/8") == 4
        assert parse_coding_rate("2") == 2
        with pytest.raises(ConfigError):
            parse_coding_rate("3/5")
        with pytest.raises(ConfigError):
            parse_coding_rate("4/9")


class TestLoadScenario:
    def test_defaults_apply(self):
        cfg = load_scenario("", seed=7)
        assert cfg.n_nodes == 20
        assert cfg.app_period == 30 * NS_PER_SEC
        assert cfg.policy.is_slotted
        assert cfg.seed == 7

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            load_scenario("")

    def test_unknown_key_is_a_hard_error(self):
        with pytest.raises(ConfigError, match="nodes_n"):
            load_scenario("[scenario]\nnodes_n = 5\n", seed=1)

    def test_unknown_section_is_a_hard_error(self):
        with pytest.raises(ConfigError, match="gateway"):
            load_scenario("[gateway]\nantennas = 2\n", seed=1)

    def test_file_overrides_defaults(self):
        cfg = load_scenario(
            "[scenario]\nn_nodes = 3\napp_period = 2 min\n", seed=1
        )
        assert cfg.n_nodes == 3
        assert cfg.app_period == 120 * NS_PER_SEC

    def test_policy_override(self):
        cfg = load_scenario("", seed=1, policy="pure")
        assert not cfg.policy.is_slotted

    def test_duration_and_warmup_overrides(self):
        cfg = load_scenario("", seed=1, duration=60 * NS_PER_SEC, warmup=0)
        assert cfg.duration == 60 * NS_PER_SEC
        assert cfg.warmup == 0

    def test_invalid_value_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("[scenario]\nn_nodes = many\n", seed=1)

    def test_fractional_timestamp_error_bound_is_rejected(self):
        # 19.9 us used to be truncated to 19 us without a word.
        with pytest.raises(ConfigError, match="timestamp_error_max"):
            load_scenario("[sync]\ntimestamp_error_max = 19.9 us\n", seed=1)

    def test_whole_microsecond_timestamp_error_bound_is_kept(self):
        assert load_scenario("", seed=1).timestamp_error_max_us == 19
        cfg = load_scenario("[sync]\ntimestamp_error_max = 0.012 ms\n", seed=1)
        assert cfg.timestamp_error_max_us == 12

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan", "-80", "500.5"])
    def test_drift_bound_outside_its_range_is_rejected(self, text):
        # inf used to overflow in the engine and -80 was taken as 80.
        with pytest.raises(SimConfigError, match="drift_bound_ppm"):
            load_scenario(f"[sync]\ndrift_bound_ppm = {text}\n", seed=1)

    @pytest.mark.parametrize("value", [0.0, 80.0, MAX_ABS_DRIFT_PPM])
    def test_drift_bound_within_its_range_is_kept(self, value):
        cfg = load_scenario(f"[sync]\ndrift_bound_ppm = {value}\n", seed=1)
        assert cfg.drift_bound_ppm == value

    def test_auto_phase_slots_fill_the_period(self):
        # 30 s period over 1.7 s slots: 17 whole slots.
        assert load_scenario("", seed=1).policy.backoff.max_phase_slots == 17
        cfg = load_scenario("[mac]\nmax_phase_slots = 4\n", seed=1)
        assert cfg.policy.backoff.max_phase_slots == 4

    def test_pure_baseline_is_pure_without_confirmed_uplinks(self):
        slotted = load_scenario("", seed=3)
        loaded_pure = load_scenario("", seed=3, policy="pure")
        assert pure_baseline(slotted) == replace(loaded_pure, confirmed_mode="none")
        assert config_digest(pure_baseline(slotted)) != config_digest(slotted)

    def test_slot_plan_geometry_for_default_profile(self):
        # SF7 uplink (172.288 ms) + 1 s RX1 + ACK + 400 ms guard, rounded
        # up to the next 100 ms.
        cfg = load_scenario("", seed=1)
        assert cfg.policy.plan.t_r == 1_216_576_000
        assert cfg.policy.plan.t == 1_700_000_000

    def test_digest_is_stable_and_sensitive(self):
        a = config_digest(load_scenario("", seed=1))
        b = config_digest(load_scenario("", seed=1))
        c = config_digest(load_scenario("", seed=2))
        assert a == b
        assert a != c
        assert len(a) == 16

    @pytest.mark.parametrize(
        "section,key,default",
        DEFAULT_PAIRS,
        ids=[f"{sec}.{key}" for sec, key, _ in DEFAULT_PAIRS],
    )
    def test_no_key_is_accepted_and_ignored(self, section, key, default):
        value = NON_DEFAULT[section][key]
        assert value != default
        cfg = load_scenario(f"[{section}]\n{key} = {value}\n", seed=1)
        assert cfg != load_scenario("", seed=1)

    def test_accepted_keys_are_the_default_keys_plus_seed(self):
        defaults = {}
        for section, key, _ in DEFAULT_PAIRS:
            defaults.setdefault(section, set()).add(key)
        assert defaults == {sec: set(keys) for sec, keys in NON_DEFAULT.items()}
        defaults["scenario"].add("seed")
        assert config_module._SECTIONS == defaults
        assert load_scenario("[scenario]\nseed = 2\n").seed == 2
        with pytest.raises(ConfigError, match="unknown key 'seed' in \\[mac\\]"):
            load_scenario("[mac]\nseed = 2\n")

    @pytest.mark.parametrize("text", ["400 .. 600", "20 .. inf", "nan .. 80"])
    def test_drift_range_beyond_the_clock_limit_is_rejected(self, text):
        # 400 .. 600 used to pass or fail by the drifts each seed drew.
        with pytest.raises(SimConfigError, match="drift_ppm_range"):
            load_scenario(f"[scenario]\ndrift_ppm = {text}\n", seed=1)

    def test_drift_range_up_to_the_clock_limit_is_kept(self):
        text = f"[scenario]\ndrift_ppm = 400 .. {MAX_ABS_DRIFT_PPM}\n"
        cfg = load_scenario(text, seed=1)
        assert cfg.drift_ppm_range == (400.0, MAX_ABS_DRIFT_PPM)
        Engine(cfg)  # every node's clock accepts its drawn drift
