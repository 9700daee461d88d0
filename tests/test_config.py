"""Scenario parsing: units, defaults, strict key checking."""

import configparser
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from saloha.engine import Engine, ScenarioConfig
from saloha.timebase import MAX_ABS_DRIFT_PPM, NS_PER_SEC

#: Every field of ``ScenarioConfig`` that holds a duration in ns.
DURATION_FIELDS = [
    "app_period",
    "duration",
    "jitter",
    "initial_offset_max",
    "dc_window",
    "rx1_delay",
    "warmup",
    "residual_mean",
    "residual_std",
    "residual_max",
]

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
    "ack": {"payload_bytes": "20"},
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
#: The radio keys [ack] once took: the ACK is now the uplink profile
#: with the [ack] payload, and a file that still sets them is rejected.
RETIRED_PAIRS = [
    ("ack", key, None) for key in _RADIO_NON_DEFAULT if key != "payload_bytes"
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
            # Exact past float precision, and sub-ns ties round half away
            # from zero (a float path gave ...790, 1000000000 and 2).
            ("12345678.123456789 s", 12345678123456789),
            ("1.0000000005 s", 1000000001),
            ("0.0000000025 s", 3),
        ],
    )
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "fast", "10 parsecs", "-3 s", "1e3 ms"])
    def test_bad_durations(self, text):
        with pytest.raises(ConfigError):
            parse_duration(text)

    def test_a_duration_must_lie_below_2_pow_63_ns(self):
        # A 300-digit dc_window used to raise OverflowError in validate.
        assert parse_duration(f"{2**63 - 1} ns") == 2**63 - 1
        with pytest.raises(ConfigError, match="2\\^63"):
            parse_duration(f"{2**63} ns")
        with pytest.raises(ConfigError, match="2\\^63"):
            load_scenario(f"[scenario]\ndc_window = {'9' * 300} s\n", seed=1)

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

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\n", "[DEFAULT]\nbogus = 1\n", "[DEFAULT]\nn_nodes = 5\n[mac]\n"],
        ids=["empty", "bogus-key", "with-scenario"],
    )
    def test_default_section_is_an_unknown_section(self, text):
        # configparser would spread [DEFAULT] over every section.
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_scenario(text, seed=1)

    def test_file_overrides_defaults(self):
        cfg = load_scenario(
            "[scenario]\nn_nodes = 3\napp_period = 2 min\n", seed=1
        )
        assert cfg.n_nodes == 3
        assert cfg.app_period == 120 * NS_PER_SEC

    def test_policy_override(self):
        cfg = load_scenario("", seed=1, policy="pure")
        assert not cfg.policy.is_slotted

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[mac]\npolicy = aloha\n", "unknown MAC variant 'aloha'"),
            ("[scenario]\nconfirmed_uplinks = some\n", "unknown confirmed_mode 'some'"),
        ],
        ids=["policy", "confirmed_uplinks"],
    )
    def test_unknown_name_is_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_scenario(text, seed=1)

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
        with pytest.raises(ConfigError, match="drift_bound_ppm"):
            load_scenario(f"[sync]\ndrift_bound_ppm = {text}\n", seed=1)

    @pytest.mark.parametrize("value", [0.0, 80.0, MAX_ABS_DRIFT_PPM])
    def test_drift_bound_within_its_range_is_kept(self, value):
        cfg = load_scenario(f"[sync]\ndrift_bound_ppm = {value}\n", seed=1)
        assert cfg.drift_bound_ppm == value

    @pytest.mark.parametrize(
        "text",
        [
            "residual_mean = 1 h",
            "residual_mean = 16 ms",
            "residual_mean = 5 ms\nresidual_max = 4 ms",
        ],
        ids=["1 h", "over the default max", "over a lowered max"],
    )
    def test_residual_mean_beyond_the_clamp_is_rejected(self, text):
        # 1 h used to run, with every drawn residual clamped to residual_max.
        with pytest.raises(ConfigError, match="residual_mean"):
            load_scenario(f"[sync]\n{text}\n", seed=1)

    @pytest.mark.parametrize("field", ["residual_mean", "residual_std"])
    def test_negative_residual_parameters_are_rejected(self, field):
        cfg = replace(load_scenario("", seed=1), **{field: -1})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    def test_residual_mean_at_the_clamp_is_kept(self):
        text = "[sync]\nresidual_mean = 12 ms\nresidual_std = 0 ms\nresidual_max = 12 ms\n"
        cfg = load_scenario(text, seed=1)
        assert cfg.residual_mean == cfg.residual_max == 12 * 10**6
        assert cfg.residual_std == 0

    @pytest.mark.parametrize(
        "text",
        [
            "[mac]\nguard = 100 d\n",
            "[scenario]\napp_period = 1.6 s\nduty_cycle_cap = 20 %\n",
        ],
        ids=["guard-100-d", "period-under-slot"],
    )
    def test_a_slot_longer_than_the_period_is_rejected(self, text):
        message = r"slot T = \d+ ns must not exceed app_period = \d+ ns"
        with pytest.raises(ConfigError, match=message):
            load_scenario(text, seed=1)

    def test_a_slot_as_long_as_the_period_is_kept(self):
        cfg = load_scenario(
            "[scenario]\napp_period = 1.7 s\nduty_cycle_cap = 20 %\n", seed=1
        )
        assert cfg.policy.plan.t == cfg.app_period
        assert cfg.policy.backoff.max_phase_slots == 1
        # Only the slotted policy has slots.
        load_scenario("[scenario]\napp_period = 1.6 s\n[mac]\npolicy = pure\n", seed=1)

    def test_auto_phase_slots_fill_the_period(self):
        # 30 s period over 1.7 s slots: 17 whole slots.
        assert load_scenario("", seed=1).policy.backoff.max_phase_slots == 17
        cfg = load_scenario("[mac]\nmax_phase_slots = 4\n", seed=1)
        assert cfg.policy.backoff.max_phase_slots == 4

    @pytest.mark.parametrize(
        "text",
        [
            "slot_rounding = 0 s",
            "guard = 0 s",
            "max_phase_slots = 0",
            "max_phase_slots = garbage",
        ],
    )
    def test_mac_values_are_checked_under_every_policy(self, text):
        for policy in ("pure", "slotted"):
            with pytest.raises(ConfigError):
                load_scenario(f"[mac]\npolicy = {policy}\n{text}\n", seed=1)

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

    def test_ack_is_the_uplink_profile_with_the_ack_payload(self):
        text = "[uplink]\nspreading_factor = 9\nbandwidth = 250 kHz\n[ack]\npayload_bytes = 20\n"
        cfg = load_scenario(text, seed=1)
        assert cfg.ack_profile == replace(cfg.uplink_profile, payload_bytes=20)
        with pytest.raises(ConfigError, match="payload_bytes=300"):
            load_scenario("[ack]\npayload_bytes = 300\n", seed=1)

    def test_digest_is_stable_and_sensitive(self):
        a = config_digest(load_scenario("", seed=1))
        b = config_digest(load_scenario("", seed=1))
        c = config_digest(load_scenario("", seed=2))
        assert a == b
        assert a != c
        assert len(a) == 16

    @pytest.mark.parametrize(
        "section,key,default",
        DEFAULT_PAIRS + RETIRED_PAIRS,
        ids=[f"{sec}.{key}" for sec, key, _ in DEFAULT_PAIRS + RETIRED_PAIRS],
    )
    def test_no_key_is_accepted_and_ignored(self, section, key, default):
        # A key changes the scenario or, if retired, is rejected.
        if default is None:
            text = f"[{section}]\n{key} = {_RADIO_NON_DEFAULT[key]}\n"
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[ack\\]"):
                load_scenario(text, seed=1)
            return
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
        with pytest.raises(ConfigError, match="drift_ppm_range"):
            load_scenario(f"[scenario]\ndrift_ppm = {text}\n", seed=1)

    def test_drift_range_up_to_the_clock_limit_is_kept(self):
        text = f"[scenario]\ndrift_ppm = 400 .. {MAX_ABS_DRIFT_PPM}\n"
        cfg = load_scenario(text, seed=1)
        assert cfg.drift_ppm_range == (400.0, MAX_ABS_DRIFT_PPM)
        Engine(cfg)  # every node's clock accepts its drawn drift

    @pytest.mark.parametrize(
        "text",
        [
            "n_nodes = 1\napp_period = 100000 d\nduration = 200000 d",
            "initial_offset = 200000 d",
        ],
        ids=["duration", "initial_offset"],
    )
    def test_instants_beyond_int64_are_rejected(self, text):
        # Both used to run and write instants above 2^63 - 1 to trace.csv.
        with pytest.raises(ConfigError, match="2\\^63"):
            load_scenario(f"[scenario]\n{text}\n", seed=1)

    @pytest.mark.parametrize("field", DURATION_FIELDS)
    @pytest.mark.parametrize("value", [2**63, 10**400, -(2**63), -(10**400)])
    def test_a_duration_outside_int64_is_a_config_error(self, field, value):
        # 10^400 ns used to raise OverflowError, from validate (dc_window)
        # or from Engine (rx1_delay), where a float took it.
        cfg = replace(load_scenario("", seed=1), **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be below 2\\^63"):
            cfg.validate()
        with pytest.raises(ConfigError, match=field):
            Engine(cfg)

    def test_every_int_field_but_counts_and_seed_is_a_checked_duration(self):
        ints = {f.name for f in fields(ScenarioConfig) if f.type == "int"}
        counts = {"n_nodes", "n_channels", "seed", "timestamp_error_max_us"}
        assert ints - counts == set(DURATION_FIELDS)

    def test_a_long_rx1_delay_inside_int64_is_kept(self):
        text = "[mac]\npolicy = pure\nrx1_delay = 100000000000000000 ns\n"
        Engine(load_scenario(text, seed=1))

    @pytest.mark.parametrize("n_nodes", [0, 100_001, 9_999_999_999_999_999_999])
    def test_a_node_count_outside_its_range_is_rejected(self, n_nodes):
        # 10^19 nodes used to load; Engine then built one node per id.
        with pytest.raises(ConfigError, match="n_nodes must be in \\[1, 100000\\]"):
            load_scenario(f"[scenario]\nn_nodes = {n_nodes}\n", seed=1)

    def test_the_largest_node_count_is_kept(self):
        cfg = load_scenario("[scenario]\nn_nodes = 100000\n", seed=1)
        assert cfg.n_nodes == 100_000

    @pytest.mark.parametrize("n_channels", [0, 1_001, 10**9])
    def test_a_channel_count_outside_its_range_is_rejected(self, n_channels):
        # 10^9 channels used to load; the channel ruling then built one
        # stand-in row per channel until memory ran out.
        with pytest.raises(ConfigError, match="n_channels must be in \\[1, 1000\\]"):
            load_scenario(f"[scenario]\nn_channels = {n_channels}\n", seed=1)

    def test_the_largest_channel_count_is_kept(self):
        cfg = load_scenario("[scenario]\nn_channels = 1000\n", seed=1)
        assert cfg.n_channels == 1_000

    def test_negative_initial_offset_is_rejected(self):
        # Used to validate, and the engine then ran as if it were 0.
        cfg = replace(load_scenario("", seed=1), initial_offset_max=-1)
        with pytest.raises(ConfigError, match="initial_offset_max must be"):
            cfg.validate()

    def test_instants_just_inside_int64_are_kept(self):
        text = int64_edge_scenario(INT64_HORIZON)
        cfg = load_scenario(text, seed=1)
        horizon = cfg.initial_offset_max + cfg.duration + cfg.app_period + cfg.jitter
        assert horizon == INT64_HORIZON
        with pytest.raises(ConfigError, match="2\\^63"):
            load_scenario(int64_edge_scenario(INT64_HORIZON + 1), seed=1)


#: The largest initial_offset + duration + app_period + jitter that stays
#: below 2^63 ns on a clock running 500 ppm fast.
INT64_HORIZON = (2**63 * 10**6 - 1) // (10**6 + 500)


def int64_edge_scenario(horizon: int) -> str:
    """A one-node scenario whose validated horizon is ``horizon`` ns."""
    app_period = 50_000 * 86_400 * NS_PER_SEC
    offset = 5 * NS_PER_SEC
    return (
        "[scenario]\nn_nodes = 1\njitter = 0 s\n"
        f"app_period = {app_period} ns\ninitial_offset = {offset} ns\n"
        f"duration = {horizon - app_period - offset} ns\n"
    )


#: Valid scenario text that sets every key, the seed included, one
#: ``key = value`` line each.
FUZZ_BASE = DEFAULT_SCENARIO.replace("[scenario]\n", "[scenario]\nseed = 1\n")
FUZZ_KEYS = [line.split(" = ")[0] for line in FUZZ_BASE.splitlines() if " = " in line]

_NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),  # nan, inf and -inf included
    st.integers(300, 5000).map(lambda digits: "9" * digits),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "0", "0.5", "1.", ".5"]),
)
_UNITS = st.sampled_from(
    ["", " ns", " us", " ms", " s", " min", " h", " d", " %", " kHz", " parsecs", "x"]
)
#: Bad values of every kind: junk or empty, unknown units, nan and inf,
#: negative and 5000-digit numbers, broken ranges and rates.
BAD_VALUES = st.one_of(
    st.builds(str.__add__, _NUMBERS, _UNITS),
    st.builds("{} .. {}".format, _NUMBERS, _NUMBERS),
    st.sampled_from(["", "junk", "..", "4/0", "4/x", "5/5", "%", "auto", "none"]),
    st.text(max_size=12),
)


def assert_loads_or_config_error(text: str) -> None:
    try:
        cfg = load_scenario(text)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    cfg.validate()


class TestScenarioFuzz:
    """Scenario text mutated in every section: ``load_scenario`` returns
    a validated config or raises ``ConfigError``, never another error."""

    @pytest.mark.parametrize("key", FUZZ_KEYS)
    @given(value=BAD_VALUES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_a_bad_value_loads_or_raises_config_error(self, key, value):
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} = ") else line
            for line in FUZZ_BASE.splitlines()
        ]
        assert_loads_or_config_error("\n".join(lines))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_edited_lines_load_or_raise_config_error(self, data):
        # Lines duplicated (keys and section headers), dropped, emptied
        # or given a bad value, several at a time.
        lines = FUZZ_BASE.splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(lines) - 1))
            edit = data.draw(st.sampled_from(["duplicate", "drop", "empty", "bad"]))
            key = lines[at].split(" = ")[0]
            if edit == "duplicate":
                lines.insert(data.draw(st.integers(0, len(lines))), lines[at])
            elif edit == "drop":
                del lines[at]
            elif edit == "empty":
                lines[at] = f"{key} ="
            else:
                lines[at] = f"{key} = {data.draw(BAD_VALUES)}"
        assert_loads_or_config_error("\n".join(lines))
