"""Command-line behavior: exit codes, outputs, reproducibility."""

import filecmp
import os
from pathlib import Path

import pytest

from saloha import engine
from saloha.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from saloha.config import load_scenario
from saloha.phy import RadioProfile, time_on_air
from test_config import INT64_HORIZON, int64_edge_scenario


def test_airtime_reference_value(capsys):
    code = main(
        ["airtime", "--sf", "7", "--preamble", "6", "--payload", "101"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "time_on_air_ns: 172288000" in out


def test_airtime_defaults_are_the_default_uplink(capsys):
    assert main(["airtime"]) == EXIT_OK
    toa = time_on_air(load_scenario("", seed=1).uplink_profile)
    assert f"time_on_air_ns: {toa}\n" in capsys.readouterr().out


def test_airtime_with_period_prints_duty_cycle(capsys):
    code = main(
        [
            "airtime",
            "--sf", "7",
            "--preamble", "6",
            "--payload", "101",
            "--period", "30 s",
        ]
    )
    assert code == EXIT_OK
    assert "duty_cycle:" in capsys.readouterr().out


def test_plan_slot_reference_geometry(capsys):
    code = main(
        [
            "plan-slot",
            "--sf", "9",
            "--bw", "250 kHz",
            "--preamble", "6",
            "--payload", "200",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "t_r_ns: 1576512000" in out
    assert "t_ns: 2000000000" in out


def test_plan_slot_defaults_are_the_default_plan(capsys):
    assert main(["plan-slot"]) == EXIT_OK
    out = capsys.readouterr().out
    plan = load_scenario("", seed=1).policy.plan
    for key, value in (("t_r", plan.t_r), ("t_b", plan.t_b), ("t", plan.t)):
        assert f"{key}_ns: {value}\n" in out


def _plan_slot_figures(capsys, *args: str) -> dict[str, int]:
    assert main(["plan-slot", *args]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    return {k: int(v) for k, v in (line.split(": ") for line in lines) if k.endswith("_ns")}


def test_plan_slot_ack_payload_sizes_the_ack(capsys):
    # The ACK is the uplink profile (SF7, 125 kHz, 6 preamble symbols)
    # with its own payload, so only its airtime moves t_r.
    grown = (
        _plan_slot_figures(capsys, "--ack-payload", "50")["t_r_ns"]
        - _plan_slot_figures(capsys)["t_r_ns"]
    )
    ack_toa = [
        time_on_air(RadioProfile(7, 125_000, preamble_symbols=6, payload_bytes=n))
        for n in (13, 50)
    ]
    assert grown == ack_toa[1] - ack_toa[0] > 0


@pytest.mark.parametrize("sf", range(7, 13))
def test_plan_slot_sizes_the_slot_a_scenario_simulates(capsys, sf):
    # Both build the ACK as the uplink profile with the [ack] payload.
    for bw in ("125 kHz", "250 kHz", "500 kHz"):
        for payload in ("13", "101", "200"):
            printed = _plan_slot_figures(
                capsys, "--sf", str(sf), "--bw", bw, "--payload", payload
            )
            uplink = f"spreading_factor = {sf}\nbandwidth = {bw}\npayload_bytes = {payload}"
            plan = load_scenario(f"[uplink]\n{uplink}\n", seed=1).policy.plan
            assert (printed["t_r_ns"], printed["t_ns"]) == (plan.t_r, plan.t)


def test_sf9_plan_slot_and_scenario_agree_on_a_2_2_s_slot(capsys):
    assert _plan_slot_figures(capsys, "--sf", "9")["t_ns"] == 2_200_000_000
    cfg = load_scenario("[uplink]\nspreading_factor = 9\n", seed=1)
    assert cfg.policy.plan.t == 2_200_000_000


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[scenario]\nn_nodes = 5\n[scenario]\n", "section 'scenario' already exists"),
        ("[mac]\nguard = 1 s\nguard = 2 s\n", "option 'guard' in section 'mac'"),
        ("n_nodes = 5\n", "no section headers"),
        ("[scenario]\nn_nodes\n", "parsing errors"),
        ("[ack]\nspreading_factor = 9\n", "unknown key 'spreading_factor' in [ack]"),
    ],
    ids=["repeated-section", "repeated-key", "no-section", "no-value", "retired-ack-key"],
)
def test_config_error_names_the_scenario_file(tmp_path, capsys, text, fragment):
    # A parse error used to name the file '<???>'; the [ack] radio keys
    # went when the ACK became the uplink profile with the [ack] payload.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(text)
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--seed", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {scenario}: " in err
    assert fragment in err
    assert "<???>" not in err
    assert not out.exists()


def test_a_file_that_is_not_utf8_is_config_error_naming_it(tmp_path, capsys):
    scenario = tmp_path / "scenario.ini"
    scenario.write_bytes(b"[scenario]\nn_nodes = 5\xff\n")
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--seed", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {scenario}: 'utf-8' codec can't decode byte 0xff" in err
    assert not out.exists()


def test_invalid_profile_is_config_error(capsys):
    assert main(["airtime", "--sf", "42"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_preamble_beyond_the_register_is_config_error(capsys):
    # Used to exit 0 with an airtime of 1.0e20 ms, past every instant's
    # 2^63 ns limit.
    assert main(["airtime", "--preamble", "99999999999999999999"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "not in 1..65535" in err


def test_missing_seed_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "o"), "--duration", "60 s"])
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_fractional_timestamp_error_bound_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[sync]\ntimestamp_error_max = 19.9 us\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "timestamp_error_max" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nn_nodes = 5\n", "[mac]\npolicy = pure\nguard = 0 s\n"],
    ids=["default-section", "pure-zero-guard"],
)
def test_rejected_scenario_is_config_error(tmp_path, capsys, text):
    # Both used to run and exit 0.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(text)
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--warmup", "10 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_too_many_nodes_is_config_error(tmp_path, capsys):
    # Used to load, and the engine then tried to build 10^19 nodes.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nn_nodes = 9999999999999999999\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "n_nodes" in err
    assert not (tmp_path / "o").exists()


def test_too_many_channels_is_config_error(tmp_path, capsys):
    # Used to load, and the run then built one channel row per channel
    # until memory ran out.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nn_channels = 1000000000\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "n_channels must be in [1, 1000]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_drift_bound_out_of_range_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[sync]\ndrift_bound_ppm = inf\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "drift_bound_ppm" in err


def test_drift_range_beyond_the_clock_limit_is_config_error(tmp_path, capsys):
    # Seed 2 draws only drifts within ±500 ppm from 400 .. 600 (seed 1
    # does not); the range is rejected whatever the seed.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nn_nodes = 1\ndrift_ppm = 400 .. 600\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "2",
            "--duration", "60 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    assert "drift_ppm_range" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_residual_mean_beyond_the_clamp_is_config_error(tmp_path, capsys):
    # Used to exit 0, with every drawn residual clamped to residual_max.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[sync]\nresidual_mean = 1 h\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--duration", "60 s",
            "--warmup", "0 s",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    assert "residual_mean" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [
        "n_nodes = 1\napp_period = 100000 d\nduration = 200000 d",
        "initial_offset = 200000 d",
    ],
    ids=["duration", "initial_offset"],
)
def test_instants_beyond_int64_are_config_error(tmp_path, capsys, text):
    # Used to exit 0 with true_start or local_start above 2^63 - 1.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(f"[scenario]\n{text}\n")
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--seed", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "2^63" in capsys.readouterr().err
    assert not out.exists()


def test_instants_just_inside_int64_run(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(int64_edge_scenario(INT64_HORIZON))
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    starts = [int(row.split(",")[2]) for row in rows]
    assert starts and max(starts) < 2**63


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_warmup_not_before_the_end_is_config_error(tmp_path, capsys, command):
    # Used to exit 0 and print steady-state figures from no uplinks.
    out = tmp_path / "o"
    code = main(
        [
            command,
            "--seed", "1",
            "--duration", "10 min",
            "--warmup", "1 h",
            "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert "warmup" in capsys.readouterr().err
    assert not out.exists()


def test_drift_curve_non_finite_ppm_is_config_error(tmp_path, capsys):
    out = tmp_path / "drift.csv"
    assert main(["drift-curve", "--ppm", "20,inf", "--out", str(out)]) == EXIT_CONFIG
    assert "ppm values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_drift_curve_beyond_the_drift_limit_is_config_error(tmp_path, capsys):
    # A huge drift used to overflow a float after the first rows.
    out = tmp_path / "drift.csv"
    args = ["drift-curve", "--horizon", "1 h", "--out", str(out)]
    for ppm in ("1e308", "-500.5"):
        assert main([*args, f"--ppm=20,{ppm}"]) == EXIT_CONFIG
        assert "within ±500" in capsys.readouterr().err
        assert not out.exists()
    assert main([*args, "--ppm=-500,500"]) == EXIT_OK
    assert out.read_text().count("\n") == 1 + 2 * 61


def test_drift_curve_of_too_many_rows_is_config_error(tmp_path, capsys):
    # A nanosecond step over a day asks for 8.64e13 rows per ppm value.
    out = tmp_path / "drift.csv"
    args = ["drift-curve", "--horizon", "1 d", "--step", "1 ns", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert "exceeds 1000000" in capsys.readouterr().err
    assert not out.exists()
    assert main(["drift-curve", "--out", str(out)]) == EXIT_OK
    assert out.read_text().count("\n") == 1 + 3 * 81


def test_drift_curve_zero_step_is_config_error(tmp_path, capsys):
    out = tmp_path / "drift.csv"
    assert main(["drift-curve", "--step", "0 s", "--out", str(out)]) == EXIT_CONFIG
    assert "step must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_dc_curve_empty_node_range_is_config_error(tmp_path, capsys):
    out = tmp_path / "dc.csv"
    code = main(["dc-curve", "--n-min", "5", "--n-max", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "empty n_range" in capsys.readouterr().err
    assert not out.exists()


def test_dc_curve_beyond_the_node_limit_is_config_error(tmp_path, capsys):
    out = tmp_path / "dc.csv"
    assert main(["dc-curve", "--n-max", "100001", "--out", str(out)]) == EXIT_CONFIG
    assert "--n-max must be at most 100000" in capsys.readouterr().err
    assert not out.exists()


def test_dc_curve_empty_policies_is_config_error(tmp_path, capsys):
    out = tmp_path / "dc.csv"
    assert main(["dc-curve", "--policies", "", "--out", str(out)]) == EXIT_CONFIG
    assert "empty policies" in capsys.readouterr().err
    assert not out.exists()


def test_drift_curve_empty_ppm_is_config_error(tmp_path, capsys):
    out = tmp_path / "drift.csv"
    assert main(["drift-curve", "--ppm", "", "--out", str(out)]) == EXIT_CONFIG
    assert "empty ppm values" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(
        [
            "simulate",
            "--seed", "1",
            "--duration", "120 s",
            "--warmup", "0 s",
            "--out", str(blocker),
        ]
    )
    assert code == EXIT_RUNTIME


_RUN = ["--seed", "1", "--duration", "120 s", "--warmup", "0 s"]


@pytest.mark.parametrize(
    "args,blocked",
    [
        (["dc-curve"], None),
        (["drift-curve"], None),
        (["simulate", *_RUN], "trace.csv"),
        (["simulate", *_RUN], "summary.txt"),
        (["compare", *_RUN], "compare.csv"),
    ],
    ids=["dc-curve", "drift-curve", "trace.csv", "summary.txt", "compare.csv"],
)
def test_write_failure_is_runtime_error_naming_the_path(tmp_path, capsys, args, blocked):
    if blocked is None:
        # --out names a file inside a directory that does not exist.
        out = path = tmp_path / "missing" / "out.csv"
    else:
        # --out is a directory, and a directory has taken the file's name.
        out, path = tmp_path, tmp_path / blocked
        path.mkdir()
    assert main([*args, "--out", str(out)]) == EXIT_RUNTIME
    assert str(path) in capsys.readouterr().err


def test_dc_curve_and_drift_curve_emit_files(tmp_path):
    dc = tmp_path / "dc.csv"
    drift = tmp_path / "drift.csv"
    assert main(["dc-curve", "--n-max", "50", "--out", str(dc)]) == EXIT_OK
    assert main(["drift-curve", "--horizon", "10 min", "--out", str(drift)]) == EXIT_OK
    assert dc.read_text().startswith("n_nodes,policy,max_dc\n")
    assert drift.read_text().startswith("elapsed_s,ppm,error_ms\n")


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--seed", "5", "--duration", "30 min", "--warmup", "5 min"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == EXIT_OK
    assert main(args + ["--out", out_b]) == EXIT_OK
    for name in ("trace.csv", "summary.txt"):
        assert filecmp.cmp(
            os.path.join(out_a, name), os.path.join(out_b, name), shallow=False
        ), f"{name} differs between identical runs"


def test_compare_writes_paired_results(tmp_path):
    out = str(tmp_path / "cmp")
    code = main(
        [
            "compare",
            "--seed", "3",
            "--seeds", "3,4",
            "--duration", "30 min",
            "--warmup", "5 min",
            "--out", out,
        ]
    )
    assert code == EXIT_OK
    lines = Path(out, "compare.csv").read_text().splitlines()
    assert lines[0].startswith("seed,pure_steady")
    assert len(lines) == 3


@pytest.mark.parametrize("seeds", ["1,,2", "3,four", "1;2", ""])
def test_malformed_seeds_is_config_error_naming_the_flag(tmp_path, capsys, seeds):
    out = tmp_path / "cmp"
    assert main(["compare", "--seeds", seeds, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--seeds wants comma-separated integers" in err
    assert repr(seeds) in err
    assert not out.exists()


@pytest.mark.parametrize(("seeds", "repeated"), [("1,1", 1), ("3,4,03", 3)])
def test_repeated_seed_is_config_error_naming_it(tmp_path, capsys, seeds, repeated):
    out = tmp_path / "cmp"
    assert main(["compare", "--seeds", seeds, "--out", str(out)]) == EXIT_CONFIG
    assert f"--seeds repeats seed {repeated}: {seeds!r}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_seeds_alone_name_every_seed(tmp_path):
    # Neither --seed nor the (default) scenario gives a seed; --seeds does.
    out = str(tmp_path / "cmp")
    code = main(
        [
            "compare",
            "--seeds", "3,4",
            "--duration", "30 min",
            "--warmup", "5 min",
            "--out", out,
        ]
    )
    assert code == EXIT_OK
    lines = Path(out, "compare.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


def test_slot_longer_than_the_period_is_config_error(tmp_path, capsys):
    # Used to exit 0 with one uplink per node: a 100-day slot, and
    # max_phase_slots = auto turning 2 h // 100 d = 0 slots into 1.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nduration = 2 h\n[mac]\nguard = 100 d\n")
    code = main(
        [
            "simulate",
            "--config", str(scenario),
            "--seed", "1",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "slot T = 8640001300000000 ns must not exceed app_period = 30000000000 ns" in (
        err
    )
    assert not (tmp_path / "o").exists()


def test_a_split_run_writes_the_bytes_of_one_process(tmp_path, monkeypatch):
    # With the uplink threshold down, every run of these commands splits
    # over two processes on two CPUs and stays in one on one CPU.
    monkeypatch.setattr(engine, "_SPLIT_MIN_UPLINKS", 0)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    outputs = {}
    for n in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, n=n: set(range(n)))
        sim, cmp = tmp_path / f"sim{n}", tmp_path / f"cmp{n}"
        common = ["--duration", "2 h", "--warmup", "10 min"]
        assert main(["simulate", "--seed", "1", *common, "--out", str(sim)]) == EXIT_OK
        assert main(["compare", "--seeds", "1,2", *common, "--out", str(cmp)]) == EXIT_OK
        outputs[n] = [
            (sim / "trace.csv").read_bytes(),
            (sim / "summary.txt").read_bytes(),
            (cmp / "compare.csv").read_bytes(),
        ]
    # The simulate run, and a pure and a slotted run per compare seed.
    assert len(forks) == 5
    assert outputs[1] == outputs[2]
