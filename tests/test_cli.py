"""Command-line behavior: exit codes, outputs, reproducibility."""

import filecmp
import os
from pathlib import Path

import pytest

from saloha.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from saloha.phy import RadioProfile, time_on_air
from test_config import INT64_HORIZON, int64_edge_scenario


def test_airtime_reference_value(capsys):
    code = main(
        ["airtime", "--sf", "7", "--preamble", "6", "--payload", "101"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "time_on_air_ns: 172288000" in out


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


def _plan_slot_t_r(capsys, *args: str) -> int:
    assert main(["plan-slot", *args]) == EXIT_OK
    return int(capsys.readouterr().out.split("t_r_ns:")[1].split()[0])


def test_plan_slot_ack_payload_sizes_the_ack(capsys):
    # The ACK is the uplink profile (SF7, 125 kHz, 8 preamble symbols)
    # with its own payload, so only its airtime moves t_r.
    grown = _plan_slot_t_r(capsys, "--ack-payload", "50") - _plan_slot_t_r(capsys)
    ack_toa = [
        time_on_air(RadioProfile(7, 125_000, payload_bytes=n)) for n in (13, 50)
    ]
    assert grown == ack_toa[1] - ack_toa[0] > 0


def test_invalid_profile_is_config_error(capsys):
    assert main(["airtime", "--sf", "42"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


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
