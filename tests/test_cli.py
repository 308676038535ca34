import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdbridge
from bdbridge.cli import _dump_json, load_observations, load_shigellosis, main, shigellosis_path
from bdbridge.errors import DataFormatError
from bdbridge.models import LBDIParams
from bdbridge.reference import SimPath, lbdi_transition
from conftest import BridgePath

SHIGELLA_S = [198, 198, 198, 198, 198, 197, 197, 197, 197, 196, 195, 190, 189,
              186, 186, 184, 181, 177, 170, 166, 163, 161, 160, 160, 160, 160,
              158, 157]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Readers for the CSVs the command line writes; only the round-trip test uses them.
def _read_csv(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != expected_header:
        raise DataFormatError(f"{path}: expected header {','.join(expected_header)}")
    return rows[1:]


def load_sample_paths(path):
    """Re-ingest a ``sample`` CSV as a list of BridgePath values."""
    grouped: dict[int, list[tuple[float, int]]] = {}
    for row in _read_csv(path, ["replicate_id", "k", "tau_k", "omega_k"]):
        grouped.setdefault(int(row[0]), []).append((float(row[2]), int(row[3])))
    paths = []
    for rep in sorted(grouped):
        times, states = zip(*grouped[rep])
        paths.append(BridgePath(np.array(times), np.array(states)))
    return paths


def load_sim_path(path) -> SimPath:
    """Re-ingest a ``simulate`` CSV (its last row carries the horizon)."""
    rows = [(float(r[0]), int(r[1])) for r in _read_csv(path, ["time", "state"])]
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need at least the start and horizon rows")
    times, states = zip(*rows[:-1])
    return SimPath(np.array(times), np.array(states), rows[-1][0])


def load_scan_csv(path) -> dict:
    """Re-ingest a ``scan-failure`` CSV as column arrays."""
    header = ["beta", "gamma", "survival_min", "failed_0p1", "failed_0p01"]
    rows = _read_csv(path, header)
    cols = list(zip(*rows))
    return {
        "beta": np.array(cols[0], float),
        "gamma": np.array(cols[1], float),
        "survival_min": np.array(cols[2], float),
        "failed_0p1": np.array(cols[3], int).astype(bool),
        "failed_0p01": np.array(cols[4], int).astype(bool),
    }


def load_surface_csv(path) -> dict:
    """Re-ingest a ``fit --surface-out`` CSV as column arrays."""
    rows = _read_csv(path, ["beta", "gamma", "loglik", "loglik_sd"])
    cols = list(zip(*rows))
    return {
        "beta": np.array(cols[0], float),
        "gamma": np.array(cols[1], float),
        "loglik": np.array(cols[2], float),
        "loglik_sd": np.array(cols[3], float),
    }


def test_embedded_dataset_matches_record():
    obs = load_shigellosis()
    assert len(obs) == 28
    assert obs.susceptibles.tolist() == SHIGELLA_S
    assert obs.times.tolist() == list(map(float, range(28)))


def test_load_observations_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(Exception):
        load_observations(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("time,S\n0,10\n1,12\n")
    # The row checks of Observations name the file too.
    with pytest.raises(DataFormatError, match=r"bad\.csv: .*nonincreasing \(row 2\)"):
        load_observations(bad)
    frac = tmp_path / "frac.csv"
    frac.write_text("time,S\n0,10.5\n")
    with pytest.raises(DataFormatError, match=r"frac\.csv: .*row 1 is not a finite whole "
                                              r"number, got 10\.5"):
        load_observations(frac)
    for times, row in (("0 1 inf", 3), ("0 nan 2", 2), ("-inf 1 2", 1)):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text("time,S\n" + "".join(f"{t},9\n" for t in times.split()))
        with pytest.raises(DataFormatError, match=rf"finite \(row {row}\)"):
            load_observations(nonfinite)
    for count in ("inf", "nan"):
        nonfinite = tmp_path / f"s_{count}.csv"
        nonfinite.write_text(f"time,S\n0,10\n1,{count}\n")
        with pytest.raises(DataFormatError, match=r"s_\w+\.csv: .*row 2 is not a finite"):
            load_observations(nonfinite)


def test_single_row_gives_zero_loglik(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("time,S\n0,50\n")
    code, out, _ = run_cli(capsys, "filter", "--data", str(one),
                           "--params", "beta=0.001,gamma=0.3", "--m", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["loglik"] == 0.0 and payload["per_step"] == []


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--i", "1", "--j", "1", "--B", "2",
                           "--l", "0", "--u", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["feasible"] is True
    assert payload["log_density"] == pytest.approx(math.log(24.0))


def test_count_infeasible(capsys):
    code, out, _ = run_cli(capsys, "count", "--i", "5", "--j", "8", "--B", "2")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 0 and payload["log_density"] is None


def test_transprob_closed_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "transprob", "--model", "lbdi",
                           "--params", "lambda=0.8,mu=0.6,nu=1.2",
                           "--i", "5", "--j", "5", "--t", "1", "--method", "closed")
    assert code == 0
    payload = json.loads(out)
    truth = lbdi_transition(LBDIParams(0.8, 0.6, 1.2), 5, 5, 1.0)
    assert payload["value"] == pytest.approx(truth, rel=1e-15)


def test_transprob_igbs_near_closed(capsys):
    code, out, _ = run_cli(capsys, "transprob", "--model", "lbdi",
                           "--params", "lambda=0.8,mu=0.6,nu=1.2",
                           "--i", "5", "--j", "3", "--t", "1", "--n", "20000",
                           "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    truth = lbdi_transition(LBDIParams(0.8, 0.6, 1.2), 5, 3, 1.0)
    assert abs(payload["value"] - truth) <= 4 * payload["std_error"]
    assert payload["bset"][0] == 0
    assert payload["log_std_error"] == pytest.approx(math.log(payload["std_error"]))


def test_transprob_std_error_below_float_range(capsys):
    # log p is about -2072: value and std_error underflow to 0, their logs do not.
    code, out, _ = run_cli(capsys, "transprob", "--model", "sis",
                           "--params", "n0=300,beta=0.0015,gamma=1", "--i", "300",
                           "--j", "0", "--t", "0.001", "--n", "2000", "--seed", "2")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 0.0 and payload["std_error"] == 0.0
    assert -2080 < payload["log_value"] < -2060
    assert payload["log_std_error"] < payload["log_value"] - 3


def test_transprob_straight_method(capsys):
    code, out, _ = run_cli(capsys, "transprob", "--model", "sis",
                           "--params", "n0=30,beta=0.003,gamma=1",
                           "--i", "5", "--j", "4", "--t", "1", "--n", "50000",
                           "--method", "straight", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "straight"
    assert 0.0 < payload["value"] < 1.0
    assert payload["std_error"] > 0


def test_byte_identical_reruns(capsys):
    args = ("transprob", "--model", "sis", "--params", "n0=30,beta=0.003,gamma=1",
            "--i", "5", "--j", "4", "--t", "1", "--n", "40000", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert json.loads(out1)["value"] == json.loads(out4)["value"]


def test_sample_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "sample", "--i", "0", "--j", "0", "--B", "1",
                           "--l", "-1", "--u", "2", "--t", "1", "--n", "3",
                           "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "replicate_id,k,tau_k,omega_k"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 4
    for rep in range(3):
        states = [int(r[3]) for r in rows if int(r[0]) == rep]
        taus = [float(r[2]) for r in rows if int(r[0]) == rep]
        assert states == [0, 1, 0, 0]
        assert taus[0] == 0.0 and taus[-1] == 1.0
        assert 0 < taus[1] < taus[2] < 1.0


def test_simulate_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--model", "sis",
                           "--params", "n0=30,beta=0.003,gamma=1",
                           "--y0", "5", "--t", "2", "--seed", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,state"
    states = [int(line.split(",")[1]) for line in lines[1:]]
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert states[0] == 5 and times[0] == 0.0 and times[-1] == 2.0
    assert all(abs(a - b) == 1 for a, b in zip(states[:-2], states[1:-1]))


def test_usage_and_domain_exit_codes(capsys):
    code, _, err = run_cli(capsys, "transprob", "--model", "nosuch",
                           "--params", "x=1", "--i", "1", "--j", "1", "--t", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "count", "--i", "0", "--j", "0", "--B", "2",
                           "--l", "0", "--u", "3")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "transprob", "--model", "sis",
                           "--params", "n0=30,beta=0.003,gamma=1",
                           "--i", "5", "--j", "4", "--t", "1", "--method", "closed")
    assert code == 1


def test_nonpositive_threads_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "fit", "--data", shigellosis_path(),
                           "--beta-range", "0.001:0.003:3",
                           "--gamma-range", "0.15:0.4:3", "--threads", "0")
    assert code == 1 and "usage error" in err and "--threads" in err
    code, _, err = run_cli(capsys, "transprob", "--model", "sis",
                           "--params", "n0=30,beta=0.003,gamma=1",
                           "--i", "5", "--j", "4", "--t", "1", "--threads", "-2")
    assert code == 1 and "usage error" in err and "--threads" in err


_FIT_ARGS = ("fit", "--data", shigellosis_path(), "--beta-range", "0.001:0.003:3",
             "--gamma-range", "0.15:0.4:3")


@pytest.mark.parametrize("argv, flag", [
    (("sample", "--i", "5", "--j", "3", "--B", "2"), "--n"),
    (("transprob", "--model", "sis", "--params", "n0=30,beta=0.003,gamma=1",
      "--i", "5", "--j", "4", "--t", "1"), "--n"),
    (("filter", "--data", shigellosis_path(), "--params", "beta=0.0016,gamma=0.26"), "--m"),
    (("scan-failure", "--data", shigellosis_path(), "--beta-range", "0.001:0.003:2",
      "--gamma-range", "0.15:0.4:2"), "--particles"),
    (_FIT_ARGS, "--m"),
    (_FIT_ARGS, "--replications"),
    (_FIT_ARGS, "--refinements"),
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_sizes_are_usage_errors(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 1 and "usage error" in err and flag in err
    assert out == ""


@pytest.mark.parametrize("argv, flag", [
    (("count", "--i", "1", "--j", "1", "--B", "2"), "--l"),
    (("sample", "--i", "1", "--j", "1", "--B", "2"), "--u"),
])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_malformed_bounds_are_usage_errors(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 1 and "usage error" in err and flag in err
    assert out == ""


@pytest.mark.parametrize("argv, flag", [
    (("count", "--i", "1", "--j", "1", "--B", "2"), "--l"),
    (("count", "--i", "1", "--j", "1", "--B", "2"), "--u"),
    (("sample", "--i", "1", "--j", "1", "--B", "2", "--seed", "3"), "--l"),
])
def test_negative_infinite_bound_spellings(capsys, argv, flag):
    spaced = run_cli(capsys, *argv, flag, "-inf")
    joined = run_cli(capsys, *argv, f"{flag}=-inf")
    assert spaced == joined
    assert spaced[0] != 1 and "usage error" not in spaced[2]


@pytest.mark.parametrize("argv", [
    ("transprob", "--model", "sis", "--params", "n0=30,beta=0.03,gamma=1",
     "--i", "5", "--j", "5", "--n", "1000"),
    ("transprob", "--model", "sis", "--params", "n0=30,beta=0.03,gamma=1",
     "--i", "5", "--j", "5", "--n", "1000", "--method", "straight"),
    ("simulate", "--model", "sis", "--params", "n0=30,beta=0.003,gamma=1", "--y0", "5"),
], ids=["transprob-igbs", "transprob-straight", "simulate"])
def test_zero_time_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--t", "0")
    assert (code, out, err) == (2, "", "error: t must be finite and > 0, got 0.0\n")


def test_malformed_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BDBRIDGE_SEED", "abc")
    code, out, err = run_cli(capsys, "count", "--i", "1", "--j", "1", "--B", "2")
    assert (code, out) == (1, "")
    assert err == "usage error: BDBRIDGE_SEED must be an integer, got 'abc'\n"


_SHIGELLA_FILTER = ("filter", "--data", shigellosis_path(),
                    "--params", "beta=0.0016,gamma=0.2607", "--m", "50")


@pytest.mark.parametrize("argv", [
    ("count", "--i", "1", "--j", "1", "--B", "2", "--l", "0", "--u", "3"),
    ("transprob", "--model", "sis", "--params", "n0=30,beta=0.003,gamma=1",
     "--i", "5", "--j", "4", "--t", "1", "--n", "200", "--seed", "9"),
    _SHIGELLA_FILTER,
], ids=["count", "transprob", "filter"])
def test_output_file_gets_the_printed_bytes(capsys, tmp_path, argv):
    printed = run_cli(capsys, *argv)
    assert printed[0] == 0 and printed[1].startswith("{")
    assert run_cli(capsys, *argv, "--output", "-") == printed
    target = tmp_path / "result.json"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == printed[1].encode("utf-8")


def test_missing_parameter_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "filter", "--data", shigellosis_path(),
                             "--params", "beta=0.0016")
    assert (code, out, err) == (1, "", "usage error: missing parameter 'gamma'\n")


def test_non_numeric_parameter_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "transprob", "--model", "sis",
                             "--params", "n0=30,beta=x,gamma=1",
                             "--i", "5", "--j", "4", "--t", "1")
    assert (code, out) == (1, "")
    assert err == "usage error: bad parameter 'beta=x', value is not a number\n"


@pytest.mark.parametrize("model, field, params", [
    ("sis", "n0", "n0={},beta=0.003,gamma=1"),
    ("sir", "n0", "n0={},beta=0.003,gamma=1,s0=25"),
    ("sir", "s0", "n0=30,beta=0.003,gamma=1,s0={}"),
], ids=["sis-n0", "sir-n0", "sir-s0"])
@pytest.mark.parametrize("value", ["inf", "nan", "2.5"])
def test_population_must_be_whole_number(capsys, model, field, params, value):
    code, out, err = run_cli(capsys, "transprob", "--model", model,
                             "--params", params.format(value),
                             "--i", "5", "--j", "4", "--t", "1", "--n", "100")
    assert (code, out) == (2, "")
    assert err == f"error: {field} must be a finite whole number, got {value}\n"


def test_closed_stdout_exits_quietly():
    # A reader that stops after the header (``| head -1``) closes the pipe
    # while the command still writes: exit 141 (128 + SIGPIPE), no message.
    env = {**os.environ, "PYTHONPATH": str(Path(bdbridge.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bdbridge.cli", "sample", "--i", "5", "--j", "3",
         "--B", "500", "--n", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"replicate_id,k,tau_k,omega_k\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ("count", "--i", "1", "--j", "1", "--B", "2", "--output", "{missing}/x.json"),
    (*_FIT_ARGS, "--m", "20", "--replications", "1", "--refinements", "1",
     "--surface-out", "{missing}/surface.csv"),
    ("filter", "--data", "{missing}.csv", "--params", "beta=0.0016,gamma=0.2607"),
], ids=["output", "surface-out", "data"])
def test_unopenable_file_is_domain_error(capsys, tmp_path, argv):
    missing = str(tmp_path / "no" / "such")
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and missing in err


def test_filter_takes_no_model(capsys):
    code, out, err = run_cli(capsys, *_SHIGELLA_FILTER, "--model", "sir")
    assert (code, out) == (1, "") and "usage error" in err and "--model" in err


def test_bmax_below_minimum_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "transprob", "--model", "sis",
                             "--params", "n0=30,beta=0.003,gamma=1",
                             "--i", "3", "--j", "8", "--t", "1", "--bmax", "2")
    assert code == 1 and "usage error" in err and "--bmax" in err
    assert out == ""


def test_scan_failure_csv(capsys, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("time,S\n0,60\n1,60\n2,59\n3,58\n")
    code, out, _ = run_cli(capsys, "scan-failure", "--data", str(data),
                           "--beta-range", "0.001:0.004:2",
                           "--gamma-range", "0.2:0.5:2",
                           "--particles", "2000", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,gamma,survival_min,failed_0p1,failed_0p01"
    assert len(lines) == 5
    for line in lines[1:]:
        beta, gamma, smin, f1, f2 = line.split(",")
        assert 0.0 <= float(smin) <= 1.0
        assert int(f2) <= int(f1)


def test_fit_small_grid(capsys, tmp_path):
    surface = tmp_path / "surf.csv"
    code, out, _ = run_cli(capsys, "fit", "--data", shigellosis_path(),
                           "--beta-range", "0.001:0.003:3",
                           "--gamma-range", "0.15:0.4:3",
                           "--m", "400", "--replications", "1",
                           "--refinements", "1", "--seed", "8",
                           "--surface-out", str(surface))
    assert code == 0
    payload = json.loads(out)
    assert 0.001 <= payload["beta_hat"] <= 0.003
    assert payload["ci_beta"][0] <= payload["beta_hat"] <= payload["ci_beta"][1]
    # An interval end flagged as on the grid edge is that edge.
    for name, edges in (("beta", (0.001, 0.003)), ("gamma", (0.15, 0.4))):
        flags = payload[f"ci_{name}_at_edge"]
        assert len(flags) == 2 and all(isinstance(f, bool) for f in flags)
        for end, edge, flag in zip(payload[f"ci_{name}"], edges, flags):
            assert not flag or end == edge, (name, end, edge)
    lines = surface.read_text().strip().splitlines()
    assert lines[0] == "beta,gamma,loglik,loglik_sd"
    assert len(lines) == 10


def test_emitted_csvs_round_trip(capsys, tmp_path):
    # Every CSV the CLI writes must be re-ingestible by its loader.
    sample_out = tmp_path / "paths.csv"
    run_cli(capsys, "sample", "--i", "2", "--j", "4", "--B", "3", "--t", "1.5",
            "--n", "4", "--seed", "5", "--output", str(sample_out))
    paths = load_sample_paths(sample_out)
    assert len(paths) == 4
    for p in paths:
        p.validate()
        assert p.states[0] == 2 and p.states[-1] == 4 and p.up_jumps == 3

    sim_out = tmp_path / "sim.csv"
    run_cli(capsys, "simulate", "--model", "lbdi",
            "--params", "lambda=0.8,mu=0.6,nu=1.2", "--y0", "5", "--t", "2",
            "--seed", "6", "--output", str(sim_out))
    sim = load_sim_path(sim_out)
    assert sim.times[0] == 0.0 and sim.states[0] == 5 and sim.horizon == 2.0

    obs_file = tmp_path / "obs.csv"
    obs_file.write_text("time,S\n0,60\n1,59\n2,59\n")
    scan_out = tmp_path / "scan.csv"
    run_cli(capsys, "scan-failure", "--data", str(obs_file),
            "--beta-range", "0.001:0.003:2", "--gamma-range", "0.2:0.4:2",
            "--particles", "1000", "--seed", "7", "--output", str(scan_out))
    scan = load_scan_csv(scan_out)
    assert scan["beta"].shape == (4,)
    assert np.all((scan["survival_min"] >= 0) & (scan["survival_min"] <= 1))

    surf_out = tmp_path / "surf.csv"
    run_cli(capsys, "fit", "--data", str(obs_file),
            "--beta-range", "0.001:0.003:2", "--gamma-range", "0.2:0.4:2",
            "--m", "200", "--replications", "1", "--refinements", "1",
            "--seed", "8", "--surface-out", str(surf_out))
    surf = load_surface_csv(surf_out)
    assert surf["loglik"].shape == (4,)
    assert np.all(np.isfinite(surf["loglik"]))


def test_json_formatting():
    text = _dump_json({"a": 1.0, "b": float("-inf"), "c": [1, 2.5], "d": None,
                       "e": True, "f": "x\"y"})
    assert text == '{"a": 1, "b": -Infinity, "c": [1, 2.5], "d": null, "e": true, "f": "x\\"y"}'
    assert json.loads(text)["b"] == -math.inf
    # 17 significant digits survive a json round trip exactly
    val = 0.12345678901234567
    assert json.loads(_dump_json({"v": val}))["v"] == val


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BDBRIDGE_SEED", "12345")
    code, out, _ = run_cli(capsys, "transprob", "--model", "sis",
                           "--params", "n0=30,beta=0.003,gamma=1",
                           "--i", "5", "--j", "4", "--t", "1", "--n", "1000")
    assert json.loads(out)["seed"] == 12345
