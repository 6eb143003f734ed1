import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from confmac import capacity, search
from confmac.cli import MAX_GRID_POINTS, parse_grid, run
from confmac.model import ChannelSpec, DomainError, RatePoint, SourceSpec
from confmac.validation import _SCHEME_BLOCK_ROWS, _feasible_scheme_rows, _uniform_rows
from confmac.vqscheme import RATE_BOUND_NAMES, VqConfig, vq_rate_region


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(args)
    return code, out.getvalue()


def test_region_vq_json_has_eight_slacks():
    code, out = run_cli([
        "region", "vq", "--rho", "0.5", "--p1", "1", "--p2", "1", "--noise", "1",
        "--r1", "1", "--r2", "1", "--rc", "0.5", "--beta1", "0.3", "--beta2", "0.3",
        "--json",
    ])
    payload = json.loads(out)
    assert set(payload["slacks"]) == {
        "r1", "r2", "rc", "r1+r2", "r1+rc", "r2+rc", "r1+r2+rc", "c12"}
    assert payload["feasible"] is False  # this configuration exceeds the region
    assert code == 2
    assert payload["slacks"]["c12"] == "inf"  # default c12 is unlimited


def test_region_feasible_exit_zero():
    code, out = run_cli([
        "region", "vq", "--rho", "0.5", "--p1", "1", "--p2", "1", "--noise", "1",
        "--r1", "0", "--r2", "0", "--rc", "0", "--beta1", "0", "--beta2", "0",
        "--json",
    ])
    assert code == 0
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize("which, flags, c12, split", [
    ("mac", [], 0.0, (0.0, 0.0)),
    ("mac-conf", ["--beta", "0.25"], math.inf, (1.0, 0.25)),
    ("mac-conf-fixed", ["--beta1", "1", "--beta2", "0.25", "--c12", "inf"], math.inf, (1.0, 0.25)),
    ("mac-conf-fixed", ["--beta1", "0.5", "--beta2", "0.25", "--c12", "0.5"], 0.5, (0.5, 0.25)),
])
def test_region_mac_names_are_points_of_one_region(which, flags, c12, split):
    """``region mac``, ``mac-conf`` and ``mac-conf-fixed`` report the one
    conferencing region at their ``(c12, split)``; ``--c12 inf`` included."""
    code, out = run_cli(["region", which, "--p1", "2", "--p2", "1.5", "--noise", "1",
                         "--r1", "0.3", "--r2", "0.2", *flags, "--json"])
    report = capacity.mac_conf_contains(ChannelSpec(2.0, 1.5, 1.0, c12), RatePoint(0.3, 0.2),
                                        capacity.MacPowerSplit(*split))
    assert code == 0
    payload = json.loads(out)
    assert payload["slacks"] == {k: float(v) if math.isfinite(v) else "inf"
                                 for k, v in report.slacks.items()}
    assert payload["witness"] == {"r1": 0.3, "r2": 0.2, "beta1": split[0], "beta2": split[1]}


@pytest.mark.parametrize("which, flags, c12", [
    ("mac", ["--c12", "2"], 0.0),
    ("mac", [], 0.0),
    ("mac-conf", ["--beta", "0.25", "--c12", "0.5"], "inf"),
    ("mac-conf-fixed", ["--beta1", "0.5", "--beta2", "0.25", "--c12", "0.5"], 0.5),
])
def test_region_mac_echoes_the_link_it_evaluates(which, flags, c12):
    """The config echo of ``region mac`` and ``mac-conf`` names the capacity
    each evaluates at, 0 and inf, whatever ``--c12`` says; ``mac-conf-fixed``
    reads ``--c12``."""
    code, out = run_cli(["region", which, "--p1", "2", "--p2", "1.5", "--noise", "1",
                         "--r1", "0.3", "--r2", "0.2", *flags, "--json"])
    assert code == 0
    assert json.loads(out)["config"]["c12"] == c12


def test_domain_error_exit_code():
    code, _ = run_cli(["region", "vq", "--rho", "1.2", "--r1", "1"])
    assert code == 1


def test_region_vq_at_rho_one_with_a_saturated_shared_rate():
    """At rho = 1, r1 = 0 and rc = 30 bits, ``1 - 4^-rc`` rounds to 1: the
    conference requirement is exactly 0 and the achieved ``d2`` about
    ``4^-30``, not a numpy warning, -inf and a domain error.  The point is
    outside the region at unit power, so the report ends in exit code 2."""
    argv = ["region", "vq", "--rho", "1", "--p1", "1", "--p2", "1", "--noise", "1",
            "--r1", "0", "--r2", "1", "--rc", "30", "--beta1", "0.5", "--beta2", "0.5",
            "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(argv)
    payload = json.loads(out)
    assert code == 2 and payload["feasible"] is False
    assert payload["required_c12"] == 0.0 and payload["bin_log_size"] == 30.0
    assert payload["achieved_d1"] == payload["achieved_d2"] == pytest.approx(4.0**-30, rel=1e-9)


def test_region_vq_at_rho_one_with_saturated_private_rates():
    """At rho = 1, r1 = r2 = 30 bits and rc = 0, ``1 - 4^-r`` rounds to 1, so
    the residual ``a_res`` is 0 and every rate bound is rounding noise: each
    is reported as -inf (an infeasible point, exit code 2), not as +inf
    behind a numpy warning."""
    argv = ["region", "vq", "--rho", "1", "--p1", "1", "--p2", "1", "--noise", "1",
            "--r1", "30", "--r2", "30", "--rc", "0", "--beta1", "0.5", "--beta2", "0.5",
            "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(argv)
    payload = json.loads(out)
    assert code == 2 and payload["feasible"] is False
    slacks = payload["slacks"]
    assert slacks.pop("c12") == "inf"
    assert sorted(slacks) == sorted(RATE_BOUND_NAMES)
    assert all(v == "-inf" for v in slacks.values())


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, where, spelling", [
    (["region", "vq", "--rho", "0.5", "--r1", "0.5"], ("slacks", "c12"), "inf"),
    (["region", "vq", "--rho", "1", "--p1", "1", "--p2", "1", "--noise", "1", "--r1", "30",
      "--r2", "30", "--rc", "0", "--beta1", "0.5", "--beta2", "0.5"], ("slacks", "r1"), "-inf"),
    (["region", "sep2", "--rho", "0.5", "--p1", "10", "--p2", "10", "--d1", "0.1",
      "--d2", "0.2"], ("slacks", "c12"), "inf"),
    (["minpower", "--scheme", "sep2", "--rho", "0.5", "--d1", "0.1", "--d2", "0.2",
      "--c12", "0"], ("witness", "sw2"), "inf"),
], ids=["region-vq", "region-vq-rho-one", "region-sep2", "minpower-sep2-no-link"])
def test_json_output_is_strict(argv, where, spelling):
    """``--json`` prints strict JSON: no ``Infinity`` or ``NaN`` literals,
    which strict parsers reject.  Infinities are the strings "inf" and
    "-inf", in results and config echo alike."""
    _, out = run_cli(argv + ["--json"])
    payload = json.loads(out, parse_constant=_reject_constant)
    section, key = where
    assert payload[section][key] == spelling


TRACE = ["trace", "--kind", "pmin-vs-alpha", "--noise", "1", "--schemes", "fullcoop"]

BAD_INPUTS = {
    "trace-without-rho": (TRACE + ["--d2", "0.2", "--alphas", "0.5"], ("1",)),
    "trace-without-d2": (TRACE + ["--rho", "0.5", "--alphas", "0.5"], ("1",)),
    "trace-unknown-scheme": (TRACE + ["--rho", "0.5", "--d2", "0.2", "--alphas", "0.3,0.6",
                                      "--schemes", "bogus"], ("1", "2")),
    "trace-decreasing-grid": (TRACE + ["--rho", "0.5", "--d2", "0.2", "--alphas", "0.5,0.3"],
                              ("1", "2")),
    "trace-c12-vs-alpha-sep2": (["trace", "--kind", "c12-vs-alpha", "--rho", "0.5",
                                 "--d2", "0.2", "--p", "11.5", "--alphas", "0.5,0.6",
                                 "--schemes", "vq,sep2"], ("1", "2")),
    "trace-c12-vs-alpha-vq-none": (["trace", "--kind", "c12-vs-alpha", "--rho", "0.5",
                                    "--d2", "0.2", "--p", "11.5", "--alphas", "0.5,0.6",
                                    "--schemes", "vq-none"], ("1", "2")),
    "trace-d1d2-vs-snr-schemes": (["trace", "--kind", "d1d2-vs-snr", "--rho", "0.5",
                                   "--d2", "0.2", "--snrs", "10,100", "--schemes", "sep1"],
                                  ("1", "2")),
    "trace-alpha-above-one": (TRACE + ["--rho", "0.5", "--d2", "0.2", "--alphas", "0.5,6"],
                              ("1",)),
    "trace-tol-nan": (TRACE + ["--rho", "0.5", "--d2", "0.2", "--alphas", "0.5", "--tol", "nan"],
                      ("1",)),
    "region-sep1-rho-one": (["region", "sep1", "--rho", "1", "--d1", "0.2", "--d2", "0.2"],
                            ("1",)),
    "region-wagner-rho-one": (["region", "wagner", "--rho", "1", "--d1", "0.2", "--d2", "0.2",
                               "--r1", "1", "--r2", "1"], ("1",)),
}


@pytest.mark.parametrize("argv,threads", [
    pytest.param(argv, t, id=f"{name}-threads{t}")
    for name, (argv, ts) in BAD_INPUTS.items() for t in ts])
def test_bad_input_exits_one_with_one_line(argv, threads, monkeypatch, capsys):
    monkeypatch.setenv("GMAC_THREADS", threads)

    def solve(*args, **kwargs):
        raise AssertionError("a solve ran before the input was rejected")

    for name in ("min_power_symmetric", "min_conf_capacity", "min_d1_unlimited"):
        monkeypatch.setattr(search, name, solve)
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


MINPOWER = ["minpower", "--scheme", "necessary", "--rho", "0.5", "--d1", "0.1", "--d2", "0.2"]

# name: (argv, content of the --config file or None, documented exit code)
ADVERSARIAL_INPUTS = {
    "minpower-tol-nan": (MINPOWER + ["--tol", "nan"], None, 1),
    "minpower-tol-inf": (MINPOWER + ["--tol", "inf"], None, 1),
    "minconf-tol-negative": (["minconf", "--scheme", "sep1", "--rho", "0.5", "--p1", "11.5",
                              "--p2", "11.5", "--d1", "0.1", "--d2", "0.2", "--tol", "-1"],
                             None, 1),
    "config-json-list": (["minpower", "--scheme", "necessary"], "[1, 2]", 1),
    "config-list-value": (["minpower", "--scheme", "necessary"],
                          '{"rho": [0.5], "d1": 0.1, "d2": 0.2}', 1),
    "trace-token-kind-cannot-trace": (["trace", "--kind", "d1d2-vs-snr", "--rho", "0.5",
                                       "--d2", "0.2", "--snrs", "10", "--schemes", "vq"],
                                      None, 1),
    "minpower-missing-d1": (["minpower", "--scheme", "necessary", "--rho", "0.5", "--d2", "0.2"],
                            None, 1),
    "minpower-missing-d2": (["minpower", "--scheme", "vq", "--rho", "0.5", "--d1", "0.1"],
                            None, 1),
    "minpower-tol-not-a-number": (MINPOWER + ["--tol", "x"], None, 1),
    "trace-missing-alphas": (["trace", "--kind", "pmin-vs-alpha", "--rho", "0.5",
                              "--d2", "0.2"], None, 1),
    "trace-alphas-not-a-number": (["trace", "--kind", "pmin-vs-alpha", "--rho", "0.5",
                                   "--d2", "0.2", "--alphas", "x"], None, 1),
    "trace-alphas-two-field-range": (["trace", "--kind", "pmin-vs-alpha", "--rho", "0.5",
                                      "--d2", "0.2", "--alphas", "1:2"], None, 1),
    "validate-samples-not-an-integer": (["validate", "--samples", "1.5"], None, 1),
    "validate-seed-not-a-number": (["validate", "--seed", "x"], None, 1),
    "validate-seed-negative": (["validate", "--seed", "-1"], None, 1),
    "validate-samples-below-minimum": (["validate", "--samples", "999"], None, 1),
    "minpower-fullcoop-infinite-power": (["minpower", "--scheme", "fullcoop", "--rho", "0.5",
                                          "--d1", "1e-310", "--d2", "0.5"], None, 2),
    "minconf-unbounded": (["minconf", "--scheme", "sep1", "--rho", "0.5", "--p1", "0.1",
                           "--p2", "0.1", "--d1", "0.2", "--d2", "0.2"], None, 2),
    # unbounded at c12 inf and 0 too: every box stops at _MAX_SIDE bits
    "minpower-vq-rho-one-finite-link-unbounded": (
        ["minpower", "--scheme", "vq", "--rho", "1", "--d1", "1e-20", "--d2", "0.5",
         "--c12", "1"], None, 2),
}


@pytest.mark.parametrize("name", ADVERSARIAL_INPUTS)
def test_adversarial_input_exits_with_one_line(name, tmp_path, capsys):
    argv, config, code = ADVERSARIAL_INPUTS[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith({1: "domain error: ", 2: "unbounded: "}[code])


def test_validate_input_errors_name_their_flags(capsys):
    for argv, message in ((["--seed", "-1"], "seed: must be >= 0, got -1"),
                          (["--samples", "999"], "samples: must be >= 1000, got 999")):
        assert run(["validate"] + argv) == 1
        assert capsys.readouterr().err == f"domain error: {message}\n"


def test_minpower_fullcoop_value():
    code, out = run_cli([
        "minpower", "--scheme", "fullcoop", "--rho", "0.5",
        "--d1", "0.2", "--d2", "0.2", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == pytest.approx(4.4375, abs=1e-12)


def test_minpower_alpha_shorthand():
    code, out = run_cli([
        "minpower", "--scheme", "fullcoop", "--rho", "0.5",
        "--alpha", "0.5", "--d2", "0.2", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["alpha"] == 0.5


@pytest.mark.parametrize("argv", [
    ["minpower", "--scheme", "sep1", "--rho", "0.5", "--d1", "0.1", "--d2", "0.2",
     "--c12", "0", "--noise", "2"],
    ["minpower", "--scheme", "fullcoop", "--rho", "0.5", "--alpha", "1", "--d2", "0.2",
     "--tol", "1e-9", "--c12", "inf"],
    ["minconf", "--scheme", "sep1", "--rho", "0.5", "--p1", "11.5", "--p2", "11.5",
     "--d1", "0.1", "--d2", "0.2", "--tol", "1e-3"],
], ids=["minpower-sep1", "minpower-alpha", "minconf-sep1"])
def test_config_echo_is_numeric_from_flags_and_config(argv, tmp_path):
    """A flag on the command line and the same value from ``--config`` echo
    identically, as the numbers the command used; unlimited c12 is "inf"."""
    _, from_flags = run_cli(argv + ["--json"])
    echo = json.loads(from_flags)["config"]
    flags = dict(zip(argv[1::2], argv[2::2]))
    assert all(isinstance(echo[k.lstrip("-")], float) for k in flags
               if k not in ("--scheme", "--c12"))
    assert echo["tol"] == float(flags.get("--tol", 1e-6))
    assert echo.get("c12", 0.0) in (0.0, "inf")
    as_config = {k.lstrip("-"): v if k == "--scheme" or v == "inf" else float(v)
                 for k, v in flags.items()}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(as_config), encoding="utf-8")
    _, from_config = run_cli([argv[0], "--config", str(cfg_file), "--json"])
    assert from_config == from_flags
    cfg_file.write_text(from_flags, encoding="utf-8")  # an emitted result fed back
    _, fed_back = run_cli([argv[0], "--config", str(cfg_file), "--json"])
    assert fed_back == from_flags


def test_config_echo_of_an_unused_infinite_flag_stays_valid_json():
    _, out = run_cli(["minpower", "--scheme", "fullcoop", "--rho", "0.5", "--d1", "0.1",
                      "--alpha", "inf", "--d2", "0.2", "--json"])
    assert json.loads(out, parse_constant=lambda name: pytest.fail(name))["config"]["alpha"] == "inf"


def test_minconf_unbounded_exit_two():
    code, _ = run_cli([
        "minconf", "--scheme", "vq", "--rho", "0.5", "--p1", "0.1", "--p2", "0.1",
        "--noise", "1", "--d1", "0.2", "--d2", "0.2",
    ])
    assert code == 2


@pytest.mark.parametrize("scheme, key", [("vq", "required_c12"), ("sep1", "r1")])
def test_minconf_zero_answer_prints_its_witness(scheme, key):
    args = ["minconf", "--scheme", scheme, "--rho", "0.5", "--p1", "20", "--p2", "20",
            "--d1", "0.1", "--d2", "0.2"]
    code, out = run_cli(args)
    assert code == 0 and any(line.startswith(f"  witness[{key}] = ") for line in out.splitlines())
    code, out = run_cli(args + ["--json"])
    result = json.loads(out)
    assert code == 0 and result["objective"] == 0.0 and key in result["witness"]


def test_asymptote_json():
    code, out = run_cli([
        "asymptote", "--rho", "0.5", "--p1", "1000", "--p2", "1000", "--noise", "1",
        "--d1", "0.1", "--d2", "0.2", "--c12", "inf", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["varrho_inf"] == pytest.approx(math.sqrt(1 - 0.75 / 200.0))
    assert payload["varrho_sep1"] == payload["varrho_inf"]


def test_parse_grid():
    assert parse_grid("0.1:0.5:0.2", "alphas") == pytest.approx([0.1, 0.3, 0.5])
    assert parse_grid("0.1:1.0:0.1", "alphas") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    assert parse_grid("1,2,5", "alphas") == [1.0, 2.0, 5.0]
    with pytest.raises(Exception):
        parse_grid("1:0:0.1", "alphas")
    for spec in ("x", "1:2", "1:2:3:4", "0.1,y"):  # each names the flag it came from
        with pytest.raises(DomainError, match="^snrs: "):
            parse_grid(spec, "snrs")


def test_parse_grid_caps_the_point_count():
    assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1", "alphas")) == MAX_GRID_POINTS
    with pytest.raises(DomainError):
        parse_grid(f"0:{MAX_GRID_POINTS}:1", "alphas")  # one point over the cap
    for spec in ("0:inf:1", "0:1:nan"):
        with pytest.raises(DomainError):
            parse_grid(spec, "alphas")


def test_trace_csv_schema(tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _ = run_cli([
        "trace", "--kind", "pmin-vs-alpha", "--rho", "0.5", "--d2", "0.2",
        "--noise", "1", "--alphas", "0.4:0.8:0.4", "--schemes", "fullcoop,necessary",
        "--tol", "1e-6", "--out", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert meta and meta[0].startswith("# confmac ")
    assert any("rho=0.5" in ln for ln in meta)
    header = lines[len(meta)]
    cols = header.split(",")
    assert cols[:3] == ["alpha", "d1", "d2"]
    assert "pmin_fullcoop" in cols and "pmin_necessary" in cols
    data = [ln for ln in lines[len(meta) + 1:] if ln]
    assert len(data) == 2
    first = dict(zip(cols, data[0].split(",")))
    assert float(first["alpha"]) == 0.4
    # 12 significant digits, locale-independent decimal point
    assert "," not in first["pmin_fullcoop"]
    value = float(first["pmin_fullcoop"])
    assert f"{value:.12g}" == first["pmin_fullcoop"]


def test_trace_d1d2_at_rho_one_has_an_infinite_ratio():
    """At rho 1 the semi-symmetric prediction is 0: each row's ratio is
    ``inf`` and the trace succeeds, with ``d1 = 1/(1 + 4 snr)`` at the
    target ``d2``."""
    code, out = run_cli(["trace", "--kind", "d1d2-vs-snr", "--rho", "1", "--d2", "0.05",
                         "--snrs", "1e2,1e4"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    assert [row["p_over_n"] for row in rows] == ["100", "10000"]
    for row in rows:
        assert (row["d1d2_predicted"], row["ratio"], row["errors"]) == ("0", "inf", "")
        snr = float(row["p_over_n"])
        assert float(row["d1d2_vq"]) / 0.05 == pytest.approx(1.0 / (1.0 + 4.0 * snr), rel=1e-7)


@pytest.mark.parametrize("argv, status", [
    (["trace", "--kind", "d1d2-vs-snr", "--rho", "1", "--d2", "0.05", "--snrs", "1e2,1e4"], 0),
    (["trace", "--kind", "c12-vs-alpha", "--rho", "0.5", "--d2", "0.2", "--p", "0.1",
      "--schemes", "sep1,vq", "--alphas", "0.5,1"], 2),
], ids=["infinite-ratio", "unbounded-rows"])
def test_trace_json_is_strict_and_matches_the_csv(argv, status):
    """``trace --json`` prints one strict JSON object whose rows are the
    CSV's rows, an infinite ratio or a failed cell spelled as a string, and
    exits as the CSV run does."""
    code, out = run_cli(argv)
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    csv_rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    json_code, json_out = run_cli(argv + ["--json"])
    payload = json.loads(json_out, parse_constant=_reject_constant)
    assert code == json_code == status
    assert payload["config"]["kind"] == argv[2]
    assert [{key: value if isinstance(value, str) else f"{value:.12g}"
             for key, value in row.items()} for row in payload["rows"]] == csv_rows


def test_json_config_round_trip(tmp_path):
    args = ["region", "vq", "--rho", "0.5", "--p1", "1", "--p2", "1", "--noise", "1",
            "--r1", "0.5", "--r2", "0.5", "--rc", "0.25", "--beta1", "0.2",
            "--beta2", "0.1", "--c12", "2.0", "--json"]
    _, first = run_cli(args)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(first, encoding="utf-8")
    _, second = run_cli(["region", "vq", "--config", str(cfg_file), "--json"])
    assert second == first
    # flags override the config file
    _, third = run_cli(["region", "vq", "--config", str(cfg_file), "--rho", "0.4", "--json"])
    assert json.loads(third)["config"]["rho"] == 0.4


def test_validate_quick_run_and_determinism():
    code, out = run_cli(["validate", "--seed", "7", "--samples", "20000"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(ln.startswith("PASS") for ln in lines)
    # the benchmark fails a validate run whose check names differ from these
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
    assert [ln.split()[1].rstrip(":") for ln in lines] == reference["validate"]["checks"]
    _, again = run_cli(["validate", "--seed", "7", "--samples", "20000"])
    assert again == out


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """The traced benchmark's tracer reaches every by-name import it lists
    (``tracer.BY_NAME``; it raises at install when one is missing) and
    restores the package's functions on uninstall."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import tracer

    originals = {name: getattr(search, name)
                 for name in ("compass_search_max", "min_power_symmetric")}
    traced = tracer.Tracer()
    traced.install()
    try:
        assert "confmac.separation.sep2_feasible" in traced.patched_names()
    finally:
        traced.uninstall()
    assert all(getattr(search, name) is fn for name, fn in originals.items())


def test_validate_identical_across_worker_counts(monkeypatch):
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("GMAC_THREADS", workers)
        code, out = run_cli(["validate", "--seed", "7", "--samples", "20000"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_validate_transcript_is_pinned():
    """The whole ``validate --seed 42 --samples 1000000`` transcript, byte for
    byte as the per-beta, one-block, one-model-per-solve sampling code printed
    it.  At 1e6 samples every sampled check spans two or more chunks."""
    code, out = run_cli(["validate", "--seed", "42", "--samples", "1000000"])
    assert code == 0
    pinned = Path(__file__).parent / "data" / "validate-seed42-samples1e6.txt"
    assert out == pinned.read_text(encoding="utf-8")


def test_uniform_rows_match_scalar_draws():
    lo, hi = (0.0, 0.25, 0.25, 0.0), (0.98, 4.0, 4.0, 5.0)
    rng = np.random.default_rng(5)
    rows = _uniform_rows(rng, lo, hi, 500)
    ref_rng = np.random.default_rng(5)
    ref = [[float(ref_rng.uniform(a, b)) for a, b in zip(lo, hi)] for _ in range(500)]
    assert np.array_equal(rows.view(np.int64), np.array(ref).view(np.int64))
    assert rng.random() == ref_rng.random()  # same generator state afterwards


def test_feasible_scheme_rows_match_scalar_region_loop():
    """Check 9's block sampler keeps the rows a scalar ``vq_rate_region``
    loop keeps, in the same order, across a block boundary."""
    ref_rng = np.random.default_rng(11)
    ref = []
    drawn = 0
    while len(ref) < 200:
        drawn += 1
        rho = float(ref_rng.uniform(0.0, 0.95))
        ch = ChannelSpec(*(float(v) for v in ref_rng.uniform(0.3, 8.0, 3)))
        cfg = VqConfig(*(float(v) for v in ref_rng.uniform(0.0, 2.0, 3)),
                       float(ref_rng.uniform(0, 1)), float(ref_rng.uniform(0, 1)))
        if vq_rate_region(SourceSpec(1.0, rho), ch, cfg).feasible:
            ref.append([rho, ch.p1, ch.p2, ch.n0, cfg.r1, cfg.r2, cfg.rc, cfg.beta1, cfg.beta2])
    assert drawn > _SCHEME_BLOCK_ROWS
    got = _feasible_scheme_rows(np.random.default_rng(11), 200)
    assert np.array_equal(got.view(np.int64), np.array(ref).view(np.int64))


def test_trace_identical_across_worker_counts(tmp_path, monkeypatch):
    outputs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("GMAC_THREADS", workers)
        out_file = tmp_path / f"w{workers}.csv"
        code, _ = run_cli([
            "trace", "--kind", "pmin-vs-alpha", "--rho", "0.5", "--d2", "0.2",
            "--noise", "1", "--alphas", "0.3,0.6,0.9", "--schemes",
            "fullcoop,necessary", "--tol", "1e-7", "--out", str(out_file),
        ])
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        outputs.append([ln for ln in lines if not ln.startswith("#")])
    assert outputs[0] == outputs[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "confmac.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "confmac" in proc.stdout


@pytest.mark.parametrize("c12, unlimited", [("0", "sw2"), ("inf", "sv2")])
def test_minpower_sep2_prints_unlimited_witness(c12, unlimited):
    args = ["minpower", "--scheme", "sep2", "--rho", "0.5", "--d1", "0.1", "--d2", "0.2",
            "--c12", c12]
    code, out = run_cli(args)
    assert code == 0
    assert f"  witness[{unlimited}] = inf" in out.splitlines()
    code, out = run_cli(args + ["--json"])
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness[unlimited] == "inf"
    assert all(isinstance(v, float) for k, v in witness.items() if k != unlimited)


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_import_loads_no_scipy():
    proc = _run_python(
        "import sys, confmac.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_passes_without_scipy():
    proc = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from confmac import cli\n"
        "sys.exit(cli.run(['validate', '--seed', '42', '--samples', '20000']))")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10/10 checks passed" in proc.stdout
