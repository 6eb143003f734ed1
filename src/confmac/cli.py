"""Command-line front end.

Subcommands: ``region`` (evaluate one region or feasibility operation),
``minpower``, ``minconf``, ``asymptote``, ``trace`` (curve sweeps to CSV) and
``validate`` (the Monte-Carlo + oracle self-check suite).

Flags may also be supplied through a flat JSON config (``--config``);
explicit command-line flags win.  JSON results echo the resolved config under
a ``config`` key, so an emitted result can be fed back as a config file.
Exit codes: 0 success, 1 domain error (degenerate inputs such as rho = 1
included), 2 infeasible/unbounded, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, bounds, capacity, montecarlo, rdlib, search, separation, vqscheme
from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    DomainError,
    RatePoint,
    SourceSpec,
    is_unlimited,
)
from .search import CurveKind, Scheme, UnboundedError
from ._mc import worker_count

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3

MAX_GRID_POINTS = 100_000  # longest ``lo:hi:step`` grid; each point is a full solve


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def parse_c12(raw):
    """A capacity or variance flag: a float, or 'inf' for unlimited (absent)."""
    if raw is None or is_unlimited(raw):
        return UNLIMITED
    if isinstance(raw, str) and raw.strip().lower() in ("inf", "unlimited", "infinity"):
        return UNLIMITED
    value = float(raw)
    return UNLIMITED if math.isinf(value) else value


def parse_grid(spec: str) -> list[float]:
    """``lo:hi:step`` (inclusive of lo; hi kept within a step/2 rounding guard)
    or a comma-separated list.  A range of more than ``MAX_GRID_POINTS``
    points is a :class:`DomainError`."""
    spec = spec.strip()
    if ":" in spec:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
            raise DomainError("grid", f"bad grid spec {spec!r}")
        if (hi - lo) / step + 0.5 >= MAX_GRID_POINTS:  # the loop makes floor(that) + 1
            raise DomainError("grid", f"{spec!r} has more than {MAX_GRID_POINTS} points")
        values = []
        k = 0
        while True:
            v = lo + k * step
            if v > hi + step / 2.0 or (values and v > hi and hi - values[-1] < step / 2.0):
                break
            values.append(min(v, hi) if v > hi else v)
            k += 1
        return values
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _json_default(obj):
    if is_unlimited(obj):
        return "inf"
    raise TypeError(f"not JSON serializable: {obj!r}")


def emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, default=_json_default))


def emit_report(report, config: dict, as_json: bool, extras: dict | None = None) -> int:
    payload = report.as_dict()
    payload["config"] = config
    if extras:
        payload.update(extras)
    if as_json:
        emit_json(payload)
    else:
        print(f"feasible: {'yes' if report.feasible else 'no'}")
        for name, value in report.slacks.items():
            print(f"  slack[{name}] = {_fmt(value)}")
        for name, value in report.witness.items():
            print(f"  witness[{name}] = {_fmt(value)}")
        if extras:
            for name, value in extras.items():
                print(f"  {name} = {_fmt(value)}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def write_csv(path: str, rows: list[dict], meta: dict) -> None:
    """UTF-8 CSV with '#' metadata lines, stable header, 12 significant digits."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    out = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="\n")
    try:
        out.write(f"# confmac {__version__}\n")
        for key in sorted(meta):
            out.write(f"# {key}={_fmt(meta[key])}\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                value = row.get(col, "")
                cells.append(_fmt(value) if isinstance(value, float) else str(value))
            out.write(",".join(cells) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_FLAGS = {
    "sigma2": 1.0, "rho": None, "p1": 1.0, "p2": 1.0, "noise": 1.0,
    "c12": "inf", "d1": None, "d2": None, "alpha": None,
    "r1": 0.0, "r2": 0.0, "rc": 0.0, "beta": 0.0, "beta1": 0.0, "beta2": 0.0,
    "sw2": "inf", "su2": "inf", "sv2": "inf",
    "p": None, "tol": None, "seed": 1234, "samples": 1_000_000,
    "alphas": None, "snrs": None, "schemes": None, "kind": None,
    "out": "-", "scheme": None, "which": None,
}


def _add_common(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument(f"--{name}", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--json", action="store_true")


def resolve(args: argparse.Namespace, names) -> dict:
    """Merge defaults, config file and explicit flags (flags win)."""
    merged = {name: _FLAGS[name] for name in names}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict) and isinstance(loaded.get("config"), dict):
            loaded = loaded["config"]
        for key, value in loaded.items():
            if key in merged:
                merged[key] = value
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def _floats(cfg: dict, *names) -> list[float]:
    out = []
    for name in names:
        value = cfg.get(name)
        if value is None:
            raise DomainError(name, "required flag missing")
        out.append(float(value))
    return out


def _config_echo(cfg: dict) -> dict:
    echo = {}
    for key, value in cfg.items():
        if is_unlimited(value):
            echo[key] = "inf"
        elif isinstance(value, (int, float, str)) or value is None:
            echo[key] = value
        else:
            echo[key] = str(value)
    return echo


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_region(args) -> int:
    names = ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2",
             "r1", "r2", "rc", "beta", "beta1", "beta2", "sw2", "su2", "sv2", "which"]
    cfg = resolve(args, names)
    cfg["which"] = args.which or cfg.get("which")
    which = cfg["which"]
    c12 = parse_c12(cfg["c12"])
    echo = _config_echo({**cfg, "c12": c12})

    def src() -> SourceSpec:
        sigma2, rho = _floats(cfg, "sigma2", "rho")
        return SourceSpec(sigma2, rho)

    if which == "vq":
        p1, p2, n0 = _floats(cfg, "p1", "p2", "noise")
        ch = ChannelSpec(p1, p2, n0, c12)
        vq = vqscheme.VqConfig(*_floats(cfg, "r1", "r2", "rc", "beta1", "beta2"))
        report = vqscheme.vq_rate_region(src(), ch, vq)
        ach = vqscheme.vq_distortion(src(), vq)
        req, binning = vqscheme.vq_conf_requirement(src(), vq)
        return emit_report(report, echo, args.json, extras={
            "achieved_d1": ach.d1, "achieved_d2": ach.d2,
            "required_c12": req, "bin_log_size": binning,
        })
    if which == "vq-unlimited":
        p1, p2, n0 = _floats(cfg, "p1", "p2", "noise")
        ch = ChannelSpec(p1, p2, n0, UNLIMITED)
        r2, rc, beta = _floats(cfg, "r2", "rc", "beta")
        report, ach = vqscheme.vq_unlimited_region(src(), ch, r2, rc, beta)
        return emit_report(report, echo, args.json,
                           extras={"achieved_d1": ach.d1, "achieved_d2": ach.d2})
    if which == "wagner":
        d1, d2, r1, r2 = _floats(cfg, "d1", "d2", "r1", "r2")
        report = rdlib.wagner_contains(src(), DistortionPair(d1, d2), RatePoint(r1, r2))
        return emit_report(report, echo, args.json)
    if which == "kaspi":
        kp = rdlib.KaspiParams(parse_c12(cfg["sw2"]), parse_c12(cfg["su2"]),
                               parse_c12(cfg["sv2"]))
        point = rdlib.kaspi_region_point(src(), kp)
        payload = {
            "c12_bound": point.c12_bound, "r1_bound": point.r1_bound,
            "r2_bound": point.r2_bound, "rsum_bound": point.rsum_bound,
            "d1": point.achieved.d1, "d2": point.achieved.d2, "config": echo,
        }
        if args.json:
            emit_json(payload)
        else:
            for key in ("c12_bound", "r1_bound", "r2_bound", "rsum_bound", "d1", "d2"):
                print(f"  {key} = {_fmt(payload[key])}")
        return EXIT_OK
    if which in ("mac", "mac-conf", "mac-conf-fixed"):
        p1, p2, n0, r1, r2 = _floats(cfg, "p1", "p2", "noise", "r1", "r2")
        ch = ChannelSpec(p1, p2, n0, c12)
        rp = RatePoint(r1, r2)
        if which == "mac":
            report = capacity.mac_plain_contains(ch, rp)
        elif which == "mac-conf":
            report = capacity.mac_conf_unlimited_contains(ch, rp, float(cfg["beta"]))
        else:
            split = capacity.MacPowerSplit(*_floats(cfg, "beta1", "beta2"))
            report = capacity.mac_conf_fixed_contains(ch, rp, split)
        return emit_report(report, echo, args.json)
    if which in ("necessary", "sep1", "sep2"):
        p1, p2, n0, d1, d2 = _floats(cfg, "p1", "p2", "noise", "d1", "d2")
        ch = ChannelSpec(p1, p2, n0, c12)
        target = DistortionPair(d1, d2)
        fn = {"necessary": bounds.necessary_condition,
              "sep1": separation.sep1_feasible,
              "sep2": separation.sep2_feasible}[which]
        return emit_report(fn(src(), ch, target), echo, args.json)
    raise DomainError("which", f"unknown region {which!r}")


def _emit_optimization(res: search.OptimizationResult, echo: dict, as_json: bool) -> int:
    payload = {
        "objective": res.objective,
        "witness": {k: float(v) for k, v in res.witness.items()},
        "iterations": res.iterations,
        "converged": res.converged,
        "bracket": list(res.bracket),
        "config": echo,
    }
    if as_json:
        emit_json(payload)
    else:
        print(f"objective: {_fmt(res.objective)}")
        print(f"iterations: {res.iterations}  converged: {res.converged}")
        print(f"bracket: [{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}]")
        for key, value in res.witness.items():
            print(f"  witness[{key}] = {_fmt(value)}")
    return EXIT_OK


def cmd_minpower(args) -> int:
    names = ["sigma2", "rho", "noise", "c12", "d1", "d2", "alpha", "tol", "scheme"]
    cfg = resolve(args, names)
    sigma2, rho, n0 = _floats(cfg, "sigma2", "rho", "noise")
    src = SourceSpec(sigma2, rho)
    d2 = float(cfg["d2"]) if cfg["d2"] is not None else None
    if cfg["d1"] is not None:
        d1 = float(cfg["d1"])
    elif cfg["alpha"] is not None and d2 is not None:
        d1 = float(cfg["alpha"]) * d2
    else:
        raise DomainError("d1", "need --d1 or --alpha with --d2")
    target = DistortionPair(d1, d2)
    scheme = Scheme(cfg["scheme"])
    tol = float(cfg["tol"]) if cfg["tol"] is not None else 1e-6
    c12 = parse_c12(cfg["c12"])
    res = search.min_power_symmetric(src, scheme, target, c12=c12, n0=n0, tol=tol)
    return _emit_optimization(res, _config_echo({**cfg, "c12": c12}), args.json)


def cmd_minconf(args) -> int:
    names = ["sigma2", "rho", "p1", "p2", "noise", "d1", "d2", "tol", "scheme"]
    cfg = resolve(args, names)
    sigma2, rho, p1, p2, n0, d1, d2 = _floats(
        cfg, "sigma2", "rho", "p1", "p2", "noise", "d1", "d2")
    src = SourceSpec(sigma2, rho)
    scheme = Scheme(cfg["scheme"])
    tol = float(cfg["tol"]) if cfg["tol"] is not None else 1e-6
    res = search.min_conf_capacity(src, ChannelSpec(p1, p2, n0), scheme,
                                   DistortionPair(d1, d2), tol=tol)
    return _emit_optimization(res, _config_echo(cfg), args.json)


def cmd_asymptote(args) -> int:
    names = ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2"]
    cfg = resolve(args, names)
    sigma2, rho, p1, p2, n0, d1, d2 = _floats(
        cfg, "sigma2", "rho", "p1", "p2", "noise", "d1", "d2")
    c12 = parse_c12(cfg["c12"])
    src = SourceSpec(sigma2, rho)
    ch = ChannelSpec(p1, p2, n0, c12)
    q = bounds.high_snr_quantities(src, ch, DistortionPair(d1, d2))
    payload = {name: getattr(q, name) for name in (
        "varrho_inf", "varrho_sep1", "varrho_sep1_fixed", "varrho_vq_lower",
        "check_rho", "d1d2_limit", "d1d2_limit_sep1_fixed", "d1d2_limit_vq_fixed")}
    payload["config"] = _config_echo({**cfg, "c12": c12})
    if args.json:
        emit_json(payload)
    else:
        for key in sorted(payload):
            if key != "config":
                print(f"  {key} = {_fmt(payload[key])}")
    return EXIT_OK


def cmd_trace(args) -> int:
    names = ["sigma2", "rho", "noise", "c12", "d2", "p", "tol",
             "alphas", "snrs", "schemes", "kind", "out"]
    cfg = resolve(args, names)
    kind = CurveKind(cfg["kind"])
    c12 = parse_c12(cfg["c12"])
    params = dict(zip(("sigma2", "rho", "n0", "d2"),
                      _floats(cfg, "sigma2", "rho", "noise", "d2")))
    params["c12"] = c12
    params["tol"] = float(cfg["tol"]) if cfg["tol"] is not None else 1e-9
    if kind is CurveKind.C12_VS_ALPHA:
        params["p"] = _floats(cfg, "p")[0]
    if cfg["schemes"]:
        params["schemes"] = [tok.strip() for tok in str(cfg["schemes"]).split(",") if tok.strip()]
    grid_flag = "snrs" if kind is CurveKind.D1D2_VS_SNR else "alphas"
    grid = search.check_trace_inputs(kind, params, parse_grid(str(cfg[grid_flag])))

    workers = min(worker_count(), len(grid))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(
                lambda g: search.trace_curve(kind, params, [g]), grid))
        rows = [row for chunk in chunks for row in chunk]
    else:
        rows = search.trace_curve(kind, params, grid)

    meta = {k: v for k, v in _config_echo({**cfg, "c12": c12}).items() if v is not None}
    write_csv(str(cfg["out"]), rows, meta)
    bad = [row for row in rows if row.get("errors")]
    return EXIT_INFEASIBLE if bad else EXIT_OK


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

# check 9's sampling box, per column: rho, p1, p2, n0, r1, r2, rc, beta1, beta2
_SCHEME_BOX_LO = (0.0, 0.3, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0)
_SCHEME_BOX_HI = (0.95, 8.0, 8.0, 8.0, 2.0, 2.0, 2.0, 1.0, 1.0)
_SCHEME_BLOCK_ROWS = 8192  # about 150 of them meet the rate bounds


def _uniform_rows(rng: np.random.Generator, lo, hi, m: int) -> np.ndarray:
    """``m`` rows with column ``j`` uniform on ``[lo[j], hi[j])``.

    Equal bit for bit to drawing the rows one after another with scalar
    ``rng.uniform(lo[j], hi[j])`` calls, and leaves ``rng`` in the same state.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((m, lo.size))


def _feasible_scheme_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first ``count`` rows of check 9's box, in draw order, whose VQ
    configuration meets all seven rate bounds (the whole region at the
    unlimited ``c12`` of check 9's channels).

    Draws ``_SCHEME_BLOCK_ROWS`` rows at a time and screens each block with one
    :func:`vqscheme._rate_min_slack` call, so ``rng`` ends up past the last
    row returned.
    """
    kept = []
    need = count
    while need > 0:
        rows = _uniform_rows(rng, _SCHEME_BOX_LO, _SCHEME_BOX_HI, _SCHEME_BLOCK_ROWS)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = vqscheme._rate_min_slack(1.0, *rows.T) >= 0.0
        kept.append(rows[ok][:need])
        need -= len(kept[-1])
    return np.concatenate(kept)


def _run_validation(seed: int, samples: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # 1. side-information identity linking the conference requirement to the
    #    binning rate, on a (rho, rc) grid
    worst = 0.0
    for rho in np.linspace(0.0, 0.95, 20):
        src = SourceSpec(1.0, float(rho))
        for rc in np.linspace(0.0, 6.0, 10):
            d1 = 2.0 ** (-2.0 * float(rc))
            lhs = rdlib.wz_rate(src, d1) if d1 > 0 else 0.0
            req, _ = vqscheme.vq_conf_requirement(
                src, vqscheme.VqConfig(0.0, 0.0, float(rc), 0.0, 0.0))
            worst = max(worst, abs(lhs - req))
    add("wz-identity", worst <= 1e-12, f"worst |diff|={worst:.3e}")

    # 2. no-conference reduction of the rate region, against the
    #    Lapidoth-Tinguely bounds written out in scalar math
    rng = np.random.default_rng(seed)
    rows = _uniform_rows(rng, (0.0, 0.25, 0.25, 0.25, 0.0, 0.0),
                         (0.98, 4.0, 4.0, 4.0, 5.0, 5.0), 1000)
    _, _, bnd = vqscheme._raw_quantities(1.0, *rows.T, 0.0, 0.0, 0.0)
    r1, r2 = rows[:, 4], rows[:, 5]
    rates = {"r1": r1, "r2": r2, "r1+r2": r1 + r2}
    # bound read back from its slack, as ``vq_rate_region(...).slacks`` gives it
    got = {name: ((bnd[name] - rate) + rate).tolist() for name, rate in rates.items()}
    worst = 0.0
    for i, (rho, p1, p2, n0, r1, r2) in enumerate(rows.tolist()):
        tr = rho * math.sqrt((1 - 4.0**-r1) * (1 - 4.0**-r2))
        lt = {
            "r1": 0.5 * math.log2((p1 * (1 - tr**2) + n0) / (n0 * (1 - tr**2))),
            "r2": 0.5 * math.log2((p2 * (1 - tr**2) + n0) / (n0 * (1 - tr**2))),
            "r1+r2": 0.5 * math.log2(
                (p1 + p2 + 2 * tr * math.sqrt(p1 * p2) + n0) / (n0 * (1 - tr**2))),
        }
        for name, bound in lt.items():
            worst = max(worst, abs(got[name][i] - bound))
    add("no-conference-reduction", worst <= 1e-12, f"worst |diff|={worst:.3e}")

    # 3. estimator gains: closed form vs normal equations, plus range bounds
    worst = 0.0
    range_ok = True
    for _ in range(1000):
        rho = float(rng.uniform(0.05, 0.98))
        r1, r2, rc = (float(v) for v in rng.uniform(0.05, 5.0, 3))
        src = SourceSpec(float(rng.uniform(0.5, 2.0)), rho)
        cfgq = vqscheme.VqConfig(r1, r2, rc, 0.0, 0.0)
        g = montecarlo.mmse_gamma(src, cfgq)
        go = montecarlo.mmse_gamma_oracle(montecarlo.build_surrogate(src, cfgq))
        for name in ("g11", "g12", "g13", "g21", "g22", "g23"):
            worst = max(worst, abs(getattr(g, name) - getattr(go, name)))
        range_ok &= (0 < g.g11 <= 1) and (0 < g.g13 <= 1) and (0 < g.g22 <= 1)
        range_ok &= (0 < g.g12 <= rho) and (0 < g.g21 <= rho) and (0 < g.g23 <= rho)
    add("mmse-oracle", worst <= 1e-10 and range_ok,
        f"worst |diff|={worst:.3e} range_ok={range_ok}")

    # 4. genie-aided decoder distortion vs closed form
    src = SourceSpec(1.0, 0.5)
    cfgq = vqscheme.VqConfig(1.0, 1.0, 0.5, 0.0, 0.0)
    est = montecarlo.genie_distortion_mc(src, cfgq, samples, seed)
    d1c, d2c = vqscheme.vq_distortion(src, cfgq).astuple()
    ok = (abs(est.d1_hat - d1c) <= 3 * est.d1_se and abs(est.d2_hat - d2c) <= 3 * est.d2_se)
    add("genie-distortion", ok,
        f"d1 {est.d1_hat:.6f}~{d1c:.6f} (se {est.d1_se:.2e}), "
        f"d2 {est.d2_hat:.6f}~{d2c:.6f} (se {est.d2_se:.2e})")

    # 5. maximum-correlation construction moments
    ok = True
    detail = []
    for rho in (0.0, 0.3, 0.5, 0.8, 0.95):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            est = bounds.maxcorr_linear_maps(SourceSpec(1.0, rho), beta,
                                             max(samples // 5, 10_000), seed + 7)
            corr_truth = math.sqrt(rho**2 * (1 - beta) + beta)
            cond_truth = (1 - beta) * (1 - rho**2)
            ok &= abs(est.corr - corr_truth) <= 3 * max(est.corr_se, 1e-12)
            ok &= abs(est.cond_var - cond_truth) <= 3 * max(est.cond_var_se, 1e-12)
    add("maxcorr-moments", ok, "5x5 (rho, beta) grid, 3 se")

    # 6. angle constants of the description vectors (finite-block expectation)
    dim = 64
    draws = min(100_000, max(samples // 10, 10_000))
    est = montecarlo.surrogate_angle_moments(src, cfgq, dim=dim, draws=draws, seed=seed + 13)
    _, consts = vqscheme.vq_constants(src, ChannelSpec(1.0, 1.0, 1.0), cfgq)
    t_u1u2 = montecarlo.expected_cosine(consts.tilde_rho, dim)
    t_vu2 = montecarlo.expected_cosine(consts.bar_rho, dim)
    ok = (abs(est.cos_u1_u2 - t_u1u2) <= 3 * est.se_u1_u2 + 2 * consts.tilde_rho / dim**2
          and abs(est.cos_v_u2 - t_vu2) <= 3 * est.se_v_u2 + 2 * consts.bar_rho / dim**2
          and abs(est.cos_v_u1) <= 3 * est.se_v_u1)
    add("angle-constants", ok,
        f"cos(u1,u2)={est.cos_u1_u2:.5f}~{t_u1u2:.5f} "
        f"cos(v,u2)={est.cos_v_u2:.5f}~{t_vu2:.5f}")

    # 7. polar-cap sandwich, small-dimension closed forms, gamma-ratio series
    geo_ok = True
    for n in range(4, 201, 7):
        for phi in np.linspace(0.1, 1.4, 14):
            lower, upper = montecarlo.cap_ratio_bounds(n, float(phi))
            exact = montecarlo.cap_ratio_exact(n, float(phi))
            if lower > 0.0:
                geo_ok &= lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)
    geo_ok &= abs(montecarlo.cap_ratio_exact(2, math.pi / 3) - 1.0 / 3.0) <= 1e-12
    geo_ok &= abs(montecarlo.cap_ratio_exact(3, math.pi / 3) - 0.25) <= 1e-12
    series = montecarlo.gamma_ratio_series(1e4, terms=3)
    exact = montecarlo.gamma_ratio_exact(1e4)
    geo_ok &= abs(series / exact - 1.0) <= 1e-12
    add("sphere-geometry", geo_ok, "cap sandwich + exact n=2,3 + gamma series")

    # 8. cap fraction from uniform sphere samples
    frac, se = montecarlo.sphere_cap_fraction_mc(8, 0.9, max(samples // 10, 10_000), seed + 21)
    exact = montecarlo.cap_ratio_exact(8, 0.9)
    add("sphere-sampling", abs(frac - exact) <= 3 * se,
        f"frac={frac:.5f}~{exact:.5f} (se {se:.2e})")

    # 9. every feasible scheme configuration passes the outer bound.  The
    #    sampler's last block draws past the rows it returns; that is harmless
    #    only because this is the last check that reads ``rng``.
    violations = 0
    for rho, p1, p2, n0, *cfg in _feasible_scheme_rows(rng, 1000).tolist():
        srcr = SourceSpec(1.0, rho)
        ach = vqscheme.vq_distortion(srcr, vqscheme.VqConfig(*cfg))
        if not bounds.necessary_condition(srcr, ChannelSpec(p1, p2, n0), ach).feasible:
            violations += 1
    add("necessary-implied", violations == 0, f"violations={violations}/1000")

    # 10. scheme-comparison threshold
    ok = True
    for c in (0.5, 1.0, 2.0):
        ok &= abs(bounds.compare_threshold(c, 4.0**-c) - 1.0) <= 1e-12
    for c in (0.5, 1.0, 2.0):
        for alpha in (0.25, 0.5, 1.0):
            thr = bounds.compare_threshold(c, alpha)
            for rho in (0.3 * thr, 0.6 * thr, 0.9 * thr):
                if rho >= 1.0 or rho <= 0.0:
                    continue
                srcr = SourceSpec(1.0, rho)
                d2 = 0.2
                p = 1000.0 / min(alpha * d2, d2)
                q = bounds.high_snr_quantities(
                    srcr, ChannelSpec(p, p, 1.0, c), DistortionPair(alpha * d2, d2))
                ok &= q.varrho_vq_lower > q.varrho_sep1_fixed
    add("comparison-threshold", ok, "threshold=1 at alpha=2^-2C; ordering below it")

    return checks


def cmd_validate(args) -> int:
    names = ["seed", "samples"]
    cfg = resolve(args, names)
    seed = int(cfg["seed"])
    samples = int(cfg["samples"])
    checks = _run_validation(seed, samples)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed (seed={seed}, samples={samples})")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmac",
        description="Distortion regions, power and conference-capacity requirements "
                    "for a bivariate Gaussian source over a conferencing Gaussian MAC.")
    parser.add_argument("--version", action="version", version=f"confmac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="evaluate one region / feasibility operation")
    p_region.add_argument("which", nargs="?", default=None,
                          choices=["vq", "vq-unlimited", "wagner", "kaspi", "mac",
                                   "mac-conf", "mac-conf-fixed", "necessary", "sep1", "sep2"])
    _add_common(p_region, ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2",
                           "r1", "r2", "rc", "beta", "beta1", "beta2",
                           "sw2", "su2", "sv2"])
    p_region.set_defaults(fn=cmd_region)

    p_minpower = sub.add_parser("minpower", help="minimal symmetric power for a target")
    p_minpower.add_argument("--scheme", default=None,
                            choices=[s.value for s in Scheme])
    _add_common(p_minpower, ["sigma2", "rho", "noise", "c12", "d1", "d2", "alpha", "tol"])
    p_minpower.set_defaults(fn=cmd_minpower)

    p_minconf = sub.add_parser("minconf", help="minimal conference capacity for a target")
    p_minconf.add_argument("--scheme", default=None, choices=["vq", "sep1"])
    _add_common(p_minconf, ["sigma2", "rho", "p1", "p2", "noise", "d1", "d2", "tol"])
    p_minconf.set_defaults(fn=cmd_minconf)

    p_asym = sub.add_parser("asymptote", help="high-SNR quantities at a target")
    _add_common(p_asym, ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2"])
    p_asym.set_defaults(fn=cmd_asymptote)

    p_trace = sub.add_parser("trace", help="sweep a figure curve to CSV")
    p_trace.add_argument("--kind", default=None,
                         choices=[k.value for k in CurveKind])
    _add_common(p_trace, ["sigma2", "rho", "noise", "c12", "d2", "p", "tol",
                          "alphas", "snrs", "schemes", "out"])
    p_trace.set_defaults(fn=cmd_trace)

    p_val = sub.add_parser("validate", help="run the Monte-Carlo / oracle self-checks")
    _add_common(p_val, ["seed", "samples"])
    p_val.set_defaults(fn=cmd_validate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UnboundedError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:  # formulas undefined at degenerate inputs, e.g. rho = 1
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
