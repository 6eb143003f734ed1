"""Command-line front end.

Subcommands: ``region`` (evaluate one region or feasibility operation),
``minpower``, ``minconf``, ``asymptote``, ``trace`` (curve sweeps to CSV) and
``validate`` (the Monte-Carlo + oracle self-check suite of
:mod:`confmac.validation`).

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

from . import __version__, bounds, capacity, rdlib, search, separation, validation, vqscheme
from .model import UNLIMITED, ChannelSpec, DistortionPair, DomainError, RatePoint, SourceSpec
from .search import CurveKind, Scheme, UnboundedError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3

MAX_GRID_POINTS = 100_000  # longest ``lo:hi:step`` grid; each point is a full solve


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def parse_c12(raw) -> float:
    """A capacity or variance flag as a float; 'inf', 'unlimited' or null
    (an unset config value) mean unlimited (absent)."""
    if raw is None or (isinstance(raw, str) and raw.strip().lower() == "unlimited"):
        return UNLIMITED
    return float(raw)


def parse_grid(spec: str, flag: str) -> list[float]:
    """``lo:hi:step`` (inclusive of lo; hi kept within a step/2 rounding guard)
    or a comma-separated list, given to the CLI flag ``flag``.  A malformed
    spec or a range of more than ``MAX_GRID_POINTS`` points is a
    :class:`DomainError` naming ``flag``."""
    spec = spec.strip()
    if ":" in spec:
        try:
            lo, hi, step = (float(tok) for tok in spec.split(":"))
        except ValueError:
            raise DomainError(flag, f"bad grid spec {spec!r}; want lo:hi:step") from None
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
            raise DomainError(flag, f"bad grid spec {spec!r}")
        if (hi - lo) / step + 0.5 >= MAX_GRID_POINTS:  # the loop makes floor(that) + 1
            raise DomainError(flag, f"{spec!r} has more than {MAX_GRID_POINTS} points")
        values = []
        k = 0
        while True:
            v = lo + k * step
            if v > hi + step / 2.0 or (values and v > hi and hi - values[-1] < step / 2.0):
                break
            values.append(min(v, hi) if v > hi else v)
            k += 1
        return values
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(flag, f"bad grid spec {spec!r}; want numbers") from None


def _strict(obj):
    """``obj`` with every non-finite float spelled as a string ("inf",
    "-inf", "nan"), which JSON has no number for."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def emit_json(payload: dict) -> None:
    print(json.dumps(_strict(payload), sort_keys=True, allow_nan=False))


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


def _add_common(parser: argparse.ArgumentParser, fn, names) -> None:
    """Make ``parser`` run ``fn``, with a ``--name`` flag per entry of ``names``."""
    for name in names:
        parser.add_argument(f"--{name}", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(fn=fn)


def resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (flags win) for the
    flags the subcommand's parser declares; ``c12`` comes back parsed."""
    merged = {name: value for name, value in _FLAGS.items() if hasattr(args, name)}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError("config", "must hold a JSON object")
        if isinstance(loaded.get("config"), dict):
            loaded = loaded["config"]
        for key, value in loaded.items():
            if key in merged:
                if isinstance(value, (list, dict)):
                    raise DomainError(key, "config value must be a number, string or null")
                merged[key] = value
    for name in merged:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if "c12" in merged:
        merged["c12"] = parse_c12(merged["c12"])
    return merged


def _floats(cfg: dict, *names) -> list[float]:
    out = []
    for name in names:
        value = cfg.get(name)
        if value is None:
            raise DomainError(name, "required flag missing")
        try:
            out.append(float(value))
        except ValueError:
            raise DomainError(name, f"must be a number, got {value!r}") from None
    return out


def _float_or(cfg: dict, name: str, default: float) -> float:
    """Flag ``name`` as a float, or ``default`` when it is absent."""
    return default if cfg.get(name) is None else _floats(cfg, name)[0]


def _integers(cfg: dict, **least) -> list[int]:
    """Whole-number flags, ``1e6`` included, each at least its ``least``
    value; digits are read exactly."""
    out = []
    for (name, low), value in zip(least.items(), _floats(cfg, *least)):
        if not value.is_integer():
            raise DomainError(name, f"must be an integer, got {cfg[name]}")
        raw = str(cfg[name]).strip()
        out.append(int(raw) if raw.isdigit() else int(value))  # digits stay exact past 2^53
        if out[-1] < low:
            raise DomainError(name, f"must be >= {low}, got {out[-1]}")
    return out


def _numbers_echo(cfg: dict, names, tol: float | None = None) -> dict:
    """The config echo: each set flag of ``names`` as the float the command
    read, from the command line or ``--config`` alike, and the ``tol`` it used
    (when it takes one).  A value that is not a finite number (only an unused
    flag can hold one) stays as given."""
    echo = dict(cfg)
    for name in names:
        try:
            value = float(cfg.get(name))
        except (TypeError, ValueError):
            continue
        if math.isfinite(value):
            echo[name] = value
    if tol is not None:
        echo["tol"] = tol
    return echo


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_region(args) -> int:
    cfg = resolve(args)
    which = cfg["which"]
    echo = _numbers_echo(cfg, ("sigma2", "rho", "p1", "p2", "noise", "d1", "d2", "r1", "r2",
                               "rc", "beta", "beta1", "beta2", "sw2", "su2", "sv2"))

    def src() -> SourceSpec:
        sigma2, rho = _floats(cfg, "sigma2", "rho")
        return SourceSpec(sigma2, rho)

    if which == "vq":
        p1, p2, n0 = _floats(cfg, "p1", "p2", "noise")
        ch = ChannelSpec(p1, p2, n0, cfg["c12"])
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
        # one region; the plain MAC and the unlimited link are its two ends
        p1, p2, n0, r1, r2 = _floats(cfg, "p1", "p2", "noise", "r1", "r2")
        if which == "mac":
            c12, split = 0.0, (0.0, 0.0)
        elif which == "mac-conf":
            c12, split = UNLIMITED, (1.0, *_floats(cfg, "beta"))
        else:
            c12, split = cfg["c12"], _floats(cfg, "beta1", "beta2")
        echo["c12"] = c12  # the capacity the region is evaluated at, whatever --c12 says
        report = capacity.mac_conf_contains(ChannelSpec(p1, p2, n0, c12), RatePoint(r1, r2),
                                            capacity.MacPowerSplit(*split))
        return emit_report(report, echo, args.json)
    if which in ("necessary", "sep1", "sep2"):
        p1, p2, n0, d1, d2 = _floats(cfg, "p1", "p2", "noise", "d1", "d2")
        ch = ChannelSpec(p1, p2, n0, cfg["c12"])
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
    cfg = resolve(args)
    sigma2, rho, n0, d2 = _floats(cfg, "sigma2", "rho", "noise", "d2")
    src = SourceSpec(sigma2, rho)
    if cfg["d1"] is not None:
        d1 = _floats(cfg, "d1")[0]
    elif cfg["alpha"] is not None:
        d1 = _floats(cfg, "alpha")[0] * d2
    else:
        raise DomainError("d1", "need --d1 or --alpha with --d2")
    target = DistortionPair(d1, d2)
    scheme = Scheme(cfg["scheme"])
    tol = _float_or(cfg, "tol", 1e-6)
    res = search.min_power_symmetric(src, scheme, target, c12=cfg["c12"], n0=n0, tol=tol)
    echo = _numbers_echo(cfg, ("sigma2", "rho", "noise", "d1", "d2", "alpha"), tol)
    return _emit_optimization(res, echo, args.json)


def cmd_minconf(args) -> int:
    cfg = resolve(args)
    sigma2, rho, p1, p2, n0, d1, d2 = _floats(
        cfg, "sigma2", "rho", "p1", "p2", "noise", "d1", "d2")
    src = SourceSpec(sigma2, rho)
    scheme = Scheme(cfg["scheme"])
    tol = _float_or(cfg, "tol", 1e-6)
    res = search.min_conf_capacity(src, ChannelSpec(p1, p2, n0), scheme,
                                   DistortionPair(d1, d2), tol=tol)
    echo = _numbers_echo(cfg, ("sigma2", "rho", "p1", "p2", "noise", "d1", "d2"), tol)
    return _emit_optimization(res, echo, args.json)


def cmd_asymptote(args) -> int:
    cfg = resolve(args)
    sigma2, rho, p1, p2, n0, d1, d2 = _floats(
        cfg, "sigma2", "rho", "p1", "p2", "noise", "d1", "d2")
    src = SourceSpec(sigma2, rho)
    ch = ChannelSpec(p1, p2, n0, cfg["c12"])
    q = bounds.high_snr_quantities(src, ch, DistortionPair(d1, d2))
    payload = {name: getattr(q, name) for name in (
        "varrho_inf", "varrho_sep1", "varrho_sep1_fixed", "varrho_vq_lower",
        "check_rho", "d1d2_limit", "d1d2_limit_sep1_fixed", "d1d2_limit_vq_fixed")}
    payload["config"] = _numbers_echo(cfg, ("sigma2", "rho", "p1", "p2", "noise", "d1", "d2"))
    if args.json:
        emit_json(payload)
    else:
        for key in sorted(payload):
            if key != "config":
                print(f"  {key} = {_fmt(payload[key])}")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = resolve(args)
    kind = CurveKind(cfg["kind"])
    params = dict(zip(("sigma2", "rho", "n0", "d2"),
                      _floats(cfg, "sigma2", "rho", "noise", "d2")))
    params["c12"] = cfg["c12"]
    params["tol"] = _float_or(cfg, "tol", 1e-9)
    if kind is CurveKind.C12_VS_ALPHA:
        params["p"] = _floats(cfg, "p")[0]
    if cfg["schemes"]:
        params["schemes"] = [tok.strip() for tok in str(cfg["schemes"]).split(",") if tok.strip()]
    grid_flag = "snrs" if kind is CurveKind.D1D2_VS_SNR else "alphas"
    if cfg[grid_flag] is None:
        raise DomainError(grid_flag, "required flag missing")
    rows = search.trace_curve(kind, params, parse_grid(str(cfg[grid_flag]), grid_flag))
    tol = None if kind is CurveKind.D1D2_VS_SNR else params["tol"]  # d1d2-vs-snr reads none
    meta = {k: v for k, v in _numbers_echo(cfg, ("sigma2", "rho", "noise", "d2", "p"), tol).items()
            if v is not None}
    if args.json:
        emit_json({"rows": rows, "config": meta})
    else:
        write_csv(str(cfg["out"]), rows, meta)
    bad = [row for row in rows if row.get("errors")]
    return EXIT_INFEASIBLE if bad else EXIT_OK


def cmd_validate(args) -> int:
    cfg = resolve(args)
    seed, samples = _integers(cfg, seed=0, samples=1000)
    checks = list(validation.run(seed, samples))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(not ok for _, ok, _ in checks)
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
    _add_common(p_region, cmd_region, ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2",
                                       "r1", "r2", "rc", "beta", "beta1", "beta2",
                                       "sw2", "su2", "sv2"])

    p_minpower = sub.add_parser("minpower", help="minimal symmetric power for a target")
    p_minpower.add_argument("--scheme", default=None,
                            choices=[s.value for s in Scheme])
    _add_common(p_minpower, cmd_minpower,
                ["sigma2", "rho", "noise", "c12", "d1", "d2", "alpha", "tol"])

    p_minconf = sub.add_parser("minconf", help="minimal conference capacity for a target")
    p_minconf.add_argument("--scheme", default=None, choices=["vq", "sep1"])
    _add_common(p_minconf, cmd_minconf,
                ["sigma2", "rho", "p1", "p2", "noise", "d1", "d2", "tol"])

    p_asym = sub.add_parser("asymptote", help="high-SNR quantities at a target")
    _add_common(p_asym, cmd_asymptote, ["sigma2", "rho", "p1", "p2", "noise", "c12", "d1", "d2"])

    p_trace = sub.add_parser("trace", help="sweep a figure curve to CSV")
    p_trace.add_argument("--kind", default=None,
                         choices=[k.value for k in CurveKind])
    _add_common(p_trace, cmd_trace, ["sigma2", "rho", "noise", "c12", "d2", "p", "tol",
                                     "alphas", "snrs", "schemes", "out"])

    p_val = sub.add_parser("validate", help="run the Monte-Carlo / oracle self-checks")
    _add_common(p_val, cmd_validate, ["seed", "samples"])

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
