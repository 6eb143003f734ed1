"""Optimizers behind the figure-level questions.

Minimal symmetric power and minimal conference capacity are found by outer
bisection over a monotone feasibility predicate.  The quantizer scheme's
inner feasibility is a deterministic multistart compass search over its free
parameters (rates boxed to [0, 8] bits, splits to [0, 1]), run on three
nested families: the no-conference slice, the unlimited-conference slice
(when applicable), and the full parameter set.  The slice searches make the
scheme orderings robust: every configuration reachable at zero conference
capacity is polled verbatim when the capacity is larger.

All schedules are fixed, so identical inputs give identical results,
iteration counts included.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, separation, vqscheme
from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    DomainError,
    SourceSpec,
    is_unlimited,
)
from .rdlib import rd_joint
from ._mc import halton_points
from ._opt import compass_search_max, refine_grid_max

SLACK_TOL = -1e-9
RATE_BOX_BITS = 8.0
_STOP_AT = 1e-7  # early-exit slack for pure feasibility queries


class UnboundedError(RuntimeError):
    """No feasible point below the configured ceiling."""


class Scheme(enum.Enum):
    VQ = "vq"
    SEP1 = "sep1"
    SEP2 = "sep2"
    NECESSARY = "necessary"
    FULL_COOP = "fullcoop"


@dataclass(frozen=True)
class OptimizationResult:
    objective: float
    witness: dict
    iterations: int
    converged: bool
    bracket: tuple[float, float]


def _vq_slack_batch(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                    pts: np.ndarray, rate_cap: float, floor=None) -> np.ndarray:
    """Worst slack (bits) of the full scheme at box points (r1, r2, t, b1, b2)
    with rates scaled by ``rate_cap``; ``floor`` as in :func:`vqscheme._min_slack`.
    The shared rate is ``t * rate_cap`` at unlimited ``ch.c12``, else ``t``
    times the budget-saturating rate: the conference constraint then holds by
    construction (and is dropped from the objective, else it would pin the
    max-min at 0 on the saturated surface) and the search moves freely along it.
    """
    r1 = pts[:, 0] * rate_cap
    rc_max = rate_cap if is_unlimited(ch.c12) else _rc_budget(src.rho, r1, ch.c12)
    return vqscheme._min_slack(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0, target.d1, target.d2,
                               r1, pts[:, 1] * rate_cap, pts[:, 2] * rc_max,
                               pts[:, 3], pts[:, 4], floor)


def _vq_noconf_slack_batch(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                           pts: np.ndarray, rate_cap: float) -> np.ndarray:
    """Worst slack on the no-conference slice, points (r1, r2)."""
    return vqscheme._noconf_min_slack(src.rho, ch.p1, ch.p2, ch.n0, target.d1, target.d2,
                                      pts[:, 0] * rate_cap, pts[:, 1] * rate_cap)


def _rc_budget(rho: float, r1: np.ndarray, c12: float) -> np.ndarray:
    """Largest shared rate whose conference requirement fits the budget.

    With ``k = rho^2 2^-2r1`` the requirement ``rc - binning(r1, rc)`` equals
    ``(1/2)log2((1 - k) 4^rc + k)``, so the saturating rate is the closed form
    ``c12 + (1/2)log2((1 - k 4^-c12) / (1 - k))``.  At ``k = 1`` (rho = 1,
    r1 = 0) the requirement is 0 for every ``rc``; the rate is then capped at
    ``c12 + (1/2)log2(1e300)``.
    """
    k = rho**2 * 2.0 ** (-2.0 * np.asarray(r1, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = c12 + 0.5 * np.log2((1.0 - k * 4.0**-c12) / (1.0 - k))
    return np.where(k < 1.0, rc, c12 - 0.5 * math.log2(1e-300))


def _vq_unlimited_slack_batch(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                              pts: np.ndarray, rate_cap: float) -> np.ndarray:
    """Worst slack on the unlimited-conference slice, points (r2, rc, beta)."""
    return vqscheme._unlimited_min_slack(src.rho, ch.p1, ch.p2, ch.n0, target.d1, target.d2,
                                         pts[:, 0] * rate_cap, pts[:, 1] * rate_cap, pts[:, 2])


def _incumbent(f):
    """``f`` for :func:`refine_grid_max`, called with the best value refine
    has accepted so far as its ``floor``.

    Refine keeps a grid's first argmax only when it is strictly greater than
    that value, so rows at or below it cannot change its answer; the running
    best follows the same rule (a NaN argmax is never accepted, and a NaN
    centre is never beaten).  The first call, refine's centre, has no floor.
    """
    best = None

    def objective(pts):
        nonlocal best
        vals = f(pts, floor=best)
        i = int(np.argmax(vals))
        if best is None or vals[i] > best:
            best = vals[i]
        return vals
    return objective


class _VqFeasibility:
    """Scheme feasibility with warm-started searches across repeated queries."""

    def __init__(self, src: SourceSpec, target: DistortionPair):
        self.src = src
        self.target = target
        self.warm5: np.ndarray | None = None
        self.warm3: np.ndarray | None = None
        self.witness: vqscheme.VqConfig | None = None

    def _run(self, f, dim, warm, saturated_axis: int | None = None,
             refine_below: float = _STOP_AT, floored: bool = False):
        """Multistart compass search of ``f``, then a grid refine when the
        compass value lies in ``[-0.3, refine_below)``.  ``floored``: ``f``
        takes a ``floor`` and refine calls it through :func:`_incumbent`."""
        base = halton_points(16, dim)
        starts = [base]
        if saturated_axis is not None:
            boundary = base.copy()
            boundary[:, saturated_axis] = 1.0  # optima sit on the active budget surface
            starts.append(boundary)
        if dim == 5:
            # no-conference and unlimited-slice corners help the full search
            starts.append(np.array([[0.3, 0.3, 0.0, 0.0, 0.0],
                                    [0.0, 0.3, 0.3, 1.0, 0.5]]))
        if warm is not None:
            starts.append(warm[None, :])
        val, pt, _ = compass_search_max(f, np.vstack(starts), stop_at=_STOP_AT)
        if -0.3 <= val < refine_below:
            # grid refinement climbs the max-min ridges that axis polls miss;
            # skipped when the compass value is hopeless
            rval, rpt = refine_grid_max(_incumbent(f) if floored else f, pt, stop_at=_STOP_AT)
            if rval > val:
                val, pt = rval, rpt
        return val, pt

    def __call__(self, p1: float, p2: float, n0: float, c12) -> bool:
        src, target, cap = self.src, self.target, RATE_BOX_BITS
        ch = ChannelSpec(p1, p2, n0, c12)
        best_val = -math.inf
        best_cfg = None

        if not is_unlimited(c12) and c12 == 0.0:
            # only the no-conference slice is reachable.  Its rc bound,
            # exactly 0 there, caps it at 0, below _STOP_AT: a feasible
            # point runs the compass to the end at exactly 0, and refine,
            # which accepts only larger values, would gain nothing
            warm = self.warm5[:2] if self.warm5 is not None else None
            val, pt = self._run(
                lambda pts: _vq_noconf_slack_batch(src, ch, target, pts, cap),
                2, warm, refine_below=0.0)
            best_val = val
            best_cfg = vqscheme.VqConfig(pt[0] * cap, pt[1] * cap, 0.0, 0.0, 0.0)
            self.warm5 = np.array([pt[0], pt[1], 0.0, 0.0, 0.0])
        elif is_unlimited(c12):
            val, pt = self._run(
                lambda pts: _vq_unlimited_slack_batch(src, ch, target, pts, cap),
                3, self.warm3)
            best_val = val
            best_cfg = vqscheme.VqConfig(0.0, pt[0] * cap, pt[1] * cap, 1.0, pt[2])
            self.warm3 = pt
            if best_val < _STOP_AT:
                val, pt = self._run(
                    lambda pts, floor=None: _vq_slack_batch(src, ch, target, pts, cap, floor),
                    5, self.warm5, floored=True)
                if val > best_val:
                    best_val = val
                    best_cfg = vqscheme.VqConfig(pt[0] * cap, pt[1] * cap, pt[2] * cap,
                                                 pt[3], pt[4])
                self.warm5 = pt
        else:
            # generous budgets first: the unlimited-slice optimum may already
            # fit within c12, a basin the budget-saturating search undercovers
            val3, pt3 = self._run(
                lambda pts: _vq_unlimited_slack_batch(src, ch, target, pts, cap),
                3, self.warm3)
            self.warm3 = pt3
            req3, _ = vqscheme._conf_requirement_arrays(src.rho, 0.0, pt3[1] * cap)
            best_val = min(val3, c12 - float(req3))
            best_cfg = vqscheme.VqConfig(0.0, pt3[0] * cap, pt3[1] * cap, 1.0, pt3[2])

            if best_val < _STOP_AT:
                # budget-saturating parameterization: third coordinate is the
                # fraction of the largest shared rate the budget admits
                def f5(pts, floor=None):
                    return _vq_slack_batch(src, ch, target, pts, cap, floor)
                warm4 = (np.delete(self.warm5, 2) if self.warm5 is not None else None)
                val, pt = self._run(f5, 5, self.warm5, saturated_axis=2, floored=True)
                self.warm5 = pt
                best_pt = None
                if val > best_val:
                    best_val = val
                    best_pt = pt
                if best_val < _STOP_AT:
                    # optima with an active budget sit on the t = 1 slice
                    def f4(pts, floor=None):
                        return f5(np.insert(pts, 2, 1.0, axis=1), floor)
                    val, pt4 = self._run(f4, 4, warm4, floored=True)
                    if val > best_val:
                        best_val = val
                        best_pt = np.insert(pt4, 2, 1.0)
                if best_pt is not None:
                    rc = float(best_pt[2] * _rc_budget(src.rho, np.asarray(best_pt[0] * cap), c12))
                    best_cfg = vqscheme.VqConfig(best_pt[0] * cap, best_pt[1] * cap, rc,
                                                 best_pt[3], best_pt[4])

        if best_val >= SLACK_TOL:
            self.witness = best_cfg
            return True
        return False


def _vq_witness_ok(src: SourceSpec, ch: ChannelSpec, cfg: vqscheme.VqConfig,
                   target: DistortionPair) -> bool:
    """Closed-form re-validation of a search witness (slack tolerance -1e-9 bits)."""
    report = vqscheme.vq_rate_region(src, ch, cfg, margin=SLACK_TOL)
    ach = vqscheme.vq_distortion(src, cfg)
    bits = min(0.5 * (math.log2(target.d1) - math.log2(ach.d1)),
               0.5 * (math.log2(target.d2) - math.log2(ach.d2)))
    return report.feasible and bits >= SLACK_TOL


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise DomainError("tol", f"must be finite and >= 0, got {tol}")


def _bisect(predicate, lo: float, hi: float, tol_rel: float, tol_abs: float,
            iterations: int = 0) -> tuple[float, float, int, bool]:
    """Narrow ``(lo, hi)``, ``hi`` feasible, around a monotone predicate's threshold.

    Stops once ``hi - lo <= tol_rel * hi + tol_abs`` or at 200 iterations
    (counting the ``iterations`` already spent).  Returns ``(lo, hi,
    iterations, converged)``; ``converged`` is False when the cap stopped it.
    """
    while hi - lo > tol_rel * hi + tol_abs and iterations < 200:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return lo, hi, iterations, not hi - lo > tol_rel * hi + tol_abs


def _expand_and_bisect(predicate, start: float, ceiling: float, tol_rel: float,
                       tol_abs: float = 0.0) -> tuple[float, float, int, bool]:
    """Find the feasibility threshold of a monotone predicate by doubling + :func:`_bisect`."""
    iterations = 0
    lo, hi = 0.0, start
    while not predicate(hi):
        lo = hi
        hi *= 2.0
        iterations += 1
        if hi > ceiling:
            raise UnboundedError(f"infeasible below ceiling {ceiling:g}")
    return _bisect(predicate, lo, hi, tol_rel, tol_abs, iterations)


def min_power_symmetric(src: SourceSpec, scheme: Scheme, target: DistortionPair,
                        c12=UNLIMITED, n0: float = 1.0, tol: float = 1e-6,
                        p_ceiling: float | None = None) -> OptimizationResult:
    """Least symmetric power ``p1 = p2 = p`` at which the scheme meets the target.

    Outer bisection over the scheme's feasibility predicate, which is monotone
    in power (raising the power only enlarges every bound).  ``tol`` (finite,
    >= 0) is the relative bracket width; ``p_ceiling`` bounds the search and
    triggers :class:`UnboundedError` when exceeded.  Its default is ``1e6``
    times the larger of ``n0`` and the full-cooperation power, below which no
    scheme meets the target.
    """
    _check_tol(tol)
    if target.d1 >= 1.0 and target.d2 >= 1.0:
        return OptimizationResult(0.0, {}, 0, True, (0.0, 0.0))

    need = rd_joint(src, target)
    p_full = (4.0**need - 1.0) * n0 / 4.0
    if scheme is Scheme.FULL_COOP:
        return OptimizationResult(p_full, {"joint_rate": need}, 0, True, (p_full, p_full))
    if p_full == math.inf:
        raise UnboundedError("infeasible at every finite power, full cooperation included")
    if p_ceiling is None:
        p_ceiling = 1e6 * max(n0, p_full)

    if scheme is Scheme.VQ:
        inner = _VqFeasibility(src, target)

        def predicate(p: float) -> bool:
            return inner(p, p, n0, c12)
    else:
        # read from the modules at each solve: a wrapper installed there sees every call
        report_fn = {Scheme.NECESSARY: bounds.necessary_condition,
                     Scheme.SEP1: separation.sep1_feasible,
                     Scheme.SEP2: separation.sep2_feasible}.get(scheme)
        if report_fn is None:
            raise DomainError("scheme", f"unsupported scheme {scheme}")

        def predicate(p: float) -> bool:
            return report_fn(src, ChannelSpec(p, p, n0, c12), target).feasible

    lo, hi, iterations, converged = _expand_and_bisect(predicate, n0, p_ceiling, tol)

    ch = ChannelSpec(hi, hi, n0, c12)
    if scheme is Scheme.VQ:
        # the witness from the last feasible query certifies hi exactly
        cfg = inner.witness
        if cfg is None or not _vq_witness_ok(src, ch, cfg, target):
            raise AssertionError("bisection invariant violated: witness fails at hi")
        ach = vqscheme.vq_distortion(src, cfg)
        witness_out = {
            "r1": cfg.r1, "r2": cfg.r2, "rc": cfg.rc,
            "beta1": cfg.beta1, "beta2": cfg.beta2,
            "d1": ach.d1, "d2": ach.d2,
        }
    else:
        report = report_fn(src, ch, target)  # stateless: evaluated once at hi
        if not report.feasible:
            raise AssertionError("bisection invariant violated: hi not feasible")
        witness_out = dict(report.witness)
    return OptimizationResult(hi, witness_out, iterations, converged, (lo, hi))


def min_conf_capacity(src: SourceSpec, ch_powers: ChannelSpec, scheme: Scheme,
                      target: DistortionPair, tol: float = 1e-6) -> OptimizationResult:
    """Least conference capacity at which the scheme meets the target.

    Powers and noise come from ``ch_powers`` (its own ``c12`` is ignored).
    ``tol`` (finite, >= 0) is the absolute bracket width in bits.  Raises
    :class:`UnboundedError` when even unlimited capacity fails.
    """
    _check_tol(tol)
    p1, p2, n0 = ch_powers.p1, ch_powers.p2, ch_powers.n0

    if scheme is Scheme.VQ:
        inner = _VqFeasibility(src, target)

        def predicate_at(c) -> bool:
            return inner(p1, p2, n0, c)
    elif scheme is Scheme.SEP1:
        def predicate_at(c) -> bool:
            return separation.sep1_feasible(
                src, ChannelSpec(p1, p2, n0, c), target).feasible
    else:
        raise DomainError("scheme", f"conference search supports VQ and SEP1, got {scheme}")

    if not predicate_at(UNLIMITED):
        raise UnboundedError("target infeasible even with unlimited conference capacity")
    if predicate_at(0.0):
        return OptimizationResult(0.0, {}, 0, True, (0.0, 0.0))

    lo, hi, iterations, converged = _expand_and_bisect(
        predicate_at, 1.0, 300.0, 0.0, tol_abs=tol)

    ch = ChannelSpec(p1, p2, n0, hi)
    if scheme is Scheme.VQ:
        cfg = inner.witness
        if cfg is None or not _vq_witness_ok(src, ch, cfg, target):
            raise AssertionError("bisection invariant violated: witness fails at hi")
        req, _ = vqscheme.vq_conf_requirement(src, cfg)
        witness = {"r1": cfg.r1, "r2": cfg.r2, "rc": cfg.rc,
                   "beta1": cfg.beta1, "beta2": cfg.beta2, "required_c12": req}
    else:
        report = separation.sep1_feasible(src, ch, target)  # stateless: evaluated once at hi
        if not report.feasible:
            raise AssertionError("bisection invariant violated: hi not feasible")
        witness = dict(report.witness)
    return OptimizationResult(hi, witness, iterations, converged, (lo, hi))


def min_d1_unlimited(src: SourceSpec, ch_powers: ChannelSpec,
                     d2_target: float) -> OptimizationResult:
    """Smallest ``d1`` the unlimited-conference scheme reaches at ``d2 <= d2_target``.

    Bisection on ``log2 d1`` to a bracket 1e-7 wide, with the unlimited-slice
    feasibility search; the rate box grows with the coherent sum capacity so
    high-SNR operating points stay reachable.
    """
    p1, p2, n0 = ch_powers.p1, ch_powers.p2, ch_powers.n0
    rate_cap = 0.5 * math.log2(1.0 + (p1 + p2 + 2.0 * math.sqrt(p1 * p2)) / n0) + 1.0
    warm: dict = {"pt": None}

    def feasible(d1: float) -> bool:
        target = DistortionPair(d1, d2_target)
        ch = ChannelSpec(p1, p2, n0, UNLIMITED)
        starts = [halton_points(16, 3)]
        if warm["pt"] is not None:
            starts.append(warm["pt"][None, :])
        val, pt, _ = compass_search_max(
            lambda pts: _vq_unlimited_slack_batch(src, ch, target, pts, rate_cap),
            np.vstack(starts), stop_at=_STOP_AT)
        if val >= SLACK_TOL:
            warm["pt"] = pt
            return True
        return False

    if not feasible(1.0):
        raise UnboundedError("even d1 = 1 infeasible at these powers")
    lo_log, hi_log, iterations, converged = _bisect(
        lambda x: feasible(2.0**x), -2.0 * (rate_cap + 2.0), 0.0, 0.0, 1e-7)
    d1 = 2.0**hi_log
    pt = warm["pt"]
    witness = {}
    if pt is not None:
        witness = {"r2": pt[0] * rate_cap, "rc": pt[1] * rate_cap, "beta": pt[2]}
    return OptimizationResult(d1, witness, iterations, converged, (2.0**lo_log, d1))


class CurveKind(enum.Enum):
    PMIN_VS_ALPHA = "pmin-vs-alpha"
    C12_VS_ALPHA = "c12-vs-alpha"
    D1D2_VS_SNR = "d1d2-vs-snr"


# trace scheme tokens -> (Scheme, c12 override); None means use the --c12 value
TRACE_SCHEMES = {
    "vq": (Scheme.VQ, None),
    "vq-unlimited": (Scheme.VQ, UNLIMITED),
    "vq-none": (Scheme.VQ, 0.0),
    "sep1": (Scheme.SEP1, None),
    "sep2": (Scheme.SEP2, None),
    "necessary": (Scheme.NECESSARY, None),
    "fullcoop": (Scheme.FULL_COOP, None),
}


# scheme tokens each curve kind can trace
KIND_SCHEMES = {
    CurveKind.PMIN_VS_ALPHA: tuple(TRACE_SCHEMES),
    CurveKind.C12_VS_ALPHA: ("vq", "sep1"),
    CurveKind.D1D2_VS_SNR: ("vq-unlimited",),
}


def check_trace_inputs(kind: CurveKind, params: dict, grid) -> list[float]:
    """The grid as floats, once it and the scheme tokens are known to be valid.

    Raises :class:`DomainError` for an empty or non-increasing grid or a token
    in ``params["schemes"]`` that ``kind`` cannot trace.
    """
    grid = [float(g) for g in grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid", "must be nonempty and strictly increasing")
    valid = KIND_SCHEMES[kind]
    bad = [tok for tok in params.get("schemes", ()) if tok not in valid]
    if bad:
        raise DomainError("schemes", f"{kind.value} cannot trace {', '.join(bad)}; "
                                     f"valid tokens are {', '.join(valid)}")
    return grid


def trace_curve(kind: CurveKind, params: dict, grid) -> list[dict]:
    """One row per grid point; per-row failures are recorded, not raised.

    ``params`` carries the fixed problem data: ``rho``, ``n0``, ``d2``,
    ``tol``, ``schemes`` (list of trace tokens) and ``c12`` for PMIN_VS_ALPHA;
    additionally ``p`` for C12_VS_ALPHA; ``rho``, ``d2`` for D1D2_VS_SNR.
    The alpha kinds check every target and ``tol`` before the first solve.
    """
    grid = check_trace_inputs(kind, params, grid)
    src = SourceSpec(params.get("sigma2", 1.0), params["rho"])
    n0 = params.get("n0", 1.0)
    d2 = params["d2"]
    rows = []

    if kind is CurveKind.D1D2_VS_SNR:
        for snr in grid:
            row = {"p_over_n": snr}
            errors = []
            try:
                res = min_d1_unlimited(src, ChannelSpec(snr * n0, snr * n0, n0), d2)
                product = res.objective * d2
                predicted = bounds.semi_symmetric_product(src.rho, snr * n0, n0, d2)
                row.update({"d1d2_vq": product, "d1d2_predicted": predicted,
                            "ratio": product / predicted})
            except UnboundedError as exc:
                row.update({"d1d2_vq": math.nan, "d1d2_predicted": math.nan,
                            "ratio": math.nan})
                errors.append(f"vq-unlimited:UnboundedError:{exc}")
            row["errors"] = ";".join(errors)
            rows.append(row)
        return rows

    tol = params.get("tol", 1e-9)
    _check_tol(tol)
    if kind is CurveKind.PMIN_VS_ALPHA:
        column, fixed = "pmin", {}
        tokens = params.get("schemes", ["fullcoop", "necessary", "vq-unlimited", "vq-none"])

        def solve(token, target):
            scheme, c12 = TRACE_SCHEMES[token]
            if c12 is None:
                c12 = params.get("c12", UNLIMITED)
            return min_power_symmetric(src, scheme, target, c12=c12, n0=n0, tol=tol)
    else:
        column, fixed = "c12", {"p": params["p"]}
        tokens = params.get("schemes", ["vq", "sep1"])
        ch = ChannelSpec(params["p"], params["p"], n0, UNLIMITED)

        def solve(token, target):
            # capacity rows resolve to curve precision, not bisection depth
            return min_conf_capacity(src, ch, TRACE_SCHEMES[token][0], target,
                                     tol=max(tol, 1e-6))

    targets = [DistortionPair(alpha * d2, d2) for alpha in grid]
    for alpha, target in zip(grid, targets):
        row = {"alpha": alpha, "d1": alpha * d2, "d2": d2, **fixed}
        errors = []
        for token in tokens:
            try:
                row[f"{column}_{token}"] = solve(token, target).objective
            except UnboundedError as exc:
                row[f"{column}_{token}"] = math.nan
                errors.append(f"{token}:UnboundedError:{exc}")
        row["errors"] = ";".join(errors)
        rows.append(row)
    return rows
