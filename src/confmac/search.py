"""Optimizers behind the figure-level questions.

Minimal symmetric power and minimal conference capacity are found by outer
bisection over a monotone feasibility predicate.  On the quantizer scheme's
slices ``c12 = 0`` and ``c12 = inf`` that predicate is certified: a
branch-and-bound (:func:`_opt._certify`) returns a witness or proves that no
point of the rate box (rates in [0, 8] bits, splits in [0, 1]) meets the
target, unless it gives up (see :func:`_opt._certify`).  A finite ``c12``
asks the unlimited slice first, on a box whose shared rate also covers ``r1
+ rc`` of the finite scheme: its proven "infeasible" refutes the query, and
its witness answers when the shared rate fits the budget.  Otherwise the
no-conference slice answers, and only when it finds no witness does a
multistart compass search decide, whose "infeasible" is not proven.
Separation scheme 2's predicate is certified by the same branch-and-bound
(see :mod:`separation`).

Within one solve, a certified query starts from the boxes of the round in
which the lowest feasible query so far on the same box found its witness
(same ``n0``, each power at or below it; or, for :func:`min_d1_unlimited`,
``d1`` at or below it).  The slack and the box bounds rise with power and
``d1``, so every box that query dropped holds no witness of the lower one:
the warm start skips the rounds from the whole box and, while no round is
cut to the box cap, returns the same witness or proof (see
:func:`_opt._certify`).  The boxes are kept per solve, never across solves:
a solve owns the ``frontiers`` dict it passes to scheme 2's predicate.

A bisection's last feasible query is at the ``hi`` it returns, so each
solve takes its witness from that query; a quantizer witness is
re-validated there by the closed forms.  All schedules are fixed, so
identical inputs give identical results, iteration counts included.
"""

from __future__ import annotations

import enum
import functools
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
from ._opt import SLACK_TOL, _certify_below, compass_search_max, refine_grid_max

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


def _noconf_slice(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``(exact, bound)`` for :func:`_opt._certify` on the no-conference slice,
    points ``(r1, r2)`` in bits: the full scheme at ``rc = beta1 = beta2 = 0``.

    There ``brho = eta = 0``, the ``rc`` bound is 0, and every other bound
    is ``0.5 log2`` of a term rising with ``trho^2``: ``p1/n0 + 1/(1 -
    trho^2)`` (``r1``, ``r1+rc``), its ``p2`` twin, or ``(p1 + 2 trho
    sqrt(p1 p2) + p2 + n0)/(n0 (1 - trho^2))`` (``r1+r2``, ``r1+r2+rc``).
    ``trho = rho sqrt(f1 f2)`` rises and both distortions fall with ``r1``
    and ``r2``, and no rate sum falls by more than the box widths from
    ``up`` to ``lo``: the slack is at most ``exact(up)`` plus their sum.
    """
    def exact(pts):
        return vqscheme._min_slack(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0, target.d1,
                                   target.d2, pts[:, 0], pts[:, 1], 0.0, 0.0, 0.0)

    def bound(lo, up):
        return exact(up) + (up - lo).sum(axis=1)
    return exact, bound


def _unlimited_slice(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``(exact, bound)`` for :func:`_opt._certify` on the unlimited-conference
    slice, points ``(r2, rc, beta)`` with rates in bits.

    ``h = rho^2 f2 fc`` rises with ``r2`` and ``rc``, and so does each
    distortion slack; rates are taken at ``lo``.  The bounds of
    :func:`vqscheme._unlimited_raw` are ``0.5 log2`` of: for ``r2``,
    ``(1 - beta) p2/n0 + 1/(1 - h)``, at most at (rates ``up``, ``beta``
    ``lo``); for ``r2+rc``, ``(p1 + p2 + 2 sqrt((h + beta (1 - h)) p1 p2)
    + n0)/(n0 (1 - h))``, at most at ``up``; for ``rc``, ``delta1^2/n0 +
    1/(1 - h)``, ``delta1 = sqrt(p1) + sqrt(p2) (sqrt(g + beta) - sqrt(g))``,
    ``g = (1 - beta) h``.  ``delta1`` falls with ``g``, hence with ``h``, and
    rises with ``beta``, so the ``rc`` term is at most ``delta1(h_lo,
    beta_up)^2/n0 + 1/(1 - h_up)``: at most ``(1 - h_lo)/(1 - h_up)`` times
    its value at (rates ``lo``, ``beta`` ``up``).
    """
    def exact(pts):
        return vqscheme._unlimited_min_slack(src.rho, ch.p1, ch.p2, ch.n0, target.d1, target.d2,
                                             pts[:, 0], pts[:, 1], pts[:, 2])

    def bound(lo, up):
        m = len(lo)
        # one call at the three corners: (rates up, beta lo), (up, up), (rates lo, beta up)
        rates = np.concatenate([up[:, :2], up[:, :2], lo[:, :2]])
        beta = np.concatenate([lo[:, 2], up[:, 2], up[:, 2]])
        bnd, d1a, d2a = vqscheme._unlimited_raw(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
                                                rates[:, 0], rates[:, 1], beta)
        one_minus_h = 1.0 - src.rho**2 * np.prod(-np.expm1(-2.0 * math.log(2.0) * rates), axis=1)
        r2, rc = lo[:, 0], lo[:, 1]
        rc_bound = bnd["rc"][2 * m:] + 0.5 * np.log2(one_minus_h[2 * m:] / one_minus_h[:m])
        slack = np.minimum(np.minimum(bnd["r2"][:m] - r2, rc_bound - rc),
                           bnd["r2+rc"][m:2 * m] - (r2 + rc))
        with np.errstate(divide="ignore"):  # a distortion reaches 0 at rho = 1, or underflows
            return vqscheme._fold_distortions(slack, d1a[:m], d2a[:m], target.d1, target.d2)
    return exact, bound


class _VqFeasibility:
    """Scheme feasibility.  At a finite ``c12`` the certified unlimited slice
    answers first, then the certified no-conference slice, then a compass
    search warm-started across repeated queries (:meth:`_finite`)."""

    def __init__(self, src: SourceSpec, target: DistortionPair):
        self.src = src
        self.target = target
        self.warm5: np.ndarray | None = None
        self.witness: vqscheme.VqConfig | None = None
        self.certified: dict = {}
        self.frontiers: dict = {}

    def _run(self, f, dim, warm):
        """Multistart compass search of ``f``, then a grid refine when the
        compass value lies in ``[-0.3, _STOP_AT)``."""
        base = halton_points(16, dim)
        starts = [base]
        if dim == 5:
            boundary = base.copy()
            boundary[:, 2] = 1.0  # optima sit on the active budget surface
            starts.append(boundary)
            # no-conference and unlimited-slice corners help the full search
            starts.append(np.array([[0.3, 0.3, 0.0, 0.0, 0.0],
                                    [0.0, 0.3, 0.3, 1.0, 0.5]]))
        if warm is not None:
            starts.append(warm[None, :])
        val, pt, _ = compass_search_max(f, np.vstack(starts), stop_at=_STOP_AT)
        if -0.3 <= val < _STOP_AT:
            # grid refinement climbs the max-min ridges that axis polls miss;
            # skipped when the compass value is hopeless
            rval, rpt = refine_grid_max(f, pt, stop_at=_STOP_AT)
            if rval > val:
                val, pt = rval, rpt
        return val, pt

    def _certified(self, slice_fn, ch: ChannelSpec, hi, lo):
        """:func:`_opt._certify` on ``slice_fn``'s slice at ``ch``'s powers over
        the box ``[lo, hi]``.  No slice reads ``c12``, so a conference search
        certifies each box once.  Both slices' slack and bound rise with each
        power, so a query at or below the powers (same ``n0``) of the lowest
        feasible one on its box starts from that one's frontier."""
        key = (slice_fn, ch.p1, ch.p2, ch.n0, tuple(lo), tuple(hi))
        if key not in self.certified:
            self.certified[key] = _certify_below(
                self.frontiers, (slice_fn, ch.n0, tuple(lo), tuple(hi)), (ch.p1, ch.p2),
                slice_fn(self.src, ch, self.target), hi, lo)
        return self.certified[key]

    def _noconf(self, ch: ChannelSpec) -> vqscheme.VqConfig | None:
        """The certified no-conference slice's witness, or None."""
        pt, _ = self._certified(_noconf_slice, ch, [RATE_BOX_BITS] * 2, (0.0, 0.0))
        return None if pt is None else vqscheme.VqConfig(pt[0], pt[1], 0.0, 0.0, 0.0)

    def _compass(self, ch: ChannelSpec) -> vqscheme.VqConfig | None:
        """The compass search's witness at the finite ``ch.c12``, or None.

        Its points are (r1, r2, t, b1, b2), rates scaled by ``RATE_BOX_BITS``.
        The shared rate is ``t`` times the budget-saturating rate: the
        conference constraint then holds by construction (and is dropped
        from the objective, else it would pin the max-min at 0 on the
        saturated surface) and the search moves freely along it.
        """
        src, target, cap = self.src, self.target, RATE_BOX_BITS

        def f5(pts):
            r1 = pts[:, 0] * cap
            return vqscheme._min_slack(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0, target.d1,
                                       target.d2, r1, pts[:, 1] * cap,
                                       pts[:, 2] * _rc_budget(src.rho, r1, ch.c12),
                                       pts[:, 3], pts[:, 4])
        warm4 = (np.delete(self.warm5, 2) if self.warm5 is not None else None)
        val, pt = self._run(f5, 5, self.warm5)
        self.warm5 = pt
        if val < _STOP_AT:
            # optima with an active budget sit on the t = 1 slice
            def f4(pts):
                return f5(np.insert(pts, 2, 1.0, axis=1))
            val4, pt4 = self._run(f4, 4, warm4)
            if val4 > val:
                val, pt = val4, np.insert(pt4, 2, 1.0)
        if val < SLACK_TOL:
            return None
        rc = float(pt[2] * _rc_budget(src.rho, np.asarray(pt[0] * cap), ch.c12))
        return vqscheme.VqConfig(pt[0] * cap, pt[1] * cap, rc, pt[3], pt[4])

    def _unlimited(self, ch: ChannelSpec, rc_lo: float, rc_hi: float):
        """The certified unlimited slice's witness or None for shared rates in
        ``[rc_lo, rc_hi]``, and whether a None is a proof."""
        pt, proof = self._certified(_unlimited_slice, ch, (RATE_BOX_BITS, rc_hi, 1.0),
                                    (0.0, rc_lo, 0.0))
        return (None if pt is None else vqscheme.VqConfig(0.0, pt[0], pt[1], 1.0, pt[2])), proof

    def _finite(self, ch: ChannelSpec) -> vqscheme.VqConfig | None:
        """A witness at the finite ``ch.c12``, or None.

        The unlimited scheme contains the finite one, its shared rate standing
        for ``r1 + rc <= RATE_BOX_BITS + budget`` (the compass's reach): a None
        proven over the usual box and the slab above it refutes the query.  An
        unproven None or a witness over budget leaves it to the no-conference
        slice and the compass.
        """
        budget = float(_rc_budget(self.src.rho, 0.0, ch.c12))
        cfg, proof = self._unlimited(ch, 0.0, RATE_BOX_BITS)
        if cfg is None:
            cfg, slab_proof = self._unlimited(ch, RATE_BOX_BITS, RATE_BOX_BITS + budget)
            proof = proof and slab_proof
        if cfg is not None and cfg.rc <= budget:
            return cfg
        if cfg is None and proof:
            return None
        return self._noconf(ch) or self._compass(ch)

    def __call__(self, p1: float, p2: float, n0: float, c12) -> bool:
        ch = ChannelSpec(p1, p2, n0, c12)
        if c12 == 0.0:
            best_cfg = self._noconf(ch)
        elif is_unlimited(c12):
            best_cfg, _ = self._unlimited(ch, 0.0, RATE_BOX_BITS)
        else:
            best_cfg = self._finite(ch)

        if best_cfg is None:
            return False
        self.witness = best_cfg
        return True


def _vq_witness_ok(src: SourceSpec, ch: ChannelSpec, cfg: vqscheme.VqConfig,
                   target: DistortionPair) -> DistortionPair | None:
    """Achieved distortions of a search witness that the closed forms
    re-validate (slack tolerance -1e-9 bits), else None."""
    report = vqscheme.vq_rate_region(src, ch, cfg, margin=SLACK_TOL)
    ach = vqscheme.vq_distortion(src, cfg)
    bits = min(0.5 * (math.log2(target.d1) - math.log2(ach.d1)),
               0.5 * (math.log2(target.d2) - math.log2(ach.d2)))
    return ach if report.feasible and bits >= SLACK_TOL else None


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


def _keeping_witness(report_at, found: dict):
    """The feasibility of ``report_at(x)``'s report as a predicate, which
    keeps the witness of the last feasible report in ``found["witness"]``.
    A bisection's last feasible query is at its ``hi``."""
    def predicate(x) -> bool:
        report = report_at(x)
        if report.feasible:
            found["witness"] = report.witness
        return report.feasible
    return predicate


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
    if p_full == math.inf:
        raise UnboundedError("infeasible at every finite power, full cooperation included")
    if scheme is Scheme.FULL_COOP:
        return OptimizationResult(p_full, {"joint_rate": need}, 0, True, (p_full, p_full))
    if p_ceiling is None:
        p_ceiling = 1e6 * max(n0, p_full)

    if scheme is Scheme.VQ:
        inner = _VqFeasibility(src, target)

        def predicate(p: float) -> bool:
            return inner(p, p, n0, c12)
    else:
        found = {}
        # read from the modules at each solve: a wrapper installed there sees every call;
        # sep2's certified queries start from the boxes of this solve's earlier ones
        report_fn = {Scheme.NECESSARY: bounds.necessary_condition,
                     Scheme.SEP1: separation.sep1_feasible,
                     Scheme.SEP2: functools.partial(separation.sep2_feasible,
                                                    frontiers={})}.get(scheme)
        if report_fn is None:
            raise DomainError("scheme", f"unsupported scheme {scheme}")
        predicate = _keeping_witness(
            lambda p: report_fn(src, ChannelSpec(p, p, n0, c12), target), found)

    lo, hi, iterations, converged = _expand_and_bisect(predicate, n0, p_ceiling, tol)

    if scheme is Scheme.VQ:
        # the witness from the last feasible query certifies hi exactly
        cfg = inner.witness
        ach = None if cfg is None else _vq_witness_ok(src, ChannelSpec(hi, hi, n0, c12),
                                                      cfg, target)
        if ach is None:
            raise AssertionError("bisection invariant violated: witness fails at hi")
        witness_out = {
            "r1": cfg.r1, "r2": cfg.r2, "rc": cfg.rc,
            "beta1": cfg.beta1, "beta2": cfg.beta2,
            "d1": ach.d1, "d2": ach.d2,
        }
    else:
        witness_out = dict(found["witness"])
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
        found = {}
        predicate_at = _keeping_witness(
            lambda c: separation.sep1_feasible(src, ChannelSpec(p1, p2, n0, c), target), found)
    else:
        raise DomainError("scheme", f"conference search supports VQ and SEP1, got {scheme}")

    if not predicate_at(UNLIMITED):
        raise UnboundedError("target infeasible even with unlimited conference capacity")
    if predicate_at(0.0):
        return OptimizationResult(0.0, {}, 0, True, (0.0, 0.0))

    lo, hi, iterations, converged = _expand_and_bisect(
        predicate_at, 1.0, 300.0, 0.0, tol_abs=tol)

    if scheme is Scheme.VQ:
        cfg = inner.witness
        if cfg is None or _vq_witness_ok(src, ChannelSpec(p1, p2, n0, hi), cfg, target) is None:
            raise AssertionError("bisection invariant violated: witness fails at hi")
        req, _ = vqscheme.vq_conf_requirement(src, cfg)
        witness = {"r1": cfg.r1, "r2": cfg.r2, "rc": cfg.rc,
                   "beta1": cfg.beta1, "beta2": cfg.beta2, "required_c12": req}
    else:
        witness = dict(found["witness"])
    return OptimizationResult(hi, witness, iterations, converged, (lo, hi))


def min_d1_unlimited(src: SourceSpec, ch_powers: ChannelSpec,
                     d2_target: float) -> OptimizationResult:
    """Smallest ``d1`` the unlimited-conference scheme reaches at ``d2 <= d2_target``.

    Bisection on ``log2 d1`` to a bracket 1e-7 wide, with the certified
    unlimited-slice predicate; the rate box grows with the coherent sum
    capacity so high-SNR operating points stay reachable.  The slice's
    slack and bound rise with ``d1``, so a query at or below the lowest
    feasible ``d1`` so far starts from that query's frontier.
    """
    p1, p2, n0 = ch_powers.p1, ch_powers.p2, ch_powers.n0
    rate_cap = 0.5 * math.log2(1.0 + (p1 + p2 + 2.0 * math.sqrt(p1 * p2)) / n0) + 1.0
    ch = ChannelSpec(p1, p2, n0, UNLIMITED)
    witness = {}
    frontiers = {}

    def feasible(d1: float) -> bool:
        pt, _ = _certify_below(frontiers, "d1", (d1,),
                               _unlimited_slice(src, ch, DistortionPair(d1, d2_target)),
                               [rate_cap, rate_cap, 1.0])
        if pt is None:
            return False
        witness.update(r2=pt[0], rc=pt[1], beta=pt[2])
        return True

    if not feasible(1.0):
        raise UnboundedError("even d1 = 1 infeasible at these powers")
    lo_log, hi_log, iterations, converged = _bisect(
        lambda x: feasible(2.0**x), -2.0 * (rate_cap + 2.0), 0.0, 0.0, 1e-7)
    d1 = 2.0**hi_log
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
