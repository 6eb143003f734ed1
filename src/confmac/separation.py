"""Feasibility of the two source-channel separation pipelines.

Scheme 1: distributed source coding at the target distortions, then channel
coding over the conferencing MAC.  The source-region lower boundary is traced
parametrically (sweep ``r1``, take the least admissible ``r2``), and
:func:`capacity.conf_split_exists`, the closed-form power-split test valid at
every ``c12`` in ``[0, inf]``, decides channel membership per point.

Scheme 2: source coding with the conference link (Gaussian inner bound),
then channel coding over the plain MAC (the conferencing region at ``c12 =
0`` with split ``(0, 0)``: the link serves the source code).  Its three
auxiliaries enter through the inverse ratios ``iw``, ``iu``, ``iv``
(``sigma^2`` over each auxiliary's noise variance, 0 when absent) of
:func:`rdlib._kaspi_arrays`.  With ``s = iw + iv`` the bounds read

    Delta = 1 + iu + (1 + iu (1 - rho^2)) s,   rsum = (1/2) log2 Delta,
    1/d1 = s + (1 + iu)/(1 + iu (1 - rho^2)),
    1/d2 = 1 + iu + rho^2 s/(1 + (1 - rho^2) s),
    r2 = (1/2) log2(1 + iu (1 + (1 - rho^2) s)/(1 + s)),
    r1 = (1/2) log2(1 + iv (1 + (1 - rho^2) iu)/(1 + iw + iu (1 + (1 - rho^2) iw))),
    c12 = (1/2) log2(1 + (1 - rho^2) iw),

so moving mass from ``iv`` to ``iw`` at a fixed ``s`` changes neither
distortion nor ``r2`` nor ``rsum``, lowers ``r1`` and raises only the
conference rate.  Some best point therefore has ``iw = min(s, wmax)``,
``wmax = (4^c12 - 1)/(1 - rho^2)`` (infinite at ``c12 = inf`` or ``rho =
1``), and ``iv = s - iw``: the search runs over ``(s, iu)`` and the
conference bound holds by construction.  There every term is monotone
(``1 - rho^2 <= 1``): both distortions fall and ``rsum`` rises with ``s``
and ``iu``, ``r1`` rises with ``s`` and falls with ``iu``, and ``r2`` falls
with ``s`` and rises with ``iu``.  The branch-and-bound ``_opt._least``
searches box points ``z`` in ``[0, 1]^2``, mapped to ``(s, iu)`` by ``10^(8
- 16 z)`` for ``z < 1`` and to 0 at ``z = 1``, so an absent auxiliary is
reached exactly.  That caps ``s`` at 1e8 (three separate ratios would reach
``iw + iv = 2e8``).

Each point has a closed-form least common scale of the powers.  A
least-power solve reads the least over the square at unit powers, and a
query (``region sep2``) at its own powers: feasible when it is at most 1
and the reported point's worst slack is >= -1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity, rdlib
from .model import (
    ChannelSpec,
    DistortionPair,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    log2_pos,
)
from ._opt import SLACK_TOL, _excess, _least, _least_power
# unused here: bench/tracer.py's BY_NAME requires these names in this module
from ._opt import compass_search_max, refine_grid_max  # noqa: F401


def _wagner_boundary(src: SourceSpec, target: DistortionPair, r1: np.ndarray):
    """Least admissible ``r2`` on the source region's lower boundary.

    Points where no finite ``r2`` admits the given ``r1`` get +inf.
    """
    rho = src.rho
    d1, d2 = target.d1, target.d2
    f2_floor = 0.5 * np.log2(np.maximum((1.0 - rho**2 * (1.0 - 4.0**-r1)) / d2, 1.0))
    rsum = rdlib.wagner_sum_bound(src, target)
    if rho > 0.0:
        arg = (d1 * 4.0**r1 - (1.0 - rho**2)) / rho**2
        inv = np.where(arg >= 1.0, 0.0,
                       np.where(arg > 0.0, -0.5 * np.log2(np.maximum(arg, 1e-300)), np.inf))
    else:
        inv = np.where(r1 >= 0.5 * log2_pos(1.0 / d1) - 1e-15, 0.0, np.inf)
    return np.maximum.reduce([f2_floor, rsum - r1, inv, np.zeros_like(r1)])


def _sep1_boundary(src: SourceSpec, target: DistortionPair):
    """``(passes, r1_hi, r2_hi)``: the source-region boundary on the grids of
    :func:`sep1_feasible`'s three passes, each ``(r1, r2, ok, r2c)`` (``ok``
    where ``r2`` is finite, ``r2c`` its finite stand-in), and the boundary
    point at the top rate ``r1_hi``.  A coarse grid, then two refinements
    around the point of least sum rate ``r1 + r2``; none reads the channel,
    so a solve builds them once."""
    rho = src.rho
    r1_lo = 0.5 * log2_pos((1.0 - rho**2) / target.d1)
    rsum = rdlib.wagner_sum_bound(src, target)
    r1_hi = max(rsum, 0.5 * log2_pos(1.0 / target.d1)) + 2.0

    passes = []
    lo, hi = r1_lo, r1_hi
    for _ in range(3):
        r1 = np.linspace(lo, hi, 513)
        r2 = _wagner_boundary(src, target, r1)
        ok = np.isfinite(r2)
        passes.append((r1, r2, ok, np.where(ok, r2, 60.0)))  # placeholder rate, masked out
        # the point closest to the channel region is not defined when infeasible,
        # so shrink toward the least sum-rate demand
        j = int(np.argmin(np.where(ok, r1 + r2, np.inf))) if ok.any() else len(r1) // 2
        span = (hi - lo) / 16.0
        lo, hi = max(r1_lo, r1[j] - span), min(r1_hi, r1[j] + span)
    return passes, r1_hi, float(_wagner_boundary(src, target, np.asarray([r1_hi]))[0])


def sep1_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                  boundary=None) -> FeasibilityReport:
    """Distributed source coding followed by conferencing-MAC channel coding.

    Feasible iff some rate pair on the source-region boundary fits inside the
    channel region for some power split: the first pass of
    :func:`_sep1_boundary` with a feasible point decides, at its smallest
    feasible ``r1``.  ``boundary`` is that function's result for ``src`` and
    ``target``, built here when not given.  The returned witness
    re-validates exactly through the underlying region operations.
    """
    passes, r1_hi, r2_hi = _sep1_boundary(src, target) if boundary is None else boundary
    for r1, r2, ok, r2c in passes:
        feas, b1, b2 = capacity.conf_split_exists(ch.p1, ch.p2, ch.n0, ch.c12, r1, r2c)
        feas = feas & ok
        if feas.any():
            i = int(np.argmax(feas))  # smallest feasible r1: deterministic witness
            return _sep1_report(src, ch, target, float(r1[i]), float(r2[i]),
                                (float(b1[i]), float(b2[i])))
    return _sep1_report(src, ch, target, r1_hi, r2_hi, None)


def _sep1_report(src, ch, target, r1, r2, split) -> FeasibilityReport:
    if not math.isfinite(r2):
        return FeasibilityReport(False, {"source:r2": -math.inf}, {})
    rp = RatePoint(r1, r2)
    source = rdlib.wagner_contains(src, target, rp)
    b1, b2 = split if split else (0.0, 0.0)
    channel = capacity.mac_conf_contains(ch, rp, capacity.MacPowerSplit(b1, b2))
    witness = {"r1": r1, "r2": r2, "beta1": b1, "beta2": b2}
    slacks = {f"source:{k}": v for k, v in source.slacks.items()}
    slacks.update({f"channel:{k}": v for k, v in channel.slacks.items()})
    return FeasibilityReport(min(slacks.values()) >= SLACK_TOL, slacks, witness)


def _sep2_ratios(rho: float, c12, z: np.ndarray):
    """Inverse ratios ``(iw, iu, iv)`` at box points ``z``, whose last axis
    holds the coordinates of ``(s, iu)``: the conference description takes
    as much of ``s`` as ``c12`` allows and the refinement the rest."""
    rc = 1.0 - rho**2
    bits = min(c12, 64.0)  # beyond 64 bits wmax tops the 1e8 cap
    wmax = math.expm1(bits * math.log(4.0)) / rc if rc > 0.0 else math.inf
    s, iu = np.moveaxis(np.where(z >= 1.0, 0.0, 10.0 ** (8.0 - 16.0 * z)), -1, 0)
    iw = np.minimum(s, wmax)
    return iw, iu, s - iw


def _sep2_terms(rho: float, c12, z: np.ndarray):
    """``(r1b, r2b, rsb, d1, d2)`` at box points ``z`` of any shape ``(..., 2)``."""
    return rdlib._kaspi_arrays(rho, *_sep2_ratios(rho, c12, z))[1:]


# corner k of a box: lo, (up, lo), (lo, up), up
_CORNERS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=bool)[:, None]


def _sep2_least(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``evaluate`` for ``_opt._least`` on scheme 2's box ``[0, 1]^2`` at
    ``ch``'s link: each point's least scale ``k`` of ``ch``'s powers.

    The plain MAC's bounds meet ``r1b``, ``r2b`` and ``max(rsb, r1b + r2b)``
    less ``_LEAST_EPS`` at ``k = n0 (4^r1b - 1)/p1``, ``n0 (4^r2b - 1)/p2``
    and ``n0 (4^max(rsb, r1b + r2b) - 1)/(p1 + p2)``.  A box's bound takes
    each term at the corner where it is most favourable.  A higher ``z``
    means a lower ``s`` or ``iu`` (see the module docstring): ``r1b`` is
    least at (``s`` lowest, ``iu`` highest), ``r2b`` at the opposite corner,
    ``rsb`` at ``up``, and the distortions at ``lo``.  The boxes' four
    corners and the centres are one stacked evaluation.
    """
    p1, p2, n0 = ch.p1, ch.p2, ch.n0

    def least(r1b, r2b, rsb, d1, d2):
        return _least_power(n0, ((_excess(r1b), p1), (_excess(r2b), p2),
                                 (_excess(np.maximum(rsb, r1b + r2b)), p1 + p2)),
                            d1, d2, target.d1, target.d2)

    def evaluate(lo, mid, up):
        terms = _sep2_terms(src.rho, ch.c12, np.concatenate([np.where(_CORNERS, up, lo),
                                                             mid[None]]))
        # r1b reads corner 1, r2b 2, rsb 3, the distortions 0; the centres are row 4
        return (least(*(t[4] for t in terms)),
                least(*(t[k] for k, t in zip((1, 2, 3, 0, 0), terms))))
    return evaluate


def sep2_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Conferencing source coding followed by plain-MAC channel coding.

    A point is feasible when the achieved distortions meet the target, the
    conference bound fits ``c12``, and the rate lower bounds fit inside the
    plain MAC region (individually, summed, and via the region's own sum
    bound).  One ``_opt._least`` run over the square of ``(s, iu)`` finds
    the least common scale of ``ch``'s powers; the report is
    :func:`_sep2_report`'s at its point when that scale is at most 1, else
    at none.
    """
    pt, least, _ = _least(_sep2_least(src, ch, target), [1.0, 1.0])
    return _sep2_report(src, ch, target, pt if least <= 1.0 else None)


def _sep2_report(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                 pt) -> FeasibilityReport:
    """Scheme 2's report at the box point ``pt`` (None: infeasible, reported
    at the point of absent auxiliaries).  The point's variances (``inf``
    where a ratio is 0), its Kaspi point, rate split and plain-MAC report
    are evaluated afresh, so the report re-validates the point."""
    with np.errstate(divide="ignore", over="ignore"):  # a ratio of 0: an absent auxiliary
        variances = src.sigma2 / np.array(_sep2_ratios(src.rho, ch.c12,
                                                       np.ones(2) if pt is None else pt))
    sw2, su2, sv2 = (float(v) for v in variances)
    kp = rdlib.kaspi_region_point(src, rdlib.KaspiParams(sw2, su2, sv2))

    # witness rate point: the binding sum split across both bounds, r2 <= max(c2, its bound)
    s_needed = max(kp.rsum_bound, kp.r1_bound + kp.r2_bound)
    c2 = 0.5 * math.log2(1.0 + ch.p2 / ch.n0)
    r1_w = max(kp.r1_bound, s_needed - max(c2, kp.r2_bound))
    rp = RatePoint(r1_w, max(s_needed - r1_w, 0.0))
    mac = capacity.mac_conf_contains(ChannelSpec(ch.p1, ch.p2, ch.n0, 0.0), rp,
                                     capacity.MacPowerSplit(0.0, 0.0))

    slacks = {
        "d1": 0.5 * (math.log2(target.d1) - math.log2(kp.achieved.d1)),
        "d2": 0.5 * (math.log2(target.d2) - math.log2(kp.achieved.d2)),
        "c12": ch.c12 - kp.c12_bound,
    }
    slacks.update({f"mac:{k}": v for k, v in mac.slacks.items()})
    witness = {"sw2": sw2, "su2": su2, "sv2": sv2, "r1": rp.r1, "r2": rp.r2}
    feasible = pt is not None and min(slacks.values()) >= SLACK_TOL
    return FeasibilityReport(feasible, slacks, witness)
