"""Feasibility of the two source-channel separation pipelines.

Scheme 1: distributed source coding at the target distortions, then channel
coding over the conferencing MAC.  Its points are the first rate ``r1`` with
the least admissible ``r2`` on the source region's lower boundary, which
falls with ``r1``.  Each has a closed-form least common scale of the powers
over the power splits (:func:`capacity.least_scale`, valid at every ``c12``
in ``[0, inf]``), and one branch-and-bound ``_opt._least`` over ``r1`` finds
the least, raised to full cooperation's power.

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

Each point has a closed-form least common scale of the powers.

Each scheme is one pair, as ``search._pair`` reads it: a run
(:func:`_sep1_run`, :func:`_sep2_run`) gives the least power ``max(p1,
p2)`` along a channel's powers, scaled to a largest of 1, with its point
and proven floor, and a report (:func:`_sep1_report`, :func:`_sep2_report`)
re-validates a point at the channel.  A least-power solve reads the run at
unit powers; a query (``region sep1``, ``region sep2``, a ``minconf``
step) is feasible when the least is at most the larger power and the
report's worst slack is at least ``SLACK_TOL`` (-1e-9 bits).
"""

from __future__ import annotations

import math
from dataclasses import asdict

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
from ._opt import _LEAST_GAP, _LEAST_MARGIN, SLACK_TOL, _excess, _least, _least_power
# unused here: bench/tracer.py's BY_NAME requires these names in this module
from ._opt import compass_search_max, refine_grid_max  # noqa: F401


def _wagner_pieces(src: SourceSpec, target: DistortionPair, r1):
    """``(f2, s, W)`` at rates ``r1``: the source region's lower boundary is
    ``W(r1) = max(f2, rsum - r1, s - r1)`` with ``rsum`` the sum-rate bound.
    ``f2 >= 0`` is the second rate bound at ``r1``, so ``r1 + f2`` rises;
    ``s`` is the sum ``r1 + r2`` at which the first rate bound admits
    ``r1``, and falls: +inf where no finite ``r2`` does, and -inf at rho = 0
    where any ``r2`` does."""
    rho, r1 = src.rho, np.asarray(r1, dtype=float)
    decay = 4.0**-r1
    f2 = 0.5 * np.log2(np.maximum((1.0 - rho**2 * (1.0 - decay)) / target.d2, 1.0))
    room = target.d1 - (1.0 - rho**2) * decay  # rho^2 4^-r2 at which the first bound is tight
    lift = 2.0 * math.log2(rho) if rho > 0.0 else -math.inf  # log2(rho^2)
    s = np.where(room > 0.0, 0.5 * (lift - np.log2(np.where(room > 0.0, room, 1.0))), np.inf)
    rsum = rdlib.wagner_sum_bound(src, target)
    return f2, s, np.maximum(np.maximum(f2, rsum - r1), s - r1)


def _wagner_boundary(src: SourceSpec, target: DistortionPair, r1):
    """Least admissible ``r2`` on the source region's lower boundary.

    Points where no finite ``r2`` admits the given ``r1`` get +inf.
    """
    return _wagner_pieces(src, target, r1)[2]


def _sep1_ratios(c12, r1, r2, total):
    """:func:`capacity.least_scale`'s excess ratios at rates ``r1``, ``r2``
    and their sum ``total`` less ``_LEAST_EPS`` at link ``c12``; inf where
    ``4^rate`` overflows."""
    with np.errstate(over="ignore"):
        linked = [_excess(np.maximum(rate - c12, 0.0)) if math.isfinite(c12) else 0.0
                  for rate in (r1, total)]
        return linked[0], _excess(r2), linked[1], _excess(total)


def _sep1_least(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``evaluate`` for ``_opt._least`` on scheme 1's first rate ``r1`` in
    bits, at ``r2 = W(r1)`` on the source region's lower boundary: each
    point's least scale of ``ch``'s powers at which the rate pair, less
    ``_LEAST_EPS``, fits the conferencing MAC at ``ch``'s link for some
    power split (:func:`capacity.least_scale`).

    That scale is non-decreasing in each excess ratio, and ``W`` falls with
    ``r1``, so a box's bound takes the ``r1`` ratio at ``lo``, the ``r2``
    one at ``up`` and the sum rate ``r1 + W(r1) = max(r1 + f2, rsum, s)``
    (:func:`_wagner_pieces`) at ``max(lo + f2(lo), rsum, s(up))``: ``r1 +
    f2`` rises and ``s`` falls.  The centres and the boxes are one stacked
    evaluation.
    """
    rsum = rdlib.wagner_sum_bound(src, target)

    def evaluate(lo, mid, up):
        m = len(mid)
        # rows: the centres and the boxes' lo, then the centres and the boxes' up; a
        # box reads r1 and r1 + f2 at lo, r2 and s at up
        rates = np.concatenate([mid, lo, mid, up])[:, 0]
        f2, s, r2 = _wagner_pieces(src, target, rates)
        total = np.maximum((rates + f2)[:2 * m], np.maximum(s[2 * m:], rsum))
        ratios = _sep1_ratios(ch.c12, rates[:2 * m], r2[2 * m:], total)
        least = ch.n0 * capacity.least_scale(ch.p1, ch.p2, *ratios)
        return least[:m], least[m:]
    return evaluate


def _sep1_run(src: SourceSpec, ch: ChannelSpec, target: DistortionPair, stop=None):
    """Scheme 1's ``(least, point, floor)`` at ``ch`` (see the module
    docstring), its point ``(r1, least)``, from one ``_opt._least`` run of
    :func:`_sep1_least` on ``[0, hi]``: ``hi`` two bits past the larger of
    the sum-rate bound and ``0.5 log2(1/d1)``, doubled until the bound over
    ``[hi, inf)``, where ``W`` is at least ``f2(inf)``, is no lower than the
    run's least.  Both ends are at least full cooperation's power along the
    powers, which no scheme beats and the search hair could undercut where
    the source code needs only the joint rate.  ``stop`` is not read."""
    top = max(ch.p1, ch.p2)
    q1, q2 = ch.p1 / top, ch.p2 / top
    evaluate = _sep1_least(src, ChannelSpec(q1, q2, ch.n0, ch.c12), target)
    hi = max(rdlib.wagner_sum_bound(src, target), 0.5 * log2_pos(1.0 / target.d1)) + 2.0
    while True:
        pt, least, floor = _least(evaluate, [hi])
        tail = evaluate(np.array([[hi]]), np.array([[hi]]), np.array([[math.inf]]))[1][0]
        if not tail * (1.0 - _LEAST_MARGIN) < least * (1.0 - _LEAST_GAP):
            break
        hi *= 2.0
    full = ((4.0**rdlib.rd_joint(src, target) - 1.0) * ch.n0
            / (math.sqrt(q1) + math.sqrt(q2)) ** 2)
    least = max(least, full)
    return least, None if pt is None else (float(pt[0]), least), max(floor, full)


def sep1_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Distributed source coding followed by conferencing-MAC channel coding:
    feasible iff some rate pair on the source region's lower boundary fits
    inside the channel region at some power split.  The report at the point
    of :func:`_sep1_run` at ``ch``."""
    return _sep1_report(src, ch, target, _sep1_run(src, ch, target)[1])


def _sep1_report(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                 point) -> FeasibilityReport:
    """Scheme 1's report at ``ch`` for the run point ``(r1, least)`` (None:
    no finite point), ``least`` its least power ``max(p1, p2)`` along
    ``ch``'s powers: the rate pair ``(r1, W(r1))`` at the split that
    attains ``least`` (:func:`capacity.best_split`), re-validated through
    the source and channel regions.  Feasible when ``least`` is at most
    ``max(p1, p2)`` and every slack is at least ``SLACK_TOL``."""
    if point is None:
        return FeasibilityReport(False, {"source:r2": -math.inf}, {})
    r1, least = point
    r2 = float(_wagner_boundary(src, target, r1))
    rp = RatePoint(r1, r2)
    split = capacity.best_split(ch.p1, ch.p2, *_sep1_ratios(ch.c12, r1, r2, r1 + r2)[:3],
                                least / (max(ch.p1, ch.p2) * ch.n0))
    slacks = {f"{name}:{k}": v for name, report in (
        ("source", rdlib.wagner_contains(src, target, rp)),
        ("channel", capacity.mac_conf_contains(ch, rp, split))) for k, v in report.slacks.items()}
    feasible = least <= max(ch.p1, ch.p2) and min(slacks.values()) >= SLACK_TOL
    return FeasibilityReport(feasible, slacks, {"r1": r1, "r2": r2, **asdict(split)})


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


def _sep2_run(src: SourceSpec, ch: ChannelSpec, target: DistortionPair, stop=None):
    """Scheme 2's ``(least, point, floor)`` at ``ch`` (see the module
    docstring), its point a box point, from one ``_opt._least`` run over
    the square of ``(s, iu)``.  ``stop`` is not read."""
    top = max(ch.p1, ch.p2)
    pt, least, floor = _least(_sep2_least(src, ChannelSpec(ch.p1 / top, ch.p2 / top, ch.n0,
                                                           ch.c12), target), [1.0, 1.0])
    return least, pt, floor


def sep2_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Conferencing source coding followed by plain-MAC channel coding.

    A point is feasible when the achieved distortions meet the target, the
    conference bound fits ``c12``, and the rate lower bounds fit inside the
    plain MAC region (individually, summed, and via the region's own sum
    bound).  The report at the point of :func:`_sep2_run` at ``ch`` when its
    least is at most ``max(p1, p2)``, else at none.
    """
    least, pt, _ = _sep2_run(src, ch, target)
    return _sep2_report(src, ch, target, pt if least <= max(ch.p1, ch.p2) else None)


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
