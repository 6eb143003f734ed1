"""Feasibility of the two source-channel separation pipelines.

Scheme 1: distributed source coding at the target distortions, then channel
coding over the conferencing MAC.  The source-region lower boundary is traced
parametrically (sweep ``r1``, take the least admissible ``r2``), and a
closed-form power-split existence test decides channel membership per point.

Scheme 2: source coding with the conference link (Gaussian inner bound),
then channel coding over the plain MAC.  Its three auxiliaries enter through
the inverse ratios ``iw``, ``iu``, ``iv`` (``sigma^2`` over each auxiliary's
noise variance, 0 when absent) of :func:`rdlib._kaspi_arrays`.  With ``s =
iw + iv`` the bounds read

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
with ``s`` and rises with ``iu``.  The certified branch-and-bound
``_opt._certify`` searches box points ``z`` in ``[0, 1]^2``, mapped to
``(s, iu)`` by ``10^(8 - 16 z)`` for ``z < 1`` and to 0 at ``z = 1``, so an
absent auxiliary is reached exactly.  That caps ``s`` at 1e8 (three
separate ratios would reach ``iw + iv = 2e8``).

Feasibility is declared when the worst slack is >= -1e-9, so exact boundary
points count as feasible.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity, rdlib
from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    is_unlimited,
    log2_pos,
)
from ._opt import SLACK_TOL, _certify_below
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


def sep1_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Distributed source coding followed by conferencing-MAC channel coding.

    Feasible iff some rate pair on the source-region boundary fits inside the
    channel region for some power split.  The returned witness re-validates
    exactly through the underlying region operations.
    """
    rho = src.rho
    r1_lo = 0.5 * log2_pos((1.0 - rho**2) / target.d1)
    rsum = rdlib.wagner_sum_bound(src, target)
    r1_hi = max(rsum, 0.5 * log2_pos(1.0 / target.d1)) + 2.0

    best = None
    lo, hi = r1_lo, r1_hi
    for _ in range(3):  # coarse grid, then two refinements around the best point
        r1 = np.linspace(lo, hi, 513)
        r2 = _wagner_boundary(src, target, r1)
        ok = np.isfinite(r2)
        r2c = np.where(ok, r2, 60.0)  # placeholder rate, masked out below
        if is_unlimited(ch.c12):
            feas, beta = capacity.conf_unlimited_split_exists(ch.p1, ch.p2, ch.n0, r1, r2c)
            witness_cols = (beta,)
        else:
            feas, b1, b2 = capacity.conf_fixed_split_exists(
                ch.p1, ch.p2, ch.n0, ch.c12, r1, r2c)
            witness_cols = (b1, b2)
        feas = feas & ok
        if feas.any():
            i = int(np.argmax(feas))  # smallest feasible r1: deterministic witness
            best = (float(r1[i]), float(r2[i]), tuple(float(c[i]) for c in witness_cols))
            break
        # refine around the point closest to the channel region (largest beta headroom
        # is not defined when infeasible, so shrink toward the least sum-rate demand)
        j = int(np.argmin(np.where(ok, r1 + r2, np.inf))) if ok.any() else len(r1) // 2
        span = (hi - lo) / 16.0
        lo, hi = max(r1_lo, r1[j] - span), min(r1_hi, r1[j] + span)

    if best is None:
        report = _sep1_report(src, ch, target, r1_hi, float(_wagner_boundary(
            src, target, np.asarray([r1_hi]))[0]), None)
        return report
    r1_w, r2_w, split = best
    return _sep1_report(src, ch, target, r1_w, r2_w, split)


def _sep1_report(src, ch, target, r1, r2, split) -> FeasibilityReport:
    if not math.isfinite(r2):
        return FeasibilityReport(False, {"source:r2": -math.inf}, {})
    rp = RatePoint(r1, r2)
    source = rdlib.wagner_contains(src, target, rp)
    witness = {"r1": r1, "r2": r2}
    if is_unlimited(ch.c12):
        beta = split[0] if split else 0.0
        channel = capacity.mac_conf_unlimited_contains(ch, rp, beta)
        witness["beta"] = beta
    else:
        b1, b2 = split if split else (0.0, 0.0)
        channel = capacity.mac_conf_fixed_contains(ch, rp, capacity.MacPowerSplit(b1, b2))
        witness.update({"beta1": b1, "beta2": b2})
    slacks = {f"source:{k}": v for k, v in source.slacks.items()}
    slacks.update({f"channel:{k}": v for k, v in channel.slacks.items()})
    return FeasibilityReport(min(slacks.values()) >= SLACK_TOL, slacks, witness)


def _sep2_ratios(rho: float, c12, z: np.ndarray):
    """Inverse ratios ``(iw, iu, iv)`` at box points ``z``, whose last axis
    holds the coordinates of ``(s, iu)``: the conference description takes
    as much of ``s`` as ``c12`` allows and the refinement the rest."""
    rc = 1.0 - rho**2
    bits = 64.0 if is_unlimited(c12) else min(c12, 64.0)  # beyond 64 bits wmax tops the 1e8 cap
    wmax = math.expm1(bits * math.log(4.0)) / rc if rc > 0.0 else math.inf
    s, iu = np.moveaxis(np.where(z >= 1.0, 0.0, 10.0 ** (8.0 - 16.0 * z)), -1, 0)
    iw = np.minimum(s, wmax)
    return iw, iu, s - iw


def _sep2_slice(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``(exact, bound)`` for ``_opt._certify`` on scheme 2's box ``[0, 1]^2``.

    ``exact`` is the worst of six slacks: ``r1``, ``r2``, ``rsum`` and ``r1
    + r2`` against the plain MAC's bounds, and both distortions.  A higher
    ``z`` means a lower ``s`` or ``iu``, so a box's bound takes each slack at
    its own corner (see the module docstring): ``r1`` at (``s`` lowest,
    ``iu`` highest), ``r2`` at the opposite corner, ``rsum`` at ``up``, the
    distortions at ``lo``, and ``r1 + r2`` as the sum of the ``r1`` and
    ``r2`` corner values.
    """
    c1 = 0.5 * math.log2(1.0 + ch.p1 / ch.n0)
    c2 = 0.5 * math.log2(1.0 + ch.p2 / ch.n0)
    csum = 0.5 * math.log2(1.0 + (ch.p1 + ch.p2) / ch.n0)

    def terms(z):  # r1b, r2b, rsb, d1, d2 at points z of any shape (..., 2)
        return rdlib._kaspi_arrays(src.rho, *_sep2_ratios(src.rho, ch.c12, z))[1:]

    def slack(r1b, r2b, rsb, d1, d2):
        return np.minimum.reduce([c1 - r1b, c2 - r2b, csum - rsb, csum - (r1b + r2b),
                                  0.5 * np.log2(target.d1 / d1), 0.5 * np.log2(target.d2 / d2)])

    def exact(z):
        return slack(*terms(z))

    def bound(lo, up):
        # corner k of each box: lo, (up, lo), (lo, up), up; r1b reads 1, r2b 2, rsb 3, d1, d2 0
        z = np.where(np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=bool)[:, None], up, lo)
        return slack(*(t[k] for k, t in zip((1, 2, 3, 0, 0), terms(z))))
    return exact, bound


def sep2_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                  frontiers: dict | None = None) -> FeasibilityReport:
    """Conferencing source coding followed by plain-MAC channel coding.

    A point is feasible when the achieved distortions meet the target, the
    conference bound fits ``c12``, and the rate lower bounds fit inside the
    plain MAC region (individually, summed, and via the region's own sum
    bound).  ``_opt._certify`` searches the square of ``(s, iu)`` set out in
    the module docstring, so a witness's conference bound fits by
    construction.  Its slack and bound rise with each power, so a query
    at or below the powers (same ``n0`` and ``c12``) of the lowest feasible
    one in ``frontiers``, which one solve owns, starts from that one's
    boxes.  The witness's variances (``UNLIMITED`` where a ratio is 0), its
    Kaspi point, rate split and plain-MAC report are evaluated afresh, so
    the report re-validates the search's point.  A None that the search
    could not prove is reported infeasible too.
    """
    pt, _ = _certify_below({} if frontiers is None else frontiers, (ch.n0, ch.c12),
                           (ch.p1, ch.p2), _sep2_slice(src, ch, target), [1.0, 1.0])
    with np.errstate(divide="ignore", over="ignore"):  # a ratio of 0: an absent auxiliary
        variances = src.sigma2 / np.array(_sep2_ratios(src.rho, ch.c12,
                                                       np.ones(2) if pt is None else pt))
    sw2, su2, sv2 = (UNLIMITED if math.isinf(v) else float(v) for v in variances)
    kp = rdlib.kaspi_region_point(src, rdlib.KaspiParams(sw2, su2, sv2))

    # witness rate point: distribute the binding sum across the two bounds
    s_needed = max(kp.rsum_bound, kp.r1_bound + kp.r2_bound)
    c2 = 0.5 * math.log2(1.0 + ch.p2 / ch.n0)
    r1_w = max(kp.r1_bound, s_needed - c2)
    rp = RatePoint(r1_w, max(s_needed - r1_w, 0.0))
    mac = capacity.mac_plain_contains(ch, rp)

    slacks = {
        "d1": 0.5 * (math.log2(target.d1) - math.log2(kp.achieved.d1)),
        "d2": 0.5 * (math.log2(target.d2) - math.log2(kp.achieved.d2)),
        "c12": math.inf if is_unlimited(ch.c12) else ch.c12 - kp.c12_bound,
    }
    slacks.update({f"mac:{k}": v for k, v in mac.slacks.items()})
    witness = {"sw2": sw2, "su2": su2, "sv2": sv2, "r1": rp.r1, "r2": rp.r2}
    feasible = pt is not None and min(slacks.values()) >= SLACK_TOL
    return FeasibilityReport(feasible, slacks, witness)
