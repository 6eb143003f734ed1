"""The capacity region of the Gaussian MAC with a one-sided conference link.

One region, valid at every link capacity ``c12`` in ``[0, inf]``: the
conference lets Encoder 2 relay up to ``c12`` bits of Encoder 1's message,
and the encoders put coherent-power fractions ``beta1``, ``beta2`` of their
powers on a superimposed common part.  ``c12 = 0`` with split ``(0, 0)`` is
the plain MAC, bit for bit; at ``c12 = inf`` the link terms are infinite and
split ``(1, beta)`` leaves the unlimited-conference region at coherence
split ``beta``.

Region membership uses closed inequalities (capacity regions are closed).
:func:`least_scale` gives, in closed form, the least common scale of the
powers at which some power split admits a rate pair, and :func:`best_split`
a split that does; separation scheme 1 reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelSpec,
    DomainError,
    FeasibilityReport,
    RatePoint,
)


@dataclass(frozen=True)
class MacPowerSplit:
    """Coherent-power fractions ``beta1``, ``beta2``; ``(0, 0)`` sends no
    common part (the plain MAC at ``c12 = 0``)."""

    beta1: float
    beta2: float

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise DomainError(name, f"must lie in [0, 1], got {value}")


def _hl(x: float) -> float:
    return 0.5 * math.log2(x)


def _root(x: float, y: float) -> float:
    """``sqrt(x y)``, through ``sqrt(x) sqrt(y)`` where the product overflows."""
    root = math.sqrt(x * y)
    return root if root < math.inf else math.sqrt(x) * math.sqrt(y)


def mac_conf_contains(ch: ChannelSpec, rp: RatePoint, split: MacPowerSplit) -> FeasibilityReport:
    """Membership in the conferencing MAC region at ``ch.c12`` and ``split``.

    * ``R1 <= (1/2)log2(1 + (1-beta1) P1 / N) + C12``
    * ``R2 <= (1/2)log2(1 + (1-beta2) P2 / N)``
    * ``R1+R2 <= min of`` the private-sum bound plus ``C12`` and the fully
      coherent sum bound with ``2 sqrt(beta1 beta2 P1 P2)``.

    At ``c12 = inf`` the ``r1`` slack is ``inf`` and the sum bound is the
    coherent one.
    """
    b1, b2 = split.beta1, split.beta2
    sum_conf = _hl(1.0 + ((1.0 - b1) * ch.p1 + (1.0 - b2) * ch.p2) / ch.n0) + ch.c12
    sum_coh = _hl(1.0 + (ch.p1 + ch.p2 + 2.0 * _root(b1 * b2 * ch.p1, ch.p2)) / ch.n0)
    slacks = {
        "r1": _hl(1.0 + (1.0 - b1) * ch.p1 / ch.n0) + ch.c12 - rp.r1,
        "r2": _hl(1.0 + (1.0 - b2) * ch.p2 / ch.n0) - rp.r2,
        "r1+r2": min(sum_conf, sum_coh) - (rp.r1 + rp.r2),
    }
    return FeasibilityReport(all(v >= 0.0 for v in slacks.values()), slacks,
                             witness={"r1": rp.r1, "r2": rp.r2, "beta1": b1, "beta2": b2})


def least_scale(p1: float, p2: float, a1, a2, a3, a4) -> np.ndarray:
    """Least scale ``x`` of the powers ``(p1, p2)`` at which some split meets
    the region's bounds on excess ratios ``a1`` to ``a4``, elementwise over
    arrays of one shape.

    With a rate pair's ``a1 = 4^(r1 - c12)+ - 1``, ``a2 = 4^r2 - 1``, ``a3 =
    4^(r1 + r2 - c12)+ - 1`` and ``a4 = 4^(r1 + r2) - 1`` (``a1 = a3 = 0`` at
    ``c12 = inf``) the four bounds read ``x (1 - b1) p1 >= a1``, ``x (1 -
    b2) p2 >= a2``, ``x ((1 - b1) p1 + (1 - b2) p2) >= a3`` and ``x (p1 + p2
    + 2 sqrt(b1 b2 p1 p2)) >= a4`` (``x = 1/N`` at the powers themselves).
    A negative ratio reads as 0, and the result is inf where a ratio is.

    At ``x0 = max(a1/p1, a2/p2, a3/(p1 + p2))`` split 0 meets the first
    three, and the answer is ``x0`` when it meets the fourth.  Otherwise the
    answer is the least ``x`` at which the largest coherent product ``4
    x^2 b1 b2 p1 p2`` over the splits that meet the first three reaches
    ``(a4 - (p1 + p2) x)^2``.  That product is the least of three: the
    corner ``4 (p1 x - a1)(p2 x - a2)`` where ``1 - bi`` is least, and, per
    encoder ``i``, the best point of the line on which the conference sum
    bound is tight, ``(x (p1 + p2) - a3)^2`` at its interior optimum or
    ``4 (pi x - ai)(pj x - (a3 - ai))`` where encoder ``i``'s cap holds it
    back.  Each of the three grows with ``x``, so the answer is the largest
    of ``x0`` and the three crossings: the interior one ``(a3 + a4)/(2 (p1 +
    p2))`` where the optimum lies under encoder ``i``'s cap there, else the
    rising root of a quadratic whose leading coefficient ``-(p1 - p2)^2``
    makes it linear at equal powers, in the root form that does not cancel.
    The answer is non-decreasing in each ratio.  The powers are scaled to a
    largest of 1 and the ratios to ``a4 = 1``, so neither ``a4`` past 1e300
    nor powers past 1e154 overflow.
    """
    q1, q2 = p1 / max(p1, p2), p2 / max(p1, p2)
    qs, a4 = q1 + q2, np.asarray(a4, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where((a4 > 0.0) & (a4 < math.inf), a4, 1.0)
        e1, e2, e3 = (np.maximum(a, 0.0) / s for a in (a1, a2, a3))
        x0 = np.maximum(np.maximum(e1 / q1, e2 / q2), e3 / qs)
        # rising roots of 4 (q1 x - p)(q2 x - q) = (1 - qs x)^2: the corner, then the
        # line held back by encoder 1's cap and by encoder 2's
        p, q = np.array([e1, e1, e3 - e2]), np.array([e2, e3 - e1, e2])
        beta, gamma = 2.0 * qs - 4.0 * (p * q2 + q * q1), 1.0 - 4.0 * p * q
        disc = np.maximum(beta * beta - 4.0 * (q1 - q2) ** 2 * gamma, 0.0)
        roots = 2.0 * gamma / (beta + np.sqrt(disc))
        inner = (e3 + 1.0) / (2.0 * qs)  # the line's interior optimum, under encoder i's cap
        under = [inner * (q2 - q1) <= e3 - 2.0 * e1, inner * (q1 - q2) <= e3 - 2.0 * e2]
        roots[1:] = np.where(under, inner, roots[1:])
        x = s * np.where(a4 / s > qs * x0, np.maximum(x0, roots.max(axis=0)), x0) / max(p1, p2)
    return np.where(np.isnan(x) | (a4 == math.inf), math.inf, x)


def best_split(p1: float, p2: float, a1: float, a2: float, a3: float, x: float) -> MacPowerSplit:
    """The split with the largest coherent product ``b1 b2`` among those that
    meet :func:`least_scale`'s first three bounds at scale ``x``: the corner
    where each ``1 - bi`` is ``ai/(x pi)``, or, where the corner misses the
    conference sum bound, the best point of its line within both caps.  At
    ``x`` at or above the least scale it meets the fourth bound too.  Where
    ``ai > 0``, ``bi`` is at most ``1 - ai/(x pi) - 2^-53``, so ``1 - bi``
    is at least ``ai/(x pi)`` in floats, also where that rounds below
    ``2^-53`` (at powers past 1e16).
    """
    need = [a / (x * p) if a > 0.0 else 0.0 for a, p in ((a1, p1), (a2, p2))]
    line = p1 + p2 - (a3 / x if a3 > 0.0 else 0.0)  # b1 p1 + b2 p2 where the sum bound is tight
    b1, b2 = 1.0 - need[0], 1.0 - need[1]
    if b1 * p1 + b2 * p2 > line:
        b1 = min(max(0.5 * line / p1, (line - b2 * p2) / p1), b1)
        b2 = (line - b1 * p1) / p2
    # 2^-53 below 1 - c: each rounding of 1 - c - 2^-53 and of 1 - b loses at most 2^-54
    return MacPowerSplit(*(max(min(b, 1.0 - c - 2.0**-53 if c > 0.0 else 1.0), 0.0)
                           for b, c in zip((b1, b2), need)))
