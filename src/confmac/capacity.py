"""The capacity region of the Gaussian MAC with a one-sided conference link.

One region, valid at every link capacity ``c12`` in ``[0, inf]``: the
conference lets Encoder 2 relay up to ``c12`` bits of Encoder 1's message,
and the encoders put coherent-power fractions ``beta1``, ``beta2`` of their
powers on a superimposed common part.  ``c12 = 0`` with split ``(0, 0)`` is
the plain MAC, bit for bit; at ``c12 = inf`` the link terms are infinite and
split ``(1, beta)`` leaves the unlimited-conference region at coherence
split ``beta``.

Region membership uses closed inequalities (capacity regions are closed).
:func:`conf_split_exists` answers "is there a power split that admits this
rate pair" in closed form; it is what the separation searches call in bulk.
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


def conf_split_exists(p1, p2, n0, c12, r1, r2):
    """Existence of ``(beta1, beta2)`` putting ``(r1, r2)`` in the region at ``c12``.

    Broadcasts over arrays.  The individual bounds cap the betas from above;
    the coherent sum bound needs ``beta1 beta2 >= m``; the conference sum
    bound needs ``(1-beta1)P1 + (1-beta2)P2 >= t``.  Minimizing
    ``beta1 P1 + beta2 P2`` on the hyperbola ``beta1 beta2 = m`` (clipped to
    the caps) decides feasibility.  Returns ``(feasible, beta1, beta2)``;
    the betas are a witness at the feasible rows only.

    Where no row's ``r1`` or ``r1 + r2`` exceeds ``c12`` (at ``c12 = inf``,
    every row), the link terms vanish: the cap on ``beta1`` is 1 and ``t``
    is 0, so the test reduces to ``m <= beta2 <= cap``, and the witness is
    ``beta1 = 1`` with ``beta2`` at that interval's midpoint.  A rate whose
    ``4^rate`` overflows reads as infeasible.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    rsum = r1 + r2
    with np.errstate(over="ignore"):
        pow_r2, pow_sum = 4.0**r2, 4.0**rsum
    b2_max = 1.0 - (pow_r2 - 1.0) * n0 / p2
    q = (n0 * (pow_sum - 1.0) - p1 - p2) / (2.0 * _root(p1, p2))
    m_need = np.where(q > 0.0, np.minimum(q, 1.0) ** 2, 0.0)

    if r1.max() <= c12 and rsum.max() <= c12:
        feasible = (b2_max >= m_need) & (q <= 1.0)
        b2 = 0.5 * (m_need + np.minimum(b2_max, 1.0))  # in [m_need, 1] where feasible
        return feasible, np.ones_like(b2), b2

    with np.errstate(over="ignore"):
        b1_max = 1.0 - (4.0 ** np.maximum(r1 - c12, 0.0) - 1.0) * n0 / p1
        t_need = (4.0 ** np.maximum(rsum - c12, 0.0) - 1.0) * n0
    caps_ok = (b1_max >= 0.0) & (b2_max >= 0.0) & (q <= 1.0)
    b1c = np.clip(b1_max, 0.0, 1.0)
    b2c = np.clip(b2_max, 0.0, 1.0)
    prod_ok = b1c * b2c >= m_need

    # cheapest coherent point: minimize b1 p1 + b2 p2 on b1 b2 = m_need
    with np.errstate(divide="ignore", invalid="ignore"):
        b1_star = np.sqrt(m_need * p2 / p1)
        lo = np.where(b2c > 0.0, m_need / np.where(b2c > 0.0, b2c, 1.0), 0.0)
        b1_star = np.clip(b1_star, lo, b1c)
        b2_star = np.where(b1_star > 0.0, m_need / np.where(b1_star > 0.0, b1_star, 1.0), 0.0)
    b2_star = np.clip(b2_star, 0.0, 1.0)
    conf_ok = (1.0 - b1_star) * p1 + (1.0 - b2_star) * p2 >= t_need - 1e-15 * (p1 + p2)

    return caps_ok & prod_ok & conf_ok, b1_star, b2_star
