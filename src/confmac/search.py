"""Optimizers behind the figure-level questions.

All schedules are fixed, so identical inputs give identical results,
iteration counts included; no search is warm-started from another query's
point.

Each least-power scheme (``vq``, ``sep1``, ``sep2``) is read through one
pair (:func:`_pair`): its least power ``max(p1, p2)`` along a channel's
powers at the channel's link, with the point that needs it and a proven
floor, and its report at a point, re-validated by the closed forms.  A
``minpower`` solve is the least at unit powers and the report at that power,
with no bisection.  A query, at given powers (``region sep1``, ``region
sep2``) or at each link of a ``minconf`` bisection over ``c12``, is feasible
when the least along its powers is at most their maximum; ``minconf`` writes
one report, at its bracket's top.  The necessary condition's least power is
a closed form (:func:`bounds.necessary_least_power`).

On the quantizer scheme's slices ``c12 = 0`` and ``c12 = inf`` and for
separation scheme 2 every rate bound is linear in a common scale of the
powers and no distortion reads it, so each box point has a closed-form least
scale, and one :func:`_opt._least` run per form finds the least over its box
and the point that needs it.  The quantizer slices search ``(r1, r2)``
without conference and ``(r2, rc)`` with unlimited conference, where the
coherence split a point needs least has a closed form
(:func:`_unlimited_least`); scheme 1 searches its first rate alone
(:func:`separation._sep1_run`).

The quantizer's least power at a link (:meth:`_VqFeasibility.least`) reads
those runs.  At ``c12 = inf`` it is the unlimited run's least, and below
rho = 1 at ``c12 = 0`` the no-conference run's.  At any other link the
unlimited slice's scheme contains the finite one, its shared rate standing
for ``r1 + rc``: the unlimited least answers when that run is a proof and
its point's shared rate fits the link (at rho = 1 any rate fits a point with
``r1 = 0``).  Otherwise the answer is the least of the no-conference run,
the unlimited point where it fits and, at a positive link, one least-scale
compass run over the budget surface (:meth:`_VqFeasibility._link_run`),
which a proven unlimited least raises to at least that least; the compass's
own least is not proven.  :func:`min_d1_unlimited` (``d1d2-vs-snr``)
minimizes ``d1`` by one branch-and-bound over the unlimited slice whose
proof is its ``converged`` flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, astuple, dataclass
from functools import partial

import numpy as np

from . import bounds, separation, vqscheme
from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    DomainError,
    FeasibilityReport,
    SourceSpec,
    is_unlimited,
)
from .rdlib import rd_joint
from ._mc import halton_points
from ._opt import (
    SLACK_TOL,
    _excess,
    _least,
    _least_power,
    _meets,
    compass_search_max,
    refine_grid_max,
)

RATE_BOX_BITS = 8.0  # the least rate side of the slice boxes and the link run
_MAX_SIDE = 26.0  # the slice boxes' rate cap: past about 26.5 bits 1 - 4^-r rounds to 1
_CEILING = 1e6  # least-power answers past this times max(n0, full cooperation) are unbounded


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


def _noconf_least(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``evaluate`` for :func:`_opt._least` on the no-conference slice,
    points ``(r1, r2)`` in bits: each point's least scale ``s`` of ``ch``'s
    powers, at which ``(s p1, s p2)`` meets the target.

    There ``brho = eta = 0`` and the ``rc`` bound is 0.  With ``t = rho^2 f1
    f2`` the other rate bounds are ``0.5 log2`` of ``s p1/n0 + 1/(1 - t)``
    (``r1``, ``r1+rc``), its ``p2`` twin and ``(s (p1 + 2 sqrt(t p1 p2) +
    p2) + n0)/(n0 (1 - t))`` (``r1+r2``, ``r1+r2+rc``); they meet ``r1``,
    ``r2`` and ``r1 + r2`` less ``_LEAST_EPS`` at ``s = n0 (4^r1 -
    1/(1 - t))/p1``, its ``r2`` twin and ``n0 (4^(r1+r2) (1 - t) - 1)/(p1 +
    p2 + 2 sqrt(t p1 p2))``.  Each numerator falls with ``t``, which rises
    with both rates, and both distortions fall with them: a box's bound
    takes the rates at ``lo`` and ``t`` and the distortions at ``up``.  The
    centres and the boxes are one stacked evaluation.
    """
    rho, p1, p2, n0 = src.rho, ch.p1, ch.p2, ch.n0
    coherent = 2.0 * math.sqrt(p1 * p2)

    def evaluate(lo, mid, up):
        rates, corners = np.concatenate([mid, lo]), np.concatenate([mid, up])
        r1, r2 = rates[:, 0], rates[:, 1]
        t = rho**2 * np.prod(-np.expm1(-2.0 * math.log(2.0) * corners), axis=1)
        odds = t / (1.0 - t)
        least = _least_power(n0, ((_excess(r1) - odds, p1), (_excess(r2) - odds, p2),
                                  (_excess(r1 + r2) * (1.0 - t) - t,
                                   p1 + p2 + coherent * np.sqrt(t))),
                             *vqscheme._distortion_arrays(rho, corners[:, 0], corners[:, 1], 0.0),
                             target.d1, target.d2)
        return least[:len(mid)], least[len(mid):]
    return evaluate


def _unlimited_terms(rho2: float, rates):
    """``h`` and both distortions of the unlimited slice at ``(r2, rc)`` rows."""
    f2, fc = (-np.expm1(-2.0 * math.log(2.0) * rates)).T
    omh = 1.0 - rho2 * f2 * fc
    return (1.0 - omh, 2.0 ** (-2.0 * rates[:, 1]) * (1.0 - rho2 * f2) / omh,
            2.0 ** (-2.0 * rates[:, 0]) * (1.0 - rho2 * fc) / omh)


_BETA_TOP = float(np.nextafter(1.0, 0.0))  # the largest split: at 1 the readable r1+r2 bound fails


def _unlimited_numerators(rates, h):
    """``(N2, Nc, Ns)`` of :func:`_unlimited_least` at ``(r2, rc)`` rows and
    their ``h``; none reads ``beta``."""
    r2, rc = rates[:, 0], rates[:, 1]
    odds = h / (1.0 - h)
    return _excess(r2) - odds, _excess(rc) - odds, _excess(r2 + rc) * (1.0 - h) - h


def _unlimited_split(p1, p2, n2, nc, ns, h_delta, h_gain):
    """The split ``b`` of :func:`_unlimited_least` at rows of its numerators:
    the largest float at or below ``beta*``, the least ``beta`` at which the
    ``r2`` term reaches both the ``rc`` term (``delta`` read at ``h_delta``)
    and the sum term (gain read at ``h_gain``), and at most ``_BETA_TOP``.
    ``beta*`` is 0 where the ``r2`` term already does at ``beta = 0``, and
    1 where ``N2 <= 0``.  Past 0.5 the floats step by ``2^-53``, a large
    step for a small ``1 - beta`` and so for the ``r2`` term; at the float
    below the crossing the falling terms, which move little, are the
    largest."""
    n2, nc, ns = (np.maximum(n, 0.0) for n in (n2, nc, ns))
    with np.errstate(divide="ignore", invalid="ignore"):  # masked rows: N2 = 0, Ns = 0
        # T2 = Tc: A + B sin(theta) = C cos(theta)
        root_n2p2 = np.sqrt(n2 * p2)
        a = np.sqrt(n2 * p1 * (1.0 - h_delta))
        b = root_n2p2 + np.sqrt(nc * p2 * h_delta)
        c = np.sqrt(nc * p2 * (1.0 - h_delta))
        r2 = b * b + c * c
        sin = (c * np.sqrt(np.maximum(r2 - a * a, 0.0)) - a * b) / r2
        gap_delta = np.where(a < c, ((a + root_n2p2 * np.maximum(sin, 0.0)) / c) ** 2, 1.0)
        # T2 = Ts: a quadratic in u = sqrt(h + beta (1 - h))
        coherent = math.sqrt(p1 * p2)
        u = vqscheme._upper_root(ns * p2, 2.0 * n2 * (1.0 - h_gain) * coherent,
                                 n2 * (1.0 - h_gain) * (p1 + p2) - ns * p2)
        u = np.maximum(u, np.sqrt(h_gain))
        gap_gain = n2 * (p1 + p2 + 2.0 * coherent * u) / (ns * p2)
    gap = np.where(n2 > 0.0, np.minimum(np.minimum(gap_delta, gap_gain), 1.0), 0.0)  # 1 - beta*
    beta = 1.0 - gap
    return np.minimum(np.where(1.0 - beta < gap, np.nextafter(beta, 0.0), beta), _BETA_TOP)


def _unlimited_beta(src: SourceSpec, ch: ChannelSpec, rates):
    """The split ``b`` of :func:`_unlimited_least` at ``(r2, rc)`` rows and
    ``ch``'s powers."""
    h, _, _ = _unlimited_terms(src.rho**2, rates)
    return _unlimited_split(ch.p1, ch.p2, *_unlimited_numerators(rates, h), h, h)


def _unlimited_least(src: SourceSpec, ch: ChannelSpec, target: DistortionPair):
    """``evaluate`` for :func:`_opt._least` on the unlimited-conference
    slice, points ``(r2, rc)`` in bits: each point's least scale ``s`` of
    ``ch``'s powers over the coherence split ``beta``.

    With ``h = rho^2 f2 fc``, ``g = (1 - beta) h`` and ``delta = sqrt p1 +
    sqrt p2 (sqrt(g + beta) - sqrt g)``, the three rate bounds of
    :func:`vqscheme._unlimited_raw` are ``0.5 log2`` of ``(1 - beta) s p2/n0
    + 1/(1 - h)``, ``s delta^2/n0 + 1/(1 - h)`` and ``(s (p1 + p2 + 2 sqrt((g
    + beta) p1 p2)) + n0)/(n0 (1 - h))``; they meet ``r2``, ``rc`` and ``r2 +
    rc`` less ``_LEAST_EPS`` at ``s = n0 T``, the largest of ``T2 = N2/((1 - beta)
    p2)``, ``Tc = Nc/delta^2`` and ``Ts = Ns/(p1 + p2 + 2 sqrt((g + beta) p1
    p2))`` (a term is 0 where its numerator is not positive), with ``N2 =
    4^r2 - 1/(1 - h)``, ``Nc = 4^rc - 1/(1 - h)`` and ``Ns = 4^(r2+rc) (1 -
    h) - 1``.  No numerator reads ``beta``.  ``T2`` rises with ``beta``;
    ``delta`` and ``g + beta = h + beta (1 - h)`` rise with it, so ``Tc``
    and ``Ts`` fall.  The least over ``beta`` of their largest is therefore
    at ``beta* = max(beta_c, beta_s)``, where ``T2`` crosses ``Tc`` and
    ``Ts`` (:func:`_unlimited_split`): 0 where ``T2`` is already the largest
    at ``beta = 0``, and 1 where ``N2 <= 0``.

    - ``T2 = Ts``: with ``u = sqrt(h + beta (1 - h))``, so that ``1 - beta =
      (1 - u^2)/(1 - h)``, it reads ``Ns p2 u^2 + 2 N2 (1 - h) sqrt(p1 p2) u
      + N2 (1 - h)(p1 + p2) - Ns p2 = 0``, increasing in ``u >= 0``: its
      larger root, floored at ``sqrt h``, gives ``1 - beta_s = N2 (p1 + p2 +
      2 sqrt(p1 p2) u)/(Ns p2)``, capped at 1.
    - ``T2 = Tc``: with ``u = sin phi``, ``sin psi = sqrt h`` and ``theta =
      phi - psi`` it reads ``A + B sin theta = C cos theta``, ``A = sqrt(N2
      p1 (1 - h))``, ``B = sqrt(N2 p2) + sqrt(Nc p2 h)``, ``C = sqrt(Nc p2
      (1 - h))``; the left side rises and the right falls on ``theta`` in
      ``[0, pi/2 - psi]``, so a root exists iff ``A < C``.  With ``R^2 =
      B^2 + C^2``, ``sin theta = (C sqrt(R^2 - A^2) - A B)/R^2``, and
      ``1 - beta_c = ((A + sqrt(N2 p2) sin theta)/C)^2``.

    Splits are the floats of ``[0, _BETA_TOP]``: at ``beta1 = beta2 = 1``
    the readable path's ``frac12`` guard turns its 0/0 into 0 where its
    limit along ``beta1 = 1`` is ``brho^2``, and its ``r1 + r2`` bound drops
    to 0.  A point's value is the formula at its split ``b``, the largest
    float at or below ``beta*`` (:func:`_unlimited_split`).  A box's bound takes
    the numerators at (rates ``lo``, ``h`` ``up``), ``delta`` at ``h``
    ``lo``, the sum gain at ``h`` ``up`` and the distortions at ``up``: each
    term is then a lower bound of its value over the box at every split,
    ``T2``'s rising and the others' falling with it.  So every split at or
    below the box's own ``b`` has a largest term of at least ``max(Tc,
    Ts)(b)``, every split above it at least ``T2(b+)``, ``b+`` the next
    float (none past ``_BETA_TOP``), and every split at least ``T2(0)``: the
    bound is ``max(min(max(Tc, Ts)(b), T2(b+)), T2(0))``.  It holds whatever
    the rounding of ``b``, and equals a point's value where ``b`` is the
    crossing's float.  The centres and the boxes are one stacked evaluation.
    """
    rho2, p1, p2, n0 = src.rho**2, ch.p1, ch.p2, ch.n0
    root1, root2, coherent = math.sqrt(p1), math.sqrt(p2), 2.0 * math.sqrt(p1 * p2)

    def evaluate(lo, mid, up):
        m = len(mid)
        h, d1a, d2a = _unlimited_terms(rho2, np.concatenate([mid, up, lo]))
        # rows: the centres, then the boxes
        h_num, h_delta = h[:2 * m], np.concatenate([h[:m], h[2 * m:]])
        n2, nc, ns = _unlimited_numerators(np.concatenate([mid, lo]), h_num)
        beta = _unlimited_split(p1, p2, n2, nc, ns, h_delta, h_num)
        g_delta, g_gain = (1.0 - beta) * h_delta, (1.0 - beta) * h_num
        delta = root1 + root2 * np.sqrt(g_delta + beta) - root2 * np.sqrt(g_delta)
        n2_box, top = n2[m:], beta[m:] == _BETA_TOP
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = np.where(n2 > 0.0, n2 / ((1.0 - beta) * p2), 0.0)
            gain = p1 + p2 + coherent * np.sqrt(g_gain + beta)
            rest = np.maximum(np.where(nc > 0.0, nc / delta**2, 0.0),
                              np.where(ns > 0.0, ns / gain, 0.0))
            # the r2 term at the next split up (none past _BETA_TOP) and at 0
            above = np.where(n2_box > 0.0, n2_box / ((1.0 - np.nextafter(beta[m:], 2.0)) * p2),
                             0.0)
            floor = np.where(n2_box > 0.0, n2_box / p2, 0.0)
        lower = np.maximum(np.minimum(rest[m:], np.where(top, np.inf, above)), floor)
        least = n0 * np.concatenate([np.maximum(t2[:m], rest[:m]), lower])
        least = np.where(_meets(d1a[:2 * m], d2a[:2 * m], target.d1, target.d2), least, np.inf)
        return least[:m], least[m:]
    return evaluate


def _noconf_config(src: SourceSpec, ch: ChannelSpec, pt) -> vqscheme.VqConfig:
    """The full scheme's configuration at a no-conference slice point."""
    return vqscheme.VqConfig(pt[0], pt[1], 0.0, 0.0, 0.0)


def _unlimited_config(src: SourceSpec, ch: ChannelSpec, pt) -> vqscheme.VqConfig:
    """The full scheme's configuration at an unlimited-conference slice
    point ``(r2, rc)``, at its best coherence split for ``ch``'s powers."""
    beta = float(_unlimited_beta(src, ch, pt[None, :])[0])
    return vqscheme.VqConfig(0.0, pt[0], pt[1], 1.0, beta)


def _rate_side(target: DistortionPair) -> float:
    """The slice boxes' rate side in bits: 8, or one bit past the ``0.5
    log2(1/d)`` that meets the smaller target ``d`` alone, up to
    ``_MAX_SIDE``."""
    return min(max(RATE_BOX_BITS, 1.0 - 0.5 * math.log2(min(target.d1, target.d2))), _MAX_SIDE)


class _VqFeasibility:
    """The quantizer's least power by the module's rule.  It keeps every
    slice run it makes, so the queries of one solve make one box and one
    run per slice form."""

    def __init__(self):
        self.runs: dict = {}

    def _scaled_least(self, form, config, src: SourceSpec, base: ChannelSpec,
                      target: DistortionPair):
        """``(least, config, floor)`` of the one :func:`_opt._least` run of
        slice ``form`` on its ``(side, side)`` box at ``base``'s powers,
        ``config`` the full scheme's at its point (None where none is
        finite), ``least`` at least :func:`vqscheme._least_scale` there."""
        key = form, src, base, target
        if key not in self.runs:
            side = _rate_side(target)
            pt, least, floor = _least(form(src, base, target), (side, side))
            cfg = None if pt is None else config(src, base, pt)
            if cfg is not None:
                least = max(least, float(vqscheme._least_scale(
                    src.sigma2, src.rho, base.p1, base.p2, base.n0, target.d1, target.d2,
                    *np.array(astuple(cfg))[:, None])[0]))
            self.runs[key] = least, cfg, floor
        return self.runs[key]

    def _link_run(self, src: SourceSpec, base: ChannelSpec, target: DistortionPair,
                  c12: float, stop: float | None):
        """``(least, config, 0)``, 0 the bound it does not prove: the best
        point of the compass run that minimizes :func:`vqscheme._least_scale`
        at ``base``'s powers and the finite link ``c12`` over ``(r1, r2, b1,
        b2)``, rates scaled by the slice boxes' side, from 32 Halton points
        and both slices' least points, then a grid refine.  The shared rate
        ``min(_rc_budget(rho, r1, c12), side - r1)`` puts the points on the
        budget surface, where the optima lie and the link holds, and keeps
        ``r1 + rc`` in the unlimited run's box, under that run's proof.  A
        ``stop`` (None: never) cuts the run short without changing its path.
        """
        cap = _rate_side(target)
        best = [math.inf, None]

        def objective(pts):
            r1, r2 = pts[:, 0] * cap, pts[:, 1] * cap
            rc = np.minimum(_rc_budget(src.rho, r1, c12), cap - r1)
            least = vqscheme._least_scale(src.sigma2, src.rho, base.p1, base.p2, base.n0,
                                          target.d1, target.d2, r1, r2, rc,
                                          pts[:, 2], pts[:, 3])
            i = int(np.argmin(least))
            if least[i] < best[0]:
                best[:] = float(least[i]), vqscheme.VqConfig(
                    r1[i], r2[i], rc[i], pts[i, 2], pts[i, 3])
            return -least

        starts = [halton_points(32, 4)]
        for form, config in ((_noconf_least, _noconf_config),
                             (_unlimited_least, _unlimited_config)):
            _, cfg, _ = self._scaled_least(form, config, src, base, target)
            if cfg is not None:
                starts.append([[cfg.r1 / cap, cfg.r2 / cap, cfg.beta1, cfg.beta2]])
        stop_at = None if stop is None else -stop
        val, pt, _ = compass_search_max(objective, np.vstack(starts), stop_at=stop_at)
        if stop_at is None or val < stop_at:
            refine_grid_max(objective, pt, stop_at=stop_at)
        return best[0], best[1], 0.0

    def least(self, src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
              stop: float | None = None):
        """The quantizer's ``least`` of :func:`_pair`, its point a
        :class:`vqscheme.VqConfig`.  A finite link's compass run stops once
        its least reaches ``stop``, which holds exactly when it holds for the
        complete run, and no compass runs where a proof already puts the
        least above ``stop``."""
        top = max(ch.p1, ch.p2)
        base = ChannelSpec(ch.p1 / top, ch.p2 / top, ch.n0)
        c12, rho = ch.c12, src.rho
        noconf = partial(self._scaled_least, _noconf_least, _noconf_config, src, base, target)
        if c12 == 0.0 and rho < 1.0:  # below rho = 1 no shared rate fits a closed link
            return noconf()
        unlimited = bound, run, floor = self._scaled_least(_unlimited_least, _unlimited_config,
                                                           src, base, target)
        if is_unlimited(c12):
            return unlimited
        fits = run is not None and run.rc <= _rc_budget(rho, 0.0, c12)
        if floor and (fits or stop is not None and bound > stop):
            return unlimited
        options = [noconf()]
        if fits:
            options.append(unlimited)
        if c12 > 0.0 and (stop is None or min(option[0] for option in options) > stop):
            options.append(self._link_run(src, base, target, c12, stop))
        least, cfg, _ = min(options, key=lambda option: option[0])
        return max(least, bound) if floor else least, cfg, floor


def _vq_report(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
               cfg: vqscheme.VqConfig) -> FeasibilityReport:
    """The full scheme's report at ``ch`` for the configuration ``cfg``:
    its rate and conference slacks and both distortions' in bits, feasible
    when each is at least ``SLACK_TOL``; the witness is ``cfg`` with its
    achieved distortions."""
    ach = vqscheme.vq_distortion(src, cfg)
    slacks = {**vqscheme.vq_rate_region(src, ch, cfg).slacks,
              "d1": 0.5 * (math.log2(target.d1) - math.log2(ach.d1)),
              "d2": 0.5 * (math.log2(target.d2) - math.log2(ach.d2))}
    return FeasibilityReport(all(v >= SLACK_TOL for v in slacks.values()), slacks,
                             {**asdict(cfg), "d1": ach.d1, "d2": ach.d2})


def _pair(scheme: Scheme):
    """``(least, report)``, the one pair through which a least-power scheme
    is read.  ``least(src, ch, target, stop)`` is ``(least, point, floor)``:
    the least power ``max(p1, p2)`` along ``ch``'s powers at ``ch.c12``, the
    point that needs it (None where none is finite) and its proven floor (0
    without a proof); with a ``stop`` only ``least <= stop`` is read.
    ``report(src, ch, target, point)`` re-validates the point at ``ch``.
    The quantizer's ``least`` keeps its slice runs for the solve's queries."""
    if scheme is Scheme.VQ:
        return _VqFeasibility().least, _vq_report
    if scheme is Scheme.SEP1:
        return separation._sep1_run, separation._sep1_report
    return separation._sep2_run, separation._sep2_report


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise DomainError("tol", f"must be finite and >= 0, got {tol}")


def _bisect(predicate, lo: float, hi: float, tol_rel: float, tol_abs: float,
            iterations: int = 0) -> tuple[float, float, int, bool]:
    """Narrow ``(lo, hi)``, ``hi`` feasible, around a monotone predicate's threshold.

    Stops once ``hi - lo <= tol_rel * hi + tol_abs`` or after 200 steps.
    Returns ``(lo, hi, iterations, converged)``: ``iterations`` adds the
    steps to the ``iterations`` already spent, and ``converged`` is False
    when the cap stopped it.
    """
    steps = 0
    while hi - lo > tol_rel * hi + tol_abs and steps < 200:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if predicate(mid) else (mid, hi)
        steps += 1
    return lo, hi, iterations + steps, not hi - lo > tol_rel * hi + tol_abs


def _expand_and_bisect(predicate, start: float, ceiling: float, tol_rel: float,
                       tol_abs: float = 0.0) -> tuple[float, float, int, bool]:
    """Find the feasibility threshold of a monotone predicate by doubling + :func:`_bisect`."""
    iterations = 0
    lo, hi = 0.0, start
    while not predicate(hi):
        lo, hi, iterations = hi, 2.0 * hi, iterations + 1
        if hi > ceiling:
            raise UnboundedError(f"infeasible below ceiling {ceiling:g}")
    return _bisect(predicate, lo, hi, tol_rel, tol_abs, iterations)


def min_power_symmetric(src: SourceSpec, scheme: Scheme, target: DistortionPair,
                        c12=UNLIMITED, n0: float = 1.0, tol: float = 1e-6) -> OptimizationResult:
    """Least symmetric power ``p1 = p2 = p`` at which the scheme meets the target.

    ``vq``, ``sep1`` and ``sep2`` read their least power from their pair
    (:func:`_least_solve`), and ``necessary`` is the closed form of
    :func:`bounds.necessary_least_power`, bracketed by the float below it;
    none bisects.  ``tol`` (finite, >= 0) is the relative bracket width that
    counts as converged.  An answer above :data:`_CEILING` times the larger
    of ``n0`` and the full-cooperation power, below which no scheme meets
    the target, raises :class:`UnboundedError`.
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
    p_ceiling = _CEILING * max(n0, p_full)
    if scheme is not Scheme.NECESSARY:
        return _least_solve(src, scheme, target, c12, n0, tol, p_ceiling)
    p, report = bounds.necessary_least_power(src, target, n0, floor=p_full)
    if p > p_ceiling:
        raise UnboundedError(f"infeasible below ceiling {p_ceiling:g}")
    return OptimizationResult(p, dict(report.witness), 0, True, (math.nextafter(p, 0.0), p))


def _least_solve(src: SourceSpec, scheme: Scheme, target: DistortionPair, c12, n0: float,
                 tol: float, p_ceiling: float) -> OptimizationResult:
    """:func:`min_power_symmetric` for ``vq``, ``sep1`` and ``sep2``: the
    least power of the scheme's pair at unit powers, its report's witness at
    that power (which must re-validate), and the bracket ``(floor, least)``,
    converged when at most ``tol`` times its top wide."""
    least_of, report_of = _pair(scheme)
    least, point, floor = least_of(src, ChannelSpec(1.0, 1.0, n0, c12), target)
    if least > p_ceiling:
        raise UnboundedError(f"infeasible below ceiling {p_ceiling:g}")
    report = report_of(src, ChannelSpec(least, least, n0, c12), target, point)
    if not report.feasible:
        raise AssertionError("least-power invariant violated: witness fails at its answer")
    return OptimizationResult(least, dict(report.witness), 0, least - floor <= tol * least,
                              (floor, least))


def min_conf_capacity(src: SourceSpec, ch_powers: ChannelSpec, scheme: Scheme,
                      target: DistortionPair, tol: float = 1e-6) -> OptimizationResult:
    """Least conference capacity at which the scheme meets the target.

    Powers and noise come from ``ch_powers`` (its own ``c12`` is ignored).
    ``tol`` (finite, >= 0) is the absolute bracket width in bits.  A query
    at ``c12`` is feasible when the scheme's least power along the powers
    (:func:`_pair`) is at most their maximum.  The ends are ordinary
    queries: unlimited capacity first, which raises :class:`UnboundedError`
    when it fails, then ``c12 = 0``, an answer of 0 carrying that query's
    witness.  The witness is the report at ``hi`` of the last feasible
    query's point; a vq witness adds the link it needs, ``required_c12``.
    """
    _check_tol(tol)
    if scheme not in (Scheme.VQ, Scheme.SEP1):
        raise DomainError("scheme", f"conference search supports VQ and SEP1, got {scheme}")
    p1, p2, n0 = ch_powers.p1, ch_powers.p2, ch_powers.n0
    top, (least_of, report_of), found = max(p1, p2), _pair(scheme), {}

    def predicate_at(c) -> bool:  # keeps the last feasible query's point, at hi
        least, point, _ = least_of(src, ChannelSpec(p1, p2, n0, c), target, top)
        if least <= top:
            found["point"] = point
        return least <= top

    if not predicate_at(UNLIMITED):
        raise UnboundedError("target infeasible even with unlimited conference capacity")
    if predicate_at(0.0):
        lo = hi = 0.0
        iterations, converged = 0, True
    else:
        lo, hi, iterations, converged = _expand_and_bisect(
            predicate_at, 1.0, 300.0, 0.0, tol_abs=tol)
    point = found["point"]
    report = report_of(src, ChannelSpec(p1, p2, n0, hi), target, point)
    if not report.feasible:
        raise AssertionError("bisection invariant violated: witness fails at hi")
    if scheme is Scheme.SEP1:
        return OptimizationResult(hi, dict(report.witness), iterations, converged, (lo, hi))
    req, _ = vqscheme.vq_conf_requirement(src, point)
    if req <= lo < hi:  # the witness refutes the compass's unproven "infeasible" at lo
        converged = False
    return OptimizationResult(hi, {**asdict(point), "required_c12": req}, iterations, converged,
                              (lo, hi))


def min_d1_unlimited(src: SourceSpec, ch_powers: ChannelSpec,
                     d2_target: float) -> OptimizationResult:
    """Smallest ``d1`` the unlimited-conference scheme reaches at ``d2 <= d2_target``.

    One :func:`_opt._least` run over the unlimited slice's ``(r2, rc)``, its
    rate box grown with the coherent sum capacity.  A point's value is its
    ``d1`` where :func:`_unlimited_least`'s scale at the target ``(1,
    d2_target)`` is at most 1, else +inf; a box's bound is the ``d1`` at its
    ``up`` corner, or +inf where the scale's bound exceeds 1.  The witness's
    ``beta`` is the point's best split.  ``converged`` is the run's proof,
    and the bracket's lower end its proven floor, 0 without one (at rho 1,
    where the optimal points lie on the power constraint).
    """
    p1, p2, n0 = ch_powers.p1, ch_powers.p2, ch_powers.n0
    rate_cap = 0.5 * math.log2(1.0 + (p1 + p2 + 2.0 * math.sqrt(p1 * p2)) / n0) + 1.0
    ch, rho2 = ChannelSpec(p1, p2, n0), src.rho**2
    scale = _unlimited_least(src, ch, DistortionPair(1.0, d2_target))

    def evaluate(lo, mid, up):
        at_mid, below = scale(lo, mid, up)
        d1 = _unlimited_terms(rho2, np.concatenate([mid, up]))[1]
        return (np.where(at_mid <= 1.0, d1[:len(mid)], np.inf),
                np.where(below <= 1.0, d1[len(mid):], np.inf))
    pt, d1, floor = _least(evaluate, [rate_cap, rate_cap])
    if pt is None:
        raise UnboundedError("even d1 = 1 infeasible at these powers")
    beta = float(_unlimited_beta(src, ch, pt[None, :])[0])
    witness = {"r2": float(pt[0]), "rc": float(pt[1]), "beta": beta}
    return OptimizationResult(d1, witness, 0, floor > 0.0, (floor, d1))


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


def trace_tol(kind: CurveKind, tol: float) -> float | None:
    """The tolerance a trace's rows are solved to: ``tol``, at least 1e-6
    bits for ``c12-vs-alpha`` (capacity rows resolve to curve precision, not
    bisection depth), and none for ``d1d2-vs-snr``."""
    if kind is CurveKind.D1D2_VS_SNR:
        return None
    return max(tol, 1e-6) if kind is CurveKind.C12_VS_ALPHA else tol


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
                # the prediction is 0 at rho = 1
                row.update({"d1d2_vq": product, "d1d2_predicted": predicted,
                            "ratio": product / predicted if predicted else math.inf})
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
            return min_conf_capacity(src, ch, TRACE_SCHEMES[token][0], target,
                                     tol=trace_tol(kind, tol))

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
