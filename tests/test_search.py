import itertools
import math
import warnings

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, DomainError, SourceSpec
from confmac import _opt, search, separation, vqscheme
from confmac.search import (
    CurveKind,
    Scheme,
    UnboundedError,
    min_conf_capacity,
    min_d1_unlimited,
    min_power_symmetric,
    trace_curve,
)
from test_vqscheme import reference_min_slack, unit_batch

SRC = SourceSpec(1.0, 0.5)
TARGET = DistortionPair(0.2, 0.2)


def test_full_cooperation_closed_form():
    res = min_power_symmetric(SRC, Scheme.FULL_COOP, TARGET)
    assert res.objective == pytest.approx(4.4375, abs=1e-12)  # (18.75 - 1)/4
    assert res.converged and res.iterations == 0


def test_trivial_target_costs_nothing():
    trivial = DistortionPair(1.0, 1.0)
    for scheme in Scheme:
        res = min_power_symmetric(SRC, scheme, trivial)
        assert res.objective == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match="tol"):
        min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.SEP1, TARGET, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2, "tol": tol}, [0.5])


def test_default_ceiling_follows_full_cooperation():
    """A target whose least power is above 1e6 n0 is solved, not reported
    unbounded: the default ceiling scales with the full-cooperation power."""
    target = DistortionPair(2.5e-4, 5e-4)
    p_full = min_power_symmetric(SRC, Scheme.FULL_COOP, target).objective
    assert p_full > 1e6
    for scheme in (Scheme.NECESSARY, Scheme.SEP1, Scheme.VQ):
        p = min_power_symmetric(SRC, scheme, target).objective
        assert math.isfinite(p) and p >= p_full
    # a target that no finite power meets with full cooperation is unbounded at once
    with pytest.raises(UnboundedError):
        min_power_symmetric(SRC, Scheme.VQ, DistortionPair(1e-310, 0.5))


def test_rc_budget_meets_the_conference_requirement():
    # the requirement is strictly increasing in rc, so meeting c12 exactly
    # makes the budget the largest admissible shared rate
    r1 = np.linspace(0.0, 8.0, 161)
    worst = 0.0
    for rho in np.linspace(0.0, 1.0, 21):
        free = rho**2 * 4.0**-r1 < 1.0
        for c12 in np.linspace(0.0, 7.0, 15):
            rc = search._rc_budget(float(rho), r1[free], float(c12))
            req, _ = vqscheme._conf_requirement_arrays(float(rho), r1[free], rc)
            worst = max(worst, float(np.max(np.abs(req - c12))))
    assert worst <= 1e-12
    # rho = 1, r1 = 0: every shared rate needs no conference bits; the budget
    # is the finite ceiling, above the budget of any r1 > 0
    for c12 in (0.0, 1.0):
        corner = search._rc_budget(1.0, np.array([0.0, 1e-6, 1.0]), c12)
        assert np.all(np.isfinite(corner)) and corner[0] > corner[1] >= corner[2] >= c12


def test_bisection_invariants_and_witness():
    res = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-6)
    lo, hi = res.bracket
    assert res.converged and hi - lo <= 1e-6 * hi + 1e-15
    assert res.objective == hi
    cfg = vqscheme.VqConfig(res.witness["r1"], res.witness["r2"], res.witness["rc"],
                            res.witness["beta1"], res.witness["beta2"])
    ch = ChannelSpec(hi, hi, 1.0, UNLIMITED)
    report = vqscheme.vq_rate_region(SRC, ch, cfg, margin=-1e-9)
    assert report.feasible
    ach = vqscheme.vq_distortion(SRC, cfg)
    assert ach.d1 <= TARGET.d1 * (1 + 1e-8) and ach.d2 <= TARGET.d2 * (1 + 1e-8)


def test_converged_reports_the_step_cap():
    # at tol 0 the bracket of a stateless predicate shrinks to adjacent
    # floats and never to zero width, so only the 200-step cap stops it
    lo, hi, steps, converged = search._bisect(lambda p: p >= 1.0 / 3.0, 0.0, 1.0, 0.0, 0.0)
    assert steps == 200 and not converged and lo < 1.0 / 3.0 <= hi
    lo, hi, steps, converged = search._bisect(lambda p: p >= 1.0 / 3.0, 0.0, 1.0, 1e-9, 0.0)
    assert steps < 200 and converged and hi - lo <= 1e-9 * hi
    # a least-link solve at tol 0 reaches the cap: its first query, at 1 bit, is feasible
    capped = min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.SEP1,
                               DistortionPair(0.1, 0.2), tol=0.0)
    assert capped.iterations == 200 and not capped.converged
    # the necessary least power is a closed form bracketed by the float below it,
    # converged at tol 0 and near 2^499 N alike
    for target in (TARGET, DistortionPair(1e-150, 0.2)):
        res = min_power_symmetric(SRC, Scheme.NECESSARY, target, tol=0.0)
        assert res.converged and res.iterations == 0, target
        assert res.bracket == (math.nextafter(res.objective, 0.0), res.objective), target


def test_determinism():
    a = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=1e-7)
    b = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=1e-7)
    assert a == b


def test_bracket_sides_revalidate_for_stateless_predicates():
    from confmac import bounds, separation

    res = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=1e-7)
    lo, hi = res.bracket
    assert not bounds.necessary_condition(SRC, ChannelSpec(lo, lo, 1.0), TARGET).feasible
    assert bounds.necessary_condition(SRC, ChannelSpec(hi, hi, 1.0), TARGET).feasible

    res = min_power_symmetric(SRC, Scheme.SEP1, TARGET, c12=UNLIMITED, tol=1e-7)
    lo, hi = res.bracket
    ch = ChannelSpec(lo, lo, 1.0, UNLIMITED)
    assert not separation.sep1_feasible(SRC, ch, TARGET).feasible
    assert separation.sep1_feasible(SRC, ChannelSpec(hi, hi, 1.0, UNLIMITED), TARGET).feasible


def test_scheme_orderings_single_alpha():
    tol = 1e-9
    p_fc = min_power_symmetric(SRC, Scheme.FULL_COOP, TARGET).objective
    p_nec = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=tol).objective
    p_vq_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=tol).objective
    p_vq_0 = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=tol).objective
    p_sep2 = min_power_symmetric(SRC, Scheme.SEP2, TARGET, c12=UNLIMITED, tol=tol).objective
    assert p_fc <= p_nec <= p_vq_inf <= p_vq_0
    assert p_vq_inf <= p_sep2


def test_pmin_monotone_in_link_capacity():
    values = []
    for c12 in (0.0, 0.5, 1.0, UNLIMITED):
        values.append(min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=c12,
                                          tol=1e-5).objective)
    assert all(a >= b - 1e-4 for a, b in zip(values, values[1:])), values


def test_pmin_monotone_in_alpha():
    values = []
    for alpha in (0.3, 0.6, 1.0):
        target = DistortionPair(alpha * 0.2, 0.2)
        values.append(min_power_symmetric(SRC, Scheme.VQ, target, c12=UNLIMITED,
                                          tol=1e-7).objective)
    assert values[0] >= values[1] >= values[2]


def test_min_power_unbounded():
    """At rho = 1 and d1 = 1e-20 a finite link's boxes stop at their rate
    cap, where no point meets the target: no answer lies below the default
    ceiling."""
    with pytest.raises(UnboundedError):
        min_power_symmetric(SourceSpec(1.0, 1.0), Scheme.VQ, DistortionPair(1e-20, 0.5), c12=1.0)


def test_min_conf_trivial_and_unbounded():
    res = min_conf_capacity(SRC, ChannelSpec(1, 1, 1), Scheme.VQ, DistortionPair(1, 1))
    assert res.objective == 0.0
    with pytest.raises(UnboundedError):
        min_conf_capacity(SRC, ChannelSpec(0.1, 0.1, 1.0), Scheme.VQ, TARGET)
    with pytest.raises(Exception):
        min_conf_capacity(SRC, ChannelSpec(1, 1, 1), Scheme.SEP2, TARGET)


def test_min_conf_zero_when_power_is_ample():
    ch = ChannelSpec(30.0, 30.0, 1.0)
    assert min_conf_capacity(SRC, ch, Scheme.VQ, TARGET, tol=1e-4).objective == 0.0
    assert min_conf_capacity(SRC, ch, Scheme.SEP1, TARGET, tol=1e-4).objective == 0.0


def test_min_conf_zero_answer_carries_its_witness():
    """An answer of 0 carries its ``c12 = 0`` query's witness: for vq a
    configuration that needs no conference bits and re-validates at
    ``c12 = 0``, for sep1 that query's report's witness."""
    target = DistortionPair(0.1, 0.2)
    ch, none = ChannelSpec(20.0, 20.0, 1.0), ChannelSpec(20.0, 20.0, 1.0, 0.0)
    res = min_conf_capacity(SRC, ch, Scheme.VQ, target)
    w = res.witness
    assert (res.objective, res.bracket, res.converged, w["required_c12"]) == (0.0, (0.0, 0.0),
                                                                            True, 0.0)
    cfg = vqscheme.VqConfig(*(w[k] for k in ("r1", "r2", "rc", "beta1", "beta2")))
    assert search._vq_report(SRC, none, target, cfg).feasible
    res = min_conf_capacity(SRC, ch, Scheme.SEP1, target)
    assert res.objective == 0.0
    assert res.witness == separation.sep1_feasible(SRC, none, target).witness != {}


def test_min_conf_nonincreasing_in_power():
    p_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-9).objective
    values = []
    for scale in (1.04, 1.10):
        ch = ChannelSpec(scale * p_inf, scale * p_inf, 1.0)
        values.append(min_conf_capacity(SRC, ch, Scheme.VQ, TARGET, tol=1e-4).objective)
    assert values[0] >= values[1] - 1e-4


def test_min_conf_loose_second_component():
    """With d2 = 1 near the coherence-limited minimum power, the quantizer link
    cost approaches the side-information rate and separation 1 approaches the
    plain description rate -- the binning discount separates them."""
    from confmac import rdlib

    d1 = 0.1
    target = DistortionPair(d1, 1.0)
    p = 1.002 * (1.0 / d1 - 1.0) / 4.0
    ch = ChannelSpec(p, p, 1.0)
    c_vq = min_conf_capacity(SRC, ch, Scheme.VQ, target, tol=1e-5).objective
    c_sep1 = min_conf_capacity(SRC, ch, Scheme.SEP1, target, tol=1e-5).objective
    wz = rdlib.wz_rate(SRC, d1)
    plain = 0.5 * math.log2(1.0 / d1)
    assert c_vq == pytest.approx(wz, abs=0.02)
    assert c_vq <= wz + 1e-4
    assert c_sep1 == pytest.approx(plain, abs=0.05)
    assert c_vq < c_sep1


def test_min_d1_unlimited_matches_min_power_inverse():
    # just above the minimal power for (0.2, 0.2), the best reachable d1 is near 0.2
    p_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-9).objective
    res = min_d1_unlimited(SRC, ChannelSpec(p_inf * 1.02, p_inf * 1.02, 1.0), 0.2)
    assert res.converged and res.iterations < 200
    assert res.objective <= 0.2 * 1.01
    assert res.objective >= 0.2 * 0.8


def test_trace_single_alpha_consistent_with_direct_call():
    rows = trace_curve(CurveKind.PMIN_VS_ALPHA,
                       {"rho": 0.5, "d2": 0.2, "n0": 1.0, "tol": 1e-7,
                        "schemes": ["fullcoop", "vq-none"]},
                       [0.5])
    assert len(rows) == 1
    row = rows[0]
    direct_fc = min_power_symmetric(SRC, Scheme.FULL_COOP, DistortionPair(0.1, 0.2),
                                    tol=1e-7).objective
    direct_vq = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(0.1, 0.2),
                                    c12=0.0, tol=1e-7).objective
    assert row["pmin_fullcoop"] == direct_fc
    assert row["pmin_vq-none"] == direct_vq
    assert row["errors"] == ""


def test_trace_records_row_errors():
    rows = trace_curve(CurveKind.C12_VS_ALPHA,
                       {"rho": 0.5, "d2": 0.2, "n0": 1.0, "p": 0.5,
                        "schemes": ["vq"], "tol": 1e-4},
                       [0.5])
    assert math.isnan(rows[0]["c12_vq"])
    assert "UnboundedError" in rows[0]["errors"]


def test_trace_rejects_bad_grid():
    with pytest.raises(Exception):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2}, [])
    with pytest.raises(Exception):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2}, [0.5, 0.5])


def test_trace_accepts_the_tokens_of_each_curve_kind():
    # tokens a kind cannot trace are refused in test_cli's bad-input table
    params = {"rho": 0.5, "d2": 0.2, "n0": 1.0, "p": 11.5}
    for kind, tokens in ((CurveKind.C12_VS_ALPHA, ["vq", "sep1"]),
                         (CurveKind.D1D2_VS_SNR, ["vq-unlimited"]),
                         (CurveKind.PMIN_VS_ALPHA, list(search.TRACE_SCHEMES))):
        assert search.check_trace_inputs(kind, {**params, "schemes": tokens}, [0.5]) == [0.5]


def test_trace_d1d2_vs_snr_row():
    rows = trace_curve(CurveKind.D1D2_VS_SNR, {"rho": 0.5, "d2": 0.2, "n0": 1.0}, [1e4])
    row = rows[0]
    assert row["ratio"] == pytest.approx(1.0, abs=0.05)
    assert row["errors"] == ""


# (p1, p2, n0) of the slice-bound checks
SLICE_CHANNELS = ((1.0, 1.0, 1.0), (12.0, 3.0, 0.5), (0.01, 100.0, 2.0), (5.0, 5.0, 1.0 / 16.0),
                  (1e4, 1e4, 1.0))


def _value(evaluate, pts):
    """A least-value form's values at the points ``pts``."""
    return evaluate(pts, pts, pts)[0]


def _bound(evaluate, lo, up):
    """A least-value form's lower bounds over the boxes ``[lo, up]``."""
    return evaluate(lo, 0.5 * (lo + up), up)[1]


def _least_forms(src, p1, p2, n0, target):
    """``(evaluate, box)`` of each least-scale form at the powers ``(p1,
    p2)``: both quantizer slices, the unlimited one also over taller sides
    (a finite link's shared rate, ``min_d1_unlimited``'s box), and
    separation scheme 2 at three links."""
    ch = ChannelSpec(p1, p2, n0)
    yield search._noconf_least(src, ch, target), (8.0, 8.0)
    for hi in ((8.0, 8.0), (16.0, 40.0)):
        yield search._unlimited_least(src, ch, target), hi
    for c12 in (0.0, 0.5, UNLIMITED):
        yield separation._sep2_least(src, ChannelSpec(p1, p2, n0, c12), target), (1.0, 1.0)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 1.0])
def test_least_power_bounds_hold_over_their_boxes(rho):
    """No point of a random box, corners included, needs a lower scale of
    the powers than the box's lower bound less the relative rounding margin;
    each form's centre values are its values at those points."""
    rng = np.random.default_rng(int(100 * rho) + 1)
    src = SourceSpec(1.0, rho)
    for p1, p2, n0 in SLICE_CHANNELS:
        target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
        for evaluate, hi in _least_forms(src, p1, p2, n0, target):
            hi = np.array(hi)
            m, d = 2000, hi.size
            lo = rng.uniform(0.0, 1.0, (m, d)) * hi
            up = np.minimum(lo + hi * 2.0 ** rng.uniform(-30.0, 0.0, (m, d)), hi)
            centres, bounds = evaluate(lo, 0.5 * (lo + up), up)
            floor = bounds * (1.0 - _opt._LEAST_MARGIN)
            assert not np.isnan(floor).any()
            assert np.array_equal(centres, _value(evaluate, 0.5 * (lo + up)))
            for k in range(8):
                u = rng.uniform(0.0, 1.0, (m, d))
                if k < 2:
                    u = np.round(u)
                pts = lo + u * (up - lo)
                assert np.all(_value(evaluate, pts) >= floor), (rho, p1, p2, n0, target, d)


def _least_by_bisection(slack, n0):
    """Least scale at which ``slack(s)``, rising in ``s``, reaches the
    search hair ``-_LEAST_EPS`` bits: doubling from ``n0``, then 100
    bisection steps."""
    lo, hi = 0.0, n0
    while slack(hi) < -_opt._LEAST_EPS:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if slack(mid) >= -_opt._LEAST_EPS else (mid, hi)
    return hi


def _sep2_report_slack(src, ch, target, pt):
    """Scheme 2's worst slack at the box point ``pt`` from the readable
    path: :func:`separation._sep2_report` builds the point's Kaspi bounds
    with ``rdlib`` and checks its rate point with ``capacity``."""
    return min(separation._sep2_report(src, ch, target, pt).slacks.values())


# The readable composition resolves the least-scale hair (``_LEAST_EPS``
# bits) where the residual ``a_res = 1 - trho^2 - brho^2`` is not tiny: near
# rho = 1 its sums ``lam12 - bp2 brho^2`` and ``1 - frac12`` (and their
# ``r2+rc`` twins) cancel to about ``eps / a_res``, even with the powers in
# extended precision.
_RESOLVED_RESIDUAL = 1e14 * float(np.finfo(np.longdouble).eps)


def _full_scheme_least_checks(rng, rho, sigma2, p1, p2, n0) -> int:
    """Check :func:`vqscheme._least_scale` at 400 random points, rates up to
    40 bits, against the readable composition with the powers in extended
    precision: the slack reaches ``SLACK_TOL`` at the returned scale (where
    the composition resolves it), stays below 0 at every probed scale under
    it (the ``rc`` bound is not monotone in the scale), and a +inf row is
    infeasible at ``1e12 n0``.  Returns the number of finite rows."""
    pts = unit_batch(rng, 400, 5)
    r1, r2, rc = (40.0 * pts[:, k] for k in range(3))
    b1, b2 = pts[:, 3], pts[:, 4]
    d1, d2 = (float(v) for v in rng.uniform(0.05, 1.0, 2))
    least = vqscheme._least_scale(sigma2, rho, p1, p2, n0, d1, d2, r1, r2, rc, b1, b2)

    def slack(scale, rows):
        scale = np.broadcast_to(np.asarray(scale, dtype=np.longdouble), rows.shape)
        return reference_min_slack(sigma2, rho, scale * p1, scale * p2, np.longdouble(n0),
                                   d1, d2, r1[rows], r2[rows], rc[rows], b1[rows], b2[rows])
    where = (rho, sigma2, p1, p2, n0, d1, d2)
    finite = np.flatnonzero(np.isfinite(least))
    with np.errstate(all="ignore"):  # 0/0 in lamc at rho = 1; trho and brho read no power
        _, consts, _ = vqscheme._raw_quantities(sigma2, rho, 1.0, 1.0, 1.0, r1, r2, rc, b1, b2)
    a_res = 1.0 - consts["trho"] ** 2 - consts["brho"] ** 2
    resolved = finite[a_res[finite] > _RESOLVED_RESIDUAL]
    assert rho == 1.0 or resolved.size == finite.size, where
    assert np.all(slack(least[resolved], resolved) >= _opt.SLACK_TOL), where
    below = finite[least[finite] > 0.0]
    for factor in np.concatenate([[1.0 - 1e-9, 1.0 - 1e-6], np.geomspace(0.999, 1e-6, 24)]):
        assert not np.any(slack(least[below] * factor, below) >= 0.0), (where, factor)
    infinite = np.flatnonzero(np.isinf(least))
    assert not np.any(slack(1e12 * n0, infinite) >= _opt.SLACK_TOL), where
    return finite.size


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 1.0])
def test_least_power_forms_match_the_slack_kernels(rho):
    """At random points each slice's least-scale form equals the common
    scale of the powers at which the readable composition (or scheme 2's
    report) reaches the search hair, found by scalar bisection, and a point
    whose form is +inf misses the target at any scale.  The full scheme's
    form, whose ``rc`` bound is not monotone in the scale, passes
    :func:`_full_scheme_least_checks` at ``sigma2`` 1 and 2.35."""
    rng = np.random.default_rng(int(100 * rho) + 2)
    src = SourceSpec(1.0, rho)
    for p1, p2, n0 in SLICE_CHANNELS:
        for sigma2 in (1.0, 2.35):
            assert _full_scheme_least_checks(rng, rho, sigma2, p1, p2, n0) >= 100
        target = DistortionPair(*(float(v) for v in rng.uniform(0.05, 1.0, 2)))
        d1, d2 = target.d1, target.d2
        rates = rng.uniform(0.05, 3.0, (12, 2))

        def noconf(s, pt):
            return reference_min_slack(1.0, rho, s * p1, s * p2, n0, d1, d2, pt[:1], pt[1:],
                                       0.0, 0.0, 0.0)[0]

        ch = ChannelSpec(p1, p2, n0)

        def unlimited(s, pt):  # at the point's best split
            beta = float(search._unlimited_beta(src, ch, pt[None, :])[0])
            report, ach = vqscheme.vq_unlimited_region(
                src, ChannelSpec(s * p1, s * p2, n0), pt[0], pt[1], beta)
            return min(*report.slacks.values(), 0.5 * math.log2(d1 / ach.d1),
                       0.5 * math.log2(d2 / ach.d2))

        cases = [(search._noconf_least(src, ch, target), rates, noconf),
                 (search._unlimited_least(src, ch, target), rates, unlimited)]
        for c12 in (0.0, 0.5, UNLIMITED):
            def sep2(s, pt, c12=c12):
                return _sep2_report_slack(src, ChannelSpec(s * p1, s * p2, n0, c12), target, pt)
            cases.append((separation._sep2_least(src, ChannelSpec(p1, p2, n0, c12), target),
                          rng.uniform(0.0, 1.0, (12, 2)), sep2))
        finite = 0
        for evaluate, pts, kernel in cases:
            for pt, form in zip(pts, _value(evaluate, pts)):
                def slack(s):
                    return float(kernel(s, pt))
                if math.isinf(form):
                    assert slack(1e12 * n0) < _opt.SLACK_TOL, (rho, p1, p2, n0, pt)
                elif form == 0.0:
                    assert slack(1e-12 * n0) >= _opt.SLACK_TOL, (rho, p1, p2, n0, pt)
                else:
                    finite += 1
                    assert form == pytest.approx(_least_by_bisection(slack, n0), rel=1e-9), \
                        (rho, p1, p2, n0, pt)
        assert finite >= 12, (rho, p1, p2, n0)


def _unlimited_least_3d(src, ch, target):
    """``evaluate`` of the unlimited slice's least scale over points ``(r2,
    rc, beta)``: the search over the coherence split that the closed form
    replaced, kept as the oracle of its value and its bound.  A box's bound
    takes the numerators at (rates ``lo``, ``h`` ``up``), ``1 - beta`` at
    ``beta`` ``lo``, ``delta`` at (``h`` ``lo``, ``beta`` ``up``), the sum
    gain at ``up`` and the distortions at ``up``."""
    rho2, p1, p2, n0 = src.rho**2, ch.p1, ch.p2, ch.n0
    root1, root2, coherent = math.sqrt(p1), math.sqrt(p2), 2.0 * math.sqrt(p1 * p2)

    def least(r2, rc, h, one_minus_beta, delta, gain, d1a, d2a):
        odds = h / (1.0 - h)
        return _opt._least_power(n0, ((_opt._excess(r2) - odds, one_minus_beta * p2),
                                      (_opt._excess(rc) - odds, delta**2),
                                      (_opt._excess(r2 + rc) * (1.0 - h) - h,
                                       p1 + p2 + coherent * np.sqrt(gain))),
                                 d1a, d2a, target.d1, target.d2)

    def delta_gain(h, beta):
        g = (1.0 - beta) * h
        return root1 + root2 * np.sqrt(g + beta) - root2 * np.sqrt(g), g + beta

    def evaluate(lo, mid, up):
        h, d1a, d2a = search._unlimited_terms(rho2, mid[:, :2])
        value = least(mid[:, 0], mid[:, 1], h, 1.0 - mid[:, 2], *delta_gain(h, mid[:, 2]),
                      d1a, d2a)
        h_up, d1a, d2a = search._unlimited_terms(rho2, up[:, :2])
        delta, _ = delta_gain(search._unlimited_terms(rho2, lo[:, :2])[0], up[:, 2])
        _, gain = delta_gain(h_up, up[:, 2])
        return value, least(lo[:, 0], lo[:, 1], h_up, 1.0 - lo[:, 2], delta, gain, d1a, d2a)
    return evaluate


def _least_over_splits(oracle, rates, betas):
    """The oracle's values at each ``(r2, rc)`` row and the splits ``betas``
    (one row of splits for all, or one per row)."""
    m = len(rates)
    betas = np.broadcast_to(betas, (m, np.shape(betas)[-1]))
    pts = np.column_stack([np.repeat(rates, betas.shape[1], axis=0), betas.ravel()])
    return _value(oracle, pts).reshape(betas.shape)


def test_closed_form_split_is_the_least_over_a_beta_grid():
    """At random ``(r2, rc)`` the two-dimensional form's value is the
    three-dimensional formula at the closed-form split, which stays below 1,
    and no split of a 20001-point grid, nor of a zoom to single floats
    around its best one, needs a lower scale.  The sample reaches each
    branch of the closed form: ``N2 <= 0``; a ``T2`` already above ``Tc``
    (``A >= C``) or above ``Ts`` (no ``Ts`` crossing) at ``beta = 0``, and
    each crossing in the interior; ``1 - h`` below 1e-6; unequal powers."""
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 1.0, 20001)
    grid[-1] = search._BETA_TOP
    branches = dict.fromkeys(("n2", "a>=c", "no Ts", "Tc", "Ts", "h->1"), 0)
    for rho in (0.0, 0.5, 0.9, 0.999, 1.0):
        src = SourceSpec(1.0, rho)
        for p1 in (1.0, 0.2, 20.0):
            ch = ChannelSpec(p1, 1.0, 1.0)
            oracle = _unlimited_least_3d(src, ch, DistortionPair(1.0, 1.0))
            rates = np.concatenate([rng.uniform(0.0, 1.0, (10, 2)) ** 2 * 14.0,
                                    rng.uniform(10.0, 20.0, (3, 2)),  # 1 - h near 0 at rho 1
                                    np.column_stack([np.zeros(3), rng.uniform(0.0, 14.0, 3)])])
            value = _value(search._unlimited_least(src, ch, DistortionPair(1.0, 1.0)), rates)
            beta = search._unlimited_beta(src, ch, rates)
            assert np.all(beta < 1.0) and np.isfinite(value).all()
            assert np.array_equal(value, _value(oracle, np.column_stack([rates, beta])))
            splits = np.broadcast_to(grid, (len(rates), grid.size))
            best = np.full(len(rates), np.inf)
            for _ in range(7):  # the grid, then zooms of 2001 splits down to single floats
                vals = _least_over_splits(oracle, rates, splits)
                k = np.argmin(vals, axis=1)
                best = np.minimum(best, vals[np.arange(len(rates)), k])
                lo = splits[np.arange(len(rates)), np.maximum(k - 1, 0)]
                hi = splits[np.arange(len(rates)), np.minimum(k + 1, splits.shape[1] - 1)]
                splits = np.linspace(lo, hi, 2001, axis=1)
            assert np.all(value <= best * (1.0 + 1e-12)), (rho, p1)
            # which branch each row took, from the three terms at beta = 0
            h, _, _ = search._unlimited_terms(rho**2, rates)
            n2, nc, ns = search._unlimited_numerators(rates, h)
            t2, tc = n2 / ch.p2, nc / ch.p1  # delta is sqrt(p1) at beta = 0
            ts = ns / (ch.p1 + ch.p2 + 2.0 * np.sqrt(h * ch.p1 * ch.p2))
            live = n2 > 0.0
            branches["n2"] += np.count_nonzero(~live)
            branches["a>=c"] += np.count_nonzero(live & (nc > 0.0) & (t2 >= tc))
            branches["Tc"] += np.count_nonzero(live & (nc > 0.0) & (t2 < tc))
            branches["no Ts"] += np.count_nonzero(live & (ns > 0.0) & (t2 >= ts))
            branches["Ts"] += np.count_nonzero(live & (ns > 0.0) & (t2 < ts))
            branches["h->1"] += np.count_nonzero(live & (1.0 - h < 1e-6))
    assert min(branches.values()) >= 5, branches


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 1.0])
def test_slice_bound_is_at_most_the_least_over_box_and_split(rho):
    """On random boxes the two-dimensional bound, less the rounding margin,
    is at most the three-dimensional formula's least over points of the box,
    corners included, and over splits from 0 up to ``_BETA_TOP``, with
    steps of a single float next to the box's closed-form split."""
    rng = np.random.default_rng(int(100 * rho) + 3)
    src = SourceSpec(1.0, rho)
    betas = np.concatenate([np.linspace(0.0, 1.0, 201)[:-1], 1.0 - 2.0 ** -np.arange(8.0, 53.0),
                            [search._BETA_TOP]])
    for p1, p2, n0 in SLICE_CHANNELS:
        target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
        ch = ChannelSpec(p1, p2, n0)
        evaluate, oracle = search._unlimited_least(src, ch, target), _unlimited_least_3d(src, ch,
                                                                                         target)
        for hi in ((8.0, 8.0), (16.0, 40.0)):
            hi = np.array(hi)
            m = 200
            lo = rng.uniform(0.0, 1.0, (m, 2)) * hi
            up = np.minimum(lo + hi * 2.0 ** rng.uniform(-30.0, 0.0, (m, 2)), hi)
            floor = _bound(evaluate, lo, up) * (1.0 - _opt._LEAST_MARGIN)
            for k in range(6):
                u = rng.uniform(0.0, 1.0, (m, 2))
                if k < 2:
                    u = np.round(u)
                pts = lo + u * (up - lo)
                near = search._unlimited_beta(src, ch, pts)[:, None] + np.array([0.0, 1.0])
                near[:, 1] = np.minimum(np.nextafter(near[:, 0], 2.0), search._BETA_TOP)
                least = np.minimum(_least_over_splits(oracle, pts, betas).min(axis=1),
                                   np.min([_value(oracle, np.column_stack([pts, near[:, j]]))
                                           for j in range(2)], axis=0))
                assert np.all(least >= floor), (rho, p1, p2, n0, target, hi)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
def test_unlimited_least_against_the_split_search(rho):
    """Where the search over ``(r2, rc, beta)`` ends with a proof, the search
    over ``(r2, rc)`` at the closed-form split ends within ``_LEAST_GAP``
    relative of it, and proves at least as often."""
    src, proofs = SourceSpec(1.0, rho), {2: 0, 3: 0}
    for d in ((0.04, 0.2), (0.3, 0.9), (0.9, 0.05)):
        target = DistortionPair(*d)
        side = search._rate_side(target)
        for p1 in (1.0, 0.25):
            ch = ChannelSpec(p1, 1.0, 1.0)
            _, old, old_floor = _opt._least(_unlimited_least_3d(src, ch, target),
                                            (side, side, 1.0))
            _, new, floor = _opt._least(search._unlimited_least(src, ch, target), (side, side))
            proofs[3] += old_floor > 0.0
            proofs[2] += floor > 0.0
            if old_floor:
                assert old * (1.0 - _opt._LEAST_GAP) <= new <= old * (1.0 + _opt._LEAST_GAP), \
                    (rho, d, p1, old, new)
    assert proofs[2] >= proofs[3] >= 1, proofs


@pytest.mark.parametrize("c12", [UNLIMITED, 0.5])
def test_rho_one_witnesses_keep_their_split_below_one(c12):
    """At rho = 1 a witness's coherence split stays below 1, where the
    readable ``r1+r2`` bound holds (at ``beta1 = beta2 = 1`` it drops to 0),
    and re-validates at the answer; at d (0.01, 0.5) and ``c12 = inf`` the
    answer lies at or below the slack compass's old 24.75057411."""
    src = SourceSpec(1.0, 1.0)
    for d in ((0.04, 0.2), (0.01, 0.5), (0.9, 0.05)):
        target = DistortionPair(*d)
        res = min_power_symmetric(src, Scheme.VQ, target, c12=c12, tol=1e-9)
        w = res.witness
        assert w["beta2"] < 1.0, (d, w)
        cfg = vqscheme.VqConfig(*(w[k] for k in ("r1", "r2", "rc", "beta1", "beta2")))
        ch = ChannelSpec(res.objective, res.objective, 1.0, c12)
        assert search._vq_report(src, ch, target, cfg).feasible, (d, w)
        if d == (0.01, 0.5) and c12 == UNLIMITED:
            assert res.objective <= 24.75057411, res


def _noconf_reference(src, ch, target):
    """No-conference slack at (r1, r2) points from the readable rate bounds."""
    def slack(pts):
        r1, r2 = pts[:, 0], pts[:, 1]
        zero = np.zeros_like(r1)
        _, _, bnd = vqscheme._raw_quantities(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
                                             r1, r2, zero, zero, zero)
        rates = {"r1": r1, "r2": r2, "rc": zero, "r1+r2": r1 + r2, "r1+rc": r1,
                 "r2+rc": r2, "r1+r2+rc": r1 + r2}
        d1a, d2a = vqscheme._distortion_arrays(src.rho, r1, r2, zero)
        return np.min([bnd[k] - rates[k] for k in rates]
                      + [0.5 * np.log2(target.d1 / d1a), 0.5 * np.log2(target.d2 / d2a)], axis=0)
    return slack


def _unlimited_reference(src, ch, target):
    """Unlimited-conference slack at (r2, rc) points, at its best ``beta``
    from the readable region.  The ``r2`` term falls with ``beta`` and the
    ``rc`` and ``r2+rc`` terms rise with it, so their minimum peaks where
    they cross; bisection finds the crossing."""
    def slack(pts):
        r2, rc = pts[:, 0], pts[:, 1]

        def terms(beta):
            bnd, d1a, d2a = vqscheme._unlimited_raw(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
                                                    r2, rc, beta)
            rising = np.minimum(bnd["rc"] - rc, bnd["r2+rc"] - (r2 + rc))
            rest = np.min([bnd["r2"] - r2, 0.5 * np.log2(target.d1 / d1a),
                           0.5 * np.log2(target.d2 / d2a)], axis=0)
            return rising, bnd["r2"] - r2, np.minimum(rising, rest)
        lo, hi = np.zeros_like(r2), np.ones_like(r2)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rising, falling, _ = terms(mid)
            lo, hi = np.where(rising < falling, mid, lo), np.where(rising < falling, hi, mid)
        return np.maximum(terms(lo)[2], terms(hi)[2])
    return slack


def _grid_zoom_max(slack, hi, rounds=48, n=33):
    """Best slack a dense grid finds over the box ``[0, hi]``: each round
    grids a window around the best point so far and halves it."""
    hi = np.asarray(hi, dtype=float)
    best, centre, half = -math.inf, 0.5 * hi, 0.5 * hi
    for _ in range(rounds):
        axes = [np.linspace(max(c - h, 0.0), min(c + h, top), n)
                for c, h, top in zip(centre, half, hi)]
        pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = slack(pts)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, centre = float(vals[i]), pts[i]
        half = 0.5 * half
    return best


@pytest.mark.parametrize("rho, alpha, c12", [(0.5, 0.2, UNLIMITED), (0.5, 1.0, 0.0),
                                              (0.8, 0.2, 0.0), (0.3, 1.0, UNLIMITED)])
def test_certified_slice_minimum_against_grid_oracle(rho, alpha, c12):
    """A dense grid zoom over the slice finds no point at the tolerance just
    below the certified minimum, and finds one just above it."""
    src = SourceSpec(1.0, rho)
    target = DistortionPair(alpha * 0.2, 0.2)
    res = min_power_symmetric(src, Scheme.VQ, target, c12=c12, tol=1e-7)
    lo, hi = res.bracket
    reference = _unlimited_reference if c12 is UNLIMITED else _noconf_reference
    for p, feasible in ((lo * (1.0 - 1e-6), False), (hi * (1.0 + 1e-4), True)):
        best = _grid_zoom_max(reference(src, ChannelSpec(p, p, 1.0, c12), target), (8.0, 8.0))
        assert (best >= _opt.SLACK_TOL) == feasible, (p, best)


def test_finite_link_lies_between_the_certified_slices():
    """Every finite-``c12`` answer lies between the two certified slices, and
    at the ``fits`` links, which the unlimited witness's shared rate fits,
    it is the unlimited solve, witness included: every link reads the same
    unlimited run on the same box."""
    tol = 1e-6
    for rho, target, n0, links, fits in (
            (0.5, DistortionPair(0.1, 0.2), 1.0, (1.0, 1.5), (1.5,)),
            (0.5, DistortionPair(0.1, 0.2), 1.0 / 16.0, (1.0, 1.5), ()),
            (0.8, DistortionPair(0.2, 0.1), 1.0, (0.25, 0.5, 1.0), (1.0,))):
        def pmin(c12):
            return min_power_symmetric(SourceSpec(1.0, rho), Scheme.VQ, target, c12=c12,
                                       n0=n0, tol=tol)
        unlimited, none = pmin(UNLIMITED), pmin(0.0).objective
        for c12 in links:
            res = pmin(c12)
            assert unlimited.objective <= res.objective <= none, (rho, n0, c12, res, none)
            if c12 in fits:
                assert res == unlimited, (rho, n0, c12, unlimited, res)


def test_finite_link_shared_rate_stays_in_the_unlimited_box():
    """A finite link's ``r1 + rc`` may exceed 8 bits: at rho = 0.5, d1 =
    1e-5 needs about 8.3 bits of it.
    The compass keeps it within the unlimited run's target-sized box, so
    that run's proof covers every point the compass reaches."""
    target = DistortionPair(1e-5, 0.2)
    w = min_power_symmetric(SRC, Scheme.VQ, target, c12=1.0, tol=1e-3).witness
    assert search.RATE_BOX_BITS < w["r1"] + w["rc"] <= search._rate_side(target), w
    assert w["d1"] <= 1e-5, w


def test_slice_boxes_grow_with_the_target():
    """A target below ``2^-14`` widens the slices' rate boxes, so neither
    slice is unbounded where a finite link answers: at rho 0.5 the three
    links order as their schemes nest, each at or above the exact necessary
    power less 1e-10 relative, an allowance for the searches' hair of 1e-12
    bits per rate and distortion (d = (1e-5, 0.2) needs about 8.3 bits of
    ``r1 + rc``; at d = 1e-6 the unlimited least lies 3.1e-12 relative below
    the necessary power)."""
    for target in (DistortionPair(1e-5, 0.2), DistortionPair(0.2, 1e-5),
                   DistortionPair(1e-6, 1e-6)):
        unlimited, finite, none = (min_power_symmetric(SRC, Scheme.VQ, target, c12=c12).objective
                                   for c12 in (UNLIMITED, 1.0, 0.0))
        necessary = min_power_symmetric(SRC, Scheme.NECESSARY, target).objective
        assert necessary * (1.0 - 1e-10) <= unlimited <= finite <= none, (
            target, necessary, unlimited, finite, none)


@pytest.mark.parametrize("d", [1.5e-5, 1e-5])
def test_finite_link_reaches_private_rates_past_eight_bits(d):
    """At rho 0.5 and d1 = d2 = d below ``2^-14`` the finite link's optimum
    needs ``r2`` past 8 bits.  The least-scale compass scales its rates by
    the target-sized ``side``, so at ``c12`` 1 it stays within 1.1 times the
    unlimited answer (about 1.083) instead of falling back to the
    no-conference slice (4/3), and at 1.2 times the unlimited power vq's
    least link is no more than sep1's (0.369 against 1.161 bits)."""
    target = DistortionPair(d, d)
    unlimited = min_power_symmetric(SRC, Scheme.VQ, target, c12=UNLIMITED, tol=1e-8).objective
    finite = min_power_symmetric(SRC, Scheme.VQ, target, c12=1.0, tol=1e-8)
    assert finite.objective < 1.1 * unlimited, (d, finite, unlimited)
    assert finite.witness["r2"] > search.RATE_BOX_BITS, finite
    ch = ChannelSpec(1.2 * unlimited, 1.2 * unlimited, 1.0)
    vq, sep1 = (min_conf_capacity(SRC, ch, scheme, target).objective
                for scheme in (Scheme.VQ, Scheme.SEP1))
    assert vq <= sep1, (d, vq, sep1)


def test_slice_boxes_stop_before_one_minus_h_rounds_to_zero():
    """The boxes stop growing at ``_MAX_SIDE`` bits: past about 26.5 bits
    ``1 - 4^-r`` rounds to 1, and at rho = 1 the least-scale forms would
    divide 0 by 0 (d1 = 1e-20 asks for 34 bits)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c12 in (UNLIMITED, 0.0):
            try:
                min_power_symmetric(SourceSpec(1.0, 1.0), Scheme.VQ, DistortionPair(1e-20, 0.5),
                                    c12=c12)
            except UnboundedError:
                pass


def test_finite_link_is_refuted_only_by_a_proof(monkeypatch):
    """A finite-link query below the unlimited run's least scale is
    infeasible only when that run is a proof; otherwise the least-scale
    compass decides, here between the finite answer 10.29 and the
    no-conference one 12.96."""
    least = search._least
    for floor, feasible in ((math.inf, False), (0.0, True)):
        def stub(evaluate, hi):
            if _form_of(evaluate) == "_unlimited_least":
                return None, math.inf, floor
            return least(evaluate, hi)
        monkeypatch.setattr(search, "_least", stub)
        power, cfg, _ = search._VqFeasibility().least(SRC, ChannelSpec(11.5, 11.5, 1.0, 1.0),
                                                       DistortionPair(0.1, 0.2), 11.5)
        assert (power <= 11.5) is feasible
        if feasible:  # neither slice's witness: both r1 and rc are positive
            assert cfg.r1 > 0.0 and cfg.rc > 0.0, cfg


def _query(scheme, src, ch, target) -> bool:
    """A query through the scheme's pair, as ``minconf`` asks it: the least
    power along ``ch``'s powers is at most their maximum, and the report at
    its point re-validates; sep1 and sep2 through their public queries."""
    if scheme is Scheme.SEP1:
        return separation.sep1_feasible(src, ch, target).feasible
    if scheme is Scheme.SEP2:
        return separation.sep2_feasible(src, ch, target).feasible
    least_of, report_of = search._pair(scheme)
    least, point, _ = least_of(src, ch, target, max(ch.p1, ch.p2))
    return least <= max(ch.p1, ch.p2) and report_of(src, ch, target, point).feasible


@pytest.mark.parametrize("rho", [0.3, 0.8])
def test_queries_meet_the_least_power_exactly(rho):
    """Every scheme's query is feasible at the ``minpower`` answer and not
    at ``1 - 1e-9`` times it, at every link: the solve answers the queries'
    least power itself, not a bisection's top above it.  At rho 0.8, d =
    (0.01, 0.5) and ``c12 = inf`` sep1's answer is full cooperation's power,
    which its queries read too."""
    src = SourceSpec(1.0, rho)
    for scheme, links in ((Scheme.VQ, (UNLIMITED, 1.0, 0.5, 0.0)),
                          (Scheme.SEP1, (UNLIMITED, 0.5, 0.0)),
                          (Scheme.SEP2, (UNLIMITED, 0.5, 0.0))):
        for target, c12 in itertools.product((DistortionPair(0.1, 0.2), DistortionPair(0.01, 0.5)),
                                             links):
            p = min_power_symmetric(src, scheme, target, c12=c12, tol=1e-9).objective
            where, below = (scheme, target, c12, p), p * (1.0 - 1e-9)
            assert not _query(scheme, src, ChannelSpec(below, below, 1.0, c12), target), where
            assert _query(scheme, src, ChannelSpec(p, p, 1.0, c12), target), where


def test_closed_link_at_rho_one_reads_the_unlimited_slice():
    """At rho = 1 the budget of a point with ``r1 = 0`` is unbounded, so at
    ``c12 = 0`` the unlimited slice's points need no link: ``minpower``
    answers as at ``c12 = inf`` (6.0, not the no-conference 6.24, at d =
    (0.04, 0.2)), and ``minconf`` at P = (1.3, 3.9) answers 0, converged,
    where the unlimited end needs no link either, with a witness that
    needs none."""
    src = SourceSpec(1.0, 1.0)
    for d, none in (((0.04, 0.2), 6.24), ((0.3, 0.9), 0.7583)):
        closed, unlimited = (min_power_symmetric(src, Scheme.VQ, DistortionPair(*d), c12=c12,
                                                 tol=1e-9) for c12 in (0.0, UNLIMITED))
        assert closed == unlimited and closed.objective < none - 0.1, (d, closed, unlimited)
    res = min_conf_capacity(src, ChannelSpec(1.3, 3.9, 1.0), Scheme.VQ, DistortionPair(0.1, 0.2))
    assert (res.objective, res.bracket, res.converged) == (0.0, (0.0, 0.0), True), res
    assert res.witness["required_c12"] == 0.0, res.witness


def test_capped_round_keeps_the_least_neighbourhood():
    """On a form whose lowest bounds lie where no centre is finite (as near
    ``1 - h = 0`` at rho 1) the rounds past the box cap also split the best
    centres: the run reaches the least within 1e-12, at its point, and
    reports no proof."""
    centre = np.array([2.0 / 3.0 + 0.01, 1.0 / math.pi])
    batches = []

    def evaluate(lo, mid, up):
        batches.append(len(mid))
        decoy = lo[:, 0] < 0.5  # bound 0, no finite centre
        vals = np.where(mid[:, 0] < 0.5, np.inf, 1.0 + np.abs(mid - centre).sum(axis=1))
        lower = 1.0 + np.abs(np.clip(centre, lo, up) - centre).sum(axis=1)
        return vals, np.where(decoy, 0.0, lower)
    point, least, floor = _opt._least(evaluate, [1.0, 1.0])
    assert floor == 0.0 and max(batches) <= _opt._MAX_BOXES
    assert least - 1.0 <= 1e-12 and np.abs(point - centre).max() <= 1e-12


def _sep2_query_bisection(src, target, c12, tol):
    """``(objective, bracket, iterations)`` of scheme 2's least power by one
    :func:`separation.sep2_feasible` query per step, on
    ``min_power_symmetric``'s schedule at ``n0 = 1``: double from 1, then
    halve the bracket until its width is at most ``tol`` times its top."""
    def feasible(p):
        return separation.sep2_feasible(src, ChannelSpec(p, p, 1.0, c12), target).feasible
    lo, hi, iterations = 0.0, 1.0, 0
    while not feasible(hi):
        lo, hi, iterations = hi, 2.0 * hi, iterations + 1
    while hi - lo > tol * hi and iterations < 200:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
        iterations += 1
    return hi, (lo, hi), iterations


def _form_of(evaluate) -> str:
    """The least-value form that made ``evaluate``."""
    return evaluate.__qualname__.split(".")[0]


def test_least_power_solves_match_the_query_solves(monkeypatch):
    """Each solve makes at most one least-scale run per form.  On proven
    searches scheme 2's answer from its run at unit powers lies in the
    bracket of a bisection by one ``sep2_feasible`` query per step, within
    ``tol`` of its top.  A quantizer solve at ``c12`` 0 or inf makes one
    run; a finite link's ``minpower`` and ``minconf``, the latter's
    unlimited end included, read one run per form."""
    least, calls, forms = search._least, [], []

    def recorded(evaluate, hi):
        out = least(evaluate, hi)
        calls.append(("least", len(hi), out[2] > 0.0))
        forms.append(_form_of(evaluate))
        return out
    monkeypatch.setattr(search, "_least", recorded)
    monkeypatch.setattr(separation, "_least", recorded)
    for rho, target, tol in ((0.3, DistortionPair(0.1, 0.2), 1e-6),
                             (0.8, DistortionPair(0.2, 0.1), 1e-9)):
        src = SourceSpec(1.0, rho)
        for c12 in (UNLIMITED, 0.5):
            calls.clear()
            res = min_power_symmetric(src, Scheme.SEP2, target, c12=c12, tol=tol)
            assert calls == [("least", 2, True)] and res.iterations == 0, (rho, c12, calls)
            _, (lo, hi), _ = _sep2_query_bisection(src, target, c12, tol)
            answer = res.objective
            assert lo < answer <= hi <= answer * (1.0 + tol), (rho, c12, answer, lo, hi)
        for c12, form in ((UNLIMITED, "_unlimited_least"), (0.0, "_noconf_least")):
            calls.clear()
            forms.clear()
            min_power_symmetric(src, Scheme.VQ, target, c12=c12, tol=tol)
            assert calls == [("least", 2, True)] and forms == [form], (rho, c12, calls)
    target = DistortionPair(0.1, 0.2)
    for solve in (lambda: min_power_symmetric(SRC, Scheme.VQ, target, c12=1.0, tol=1e-6),
                  lambda: min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.VQ,
                                            target, tol=1e-3)):
        calls.clear()
        forms.clear()
        solve()
        assert sorted(forms) == sorted(set(forms)), calls


def test_unproven_least_scale_no_stands(monkeypatch):
    """Below a slice's unproven least-scale run a query at ``c12`` inf or 0
    answers no: with the least scale raised 0.1% the solve answers at the
    raised scale, unconverged with no lower bound, and with no finite scale
    it finds no power."""
    least = search._least
    target, tol = DistortionPair(0.1, 0.2), 1e-6
    scales = []
    for c12, factor in ((UNLIMITED, 1.001), (UNLIMITED, math.inf), (0.0, 1.001), (0.0, math.inf)):
        def unproven(*args, factor=factor, **kwargs):
            pt, scale, _ = least(*args, **kwargs)
            scales.append(scale * factor)
            return pt, scale * factor, False
        monkeypatch.setattr(search, "_least", unproven)
        scales.clear()
        if factor == math.inf:
            with pytest.raises(UnboundedError):
                min_power_symmetric(SRC, Scheme.VQ, target, c12=c12, tol=tol)
            continue
        res = min_power_symmetric(SRC, Scheme.VQ, target, c12=c12, tol=tol)
        [raised] = scales
        assert raised <= res.objective <= raised * (1.0 + tol), (c12, raised, res.objective)
        assert res.converged is False and res.bracket[0] == 0.0, (c12, res)


def test_finite_link_witness_least_power_lies_in_the_bracket():
    """A finite link's witness needs, by the full scheme's closed form, a
    least power in the bracket ``(lo, hi]``, whether the least-scale
    compass decided the answer or the unlimited slice did (``c12`` 1.5):
    a finite link's answer is at least that closed form at its witness,
    which can read a slice's point a few ulps higher.  Only the latter
    converges: the compass's least is not proven, and its bracket reaches
    down to the unlimited slice's proven bound."""
    for rho, target, c12, converged in ((0.5, DistortionPair(0.1, 0.2), 1.0, False),
                                        (0.8, DistortionPair(0.04, 0.2), 0.25, False),
                                        (0.5, DistortionPair(0.1, 0.2), 1.5, True)):
        res = min_power_symmetric(SourceSpec(1.0, rho), Scheme.VQ, target, c12=c12, tol=1e-6)
        point = (np.array([res.witness[k]]) for k in ("r1", "r2", "rc", "beta1", "beta2"))
        least = vqscheme._least_scale(1.0, rho, 1.0, 1.0, 1.0, target.d1, target.d2, *point)[0]
        lo, hi = res.bracket
        assert lo < least <= hi and res.converged is converged, (
            rho, c12, res.bracket, least)


def test_link_queries_do_not_depend_on_their_order():
    """Finite-link queries asked in ascending and in descending order of
    power give the same decisions and witnesses: a query's compass run
    stops where it meets the query's power, which does not change its
    path, and no query reads another's run."""
    src, target, c12 = SourceSpec(1.0, 0.3), DistortionPair(0.2, 0.1), 0.5
    answers = {}
    for powers in (np.linspace(8.5, 11.5, 13), np.linspace(11.5, 8.5, 13)):
        least = search._VqFeasibility().least
        for p in powers:
            power, cfg, _ = least(src, ChannelSpec(p, 2.0 * p, 1.0, c12), target, 2.0 * p)
            feasible = power <= 2.0 * p
            answers.setdefault(p, []).append((feasible, cfg if feasible else None))
    decided = [up[0] for up, _ in answers.values()]
    assert any(decided) and not all(decided)
    for p, (up, down) in answers.items():
        assert up == down, p


def test_min_conf_refuted_bracket_is_not_converged(monkeypatch):
    """A quantizer conference solve whose witness needs no more than the
    bracket's lower end reports that it did not converge; with a predicate
    that finds the witness wherever it holds, the solve converges."""
    unlimited = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(0.1, 0.2), tol=1e-6).witness
    cfg = vqscheme.VqConfig(*(unlimited[k] for k in ("r1", "r2", "rc", "beta1", "beta2")))
    need, _ = vqscheme.vq_conf_requirement(SRC, cfg)
    for missed in (0.3, 0.0):
        class Stub:  # finds the witness only ``missed`` bits above its requirement
            def least(self, src, ch, target, stop=None):
                if search.is_unlimited(ch.c12) or ch.c12 >= need + missed:
                    return 0.0, cfg, 0.0
                return math.inf, None, 0.0
        monkeypatch.setattr(search, "_VqFeasibility", Stub)
        res = min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.VQ,
                                DistortionPair(0.1, 0.2), tol=1e-6)
        assert res.bracket[0] < need + missed <= res.bracket[1]
        assert res.converged is (missed == 0.0), (missed, need, res)


# (d1, d2, c12, tol, objective, bracket, iterations, witness) of VQ solves at
# rho = 0.5: the four Fig. 3 VQ solves and one finite-link solve, each read
# from its runs with no bisection.  The four slice rows are the certified
# branch-and-bound's least powers, proven to their brackets, at its points:
# at ``c12 = inf`` each is a point ``(r2, rc)`` at its closed-form best
# split ``beta2``.  In the finite-link row the unlimited witness's shared
# rate (about 1.65 bits) exceeds the 1.16 bits the link carries and the
# no-conference slice needs 12.96, so the least-scale compass decides it,
# unconverged above the unlimited slice's proven bound.  Exact
# optimisations must keep every one of them bit for bit.
PINNED_VQ_SOLVES = (
    (0.2 * 0.2, 0.2, UNLIMITED, 1e-9,
     23.99238021631284, (23.99238021628883, 23.99238021631284), 0,
     {"r1": 0.0, "r2": 1.1139293151989023, "rc": 2.3148310660542393,
      "beta1": 1.0, "beta2": 0.8561289051846455,
      "d1": 0.04000000000004992, "d2": 0.20000000000019275}),
    (0.2 * 0.2, 0.2, 0.0, 1e-9,
     32.446769534802684, (32.446769534770226, 32.446769534802684), 0,
     {"r1": 2.3148310660542393, "r2": 1.1139293151989023, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.04000000000004992, "d2": 0.20000000000019275}),
    (1.0 * 0.2, 0.2, UNLIMITED, 1e-9,
     5.423282755529203, (5.423282755523779, 5.423282755529203), 0,
     {"r1": 0.0, "r2": 1.1245753695445728, "rc": 1.1245753695445728,
      "beta1": 1.0, "beta2": 0.3418464599917741,
      "d1": 0.20000000000021645, "d2": 0.20000000000021645}),
    (1.0 * 0.2, 0.2, 0.0, 1e-9,
     6.480237850832851, (6.48023785082637, 6.480237850832851), 0,
     {"r1": 1.1245753695445728, "r2": 1.1245753695445728, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.20000000000021645, "d2": 0.20000000000021645}),
    (0.1, 0.2, 1.0, 1e-6,
     10.290925437450392, (9.988136246437598, 10.290925437450392), 0,
     {"r1": 0.5777587890625, "r2": 1.1179741753472214, "rc": 1.065340170673986,
      "beta1": 0.731436767578125, "beta2": 0.6589573451450892,
      "d1": 0.099994002421637, "d2": 0.199999911693727}),
)


def test_vq_solves_match_pinned_results():
    for d1, d2, c12, tol, objective, bracket, iterations, witness in PINNED_VQ_SOLVES:
        res = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(d1, d2), c12=c12, tol=tol)
        assert (res.objective, res.bracket, res.iterations, res.witness) == (
            objective, bracket, iterations, witness), (d1, c12)


# (rho, d1, d2, c12, objective, slack) of finite-link vq solves at tol 1e-6
# that the least-scale compass decides: each is the complete compass run's
# least, unproven, at or below ``slack``, the answer of the max-min slack
# compass this search replaced, whose warm start carried its last point from
# query to query.
PINNED_LINK_SOLVES = (
    (0.8, 0.04, 0.2, 0.25, 15.21371990457309, 16.000015258789062),
    (0.5, 0.2, 0.1, 0.5, 11.531182933996115, 11.875007629394531),
    (0.3, 0.2, 0.1, 0.5, 14.619145194670955, 14.703132629394531),
    (0.8, 0.04, 0.2, 1.0, 12.547137944103975, 12.554840087890625),
)


def test_link_solves_match_pinned_results():
    for rho, d1, d2, c12, objective, slack in PINNED_LINK_SOLVES:
        res = min_power_symmetric(SourceSpec(1.0, rho), Scheme.VQ, DistortionPair(d1, d2),
                                  c12=c12, tol=1e-6)
        assert res.objective == objective <= slack, (rho, d1, d2, c12, res.objective)


# (rho, d1, d2, objective, alone) of vq solves at c12 = inf and tol 1e-9
# whose least-scale run over ``(r2, rc)`` ends without a proof: each
# objective is that run's least, below ``alone``, the answer of the old
# search over ``(r2, rc, beta)`` by itself.
PINNED_SECOND_OPINIONS = (
    (1.0, 0.9, 0.05, 4.749999999986158, 4.750136181712151),
    (0.97, 0.2, 0.2, 1.3494273732662352, 1.3494273778051138),
)


def test_unproven_unlimited_solves_match_pinned_results():
    for rho, d1, d2, objective, alone in PINNED_SECOND_OPINIONS:
        res = min_power_symmetric(SourceSpec(1.0, rho), Scheme.VQ, DistortionPair(d1, d2),
                                  c12=UNLIMITED, tol=1e-9)
        assert res.objective == objective < alone, (rho, d1, d2, res.objective)


# (d1, d2, c12, objective, bracket) of sep1 least-power solves at rho = 0.5,
# n0 = 1 and the default tol 1e-6, each its proven run's least, and
# (objective, bracket, iterations) of the sep1 least-link solve at P = 11.5,
# target (0.1, 0.2) and tol 1e-3.  Exact rewrites of the region and its
# closed-form least scale must keep them bit for bit.
PINNED_SEP1_SOLVES = (
    (0.04, 0.2, UNLIMITED, 23.992380216370858, (23.992380216346866, 23.992380216370858)),
    (0.04, 0.2, 1.0, 28.900673906819943, (28.90067390679104, 28.900673906819943)),
    (0.04, 0.2, 0.0, 46.54107825091191, (46.54107825086537, 46.54107825091191)),
    (0.2, 0.2, UNLIMITED, 5.423282755541945, (5.423282755536522, 5.423282755541945)),
    (0.2, 0.2, 1.0, 5.550716590822911, (5.550716590817361, 5.550716590822911)),
    (0.2, 0.2, 0.0, 9.03880459256803, (9.038804592558991, 9.03880459256803)),
)
PINNED_SEP1_MINCONF = (0.9482421875, (0.947265625, 0.9482421875), 10)


def test_sep1_solves_match_pinned_results():
    for d1, d2, c12, objective, bracket in PINNED_SEP1_SOLVES:
        res = min_power_symmetric(SRC, Scheme.SEP1, DistortionPair(d1, d2), c12=c12)
        assert (res.objective, res.bracket, res.iterations, res.converged) == (
            objective, bracket, 0, True), (d1, d2, c12)
    res = min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.SEP1,
                            DistortionPair(0.1, 0.2), tol=1e-3)
    assert (res.objective, res.bracket, res.iterations, res.converged) == (
        *PINNED_SEP1_MINCONF, True)


@pytest.mark.parametrize("c12", [UNLIMITED, 1.0])
def test_sep1_past_the_float_range_of_p1_p2(c12):
    """At d1 = 1e-300 the answer is near 1e300, where ``p1 p2`` overflows.
    sep1 still pays full cooperation's power times ``1 + 4^-c12``, the
    fixed-link high-SNR penalty, never less, and converges."""
    target = DistortionPair(1e-300, 0.2)
    full = min_power_symmetric(SRC, Scheme.FULL_COOP, target).objective
    res = min_power_symmetric(SRC, Scheme.SEP1, target, c12=c12)
    assert res.converged and res.objective >= full
    assert res.objective == pytest.approx(full * (1.0 + 4.0**-c12), rel=1e-5)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.8, 0.9])
def test_sep1_and_the_unlimited_quantizer_agree(rho):
    """With an unlimited link a separation scheme attains the optimal pairs
    (the paper's abstract), so sep1, searched over ``r1`` at its closed-form
    power split, is an independent oracle of vq-unlimited, searched over
    ``(r2, rc)`` at its closed-form coherence split: the two least-scale
    forms share no code, and their answers agree within 1e-8 relative."""
    src = SourceSpec(1.0, rho)
    for d in ((0.04, 0.2), (0.2, 0.2), (0.1, 0.2), (0.3, 0.9), (0.01, 0.5)):
        sep1, vq = (min_power_symmetric(src, scheme, DistortionPair(*d), c12=UNLIMITED,
                                        tol=1e-9).objective
                    for scheme in (Scheme.SEP1, Scheme.VQ))
        assert sep1 == pytest.approx(vq, rel=1e-8), (rho, d, sep1, vq)


def test_answers_lie_at_or_above_full_cooperation():
    """No scheme beats full cooperation, and the searches decide the exact
    problem up to the search hair: on a subset of the survey every vq, sep1
    and sep2 answer is at least full cooperation's power less the hair's
    allowance.  Distortions short by ``4^_LEAST_EPS`` lower the joint rate by
    at most ``2 _LEAST_EPS`` bits and a rate bound may miss by
    ``_LEAST_EPS``, so the floor is the power whose coherent sum capacity is
    the joint rate less ``3 _LEAST_EPS`` (at the parent's 1e-9-bit hair vq
    lay up to 4e-9 relative below full cooperation)."""
    eps = _opt._LEAST_EPS
    for rho in (0.0, 0.5, 0.9, 0.99, 0.999):
        src = SourceSpec(1.0, rho)
        for d in ((0.04, 0.2), (0.2, 0.2), (0.1, 0.2), (0.3, 0.9), (0.01, 0.5), (0.9, 0.05)):
            target = DistortionPair(*d)
            full = min_power_symmetric(src, Scheme.FULL_COOP, target).objective
            floor = ((1.0 + 4.0 * full) * 4.0 ** (-3.0 * eps) - 1.0) / 4.0
            for scheme, c12 in ((Scheme.VQ, UNLIMITED), (Scheme.VQ, 0.5), (Scheme.SEP1, UNLIMITED),
                                (Scheme.SEP2, UNLIMITED)):
                p = min_power_symmetric(src, scheme, target, c12=c12, tol=1e-9).objective
                assert p >= floor, (scheme, c12, rho, d, p, full)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the necessary condition takes "
                                       "varrho >= rho, so it is not an outer bound")
def test_necessary_lies_at_or_below_sep1():
    """An outer bound lies at or below every achievable scheme.  At d =
    (0.9, 0.05) sep1's re-validated witnesses are achievable at 18.113,
    16.479 and 12.005 for rho 0.3, 0.5 and 0.8, where the necessary
    condition answers 18.901, 18.667 and 17.222."""
    for rho in (0.3, 0.5, 0.8):
        src, target = SourceSpec(1.0, rho), DistortionPair(0.9, 0.05)
        necessary = min_power_symmetric(src, Scheme.NECESSARY, target).objective
        sep1 = min_power_symmetric(src, Scheme.SEP1, target, tol=1e-9).objective
        assert necessary <= sep1, (rho, necessary, sep1)


# (P/N, objective, bracket) of min_d1_unlimited at rho = 0.5, d2 = 0.2, n0 = 1:
# the d1d2-vs-snr trace's solves, each a proven least-d1 branch-and-bound.
# Exact optimisations must keep them bit for bit.
PINNED_D1_SOLVES = (
    (1e2, 0.009424814851771508, (0.009424814851762083, 0.009424814851771508)),
    (1e4, 9.375488377807817e-05, (9.375488377798441e-05, 9.375488377807817e-05)),
    (1e6, 9.375004882798017e-07, (9.375004882788642e-07, 9.375004882798017e-07)),
    (1e8, 9.375000048811076e-09, (9.3750000488017e-09, 9.375000048811076e-09)),
)


def test_min_d1_solves_match_pinned_results():
    for snr, objective, bracket in PINNED_D1_SOLVES:
        res = min_d1_unlimited(SRC, ChannelSpec(snr, snr, 1.0), 0.2)
        assert (res.objective, res.bracket, res.converged) == (objective, bracket, True), snr


@pytest.mark.parametrize("rho", [0.5, 0.97])
@pytest.mark.parametrize("snr", [1e2, 1e4])
def test_min_d1_unlimited_against_grid_oracle(rho, snr):
    """A dense grid zoom over the readable unlimited region finds no point
    at ``d2 = 0.2`` whose ``d1`` is 1e-6 below the least ``d1``, and finds
    one 1e-4 above it.  At rho 0.97 the optimum sits at ``r2 = 0``, which
    the coarser grid of the power oracle steps past."""
    src, ch = SourceSpec(1.0, rho), ChannelSpec(snr, snr, 1.0, UNLIMITED)
    res = min_d1_unlimited(src, ch, 0.2)
    assert res.converged
    rate_cap = 0.5 * math.log2(1.0 + 4.0 * snr) + 1.0  # min_d1_unlimited's box
    for d1, feasible in ((res.objective * (1.0 - 1e-6), False),
                         (res.objective * (1.0 + 1e-4), True)):
        slack = _unlimited_reference(src, ch, DistortionPair(d1, 0.2))
        best = _grid_zoom_max(slack, (rate_cap, rate_cap), rounds=32, n=65)
        assert (best >= _opt.SLACK_TOL) == feasible, (d1, best)


def _min_d1_witness_holds(src, ch, res, d2):
    r2, rc, beta = (res.witness[k] for k in ("r2", "rc", "beta"))
    report, achieved = vqscheme.vq_unlimited_region(src, ch, r2, rc, beta)
    assert min(report.slacks.values()) >= _opt.SLACK_TOL
    assert achieved.d1 <= res.objective * (1.0 + 1e-8) and achieved.d2 <= d2 * (1.0 + 1e-8)


# (p1, p2, d2, answer) of min_d1_unlimited at rho = 1 and n0 = 1 before its
# least-d1 run also split the best centres of a capped round: the run's
# answer or, where lower, the bisection by slack-search queries that
# followed an unproven run
RHO_ONE_D1_BEFORE = (
    (1e2, 1e2, 0.05, 0.0024937730297739653), (1e2, 1e2, 0.2, 0.0024937730297739653),
    (1e4, 1e4, 0.05, 2.4999406879838018e-05), (1e4, 1e4, 0.2, 2.4999406879838018e-05),
    (1e6, 1e6, 0.05, 2.499999479658055e-07), (1e6, 1e6, 0.2, 2.499999479658055e-07),
    (1e8, 1e8, 0.05, 2.500000079984313e-09), (1e8, 1e8, 0.2, 2.500000079984313e-09),
    (1e2 / 3.0, 3e2, 0.05, 0.001871492763626711),
    (1e4 / 3.0, 3e4, 0.05, 1.8749662954104482e-05),
    (1e6 / 3.0, 3e6, 0.05, 1.8749996853447596e-07),
    (1e8 / 3.0, 3e8, 0.05, 1.8749999548504657e-09),
)


def test_min_d1_at_rho_one_against_its_closed_form():
    """At rho 1 the least ``d1`` is ``n0/(n0 + (sqrt p1 + sqrt p2)^2)``
    whatever ``d2``: the run ends without a proof, lands within 1e-7 of it
    and never above the earlier answer where that lay above it (both lie
    2e-8 below it at P = (1e8/3, 3e8), within the slack tolerance there),
    and its witness re-validates."""
    src = SourceSpec(1.0, 1.0)
    for p1, p2, d2, before in RHO_ONE_D1_BEFORE:
        ch = ChannelSpec(p1, p2, 1.0)
        res = min_d1_unlimited(src, ch, d2)
        exact = 1.0 / (1.0 + (math.sqrt(p1) + math.sqrt(p2)) ** 2)
        assert not res.converged and res.iterations == 0 and res.bracket == (0.0, res.objective)
        assert res.objective == pytest.approx(exact, rel=1e-7), (p1, p2, d2)
        assert res.objective <= max(before, exact), (p1, p2, d2)
        _min_d1_witness_holds(src, ch, res, d2)


def test_min_d1_proves_the_high_correlation_ridge():
    """At rho 0.97, P/N = 1e4 and d2 = 0.05, where the search over ``(r2,
    rc, beta)`` ended without a proof at 2.95862e-5 and its bisection at
    2.95613e-5, the search over ``(r2, rc)`` at the closed-form split ends
    with a proof, lower."""
    src, ch = SourceSpec(1.0, 0.97), ChannelSpec(1e4, 1e4, 1.0)
    res = min_d1_unlimited(src, ch, 0.05)
    assert res.converged and res.iterations == 0
    assert res.objective < 2.95613e-5 and res.objective == pytest.approx(2.95613e-5, rel=1e-5)
    _min_d1_witness_holds(src, ch, res, 0.05)
