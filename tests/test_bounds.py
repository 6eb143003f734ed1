import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, DomainError, SourceSpec
from confmac import bounds
from confmac.bounds import (
    RegimeError,
    compare_threshold,
    high_snr_quantities,
    maxcorr_linear_maps,
    necessary_condition,
    semi_symmetric_product,
)
from confmac.rdlib import rd_conditional, rd_joint


def test_necessary_infeasible_at_unit_power():
    src = SourceSpec(1.0, 0.5)
    report = necessary_condition(src, ChannelSpec(1, 1, 1), DistortionPair(0.2, 0.2))
    assert not report.feasible
    # even full coherence cannot carry the joint rate: bound tops out at (1/2)log2(5)
    assert rd_joint(src, DistortionPair(0.2, 0.2)) > 0.5 * math.log2(5.0)


def test_necessary_feasible_with_enough_power():
    src = SourceSpec(1.0, 0.5)
    target = DistortionPair(0.2, 0.2)
    report = necessary_condition(src, ChannelSpec(8.0, 8.0, 1.0), target)
    assert report.feasible
    beta = report.witness["beta"]
    assert 0.0 <= beta <= 1.0
    # the private bound is tight at the returned split (interior crossing)
    assert report.slacks["cond_rate"] == pytest.approx(0.0, abs=1e-9)


def test_necessary_split_matches_bisection_reference():
    rng = np.random.default_rng(5)
    interior = nudged = 0
    for _ in range(3000):
        src = SourceSpec(1.0, float(rng.uniform(0.0, 0.99)))
        ch = ChannelSpec(1.0, float(rng.uniform(0.1, 20.0)), float(rng.uniform(0.2, 5.0)))
        target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
        need = rd_conditional(src, target.d2)
        if not bounds._private_bound(src, ch, 1.0) < need <= bounds._private_bound(src, ch, 0.0):
            continue
        interior += 1
        lo, hi = 0.0, 1.0  # private bound >= need at lo, < need at hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bounds._private_bound(src, ch, mid) >= need:
                lo = mid
            else:
                hi = mid
        naive = 1.0 - (4.0**need - 1.0) * ch.n0 / (ch.p2 * (1.0 - src.rho**2))
        nudged += bounds._private_bound(src, ch, naive) < need
        report = necessary_condition(src, ch, target)
        assert report.slacks["cond_rate"] >= 0.0
        assert abs(report.witness["beta"] - lo) <= 1e-12
    assert interior > 1000 and nudged > 0  # the rounding guard is exercised
    # at the edge of the interior branch the formula can round to beta < 0
    src = SourceSpec(1.0, 0.5)
    edge = 0
    for p2 in np.linspace(0.5, 20.0, 40):
        ch = ChannelSpec(1.0, float(p2), 1.0)
        d2 = 0.75 / (1.0 + 0.75 * float(p2))  # full private power just carries d2
        if rd_conditional(src, d2) > bounds._private_bound(src, ch, 0.0):
            continue
        edge += 1
        report = necessary_condition(src, ch, DistortionPair(0.5, d2))
        assert 0.0 <= report.witness["beta"] <= 1.0
        assert report.slacks["cond_rate"] >= 0.0
    assert edge > 10


def _necessary_bisection(src, target, n0):
    """``(lo, hi)``: the bracket, at most 1e-12 relative, of a bisection
    over :func:`necessary_condition` at symmetric powers, doubling from
    ``n0``: infeasible at ``lo``, feasible at ``hi``."""
    def feasible(p):
        return necessary_condition(src, ChannelSpec(p, p, n0), target).feasible
    lo, hi = 0.0, n0
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return lo, hi


def test_necessary_least_power_lies_in_the_bisection_bracket():
    """The closed-form least power, stepped to the least float at which the
    test holds, lies inside the bracket of a bisection over the test, from
    rho 0 to 1 and d1 down to 1e-150, at two noise powers; the float below
    it fails the test.  Its ``floor`` raises it and keeps the test true."""
    for rho in (0.0, 0.3, 0.5, 0.8, 0.9, 0.99, 1.0):
        src = SourceSpec(1.0, rho)
        for d1 in (0.9, 0.2, 0.04, 1e-5, 1e-20, 1e-150):
            for d2, n0 in ((0.05, 1.0), (0.2, 4.0), (0.9, 0.5)):
                target = DistortionPair(d1, d2)
                p, report = bounds.necessary_least_power(src, target, n0)
                lo, hi = _necessary_bisection(src, target, n0)
                assert lo < p <= hi and report.feasible, (rho, d1, d2, n0, lo, p, hi)
                below = ChannelSpec(math.nextafter(p, 0.0), math.nextafter(p, 0.0), n0)
                assert not necessary_condition(src, below, target).feasible
                raised, report = bounds.necessary_least_power(src, target, n0, floor=2.0 * p)
                assert raised == 2.0 * p and report.feasible


def test_necessary_bound_monotonicities():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(2.0, 3.0, 1.0)
    betas = np.linspace(0, 1, 101)
    first = [bounds._coherent_sum_bound(src, ch, float(b)) for b in betas]
    second = [bounds._private_bound(src, ch, float(b)) for b in betas]
    assert all(a <= b + 1e-12 for a, b in zip(first, first[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(second, second[1:]))


def test_necessary_zero_rho_uses_full_private_power():
    src = SourceSpec(1.0, 0.0)
    ch = ChannelSpec(1.0, 1.0, 1.0)
    report = necessary_condition(src, ChannelSpec(1, 1, 1), DistortionPair(0.9, 0.45))
    need = rd_conditional(src, 0.45)
    # at beta = 0 the private bound uses all of P2
    assert bounds._private_bound(src, ch, 0.0) == pytest.approx(0.5 * math.log2(2.0))
    assert report.slacks["cond_rate"] >= -1e-12 or need > bounds._private_bound(src, ch, 0.0)


def test_maxcorr_full_coherence_is_deterministic():
    est = maxcorr_linear_maps(SourceSpec(1.0, 0.5), beta=1.0, sample_count=20_000, seed=1)
    assert est.corr == pytest.approx(1.0, abs=1e-12)
    assert est.cond_var == pytest.approx(0.0, abs=1e-12)


def test_maxcorr_independent_case():
    est = maxcorr_linear_maps(SourceSpec(1.0, 0.0), beta=0.0, sample_count=200_000, seed=2)
    assert abs(est.corr) <= 3 * est.corr_se
    assert abs(est.cond_var - 1.0) <= 3 * est.cond_var_se
    assert abs(est.mean1) <= 5e-3 and abs(est.mean2) <= 5e-3
    assert est.var1 == pytest.approx(1.0, abs=2e-2)
    assert est.var2 == pytest.approx(1.0, abs=2e-2)


def test_maxcorr_matches_closed_form():
    est = maxcorr_linear_maps(SourceSpec(1.0, 0.5), beta=0.5, sample_count=1_000_000, seed=3)
    assert abs(est.corr - math.sqrt(0.625)) <= 3 * est.corr_se
    assert abs(est.cond_var - 0.5 * 0.75) <= 3 * est.cond_var_se


def test_maxcorr_deterministic_across_threads(monkeypatch):
    src = SourceSpec(1.0, 0.4)
    monkeypatch.setenv("GMAC_THREADS", "1")
    a = maxcorr_linear_maps(src, 0.3, 150_000, seed=5)
    monkeypatch.setenv("GMAC_THREADS", "3")
    b = maxcorr_linear_maps(src, 0.3, 150_000, seed=5)
    assert a == b


def test_maxcorr_beta_sequence_matches_single_calls():
    """A sequence of betas shares one stream; each estimate is bit for bit
    the one-beta call's (three chunks, so the chunk combine is covered)."""
    betas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for rho in (0.0, 0.3, 0.95):
        src = SourceSpec(1.0, rho)
        shared = maxcorr_linear_maps(src, betas, 150_000, seed=12)
        assert isinstance(shared, tuple) and len(shared) == len(betas)
        for beta, est in zip(betas, shared):
            assert est == maxcorr_linear_maps(src, beta, 150_000, seed=12)  # every field
    assert maxcorr_linear_maps(SourceSpec(1.0, 0.3), [0.5], 20_000, seed=1) == (
        maxcorr_linear_maps(SourceSpec(1.0, 0.3), 0.5, 20_000, seed=1),)
    with pytest.raises(DomainError, match="^beta: "):
        maxcorr_linear_maps(SourceSpec(1.0, 0.3), (0.5, 1.5), 20_000, seed=1)


def test_high_snr_quantities_unlimited():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(1000.0, 1000.0, 1.0, UNLIMITED)
    target = DistortionPair(0.1, 0.2)
    q = high_snr_quantities(src, ch, target)
    expected = math.sqrt(1.0 - 0.75 / (0.2 * 1000.0))
    assert q.varrho_inf == pytest.approx(expected, abs=1e-15)
    assert q.varrho_sep1 == q.varrho_inf
    assert q.varrho_sep1_fixed == q.varrho_inf  # 2^-2C -> 0
    assert q.check_rho == 0.5
    assert q.d1d2_limit == pytest.approx(
        0.75 / (2000.0 + 2000.0 * expected), abs=1e-15)


def test_high_snr_regime_error():
    src = SourceSpec(1.0, 0.5)
    with pytest.raises(RegimeError):
        high_snr_quantities(src, ChannelSpec(1.0, 1.0, 1.0), DistortionPair(0.2, 0.2))


def test_check_rho_range():
    src = SourceSpec(1.0, 0.7)
    ch = ChannelSpec(1e4, 1e4, 1.0, 1.0)
    q = high_snr_quantities(src, ch, DistortionPair(0.1, 0.1))
    assert 0.0 < q.check_rho < 0.7
    q0 = high_snr_quantities(src, ChannelSpec(1e4, 1e4, 1.0, 0.0), DistortionPair(0.1, 0.1))
    assert q0.check_rho == 0.0


def test_compare_threshold():
    for c in (0.25, 0.5, 1.0, 2.0, 3.0):
        assert compare_threshold(c, 4.0**-c) == 1.0
    assert compare_threshold(1.0, 1.0) == pytest.approx(2 * 0.5 / 1.25, abs=1e-15)


def test_vq_beats_sep1_below_threshold():
    d2 = 0.2
    for c in (0.5, 1.0, 2.0):
        for alpha in (0.25, 0.5, 1.0):
            threshold = compare_threshold(c, alpha)
            for frac in (0.3, 0.6, 0.9):
                rho = frac * threshold
                if not 0.0 < rho < 0.98:
                    continue
                src = SourceSpec(1.0, rho)
                p = 1000.0 / min(alpha * d2, d2)  # regime proxy 1e-3
                q = high_snr_quantities(
                    src, ChannelSpec(p, p, 1.0, c), DistortionPair(alpha * d2, d2))
                assert q.varrho_vq_lower > q.varrho_sep1_fixed


def test_semi_symmetric_prediction():
    value = semi_symmetric_product(0.5, 1e4, 1.0, 0.2)
    radicand = 1.0 - 0.75 / 2000.0
    assert value == pytest.approx(
        (1.0 / 2e4) * 0.75 / (1.0 + math.sqrt(radicand)), abs=1e-18)
    # deep in the regime the product approaches N(1-rho^2)/(4P)
    deep = semi_symmetric_product(0.5, 1e9, 1.0, 0.2)
    assert deep == pytest.approx(0.75 / 4e9, rel=1e-5)


def test_achievable_over_necessary_ratio_approaches_one():
    """The scheme's best product converges to the outer bound's binding value."""
    from confmac.search import min_d1_unlimited

    src = SourceSpec(1.0, 0.5)
    d2 = 0.2
    for p, tol in ((1e4, 0.05), (1e5, 0.02), (1e6, 0.01)):
        ch = ChannelSpec(p, p, 1.0, UNLIMITED)
        achieved = min_d1_unlimited(src, ch, d2).objective * d2

        lo, hi = 1e-12, 1.0  # smallest d1 the outer bound allows at this d2
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if necessary_condition(src, ch, DistortionPair(mid, d2)).feasible:
                hi = mid
            else:
                lo = mid
        necessary_product = hi * d2
        assert achieved / necessary_product == pytest.approx(1.0, abs=tol)
        assert achieved >= necessary_product * (1.0 - 1e-9)
