import math

import numpy as np
import pytest

from confmac.model import (UNLIMITED, ChannelSpec, DistortionPair, RatePoint, SourceSpec,
                           is_unlimited)
from confmac import _opt, capacity, rdlib, separation
from confmac.search import Scheme, min_power_symmetric
from confmac.separation import sep1_feasible, sep2_feasible


def test_sep1_trivial_target():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(0.01, 0.01, 1.0, UNLIMITED)
    report = sep1_feasible(src, ch, DistortionPair(1.0, 1.0))
    assert report.feasible


def test_sep1_unit_d2_power_threshold():
    """With the loose second component, feasibility flips at d1 = N/(N + 4P)."""
    src = SourceSpec(1.0, 0.5)
    p = 3.0
    d1_star = 1.0 / (1.0 + 4.0 * p)
    ch = ChannelSpec(p, p, 1.0, UNLIMITED)
    assert sep1_feasible(src, ch, DistortionPair(d1_star * 1.02, 1.0)).feasible
    assert not sep1_feasible(src, ch, DistortionPair(d1_star * 0.97, 1.0)).feasible


def sep1_grid_oracle(src, ch, target, n=120):
    """Dense (r1, r2, beta) brute force over the two regions."""
    gamma = 1.0 + math.sqrt(
        1.0 + 4.0 * src.rho**2 * target.d1 * target.d2 / (1.0 - src.rho**2) ** 2)
    rmax = 0.5 * math.log2(max((1 - src.rho**2) * gamma / (2 * target.d1 * target.d2), 2.0)) + 2.0
    for r1 in np.linspace(0.0, rmax, n):
        for r2 in np.linspace(0.0, rmax, n):
            rp = RatePoint(float(r1), float(r2))
            if not rdlib.wagner_contains(src, target, rp).feasible:
                continue
            for beta in np.linspace(0.0, 1.0, 101):
                report = capacity.mac_conf_contains(ch, rp, capacity.MacPowerSplit(1.0, beta))
                if min(report.slacks.values()) >= 0:
                    return True
    return False


def test_sep1_matches_grid_oracle_near_threshold():
    src = SourceSpec(1.0, 0.5)
    target = DistortionPair(0.2, 0.2)
    for p, expected in ((5.3, False), (5.6, True)):
        ch = ChannelSpec(p, p, 1.0, UNLIMITED)
        assert sep1_feasible(src, ch, target).feasible == expected
        assert sep1_grid_oracle(src, ch, target) == expected


def test_sep1_witness_revalidates():
    src = SourceSpec(1.0, 0.5)
    for c12 in (UNLIMITED, 1.5):
        ch = ChannelSpec(8.0, 8.0, 1.0, c12)
        report = sep1_feasible(src, ch, DistortionPair(0.2, 0.2))
        assert report.feasible
        rp = RatePoint(report.witness["r1"], report.witness["r2"])
        source = rdlib.wagner_contains(src, DistortionPair(0.2, 0.2), rp)
        assert min(source.slacks.values()) >= -1e-9
        channel = capacity.mac_conf_contains(
            ch, rp, capacity.MacPowerSplit(report.witness["beta1"], report.witness["beta2"]))
        assert min(channel.slacks.values()) >= -1e-9
        if c12 is UNLIMITED:  # the link carries all of r1: full coherence on its side
            assert report.witness["beta1"] == 1.0


SEP1_LINKS = (0.0, 0.5, 2.0, UNLIMITED)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
def test_sep1_bound_holds_over_its_boxes(rho):
    """No point of a random sub-box of scheme 1's ``r1`` axis, ends
    included, needs a lower scale of the powers than the box's least-scale
    bound less the relative rounding margin."""
    rng = np.random.default_rng(int(100 * rho))
    src = SourceSpec(1.0, rho)
    for p1, p2, n0 in ((1.0, 1.0, 1.0), (1.0, 0.05, 2.0), (0.02, 1.0, 0.5)):
        for c12 in SEP1_LINKS:
            target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
            evaluate = separation._sep1_least(src, ChannelSpec(p1, p2, n0, c12), target)
            m = 400
            lo = rng.uniform(0.0, 12.0, (m, 1))
            up = lo + 12.0 * 2.0 ** rng.uniform(-30.0, 0.0, (m, 1))
            floor = evaluate(lo, 0.5 * (lo + up), up)[1] * (1.0 - _opt._LEAST_MARGIN)
            for k in range(8):
                u = rng.uniform(0.0, 1.0, (m, 1))
                if k < 2:
                    u = np.round(u)
                pts = lo + u * (up - lo)
                assert np.all(evaluate(pts, pts, pts)[0] >= floor), (rho, p1, p2, n0, c12)


def test_sep1_box_grows_past_its_first_rate_side():
    """Where the second encoder's power is a millionth of the first's, the
    least needs ``r1`` of 9.7 bits, past the first box's 4.6: the box grows
    until the bound beyond it is no lower than the least, and no point of a
    grid out to 40 bits needs less."""
    src, target = SourceSpec(1.0, 0.5), DistortionPair(0.1, 0.2)
    ch = ChannelSpec(1.0, 1e-6, 1.0)
    least, (r1, _), floor = separation._sep1_run(src, ch, target)
    first = max(rdlib.wagner_sum_bound(src, target), 0.5 * math.log2(1.0 / target.d1)) + 2.0
    assert floor > 0.0 and r1 > first + 5.0, (r1, first)
    pts = np.linspace(0.0, 40.0, 400001)[:, None]
    evaluate = separation._sep1_least(src, ch, target)
    assert evaluate(pts, pts, pts)[0].min() >= least * (1.0 - 1e-12)


def test_sep1_no_conference_equals_plain_mac_pipeline():
    rng = np.random.default_rng(0)
    for _ in range(100):
        src = SourceSpec(1.0, float(rng.uniform(0.0, 0.9)))
        ch = ChannelSpec(*(float(v) for v in rng.uniform(0.3, 6.0, 3)), 0.0)
        target = DistortionPair(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        got = sep1_feasible(src, ch, target).feasible

        # oracle: trace the source boundary, check plain MAC membership
        c1 = 0.5 * math.log2(1 + ch.p1 / ch.n0)
        c2 = 0.5 * math.log2(1 + ch.p2 / ch.n0)
        csum = 0.5 * math.log2(1 + (ch.p1 + ch.p2) / ch.n0)
        r1 = np.linspace(0.0, csum + 0.5, 2000)
        r2 = separation._wagner_boundary(src, target, r1)
        ok = np.isfinite(r2) & (r1 <= c1) & (r2 <= c2) & (r1 + r2 <= csum)
        expected = bool(ok.any())
        assert got == expected, (src.rho, ch, target)


def test_sep1_monotone_in_capacity_and_power():
    src = SourceSpec(1.0, 0.5)
    target = DistortionPair(0.1, 0.25)
    feas = []
    for c12 in (0.0, 0.5, 2.0, UNLIMITED):
        feas.append(sep1_feasible(src, ChannelSpec(4.0, 4.0, 1.0, c12), target).feasible)
    assert feas == sorted(feas)  # once feasible, stays feasible as c12 grows

    for p_lo, p_hi in ((2.0, 4.0), (4.0, 8.0)):
        lo = sep1_feasible(src, ChannelSpec(p_lo, p_lo, 1.0, UNLIMITED), target).feasible
        hi = sep1_feasible(src, ChannelSpec(p_hi, p_hi, 1.0, UNLIMITED), target).feasible
        assert hi >= lo


def test_sep2_trivial_target():
    src = SourceSpec(1.0, 0.5)
    report = sep2_feasible(src, ChannelSpec(0.01, 0.01, 1.0, 0.0), DistortionPair(1, 1))
    assert report.feasible


def test_sep2_zero_rho_decouples():
    """Independent components: the pipeline reduces to per-user rate checks."""
    src = SourceSpec(1.0, 0.0)
    ch = ChannelSpec(2.0, 2.0, 1.0, 0.0)
    c1 = 0.5 * math.log2(3.0)
    # comfortably inside: need about 0.5 bits each
    assert sep2_feasible(src, ch, DistortionPair(0.5, 0.5)).feasible
    # sum demand 2*c1 exceeds the MAC sum bound log2(5)/2
    d = 2.0 ** (-2 * c1) * 1.02
    assert not sep2_feasible(src, ch, DistortionPair(d, d)).feasible


def test_sep2_witness_revalidates():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(12.0, 12.0, 1.0, UNLIMITED)
    target = DistortionPair(0.2, 0.2)
    report = sep2_feasible(src, ch, target)
    assert report.feasible
    kp = rdlib.KaspiParams(report.witness["sw2"], report.witness["su2"],
                           report.witness["sv2"])
    point = rdlib.kaspi_region_point(src, kp)
    assert point.achieved.d1 <= target.d1 * (1 + 1e-6)
    assert point.achieved.d2 <= target.d2 * (1 + 1e-6)
    rp = RatePoint(report.witness["r1"], report.witness["r2"])
    plain = capacity.mac_conf_contains(ChannelSpec(ch.p1, ch.p2, ch.n0, 0.0), rp,
                                       capacity.MacPowerSplit(0.0, 0.0))
    assert min(plain.slacks.values()) >= -1e-9
    assert rp.r1 >= point.r1_bound - 1e-9
    assert rp.r2 >= point.r2_bound - 1e-9
    assert rp.r1 + rp.r2 >= point.rsum_bound - 1e-9


def test_sep2_respects_conference_bound():
    src = SourceSpec(1.0, 0.9)
    target = DistortionPair(0.05, 0.6)
    generous = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, UNLIMITED), target)
    assert generous.feasible
    choked = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, 0.0), target)
    loose = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, 10.0), target)
    assert loose.feasible
    assert choked.feasible <= loose.feasible


def test_sep2_monotone_in_distortion():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(6.0, 6.0, 1.0, UNLIMITED)
    tight = sep2_feasible(src, ch, DistortionPair(0.15, 0.15)).feasible
    loose = sep2_feasible(src, ch, DistortionPair(0.3, 0.3)).feasible
    assert loose >= tight


SEP2_LINKS = (0.0, 0.5, 2.0, UNLIMITED)


def _sep2_reference(src, ch, target, iw, iu, iv):
    """Scheme 2's worst slack at inverse ratios ``(iw, iu, iv)`` over all
    three auxiliaries, the conference bound included."""
    c12b, r1b, r2b, rsb, d1, d2 = rdlib._kaspi_arrays(src.rho, iw, iu, iv)
    c1, c2, csum = (0.5 * math.log2(1.0 + p / ch.n0) for p in (ch.p1, ch.p2, ch.p1 + ch.p2))
    slacks = [0.5 * np.log2(target.d1 / d1), 0.5 * np.log2(target.d2 / d2),
              c1 - r1b, c2 - r2b, csum - rsb, csum - (r1b + r2b)]
    if not is_unlimited(ch.c12):
        slacks.append(ch.c12 - c12b)
    return np.min(np.broadcast_arrays(*slacks), axis=0)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99, 1.0])
def test_sep2_bound_holds_over_its_boxes(rho):
    """No point of a random sub-box of ``[0, 1]^2``, corners included, needs
    a lower scale of the powers than the box's least-scale bound less the
    relative rounding margin."""
    rng = np.random.default_rng(int(100 * rho))
    src = SourceSpec(1.0, rho)
    for p1, p2, n0 in ((1.0, 1.0, 1.0), (12.0, 3.0, 0.5), (0.01, 100.0, 2.0), (1e4, 1e4, 1.0)):
        for c12 in SEP2_LINKS:
            target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
            evaluate = separation._sep2_least(src, ChannelSpec(p1, p2, n0, c12), target)
            m = 400
            lo = rng.uniform(0.0, 1.0, (m, 2))
            up = np.minimum(lo + 2.0 ** rng.uniform(-30.0, 0.0, (m, 2)), 1.0)
            floor = evaluate(lo, 0.5 * (lo + up), up)[1] * (1.0 - _opt._LEAST_MARGIN)
            for k in range(8):
                u = rng.uniform(0.0, 1.0, (m, 2))
                if k < 2:
                    u = np.round(u)
                pts = lo + u * (up - lo)
                assert np.all(evaluate(pts, pts, pts)[0] >= floor), (rho, p1, p2, n0, c12)


def _reference_least_scale(src, ch, target, iw, iu, iv):
    """Least common scale of ``ch``'s powers at which the ratios ``(iw, iu,
    iv)`` meet the target through the plain MAC's three bounds: +inf where
    a distortion misses it or the conference bound exceeds the link."""
    c12b, r1b, r2b, rsb, d1, d2 = rdlib._kaspi_arrays(src.rho, iw, iu, iv)
    scale = ch.n0 * np.maximum.reduce([(4.0**r1b - 1.0) / ch.p1, (4.0**r2b - 1.0) / ch.p2,
                                       (4.0**np.maximum(rsb, r1b + r2b) - 1.0) / (ch.p1 + ch.p2)])
    met = (d1 <= target.d1) & (d2 <= target.d2)
    if not is_unlimited(ch.c12):
        met &= c12b <= ch.c12
    return np.where(met, scale, np.inf)


def test_sep2_reduction_is_never_worse():
    """At random ratios ``(iw, iu, iv)`` whose conference bound fits the
    link, the searched point ``(s = iw + iv, iu)`` needs no higher scale of
    the powers."""
    rng = np.random.default_rng(3)
    for rho in (0.0, 0.5, 0.99, 1.0):
        src = SourceSpec(1.0, rho)
        for c12 in SEP2_LINKS:
            ch = ChannelSpec(*rng.uniform(0.5, 50.0, 2), 1.0, c12)
            target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
            iw, iu, iv = np.where(rng.uniform(size=(3, 4000)) < 0.2, 0.0,
                                  10.0 ** rng.uniform(-8.0, 7.5, (3, 4000)))
            fits = is_unlimited(c12) or 0.5 * np.log2(1.0 + (1.0 - rho**2) * iw) <= c12
            fits = np.broadcast_to(fits, iw.shape)
            assert fits.sum() >= 800, (rho, c12)
            s = iw + iv
            with np.errstate(divide="ignore"):
                z = np.stack([np.where(r > 0.0, (8.0 - np.log10(r)) / 16.0, 1.0) for r in (s, iu)],
                             axis=1)
            evaluate = separation._sep2_least(src, ch, target)
            old = _reference_least_scale(src, ch, target, iw, iu, iv)
            assert np.isfinite(old[fits]).sum() >= 80, (rho, c12)
            pts = z[fits]
            assert np.all(evaluate(pts, pts, pts)[0] <= old[fits] * (1.0 + 1e-9)), (rho, c12)


def test_sep2_minimum_against_grid_oracle():
    """A 2001^2 grid over ``(s, iu)`` at ``c12 = inf`` finds a feasible
    point at P = 9.10, below the multistart search's former answer 9.1617,
    and none just below the certified minimum."""
    src, target = SourceSpec(1.0, 0.5), DistortionPair(0.2, 0.2)
    res = min_power_symmetric(src, Scheme.SEP2, target, tol=1e-9)
    ratios = 10.0 ** (8.0 - 16.0 * np.linspace(0.0, 1.0, 2001))
    ratios[-1] = 0.0

    def best(p):
        ch = ChannelSpec(p, p, 1.0, UNLIMITED)
        return max(float(_sep2_reference(src, ch, target, ratios[i:i + 200, None],
                                         ratios[None, :], 0.0).max())
                   for i in range(0, ratios.size, 200))
    assert res.objective < 9.10
    assert best(9.10) >= _opt.SLACK_TOL
    assert best(res.bracket[0] * (1.0 - 1e-6)) < _opt.SLACK_TOL


@pytest.mark.parametrize("c12", [0.0, 0.5, UNLIMITED])
def test_sep2_matches_closed_form_at_zero_rho(c12):
    """Independent components need ``P/N = max((1/(d1 d2) - 1)/2, 1/(d1
    4^c12) - 1, 1/d2 - 1)``.  At ``rho = 0`` the conference description
    carries ``c12`` of the first component's ``(1/2)log2(1/d1)`` bits and
    either encoder may send it, so only the rest binds the first user.  The
    sum, first and second rate bounds bind in turn at ``c12 = 0``."""
    tol = 1e-7
    link = math.inf if is_unlimited(c12) else c12
    for d1, d2 in ((0.1, 0.2), (0.3, 0.9), (0.9, 0.05)):
        closed = max((1.0 / (d1 * d2) - 1.0) / 2.0, 1.0 / (d1 * 4.0**link) - 1.0, 1.0 / d2 - 1.0)
        p = min_power_symmetric(SourceSpec(1.0, 0.0), Scheme.SEP2, DistortionPair(d1, d2),
                                c12=c12, tol=tol).objective
        assert p == pytest.approx(closed, rel=tol), (d1, d2, c12)


# certified sep2 minima at d2 = 0.2, n0 = 1, tol 1e-9, keyed (rho, alpha): the
# same at c12 = inf and 0.5.  Each lies below the multistart search's former answer.
PINNED_SEP2 = {
    (0.3, 0.2): 56.42440739274025, (0.3, 0.5): 22.299343436956406,
    (0.3, 1.0): 10.924237377941608, (0.5, 0.2): 46.5410780608654,
    (0.5, 0.5): 18.415210887789726, (0.5, 1.0): 9.038804553449154,
    (0.8, 0.2): 22.85629992187023, (0.8, 0.5): 9.315072871744633,
    (0.8, 1.0): 4.760398626327515,
}


@pytest.mark.parametrize("c12", [UNLIMITED, 0.5])
def test_sep2_pinned_minima(c12):
    for (rho, alpha), pinned in PINNED_SEP2.items():
        p = min_power_symmetric(SourceSpec(1.0, rho), Scheme.SEP2,
                                DistortionPair(alpha * 0.2, 0.2), c12=c12, tol=1e-9).objective
        assert p == pytest.approx(pinned, rel=1e-7), (rho, alpha, c12)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
def test_sep2_flat_ridge_meets_the_sum_bound(rho):
    """``Delta = (1 + iu (1 - rho^2))/d1``, so every point needs ``rsum >=
    (1/2)log2(1/d1)`` and a power of at least ``n0 (1/d1 - 1)/2``.  The
    first component alone (``iu = 0``, ``s = 1/d1 - 1``) meets that bound
    with ``d2 = 1 - rho^2 (1 - d1)``; where the target allows that, the
    optimal points form a flat ridge, on which feasibility queries end
    without a proof, and the least-power search reaches the bound to within
    ``tol``."""
    tol = 1e-6
    for d1, d2 in ((0.3, 0.9), (0.01, 0.5)):
        p = min_power_symmetric(SourceSpec(1.0, rho), Scheme.SEP2, DistortionPair(d1, d2),
                                tol=tol).objective
        floor = (1.0 / d1 - 1.0) / 2.0
        if d2 >= 1.0 - rho**2 * (1.0 - d1):
            assert p == pytest.approx(floor, rel=tol), (rho, d1, d2)
        else:  # rho 0.5, d = (0.01, 0.5)
            assert p > floor * (1.0 + tol), (rho, d1, d2)


def test_sep2_minimum_does_not_rise_with_the_link():
    for rho, target in ((0.3, DistortionPair(0.04, 0.2)), (0.99, DistortionPair(0.1, 0.2))):
        answers = [min_power_symmetric(SourceSpec(1.0, rho), Scheme.SEP2, target, c12=c12,
                                       tol=1e-6).objective for c12 in SEP2_LINKS]
        assert all(b <= a for a, b in zip(answers, answers[1:])), (rho, answers)
