import math
import warnings

import numpy as np
import pytest

from confmac import _opt
from confmac.model import UNLIMITED, ChannelSpec, DomainError, RatePoint
from confmac.capacity import MacPowerSplit, best_split, least_scale, mac_conf_contains

PLAIN = MacPowerSplit(0.0, 0.0)  # at c12 = 0: the plain MAC


def _hl(x):
    return 0.5 * math.log2(x)


def _plain(p1, p2, n0):
    return ChannelSpec(p1, p2, n0, 0.0)


def _unlimited(ch, rp, beta):
    """The unlimited-conference region at coherence split ``beta``."""
    return mac_conf_contains(ChannelSpec(ch.p1, ch.p2, ch.n0, UNLIMITED), rp,
                             MacPowerSplit(1.0, beta))


def test_plain_examples():
    ch = _plain(1.0, 1.0, 1.0)
    report = mac_conf_contains(ch, RatePoint(0.0, 0.0), PLAIN)
    assert report.feasible
    assert report.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
    boundary = mac_conf_contains(ch, RatePoint(0.5, 0.0), PLAIN)
    assert boundary.slacks["r1"] == pytest.approx(0.0, abs=1e-12)
    assert boundary.feasible


def test_unlimited_examples():
    ch = ChannelSpec(2.0, 2.0, 1.0)
    full = _unlimited(ch, RatePoint(0.0, 0.0), 1.0)
    assert full.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(9.0), abs=1e-12)
    assert full.slacks["r2"] == pytest.approx(0.0, abs=1e-12)
    assert full.slacks["r1"] == math.inf

    ch1 = ChannelSpec(1.0, 1.0, 1.0)
    none = _unlimited(ch1, RatePoint(0.0, 0.0), 0.0)
    assert none.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
    some = _unlimited(ch1, RatePoint(0.0, 0.0), 0.25)
    assert some.slacks["r1+r2"] == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(DomainError, match="beta2"):
        _unlimited(ch1, RatePoint(0, 0), 1.5)


def test_fixed_examples():
    # at c12 = 0 with split (0, 0) the slacks are the plain MAC's, bit for bit
    p1, p2, n0 = 1.3, 0.7, 0.9
    rp = RatePoint(0.3, 0.2)
    fixed = mac_conf_contains(_plain(p1, p2, n0), rp, PLAIN)
    assert fixed.slacks == {
        "r1": _hl(1.0 + p1 / n0) - rp.r1,
        "r2": _hl(1.0 + p2 / n0) - rp.r2,
        "r1+r2": _hl(1.0 + (p1 + p2) / n0) - (rp.r1 + rp.r2),
    }

    ch = ChannelSpec(1.0, 1.0, 1.0, 1.0)
    report = mac_conf_contains(ch, RatePoint(0.0, 0.0), MacPowerSplit(0.5, 0.5))
    assert report.slacks["r1"] == pytest.approx(0.5 * math.log2(1.5) + 1.0, abs=1e-12)

    # at c12 = inf the r1 slack is inf and the sum bound is the coherent one
    unl = mac_conf_contains(ChannelSpec(p1, p2, n0, UNLIMITED), rp, MacPowerSplit(0.2, 0.8))
    assert unl.slacks["r1"] == math.inf
    assert unl.slacks["r1+r2"] == (_hl(1.0 + (p1 + p2 + 2.0 * math.sqrt(0.16 * p1 * p2)) / n0)
                                   - (rp.r1 + rp.r2))


def test_monotone_in_powers():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 4.0, 3))
        rp = RatePoint(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        beta = float(rng.uniform(0, 1))
        base = _unlimited(ChannelSpec(p1, p2, n0), rp, beta)
        more = _unlimited(ChannelSpec(p1 * 1.5, p2 * 1.2, n0), rp, beta)
        for name in base.slacks:
            assert more.slacks[name] >= base.slacks[name] - 1e-12
        plain = mac_conf_contains(_plain(p1, p2, n0), rp, PLAIN)
        plain2 = mac_conf_contains(_plain(p1 * 2, p2, n0), rp, PLAIN)
        for name in plain.slacks:
            assert plain2.slacks[name] >= plain.slacks[name] - 1e-12


def test_unlimited_dominates_fixed_sum_rate():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 4.0, 3))
        c12 = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(0, 1))
        rp = RatePoint(0.0, 0.0)
        unl = _unlimited(ChannelSpec(p1, p2, n0), rp, beta)
        fix = mac_conf_contains(ChannelSpec(p1, p2, n0, c12), rp, MacPowerSplit(beta, beta))
        assert unl.slacks["r1+r2"] >= fix.slacks["r1+r2"] - 1e-12


def _ratios(c12, r1, r2):
    """:func:`least_scale`'s four excess ratios at a rate pair, exactly (no
    search hair); inf where ``4^rate`` overflows."""
    rates = np.array([np.maximum(r1 - c12, 0.0), r2, np.maximum(r1 + r2 - c12, 0.0), r1 + r2])
    with np.errstate(over="ignore"):
        return 4.0**rates - 1.0


def _split_exists(ch, r1, r2):
    """``(fits, split)``: whether the least scale of ``ch``'s powers is at
    most ``1/n0``, the scale of the powers themselves, and the split
    :func:`best_split` picks there (None where it does not fit)."""
    a = _ratios(ch.c12, r1, r2)
    fits = bool(least_scale(ch.p1, ch.p2, *a) * ch.n0 <= 1.0)
    return fits, best_split(ch.p1, ch.p2, *a[:3], 1.0 / ch.n0) if fits else None


def test_split_exists_against_beta_grid():
    """At ``c12 = inf``: where some split of a 401-point coherence grid
    admits the rate pair, the least scale fits the powers, and every split
    it picks re-validates with ``beta1 = 1``."""
    rng = np.random.default_rng(2)
    betas = np.linspace(0.0, 1.0, 401)
    decided = set()
    for _ in range(150):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 6.0, 3))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 2.5, 2))
        ch = ChannelSpec(p1, p2, n0)
        rp = RatePoint(r1, r2)
        grid_ok = any(min(_unlimited(ch, rp, float(b)).slacks.values()) >= 0.0 for b in betas)
        fits, split = _split_exists(ch, r1, r2)
        decided.add(fits)
        if fits:
            assert split.beta1 == 1.0
            assert min(mac_conf_contains(ch, rp, split).slacks.values()) >= -1e-9
        else:
            assert not grid_ok
    assert decided == {True, False}


def test_fixed_split_exists_against_grid():
    """At a finite link: where some split of a 61 x 61 ``(beta1, beta2)``
    grid admits the rate pair, the least scale fits the powers, and every
    split it picks re-validates."""
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 61)
    decided = set()
    for _ in range(60):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 6.0, 3))
        c12 = float(rng.uniform(0.0, 2.0))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 2.2, 2))
        ch = ChannelSpec(p1, p2, n0, c12)
        rp = RatePoint(r1, r2)
        grid_ok = any(min(mac_conf_contains(ch, rp, MacPowerSplit(float(b1), float(b2)))
                          .slacks.values()) >= 0.0 for b1 in grid for b2 in grid)
        fits, split = _split_exists(ch, r1, r2)
        decided.add(fits)
        if fits:
            assert min(mac_conf_contains(ch, rp, split).slacks.values()) >= -1e-9
        else:
            assert not grid_ok
    assert decided == {True, False}


def test_least_scale_is_the_least_over_a_split_grid():
    """On random powers, links and rate pairs the closed form is never above
    the least over a 401 x 401 split grid, and its own split meets all four
    bounds there, so it is the least over every split."""
    rng = np.random.default_rng(6)
    b1, b2 = np.meshgrid(*2 * [np.linspace(0.0, 1.0, 401)], indexing="ij")
    for k in range(100):
        p1, p2 = (float(v) for v in 10.0 ** rng.uniform(-1.5, 0.0, 2))
        c12 = (0.0, 0.3, 1.0, 2.0, UNLIMITED)[k % 5]
        a1, a2, a3, a4 = _ratios(c12, *rng.uniform(0.0, 2.5, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = [np.where(a > 0.0, a / den, 0.0) for a, den in
                     ((a1, (1.0 - b1) * p1), (a2, (1.0 - b2) * p2),
                      (a3, (1.0 - b1) * p1 + (1.0 - b2) * p2))]
        grid = np.nanmin(np.maximum.reduce(terms + [a4 / (p1 + p2 + 2.0 * np.sqrt(b1 * b2 * p1 * p2))]))
        x = float(least_scale(p1, p2, a1, a2, a3, a4))
        assert x <= grid * (1.0 + 1e-12), (p1, p2, c12, x, grid)
        s = best_split(p1, p2, a1, a2, a3, x)
        met = min(x * (1.0 - s.beta1) * p1 - a1, x * (1.0 - s.beta2) * p2 - a2,
                  x * ((1.0 - s.beta1) * p1 + (1.0 - s.beta2) * p2) - a3,
                  x * (p1 + p2 + 2.0 * math.sqrt(s.beta1 * s.beta2 * p1 * p2)) - a4)
        assert met >= -1e-12 * a4, (p1, p2, c12, met)


@pytest.mark.parametrize("p2", [1.0, 0.3, 0.01])
def test_least_scale_does_not_fall_as_a_ratio_rises(p2):
    """A box's bound reads each ratio at its least, so the least scale must
    not fall as any one ratio rises by 0.1%, beyond the search's rounding
    margin."""
    rng = np.random.default_rng(int(100 * p2))
    a = 10.0 ** rng.uniform(-3.0, 2.0, (4, 20000))
    a[2] = np.maximum(a[2], a[0])  # a3 >= a1 and a4 >= every other ratio, as rates give them
    a[3] = a.max(axis=0)
    base = least_scale(1.0, p2, *a)
    for i in range(4):
        raised = a.copy()
        raised[i] *= 1.001
        assert np.all(least_scale(1.0, p2, *raised) >= base * (1.0 - _opt._LEAST_MARGIN)), i


def _interval_oracle(p1, p2, n0, r1, r2):
    """The unlimited-link test in closed form: ``beta`` lies under the R2
    bound's cap and over the coherent sum bound's floor."""
    beta_max = 1.0 - (4.0**r2 - 1.0) * n0 / p2
    q = (n0 * (4.0 ** (r1 + r2) - 1.0) - p1 - p2) / (2.0 * math.sqrt(p1 * p2))
    beta_min = np.where(q > 0.0, np.minimum(q, 1.0) ** 2, 0.0)
    return (beta_max >= beta_min) & (q <= 1.0) & (beta_max >= 0.0)


def test_split_exists_matches_the_interval_oracle():
    """At ``c12 = inf`` the least scale fits the powers as the closed-form
    interval decides, away from its edge: rows whose least scale lies 1e-9
    relative below ``1/n0`` fit and those 1e-9 above do not.  A finite link
    that no row's rates exceed reads the same least scales, and every split
    picked where the powers fit re-validates in the region at both links."""
    rng = np.random.default_rng(4)
    decided = np.zeros(2, dtype=int)
    for _ in range(40):
        p1, p2, n0 = (float(v) for v in 10.0 ** rng.uniform(-1.0, 2.0, 3))  # p1 != p2
        reach = _hl(1.0 + (p1 + p2 + 2.0 * math.sqrt(p1 * p2)) / n0)
        r1, r2 = rng.uniform(0.0, 0.8 * reach, (2, 257))
        expected = _interval_oracle(p1, p2, n0, r1, r2)
        decided += np.bincount(expected, minlength=2)
        a = _ratios(UNLIMITED, r1, r2)
        least = least_scale(p1, p2, *a)
        scale = least * n0
        assert np.all(expected[scale <= 1.0 - 1e-9]) and not np.any(expected[scale > 1.0 + 1e-9])
        c12 = float((r1 + r2).max())
        assert np.array_equal(least_scale(p1, p2, *_ratios(c12, r1, r2)), least)
        for link in (UNLIMITED, c12):
            ch = ChannelSpec(p1, p2, n0, link)
            for i in np.flatnonzero(scale <= 1.0):
                split = best_split(p1, p2, *a[:3, i], 1.0 / n0)
                report = mac_conf_contains(ch, RatePoint(float(r1[i]), float(r2[i])), split)
                assert min(report.slacks.values()) >= -1e-9, (p1, p2, n0, link, i)
    assert decided.min() >= 2000, decided


def test_coherent_bound_past_the_float_range_of_p1_p2():
    """Where ``p1 p2`` overflows, the coherent sum bound still counts: at
    ``P = 1e300`` full coherence carries ``(1/2)log2(1 + 4P)``, a one-bit
    link with partial coherence ``(1/2)log2(1 + 3P)``, and a rate whose
    ``4^rate`` overflows needs an infinite scale (no warning on either
    path).  A fitting pair with one bit of ``r2`` re-validates at its
    split; at ``c12 = inf`` that split's ``1 - beta2`` need only be ``3/P``,
    far below ``2^-53``."""
    p, n0 = 1e300, 1.0
    cap = _hl(1.0 + 4.0 * p / n0)
    full = mac_conf_contains(ChannelSpec(p, p, n0), RatePoint(0.0, 0.0), MacPowerSplit(1.0, 1.0))
    assert full.slacks["r1+r2"] == pytest.approx(cap, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c12, reach in ((UNLIMITED, cap), (1.0, _hl(1.0 + 3.0 * p / n0))):
            r1, r2 = np.array([reach - 1.001, cap + 1e-3, 600.0]), np.array([1.0, 0.0, 1.0])
            a = _ratios(c12, r1, r2)
            scale = least_scale(p, p, *a) * n0
            assert (scale <= 1.0).tolist() == [True, False, False] and scale[2] == math.inf, c12
            split = best_split(p, p, *a[:3, 0], 1.0 / n0)
            report = mac_conf_contains(ChannelSpec(p, p, n0, c12), RatePoint(r1[0], 1.0), split)
            corner = c12 != UNLIMITED or 0.0 < 1.0 - split.beta2 < 2.0**-52
            assert report.feasible and corner, (c12, split)


def test_sum_slack_unimodal_in_beta():
    # sum-rate slack over the coherence split rises then falls at most once
    for p1, p2, n0 in [(1.0, 1.0, 1.0), (3.0, 0.5, 0.7), (0.4, 2.5, 1.3)]:
        ch = ChannelSpec(p1, p2, n0)
        rp = RatePoint(0.6, 0.4)
        betas = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        slacks = np.array([min(_unlimited(ch, rp, float(b)).slacks.values()) for b in betas])
        diffs = np.sign(np.diff(slacks))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
        assert changes <= 1
