import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DomainError, RatePoint
from confmac.capacity import MacPowerSplit, conf_split_exists, mac_conf_contains

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


def test_split_exists_against_beta_grid():
    rng = np.random.default_rng(2)
    betas = np.linspace(0.0, 1.0, 401)
    for _ in range(150):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 6.0, 3))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 2.5, 2))
        ch = ChannelSpec(p1, p2, n0)
        rp = RatePoint(r1, r2)
        grid_ok = any(min(_unlimited(ch, rp, float(b)).slacks.values()) >= 0.0 for b in betas)
        got, b1w, b2w = conf_split_exists(p1, p2, n0, UNLIMITED, r1, r2)
        if bool(got):
            assert b1w == 1.0
            report = mac_conf_contains(ch, rp, MacPowerSplit(float(b1w), float(b2w)))
            assert min(report.slacks.values()) >= -1e-9
        else:
            assert not grid_ok


def test_fixed_split_exists_against_grid():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 61)
    for _ in range(60):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 6.0, 3))
        c12 = float(rng.uniform(0.0, 2.0))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 2.2, 2))
        ch = ChannelSpec(p1, p2, n0, c12)
        rp = RatePoint(r1, r2)
        grid_ok = False
        for b1 in grid:
            for b2 in grid:
                split = MacPowerSplit(float(b1), float(b2))
                if min(mac_conf_contains(ch, rp, split).slacks.values()) >= 0.0:
                    grid_ok = True
                    break
            if grid_ok:
                break
        got, b1w, b2w = conf_split_exists(p1, p2, n0, c12, r1, r2)
        if bool(got):
            report = mac_conf_contains(ch, rp, MacPowerSplit(float(b1w), float(b2w)))
            assert min(report.slacks.values()) >= -1e-9
        else:
            assert not grid_ok


def _interval_oracle(p1, p2, n0, r1, r2):
    """The unlimited-link test in closed form: ``beta`` lies under the R2
    bound's cap and over the coherent sum bound's floor."""
    beta_max = 1.0 - (4.0**r2 - 1.0) * n0 / p2
    q = (n0 * (4.0 ** (r1 + r2) - 1.0) - p1 - p2) / (2.0 * math.sqrt(p1 * p2))
    beta_min = np.where(q > 0.0, np.minimum(q, 1.0) ** 2, 0.0)
    return (beta_max >= beta_min) & (q <= 1.0) & (beta_max >= 0.0)


def test_split_exists_matches_the_interval_oracle():
    """At ``c12 = inf`` the one test decides as the closed-form interval; at
    a finite link that no row's rates exceed it decides the same, and a row
    above the link (which forces the hyperbola path) changes no other row's
    decision.  Every witness re-validates in the region."""
    rng = np.random.default_rng(4)
    decided = np.zeros(2, dtype=int)
    for _ in range(40):
        p1, p2, n0 = (float(v) for v in 10.0 ** rng.uniform(-1.0, 2.0, 3))  # p1 != p2
        reach = _hl(1.0 + (p1 + p2 + 2.0 * math.sqrt(p1 * p2)) / n0)
        r1, r2 = rng.uniform(0.0, 0.8 * reach, (2, 257))
        expected = _interval_oracle(p1, p2, n0, r1, r2)
        decided += np.bincount(expected, minlength=2)
        fast = conf_split_exists(p1, p2, n0, UNLIMITED, r1, r2)
        assert np.array_equal(fast[0], expected)
        c12 = float((r1 + r2).max())
        at_link = conf_split_exists(p1, p2, n0, c12, r1, r2)
        assert np.array_equal(at_link[0], expected)
        r1, r2 = np.append(r1, c12 + 1.0), np.append(r2, 0.0)
        forced = conf_split_exists(p1, p2, n0, c12, r1, r2)
        assert np.array_equal(forced[0][:-1], expected)
        for link, (feasible, b1, b2) in ((UNLIMITED, fast), (c12, at_link), (c12, forced)):
            ch = ChannelSpec(p1, p2, n0, link)
            for i in np.flatnonzero(feasible):
                report = mac_conf_contains(ch, RatePoint(float(r1[i]), float(r2[i])),
                                           MacPowerSplit(float(b1[i]), float(b2[i])))
                assert min(report.slacks.values()) >= -1e-9, (p1, p2, n0, link, i)
    assert decided.min() >= 2000, decided


def test_coherent_bound_past_the_float_range_of_p1_p2():
    """Where ``p1 p2`` overflows, the coherent sum bound still counts: at
    ``P = 1e300`` full coherence carries ``(1/2)log2(1 + 4P)``, a one-bit
    link with partial coherence ``(1/2)log2(1 + 3P)``, and a rate whose
    ``4^rate`` overflows is infeasible (no warning on either path)."""
    p, n0 = 1e300, 1.0
    cap = _hl(1.0 + 4.0 * p / n0)
    full = mac_conf_contains(ChannelSpec(p, p, n0), RatePoint(0.0, 0.0), MacPowerSplit(1.0, 1.0))
    assert full.slacks["r1+r2"] == pytest.approx(cap, rel=1e-15)
    for c12, reach in ((UNLIMITED, cap), (1.0, _hl(1.0 + 3.0 * p / n0))):
        r1 = [reach - 1e-3, cap + 1e-3, 600.0]
        feasible, b1, b2 = conf_split_exists(p, p, n0, c12, r1, [0.0, 0.0, 0.0])
        assert feasible.tolist() == [True, False, False], c12
        report = mac_conf_contains(ChannelSpec(p, p, n0, c12), RatePoint(r1[0], 0.0),
                                   MacPowerSplit(float(b1[0]), float(b2[0])))
        assert report.feasible, c12


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
