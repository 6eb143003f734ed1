import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DomainError, RatePoint
from confmac import capacity
from confmac.capacity import (
    MacPowerSplit,
    conf_fixed_split_exists,
    conf_unlimited_split_exists,
    mac_conf_fixed_contains,
    mac_conf_unlimited_contains,
    mac_plain_contains,
)


def test_plain_examples():
    ch = ChannelSpec(1.0, 1.0, 1.0)
    report = mac_plain_contains(ch, RatePoint(0.0, 0.0))
    assert report.feasible
    assert report.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
    boundary = mac_plain_contains(ch, RatePoint(0.5, 0.0))
    assert boundary.slacks["r1"] == pytest.approx(0.0, abs=1e-12)
    assert boundary.feasible


def test_unlimited_examples():
    ch = ChannelSpec(2.0, 2.0, 1.0)
    full = mac_conf_unlimited_contains(ch, RatePoint(0.0, 0.0), beta=1.0)
    assert full.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(9.0), abs=1e-12)
    assert full.slacks["r2"] == pytest.approx(0.0, abs=1e-12)

    ch1 = ChannelSpec(1.0, 1.0, 1.0)
    none = mac_conf_unlimited_contains(ch1, RatePoint(0.0, 0.0), beta=0.0)
    assert none.slacks["r1+r2"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
    some = mac_conf_unlimited_contains(ch1, RatePoint(0.0, 0.0), beta=0.25)
    assert some.slacks["r1+r2"] == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(DomainError):
        mac_conf_unlimited_contains(ch1, RatePoint(0, 0), beta=1.5)


def test_fixed_examples():
    ch0 = ChannelSpec(1.3, 0.7, 0.9, 0.0)
    rp = RatePoint(0.3, 0.2)
    fixed = mac_conf_fixed_contains(ch0, rp, MacPowerSplit(0.0, 0.0))
    plain = mac_plain_contains(ch0, rp)
    assert fixed.slacks == plain.slacks

    ch = ChannelSpec(1.0, 1.0, 1.0, 1.0)
    report = mac_conf_fixed_contains(ch, RatePoint(0.0, 0.0), MacPowerSplit(0.5, 0.5))
    assert report.slacks["r1"] == pytest.approx(0.5 * math.log2(1.5) + 1.0, abs=1e-12)

    with pytest.raises(DomainError, match="c12"):
        mac_conf_fixed_contains(ChannelSpec(1, 1, 1, UNLIMITED), rp, MacPowerSplit(0, 0))


def test_monotone_in_powers():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 4.0, 3))
        rp = RatePoint(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        beta = float(rng.uniform(0, 1))
        base = mac_conf_unlimited_contains(ChannelSpec(p1, p2, n0), rp, beta)
        more = mac_conf_unlimited_contains(ChannelSpec(p1 * 1.5, p2 * 1.2, n0), rp, beta)
        for name in base.slacks:
            assert more.slacks[name] >= base.slacks[name] - 1e-12
        plain = mac_plain_contains(ChannelSpec(p1, p2, n0), rp)
        plain2 = mac_plain_contains(ChannelSpec(p1 * 2, p2, n0), rp)
        for name in plain.slacks:
            assert plain2.slacks[name] >= plain.slacks[name] - 1e-12


def test_unlimited_dominates_fixed_sum_rate():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 4.0, 3))
        c12 = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(0, 1))
        rp = RatePoint(0.0, 0.0)
        unl = mac_conf_unlimited_contains(ChannelSpec(p1, p2, n0), rp, beta)
        fix = mac_conf_fixed_contains(ChannelSpec(p1, p2, n0, c12), rp,
                                      MacPowerSplit(beta, beta))
        assert unl.slacks["r1+r2"] >= fix.slacks["r1+r2"] - 1e-12


def test_split_exists_against_beta_grid():
    rng = np.random.default_rng(2)
    betas = np.linspace(0.0, 1.0, 401)
    for _ in range(150):
        p1, p2, n0 = (float(v) for v in rng.uniform(0.2, 6.0, 3))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 2.5, 2))
        ch = ChannelSpec(p1, p2, n0)
        rp = RatePoint(r1, r2)
        grid_ok = any(
            min(mac_conf_unlimited_contains(ch, rp, float(b)).slacks.values()) >= 0.0
            for b in betas)
        got, bw = conf_unlimited_split_exists(p1, p2, n0, r1, r2)
        if bool(got):
            assert min(mac_conf_unlimited_contains(ch, rp, float(bw)).slacks.values()) >= -1e-9
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
                if min(mac_conf_fixed_contains(ch, rp, split).slacks.values()) >= 0.0:
                    grid_ok = True
                    break
            if grid_ok:
                break
        got, b1w, b2w = conf_fixed_split_exists(p1, p2, n0, c12, r1, r2)
        if bool(got):
            report = mac_conf_fixed_contains(ch, rp, MacPowerSplit(float(b1w), float(b2w)))
            assert min(report.slacks.values()) >= -1e-9
        else:
            assert not grid_ok


def test_sum_slack_unimodal_in_beta():
    # sum-rate slack over the coherence split rises then falls at most once
    for p1, p2, n0 in [(1.0, 1.0, 1.0), (3.0, 0.5, 0.7), (0.4, 2.5, 1.3)]:
        ch = ChannelSpec(p1, p2, n0)
        rp = RatePoint(0.6, 0.4)
        betas = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        slacks = np.array([
            min(mac_conf_unlimited_contains(ch, rp, float(b)).slacks.values())
            for b in betas])
        diffs = np.sign(np.diff(slacks))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
        assert changes <= 1
