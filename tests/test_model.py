import math

import numpy as np
import pytest

from confmac.model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    DomainError,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    is_unlimited,
    log2_pos,
)


@pytest.mark.parametrize("bad_rho", [-0.1, 1.2, math.inf, math.nan])
def test_rho_domain(bad_rho):
    with pytest.raises(DomainError, match="rho"):
        SourceSpec(1.0, bad_rho)


def test_sigma2_domain():
    with pytest.raises(DomainError, match="sigma2"):
        SourceSpec(0.0, 0.5)
    with pytest.raises(DomainError, match="sigma2"):
        SourceSpec(math.inf, 0.5)


@pytest.mark.parametrize("d1", [0.0, -0.2, 1.001, math.nan])
def test_distortion_domain(d1):
    with pytest.raises(DomainError, match="d1"):
        DistortionPair(d1, 0.5)


def test_channel_domain():
    with pytest.raises(DomainError, match="p1"):
        ChannelSpec(0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="n0"):
        ChannelSpec(1.0, 1.0, -1.0)
    with pytest.raises(DomainError, match="c12"):
        ChannelSpec(1.0, 1.0, 1.0, -0.5)
    assert is_unlimited(ChannelSpec(1.0, 1.0, 1.0, UNLIMITED).c12)
    assert not is_unlimited(ChannelSpec(1.0, 1.0, 1.0, 0.0).c12)


def test_rate_point_domain():
    with pytest.raises(DomainError, match="r2"):
        RatePoint(0.0, -1e-9)


def test_distortion_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        sigma2 = float(rng.uniform(0.01, 100.0))
        big_d1 = float(rng.uniform(1e-6, 1.0)) * sigma2
        big_d2 = float(rng.uniform(1e-6, 1.0)) * sigma2
        pair = DistortionPair(big_d1 / sigma2, big_d2 / sigma2)
        back1, back2 = pair.absolute(sigma2)
        assert math.isclose(back1, big_d1, rel_tol=1e-15)
        assert math.isclose(back2, big_d2, rel_tol=1e-15)


def test_unlimited_is_singleton_sentinel():
    assert UNLIMITED == math.inf
    assert is_unlimited(float("inf"))
    assert not is_unlimited(1e18)


def test_channel_c12_is_any_nonnegative_number():
    """``c12`` is the limit of the finite links: infinity is a capacity like
    any other, while NaN and negative values are domain errors."""
    assert ChannelSpec(1.0, 1.0, 1.0, math.inf) == ChannelSpec(1.0, 1.0, 1.0)
    assert ChannelSpec(1.0, 1.0, 1.0, "inf").c12 == math.inf
    for bad in (math.nan, -math.inf, -1e-300):
        with pytest.raises(DomainError, match="c12"):
            ChannelSpec(1.0, 1.0, 1.0, bad)


def test_log2_pos_exact_zero():
    for x in (0.5, 1.0, 1e-300):
        value = log2_pos(x)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # never -0.0
    assert log2_pos(8.0) == 3.0


def test_report_as_dict_shape():
    report = FeasibilityReport(True, {"a": 1.0}, {"b": 2.0})
    d = report.as_dict()
    assert set(d) == {"feasible", "slacks", "witness"}
    assert d["feasible"] is True
    assert d["slacks"] == {"a": 1.0}
