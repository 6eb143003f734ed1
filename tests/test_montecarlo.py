import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from confmac.model import ChannelSpec, DomainError, SourceSpec
from confmac import bounds, montecarlo
from confmac._mc import MomentAccumulator, accumulate_chunks
from confmac.montecarlo import (
    SingularError,
    build_surrogate,
    cap_ratio_bounds,
    cap_ratio_exact,
    gamma_ratio_exact,
    gamma_ratio_series,
    genie_distortion_mc,
    mmse_gamma,
    mmse_gamma_oracle,
    mmse_gamma_oracles,
    sphere_cap_fraction_mc,
    surrogate_angle_moments,
)
from confmac.vqscheme import VqConfig, vq_constants, vq_distortion


def test_surrogate_second_moments_match_constants():
    rng = np.random.default_rng(0)
    ch = ChannelSpec(1.0, 1.0, 1.0)
    for _ in range(300):
        src = SourceSpec(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.0, 0.99)))
        cfg = VqConfig(*(float(v) for v in rng.uniform(0.05, 4.0, 3)), 0.0, 0.0)
        model = build_surrogate(src, cfg)
        cov = model.covariance
        assert np.allclose(cov, cov.T)
        w = np.linalg.eigvalsh(cov)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)
        _, consts = vq_constants(src, ch, cfg)
        s = src.sigma2
        var_u1, var_v, var_u2 = cov[2, 2], cov[3, 3], cov[4, 4]
        assert var_u1 == pytest.approx(s * (1 - 4.0**-cfg.r1), abs=1e-12)
        assert var_v == pytest.approx(s * 4.0**-cfg.r1 * (1 - 4.0**-cfg.rc), abs=1e-12)
        assert var_u2 == pytest.approx(s * (1 - 4.0**-cfg.r2), abs=1e-12)
        assert cov[2, 4] / math.sqrt(var_u1 * var_u2) == pytest.approx(
            consts.tilde_rho, abs=1e-12)
        if var_v > 0:
            assert cov[3, 4] / math.sqrt(var_v * var_u2) == pytest.approx(
                consts.bar_rho, abs=1e-12)
        assert cov[2, 3] == 0.0


def test_surrogate_degenerate_blocks():
    src = SourceSpec(1.0, 0.5)
    model = build_surrogate(src, VqConfig(1.0, 1.0, 0.0, 0, 0))
    assert np.all(model.covariance[3, :] == 0.0)
    assert np.all(model.covariance[:, 3] == 0.0)

    model = build_surrogate(SourceSpec(1.0, 0.0), VqConfig(1.0, 1.0, 0.5, 0, 0))
    cross = model.covariance[np.ix_([0, 2, 3], [1, 4])]
    assert np.all(cross == 0.0)

    model = build_surrogate(src, VqConfig(1.0, 1.0, 0.5, 0, 0))
    bar_rho = model.covariance[3, 4] / math.sqrt(
        model.covariance[3, 3] * model.covariance[4, 4])
    assert bar_rho == pytest.approx(0.5 * math.sqrt(0.25 * 0.5 * 0.75), abs=1e-12)


def test_gamma_closed_form_matches_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        rho = float(rng.uniform(0.05, 0.98))
        src = SourceSpec(float(rng.uniform(0.5, 2.0)), rho)
        cfg = VqConfig(*(float(v) for v in rng.uniform(0.05, 5.0, 3)), 0.0, 0.0)
        g = mmse_gamma(src, cfg)
        o = mmse_gamma_oracle(build_surrogate(src, cfg))
        for name in ("g11", "g12", "g13", "g21", "g22", "g23"):
            assert abs(getattr(g, name) - getattr(o, name)) <= 1e-10
        # range bounds on the gains
        assert 0.0 < g.g11 <= 1.0 and 0.0 < g.g13 <= 1.0 and 0.0 < g.g22 <= 1.0
        assert 0.0 < g.g12 <= rho and 0.0 < g.g21 <= rho and 0.0 < g.g23 <= rho


def test_gamma_zero_rho_is_identity():
    src = SourceSpec(1.0, 0.0)
    g = mmse_gamma(src, VqConfig(1.0, 2.0, 0.5, 0, 0))
    assert (g.g11, g.g13, g.g22) == (1.0, 1.0, 1.0)
    assert (g.g12, g.g21, g.g23) == (0.0, 0.0, 0.0)


def test_gamma_oracle_removes_absent_description():
    src = SourceSpec(1.0, 0.5)
    o = mmse_gamma_oracle(build_surrogate(src, VqConfig(1.0, 1.0, 0.0, 0, 0)))
    assert o.g13 == 0.0 and o.g23 == 0.0
    g = mmse_gamma(src, VqConfig(1.0, 1.0, 0.0, 0, 0))
    assert o.g12 == pytest.approx(g.g12, abs=1e-12)


def test_gamma_oracle_singular():
    src = SourceSpec(1.0, 1.0)  # fully correlated: U1 and U2 colinear directions
    model = build_surrogate(src, VqConfig(30.0, 30.0, 30.0, 0, 0))
    with pytest.raises(SingularError):
        mmse_gamma_oracle(model)


def _one_solve(model):
    """The normal-equation solve of one model, one right-hand side at a time."""
    cov = model.covariance
    cols = [i for i in (2, 4, 3) if cov[i, i] > 0.0]
    gains = []
    for source in (0, 1):
        sol = np.linalg.solve(cov[np.ix_(cols, cols)], cov[source, cols]) if cols else []
        gains += [float(sol[cols.index(i)]) if i in cols else 0.0 for i in (2, 4, 3)]
    return tuple(gains)


def test_batched_oracle_matches_per_model_solves():
    """Stacked solves give each model's one-solve gains bit for bit, in order,
    with zero-rate stages (rate triples below) dropped from their own group."""
    rng = np.random.default_rng(8)
    models = [build_surrogate(SourceSpec(float(sigma2), float(rho)),
                              VqConfig(float(r1), float(r2), float(rc), 0.0, 0.0))
              for sigma2, rho, r1, r2, rc in rng.uniform((0.5, 0.05, 0.05, 0.05, 0.05),
                                                         (2.0, 0.98, 5.0, 5.0, 5.0), (200, 5))]
    src = SourceSpec(1.0, 0.5)
    models[100:100] = [build_surrogate(src, VqConfig(*rates, 0.0, 0.0)) for rates in
                       ((1.0, 1.0, 0.0), (0.0, 1.0, 0.5), (0.0, 0.0, 0.0), (2.0, 0.0, 1.0))]
    batched = mmse_gamma_oracles(models)
    assert len(batched) == len(models)
    for model, gains in zip(models, batched):
        assert dataclasses.astuple(gains) == _one_solve(model)
        assert mmse_gamma_oracle(model) == gains
    rc0 = batched[100]  # rc = 0: V has no variance, so its gains are 0
    assert rc0.g13 == rc0.g23 == 0.0 and rc0.g11 > 0.0
    assert mmse_gamma_oracles([]) == []
    singular = build_surrogate(SourceSpec(1.0, 1.0), VqConfig(30.0, 30.0, 30.0, 0, 0))
    with pytest.raises(SingularError):
        mmse_gamma_oracles(models[:3] + [singular] + models[3:6])


def test_genie_mc_matches_closed_form():
    src = SourceSpec(1.0, 0.5)
    cfg = VqConfig(1.0, 1.0, 0.5, 0, 0)
    est = genie_distortion_mc(src, cfg, 200_000, seed=7)
    d1, d2 = vq_distortion(src, cfg).astuple()
    assert abs(est.d1_hat - d1) <= 3 * est.d1_se
    assert abs(est.d2_hat - d2) <= 3 * est.d2_se
    # the closed form is the exact genie error, so the estimate cannot sit
    # far below it either
    assert est.d1_hat >= d1 - 3 * est.d1_se
    assert est.d2_hat >= d2 - 3 * est.d2_se


def test_genie_mc_trivial_cases():
    src = SourceSpec(1.0, 0.5)
    est = genie_distortion_mc(src, VqConfig(0, 0, 0, 0, 0), 20_000, seed=3)
    assert abs(est.d1_hat - 1.0) <= 3 * est.d1_se

    src0 = SourceSpec(1.0, 0.0)
    est = genie_distortion_mc(src0, VqConfig(1, 1, 1, 0, 0), 100_000, seed=4)
    assert abs(est.d1_hat - 2.0**-4) <= 3 * est.d1_se
    assert abs(est.d2_hat - 0.25) <= 3 * est.d2_se

    with pytest.raises(DomainError):
        genie_distortion_mc(src, VqConfig(1, 1, 1, 0, 0), 100, seed=1)


def test_mc_deterministic_across_thread_counts(monkeypatch):
    src = SourceSpec(1.0, 0.5)
    cfg = VqConfig(1.0, 1.0, 0.5, 0, 0)
    monkeypatch.setenv("GMAC_THREADS", "1")
    serial = genie_distortion_mc(src, cfg, 150_000, seed=11)
    monkeypatch.setenv("GMAC_THREADS", "4")
    threaded = genie_distortion_mc(src, cfg, 150_000, seed=11)
    assert serial == threaded


def test_surrogate_angle_moments():
    src = SourceSpec(1.0, 0.5)
    cfg = VqConfig(1.0, 1.0, 0.5, 0, 0)
    dim = 64
    est = surrogate_angle_moments(src, cfg, dim=dim, draws=4000, seed=5)
    _, consts = vq_constants(src, ChannelSpec(1, 1, 1), cfg)
    assert abs(est.cos_u1_u2 - montecarlo.expected_cosine(consts.tilde_rho, dim)) \
        <= 3 * est.se_u1_u2 + 2 * consts.tilde_rho / dim**2
    assert abs(est.cos_v_u2 - montecarlo.expected_cosine(consts.bar_rho, dim)) \
        <= 3 * est.se_v_u2 + 2 * consts.bar_rho / dim**2
    assert abs(est.cos_v_u1) <= 3 * est.se_v_u1


# Raw outputs recorded when each chunk still returned an (n, k) array and was
# summed down its columns.  Each case spans at least two chunks; the tolerance
# admits a change of summation order but not of the sample streams or chunking.
_CFG = VqConfig(1.0, 1.0, 0.5, 0, 0)
PINNED_ESTIMATES = {
    "genie": (lambda: dataclasses.astuple(
        genie_distortion_mc(SourceSpec(1.0, 0.5), _CFG, 150_000, seed=11)),
        (0.12151954143384408, 0.0004397998731396205, 0.23481365278654928,
         0.0008593622022058658, 150000)),
    "maxcorr": (lambda: dataclasses.astuple(
        bounds.maxcorr_linear_maps(SourceSpec(1.0, 0.3), 0.25, 150_000, seed=18)),
        (-0.0028260609109996074, -0.001340868742439499, 0.9997587424726446,
         0.9932323465856665, 0.5620260086886478, 0.6794968327167458,
         0.0017664077131326495, 0.0024811716202151734, 150000)),
    "angle": (lambda: dataclasses.astuple(
        surrogate_angle_moments(SourceSpec(1.0, 0.5), _CFG, dim=16, draws=10_000, seed=24)),
        (0.3645373750096548, 0.002200423254146217, 0.14670710448264604,
         0.002474753424410652, 0.002124965640896952, 0.002511333991033578, 10000, 16)),
    "sphere": (lambda: sphere_cap_fraction_mc(8, 0.9, 150_000, seed=30),
               (0.03734666666666667, 0.0004895705135153707)),
}


@pytest.mark.parametrize("dim", [1, 16, 64])
def test_angle_blocks_match_one_block_draw(dim, monkeypatch):
    """Blocked draws give the one-block estimate bit for bit.  5000 draws make
    chunks of 4096 and 904, which blocks of 7 draws divide neither of, nor
    the default blocks at dim 64 (512 draws) the whole count."""
    def estimate():
        return surrogate_angle_moments(SourceSpec(1.0, 0.5), _CFG, dim=dim, draws=5000, seed=31)

    blocked = estimate()
    monkeypatch.setattr(montecarlo, "_BLOCK_TUPLES", 1 << 40)
    whole = estimate()
    monkeypatch.setattr(montecarlo, "_BLOCK_TUPLES", 7 * dim + dim - 1)  # 7 draws per block
    assert estimate() == whole
    assert blocked == whole


@pytest.mark.parametrize("name", PINNED_ESTIMATES)
def test_estimates_pinned_and_thread_independent(name, monkeypatch):
    estimate, pinned = PINNED_ESTIMATES[name]
    monkeypatch.setenv("GMAC_THREADS", "1")
    serial = estimate()
    monkeypatch.setenv("GMAC_THREADS", "2")
    assert estimate() == serial
    assert serial == pytest.approx(pinned, rel=0.0, abs=1e-12)


def test_from_values_sums_each_row_to_within_ulps():
    rng = np.random.default_rng(3)
    rows = 1e6 + rng.standard_normal((3, 100_003))  # a large offset exposes a running sum
    acc = MomentAccumulator.from_values(rows)
    assert acc.count == rows.shape[1]
    for mean, row in zip(acc.mean, rows):
        exact = math.fsum(row.tolist()) / row.size
        assert abs(mean - exact) <= 8 * math.ulp(exact)


def test_combine_matches_one_block():
    rng = np.random.default_rng(4)
    values = 3.0 + rng.standard_normal((4, 150_000))
    for cut in (1, 65_536, 149_999):
        joined = MomentAccumulator.from_values(values[:, :cut]).combine(
            MomentAccumulator.from_values(values[:, cut:]))
        whole = MomentAccumulator.from_values(values)
        assert joined.count == whole.count
        np.testing.assert_allclose(joined.mean, whole.mean, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(joined.m2, whole.m2, rtol=1e-15, atol=0.0)


def test_empty_monte_carlo_runs_raise():
    src = SourceSpec(1.0, 0.5)
    with pytest.raises(DomainError, match="^total: "):
        accumulate_chunks(lambda rng, n: rng.standard_normal((1, n)), 1, 0)
    with pytest.raises(DomainError, match="^total: "):
        sphere_cap_fraction_mc(8, 0.9, 0, seed=1)
    with pytest.raises(DomainError, match="^total: "):
        surrogate_angle_moments(src, _CFG, dim=8, draws=0, seed=1)
    with pytest.raises(DomainError, match="^dim: "):
        surrogate_angle_moments(src, _CFG, dim=0, draws=100, seed=1)


def test_cap_ratio_small_dimensions():
    for phi in np.linspace(0.05, math.pi / 2, 60):
        assert cap_ratio_exact(2, float(phi)) == pytest.approx(phi / math.pi, abs=1e-15)
        assert cap_ratio_exact(3, float(phi)) == pytest.approx(
            (1 - math.cos(phi)) / 2, abs=1e-15)
    assert cap_ratio_exact(3, math.pi / 3) == pytest.approx(0.25, abs=1e-15)
    assert cap_ratio_exact(2, math.pi / 2) == 0.5
    assert cap_ratio_exact(200, math.pi / 2) == 0.5


def test_cap_ratio_matches_betainc():
    special = pytest.importorskip("scipy.special")
    phis = np.linspace(0.05, math.pi / 2, 60)
    for n in range(2, 201):
        ref = 0.5 * special.betainc((n - 1) / 2.0, 0.5, np.sin(phis) ** 2)
        got = np.array([cap_ratio_exact(n, float(phi)) for phi in phis])
        keep = ref >= 1e-280
        assert keep[-1]
        np.testing.assert_allclose(got[keep], ref[keep], rtol=5e-13, atol=0.0, err_msg=f"n={n}")


def test_gamma_ratio_matches_gammaln():
    special = pytest.importorskip("scipy.special")
    for x in (0.5, 3.3, 15.9, 16.0, 50.0):
        ref = math.exp(special.gammaln(x + 0.5) - special.gammaln(x))
        assert gamma_ratio_exact(x) == pytest.approx(ref, rel=5e-14, abs=0.0)
    # past x = 1e3 the five-term series is off by less than 2e-18 relative
    for x in (1e3, 1e5, 1e8, 1e12):
        assert gamma_ratio_exact(x) == pytest.approx(gamma_ratio_series(x, terms=5), rel=5e-15)


def test_cap_ratio_sandwich():
    for n in range(4, 201, 13):
        for phi in np.linspace(0.1, 1.4, 14):
            lower, upper = cap_ratio_bounds(n, float(phi))
            exact = cap_ratio_exact(n, float(phi))
            assert exact <= upper * (1 + 1e-12)
            if lower > 0.0:
                assert lower <= exact * (1 + 1e-12)


def test_cap_ratio_domain():
    with pytest.raises(DomainError):
        cap_ratio_exact(1, 0.5)
    with pytest.raises(DomainError):
        cap_ratio_bounds(8, math.pi / 2)
    with pytest.raises(DomainError):
        cap_ratio_exact(8, 0.0)


def test_sphere_cap_sampling():
    frac, se = sphere_cap_fraction_mc(8, 0.9, 40_000, seed=9)
    assert abs(frac - cap_ratio_exact(8, 0.9)) <= 3 * se


def test_gamma_ratio_series():
    assert abs(gamma_ratio_series(1e4, terms=3) / gamma_ratio_exact(1e4) - 1) <= 1e-12
    assert gamma_ratio_exact(0.5) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
    # leading term only: ratio / sqrt(x) -> 1
    x = 1e8
    assert gamma_ratio_series(x, terms=1) == math.sqrt(x)
    assert abs(gamma_ratio_exact(x) / math.sqrt(x) - 1) <= 1.0 / (4 * x)
    with pytest.raises(DomainError):
        gamma_ratio_series(1.0, terms=6)
    with pytest.raises(DomainError):
        gamma_ratio_series(-1.0)


def test_gmac_threads_is_read_at_each_call(monkeypatch):
    """Each call runs on as many workers as GMAC_THREADS says at that call:
    with ``w`` workers, ``w`` chunks that wait for each other all finish."""
    main = threading.get_ident()

    def threads_used(workers: int) -> set:
        monkeypatch.setenv("GMAC_THREADS", str(workers))
        barrier = threading.Barrier(workers, timeout=20)
        used = set()

        def chunk(rng, n):
            used.add(threading.get_ident())
            if workers > 1:
                barrier.wait()
            return rng.standard_normal((1, n))
        accumulate_chunks(chunk, 1, 10 * workers, chunk=10)
        return used

    assert threads_used(1) == {main}
    three = threads_used(3)
    assert len(three) == 3 and main not in three
    assert len(threads_used(2)) == 2
    assert threads_used(1) == {main}


def test_concurrent_callers_share_one_pool(monkeypatch):
    """Six threads call ``accumulate_chunks`` at once at four workers, more
    than there are cores, with a short switch interval: each gets the serial
    result, and the four-worker pool is started once."""
    def chunk(rng, n):
        return rng.standard_normal((3, n))

    monkeypatch.setenv("GMAC_THREADS", "1")
    serial = [accumulate_chunks(chunk, seed, 5000, chunk=500) for seed in range(6)]
    monkeypatch.setenv("GMAC_THREADS", "4")
    results = [None] * 6

    def call(i):
        results[i] = accumulate_chunks(chunk, i, 5000, chunk=500)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for got, want in zip(results, serial):
        assert got is not None and got.count == want.count
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.m2, want.m2)
    workers = [t for t in threading.enumerate() if t.name.startswith("confmac-mc4_")]
    assert 1 <= len(workers) <= 4


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python args`` on this checkout's package at two workers; a hang
    fails at the timeout."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "GMAC_THREADS": "2"},
                          timeout=120)


_NESTED = """
import os, sys
import numpy as np
from confmac._mc import accumulate_chunks

def inner(rng, n):
    return rng.standard_normal((2, n))

def outer(rng, n):  # each outer chunk runs a whole Monte-Carlo run of its own
    acc = accumulate_chunks(inner, int(rng.integers(1 << 30)), 250, chunk=100)
    return np.repeat(np.concatenate([acc.mean, acc.m2])[:, None], n, axis=1)

os.environ["GMAC_THREADS"] = sys.argv[1]
acc = accumulate_chunks(outer, 5, 40, chunk=10)
print(repr((acc.mean.tolist(), acc.m2.tolist())))
"""


def test_nested_accumulate_chunks_returns_the_serial_result():
    """A chunk function that calls ``accumulate_chunks`` on the shared pool
    returns (its call runs serially) and gives the serial result.  Run in a
    child process, so a deadlock fails the test at its timeout."""
    out = {}
    for workers in ("1", "2", "3"):
        proc = _python("-c", _NESTED, workers)
        assert proc.returncode == 0, proc.stderr
        out[workers] = proc.stdout
    assert out["1"] == out["2"] == out["3"]
    assert out["1"].startswith("([")


def test_validate_process_exits_with_its_pool_idle():
    """The persistent worker pool does not hold the interpreter open."""
    proc = _python("-m", "confmac.cli", "validate", "--samples", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10/10 checks passed" in proc.stdout
