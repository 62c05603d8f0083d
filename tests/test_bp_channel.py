import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from qbmgeo import (
    ParamHamiltonian,
    apply_channel,
    bp_channel,
    build_tent_sampler,
    default_sampler,
    filter_value,
    pauli_to_matrix,
    sample_t,
    stream_rng,
    tent_density,
    thermal_state,
)
from conftest import random_instance

X = pauli_to_matrix("X")
Z = pauli_to_matrix("Z")


def test_density_even():
    assert tent_density(1.0) == tent_density(-1.0)
    t = np.array([0.3, -0.3, 2.0, -2.0])
    p = tent_density(t)
    np.testing.assert_array_equal(p[::2], p[1::2])


def test_density_rejects_zero():
    with pytest.raises(ValueError):
        tent_density(0.0)
    with pytest.raises(ValueError):
        tent_density(np.array([1.0, 0.0]))


def test_density_normalization_by_quadrature():
    # adaptive quadrature, split at 1 to isolate the log singularity
    inner, _ = quad(tent_density, 0, 1, limit=200, epsabs=1e-13)
    outer, _ = quad(tent_density, 1, np.inf, limit=200, epsabs=1e-13)
    assert abs(2 * (inner + outer) - 1.0) <= 1e-8


def test_density_tail_bound():
    assert tent_density(3.0) <= (4 / np.pi) * np.exp(-np.pi * 3) * (1 + 1e-3)


def test_filter_limit_and_evenness():
    assert filter_value(0.0) == 1.0
    rng = np.random.default_rng(0)
    d = rng.normal(size=20) * 3
    np.testing.assert_allclose(filter_value(d), filter_value(-d), rtol=0, atol=1e-15)
    # series branch continuous at the switch
    assert abs(filter_value(1.0000001e-6) - filter_value(0.9999999e-6)) < 1e-12


def test_filter_against_quadrature_oracle():
    for delta in (0.5, 2.0, 5.0):
        inner, _ = quad(lambda t: tent_density(t) * np.cos(delta * t), 0, 1, limit=200, epsabs=1e-13)
        outer, _ = quad(lambda t: tent_density(t) * np.cos(delta * t), 1, np.inf, limit=400, epsabs=1e-13)
        assert abs(2 * (inner + outer) - filter_value(delta)) <= 1e-8
    assert abs(filter_value(2.0) - np.tanh(1.0)) <= 1e-15


def test_sampler_build_invariants():
    s = default_sampler()
    assert s.cdf[0] <= 1e-12 and 1.0 - s.cdf[-1] <= 1e-12
    assert s.tv_error <= 1e-6
    assert np.all(np.diff(s.grid) > 0)
    np.testing.assert_allclose(s.grid, -s.grid[::-1], atol=0)  # symmetric grid
    assert s.t_max == 12.0


@pytest.fixture(scope="module")
def fresh_build():
    """A sampler built anew rather than taken from the cache, and the traced peak of its build."""
    tracemalloc.start()
    try:
        s = build_tent_sampler()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return s, peak


def test_sampler_golden(fresh_build):
    # recorded from the build that evaluated the CDF at every node and every cell endpoint;
    # a change of grid, CDF or certificate must update these on purpose
    s, _ = fresh_build
    assert hashlib.sha256(s.grid.tobytes()).hexdigest() == (
        "a1d3db16ea680b89c1e887f47f5289c63bf0981460643a6a1c1a3beef840550e")
    assert hashlib.sha256(s.cdf.tobytes()).hexdigest() == (
        "263456dc7c4e2f7a0ce003071c3cf4e15eaeefbb8e2aa263175d84bb4ff51804")
    assert s.tv_error.hex() == "0x1.d6b05716f74b2p-22"


def test_sampler_build_memory(fresh_build):
    s, peak = fresh_build
    assert peak <= 2.5 * (s.grid.nbytes + s.cdf.nbytes)


def _direct_tv(grid, cdf, t_max):
    # one pass over all positive cells, with the true CDF evaluated at both endpoints
    half = len(grid) // 2
    a, b = grid[half:-1], grid[half + 1:]
    mass = cdf[half + 1:] - cdf[half:-1]
    p_hat = mass / (b - a)
    ok = p_hat > 1e-300
    tau = np.clip(np.where(ok, bp_channel._density_crossing(np.where(ok, p_hat, 1.0)), a), a, b)
    f = bp_channel._cdf_exact
    cell_l1 = np.where(ok, np.abs(2.0 * f(tau) - f(a) - f(b) + p_hat * (a + b - 2.0 * tau)), mass)
    return (2.0 * float(np.sum(cell_l1)) + 2.0 * float(bp_channel._upper_tail(t_max))) / 2.0


def test_sampler_build_matches_direct_evaluation(monkeypatch):
    # a coarse grid whose t_max leaves a tail above float resolution, so the clamped last
    # node differs from the true CDF, certified in many blocks with a partial last one
    monkeypatch.setattr(bp_channel, "TV_BOUND", 1.0)
    monkeypatch.setattr(bp_channel, "_TV_BLOCK", 7)
    s = build_tent_sampler(t_max=4.0, nodes_per_section=50)
    pos = bp_channel._positive_nodes(4.0, 50)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    tail = bp_channel._upper_tail
    cdf = np.where(grid >= 0, 1.0 - tail(grid), tail(-grid))
    cdf[0], cdf[-1] = 0.0, 1.0
    np.testing.assert_array_equal(s.grid, grid)
    np.testing.assert_array_equal(s.cdf, cdf)
    assert 1.0 - bp_channel._cdf_exact(4.0) > 0.0
    assert s.tv_error == _direct_tv(grid, cdf, 4.0)


def test_sampler_determinism():
    s = default_sampler()
    a = sample_t(s, stream_rng(123, 1), size=1000)
    b = sample_t(s, stream_rng(123, 1), size=1000)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= -s.t_max and a.max() <= s.t_max


def test_sampler_zero_mean():
    s = default_sampler()
    draws = sample_t(s, stream_rng(7, 2), size=1_000_000)
    assert abs(draws.mean()) <= 3 * draws.std(ddof=1) / 1e3


def test_sampler_cosine_moments():
    s = default_sampler()
    draws = sample_t(s, stream_rng(7, 3), size=200_000)
    for delta in (0.5, 2.0, 5.0):
        c = np.cos(delta * draws)
        band = 3 * c.std(ddof=1) / np.sqrt(c.size)
        assert abs(c.mean() - filter_value(delta)) <= band


def test_channel_identity_at_zero_coupling():
    ts = thermal_state(ParamHamiltonian(["Z"], [0.0]))
    rng = np.random.default_rng(1)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = (m + m.conj().T) / 2
    np.testing.assert_allclose(apply_channel(ts, m), m, atol=1e-12)


def test_channel_fixes_commuting_operator():
    ts = thermal_state(ParamHamiltonian(["Z"], [1.0]))
    np.testing.assert_allclose(apply_channel(ts, Z), Z, atol=1e-12)


def test_channel_filters_offdiagonal():
    # G = Z with unit coefficient: the X gap is 2, so X picks up tanh(1)
    ts = thermal_state(ParamHamiltonian(["Z"], [1.0]))
    np.testing.assert_allclose(apply_channel(ts, X), np.tanh(1.0) * X, atol=1e-12)


def test_channel_trace_preserving_and_self_adjoint():
    rng = np.random.default_rng(2)
    for _ in range(6):
        h = random_instance(rng)
        ts = thermal_state(h)
        m = rng.normal(size=(ts.dim, ts.dim)) + 1j * rng.normal(size=(ts.dim, ts.dim))
        m = (m + m.conj().T) / 2
        out = apply_channel(ts, m)
        assert abs(np.trace(out) - np.trace(m)) <= 1e-10
        # self-adjointness with respect to rho
        lhs = np.trace(out @ ts.rho)
        rhs = np.trace(m @ ts.rho)
        assert abs(lhs - rhs) <= 1e-10


def test_channel_linear_and_positive():
    rng = np.random.default_rng(3)
    h = random_instance(rng, max_qubits=2)
    ts = thermal_state(h)
    d = ts.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = (a + a.conj().T) / 2
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = (b + b.conj().T) / 2
    lhs = apply_channel(ts, 0.7 * a + 1.9 * b)
    np.testing.assert_allclose(lhs, 0.7 * apply_channel(ts, a) + 1.9 * apply_channel(ts, b), atol=1e-11)
    psd = a @ a.conj().T + 1e-3 * np.eye(d)
    psd = (psd + psd.conj().T) / 2
    assert np.linalg.eigvalsh(apply_channel(ts, psd))[0] >= -1e-10


def test_stream_rng_split_rule():
    a = stream_rng(42, 0, 1).random(5)
    b = stream_rng(42, 0, 1).random(5)
    c = stream_rng(42, 0, 2).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        stream_rng(-1)
