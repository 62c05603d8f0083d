"""The stacked-frame pairings against the explicit contractions they replace.

Every first term and oracle overlap is one GEMV per column over the stacked
terms. These tests write the contractions out element by element and bound
the memory a pairing holds on a prepared frame.
"""

import tracemalloc

import numpy as np
import pytest

from qbmgeo import (
    ParamHamiltonian,
    fb_exact,
    fb_spectral_oracle,
    km_exact,
    km_spectral_oracle,
    random_hamiltonian,
    thermal_state,
)
from qbmgeo.info_geometry import km_weight
from qbmgeo.linalg import NumericConsistencyError

# XX, YY and ZZ commute; at equal coefficients three Bell states share one
# eigenvalue, so the divided differences take their series branch
DEGENERATE = ParamHamiltonian(["XX", "YY", "ZZ"], [0.4, 0.4, 0.4])


def _explicit(ts):
    lam = ts.rho_eigenvalues
    means = ts.term_means
    filtered = [ts.filter * g for g in ts.terms_eig]
    derivs = [g * ts.divided_differences + np.diag(m * lam) for g, m in zip(ts.terms_eig, means)]
    fb_w = 2.0 / (lam[:, None] + lam[None, :])
    km_w = km_weight(lam)
    n = len(ts.terms_eig)
    out = {name: np.empty((n, n)) for name in ("fb", "km", "fb_oracle", "km_oracle")}
    for i in range(n):
        for j in range(n):
            product = means[i] * means[j]
            out["fb"][i, j] = np.einsum("kl,l,lk->", filtered[i], lam, filtered[j]).real - product
            out["km"][i, j] = np.einsum("kl,l,lk->", ts.terms_eig[i], lam, filtered[j]).real - product
            out["fb_oracle"][i, j] = np.einsum("kl,kl,lk->", fb_w, derivs[i], derivs[j]).real
            out["km_oracle"][i, j] = np.einsum("kl,kl,lk->", km_w, derivs[i], derivs[j]).real
    return {name: (m + m.T) / 2 for name, m in out.items()}


def _instances():
    rng = np.random.default_rng(20261020)
    for n in range(1, 7):
        yield random_hamiltonian(rng, n, min(5, 4**n - 1))
    yield DEGENERATE


@pytest.mark.parametrize("h", list(_instances()), ids=lambda h: f"{h.n_qubits}q-{'-'.join(h.terms)}")
def test_pairings_match_explicit_contractions(h):
    ts = thermal_state(h)
    expected = _explicit(ts)
    routes = {"fb": fb_exact, "km": km_exact,
              "fb_oracle": fb_spectral_oracle, "km_oracle": km_spectral_oracle}
    for name, fn in routes.items():
        np.testing.assert_allclose(fn(h, ts).values, expected[name], rtol=0, atol=1e-12, err_msg=name)


def test_degenerate_instance_takes_the_series_branch():
    mu = thermal_state(DEGENERATE).g_eigenvalues
    half_gaps = np.abs(mu[:, None] - mu[None, :])[~np.eye(mu.size, dtype=bool)] / 2
    assert np.any(half_gaps < 1e-6)


def test_pairing_peak_memory():
    # a prepared 8-qubit, 16-term frame: each route holds a few d x d arrays,
    # not one per term
    h = random_hamiltonian(np.random.default_rng(8), 8, 16, theta_scale=0.5)
    ts = thermal_state(h)
    ts.terms_eig, ts.term_means, ts.filter, ts.divided_differences
    unit = 16 * ts.dim**2
    for fn in (fb_exact, km_exact, fb_spectral_oracle, km_spectral_oracle):
        tracemalloc.start()
        try:
            fn(h, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * unit, f"{fn.__name__} peaked at {peak / unit:.1f} d x d arrays"


@pytest.mark.parametrize("fn", [fb_exact, km_exact, fb_spectral_oracle, km_spectral_oracle])
def test_residue_checks_fire_on_a_non_hermitian_term(fn):
    # the pairing reads the right operand transposed, not conjugated, so a
    # term that is not Hermitian leaves an imaginary residue the checks see
    h = ParamHamiltonian(["ZI", "XX", "IY"], [0.7, -0.4, 0.3])
    ts = thermal_state(h)
    ts.term_means
    ts.terms_eig[0] *= 1 + 1e-3j
    with pytest.raises(NumericConsistencyError, match="imaginary residue"):
        fn(h, ts)
