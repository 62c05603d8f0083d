import time

import numpy as np
import pytest
from scipy import stats

from qbmgeo import (
    FISHER_BURES,
    KUBO_MORI,
    ParamHamiltonian,
    ShotConfig,
    estimate_fb_first_term,
    estimate_km_first_term,
    estimate_matrix,
    estimate_product_term,
    exact_first_term,
    exact_product_term,
    fb_exact,
    hadamard_test_prob,
    km_exact,
    pauli_to_matrix,
    random_hamiltonian,
    thermal_state,
)
from qbmgeo import bp_channel, shot_estimators
from qbmgeo.shot_estimators import _interference_means, draw_first_term, draw_product_term

CFG = ShotConfig(epsilon=0.1, delta=0.05, master_seed=99)


def test_shot_budget_formula():
    assert ShotConfig(0.1, 0.05).shots == 738
    assert ShotConfig(0.05, 0.05).shots == 2952


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(0.0, 0.05)
    with pytest.raises(ValueError):
        ShotConfig(0.1, 1.0)
    with pytest.raises(ValueError):
        ShotConfig(0.1, 0.05, master_seed=-1)
    for eps in (1e-300, 1e-160, float("inf")):
        with pytest.raises(ValueError, match="no finite Hoeffding shot budget"):
            ShotConfig(eps, 0.05)


def test_exact_first_term_is_the_closed_form_first_term():
    # the first-term target minus <G_i><G_j> is the exact matrix element
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        h = random_hamiltonian(rng, n, min(4, 4**n - 1))
        ts = thermal_state(h)
        means = ts.term_means
        for kind, exact in ((FISHER_BURES, fb_exact), (KUBO_MORI, km_exact)):
            values = exact(h, ts).values
            for i in range(h.n_params):
                for j in range(h.n_params):
                    first = exact_first_term(h, kind, i, j, ts)
                    assert abs(first - means[i] * means[j] - values[i, j]) <= 1e-14


def test_hadamard_prob_interference_extremes():
    rho = np.eye(2) / 2
    assert hadamard_test_prob(np.eye(2), np.eye(2), rho) == 1.0
    assert hadamard_test_prob(np.eye(2), -np.eye(2), rho) == 0.0


def test_hadamard_prob_z_on_ground_state():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert hadamard_test_prob(np.eye(2), pauli_to_matrix("Z"), ket0) == 1.0


def test_hadamard_prob_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        hadamard_test_prob(np.eye(2) * 0.5, np.eye(2), np.eye(2) / 2)


def test_hadamard_prob_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h1 = (h1 + h1.conj().T) / 2
        w, v = np.linalg.eigh(h1)
        u = (v * np.exp(1j * w)) @ v.conj().T
        p = hadamard_test_prob(u, pauli_to_matrix("X"), np.eye(2) / 2)
        assert 0.0 <= p <= 1.0


def test_interference_means_match_explicit_unitaries():
    # dual route: the vectorized eigenbasis evaluation against explicitly
    # constructed U0 = e^{-iGt}, U1 = G_i e^{-iGt} G_j through the primitive
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.3])
    ts = thermal_state(h)
    mats = h.term_matrices()
    gi, gj = ts.to_eigenbasis(mats[0]), ts.to_eigenbasis(mats[1])
    rng = np.random.default_rng(1)
    taus = rng.normal(size=12) * 3
    means = _interference_means(ts, gi, gj, taus)
    v, mu = ts.g_eigenvectors, ts.g_eigenvalues
    for tau, mean in zip(taus, means):
        u_evolve = (v * np.exp(-1j * mu * tau)) @ v.conj().T
        u1 = mats[0] @ u_evolve @ mats[1]
        p0 = hadamard_test_prob(u_evolve, u1, ts.rho)
        assert abs((2 * p0 - 1) - mean) <= 1e-10


def _gap_means(ts, gi, gj, times):
    # reference: one phase per eigenvalue gap, sum_kl W_kl e^{it(mu_l - mu_k)}
    mu = ts.g_eigenvalues
    gaps = (mu[None, :] - mu[:, None]).ravel()
    weights = (gj * gi.T * ts.rho_eigenvalues[:, None]).ravel()
    return np.real(np.exp(1j * np.outer(times, gaps)) @ weights)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_interference_means_match_gap_formula(n_qubits):
    # X, Y and Z on one qubit rule out a time-reversal symmetry, under which
    # every mean is even in t and a transposed or conjugated kernel still passes
    rng = np.random.default_rng(300 + n_qubits)
    pad = "I" * (n_qubits - 1)
    labels = [p + pad for p in "XYZ"]
    if n_qubits > 1:
        labels += [p for p in random_hamiltonian(rng, n_qubits, 2).terms if p not in labels]
    h = ParamHamiltonian(labels, rng.uniform(-1.5, 1.5, size=len(labels)))
    ts = thermal_state(h)
    times = np.concatenate([[-24.0, 0.0, 24.0], rng.uniform(-24.0, 24.0, size=60)])
    for i in range(h.n_params):
        for j in range(h.n_params):
            gi, gj = ts.terms_eig[i], ts.terms_eig[j]
            dev = np.max(np.abs(_interference_means(ts, gi, gj, times) - _gap_means(ts, gi, gj, times)))
            assert dev <= 1e-12


@pytest.mark.parametrize("chunk", [1, 16, 24])
def test_interference_means_chunking(monkeypatch, chunk):
    h = ParamHamiltonian(["ZZI", "XIX", "IYZ"], [0.4, -0.7, 0.9])
    ts = thermal_state(h)
    gi, gj = ts.terms_eig[0], ts.terms_eig[1]
    times = np.random.default_rng(5).uniform(-24.0, 24.0, size=101)
    whole = _interference_means(ts, gi, gj, times)
    monkeypatch.setattr(shot_estimators, "_CHUNK", chunk)  # 1-3 rows per chunk at d = 8
    np.testing.assert_allclose(_interference_means(ts, gi, gj, times), whole, rtol=0, atol=1e-14)


def _binomial_gof_pvalue(counts, n, p):
    """Chi-square goodness of fit of integer counts in [0, n] to Binomial(n, p).

    Adjacent outcomes are pooled until every bin expects at least 5 draws.
    """
    expected = stats.binom.pmf(np.arange(n + 1), n, p) * counts.size
    observed = np.bincount(counts, minlength=n + 1).astype(float)
    bins_obs, bins_exp, acc_obs, acc_exp = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_obs, acc_exp = acc_obs + o, acc_exp + e
        if acc_exp >= 5.0:
            bins_obs.append(acc_obs)
            bins_exp.append(acc_exp)
            acc_obs, acc_exp = 0.0, 0.0
    bins_obs[-1] += acc_obs
    bins_exp[-1] += acc_exp
    stat = float(np.sum((np.array(bins_obs) - bins_exp) ** 2 / np.array(bins_exp)))
    return float(stats.chi2.sf(stat, len(bins_obs) - 1))


def test_shot_primitives_follow_exact_binomial_law():
    # each shot is +-1 with mean x (the term's exact value), so the number of
    # +1 outcomes in N shots is exactly Binomial(N, (1 + x)/2); alpha fixed at 1e-3
    h = ParamHamiltonian(["XX", "ZI", "YX"], [0.6, -0.4, 0.8])
    ts = thermal_state(h)
    cfg = ShotConfig(epsilon=0.5, delta=0.5, master_seed=31)
    n, seeds = cfg.shots, range(2000)
    assert n == 12
    gi, gj = ts.terms_eig[0], ts.terms_eig[1]
    means = ts.term_means
    cases = {
        FISHER_BURES: (exact_first_term(h, FISHER_BURES, 0, 1, ts),
                       lambda s: draw_first_term(ts, gi, gj, FISHER_BURES, cfg, (s, 0, 0, 1))),
        KUBO_MORI: (exact_first_term(h, KUBO_MORI, 0, 1, ts),
                    lambda s: draw_first_term(ts, gi, gj, KUBO_MORI, cfg, (s, 1, 0, 1))),
        "product": (exact_product_term(h, 0, 1, ts),
                    lambda s: draw_product_term(means[0], means[1], cfg, (s, 2, 0, 1))),
    }
    for name, (x, draw) in cases.items():
        counts = np.array([round(n * (draw(s) + 1.0) / 2.0) for s in seeds])
        assert _binomial_gof_pvalue(counts, n, (1.0 + x) / 2.0) >= 1e-3, name


def test_first_term_exact_at_origin():
    h = ParamHamiltonian(["Z"], [0.0])
    rep = estimate_fb_first_term(h, 0, 0, CFG)
    assert rep.value == 1.0 and rep.exact_reference == 1.0
    assert rep.shots == CFG.shots


def test_estimator_determinism():
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.0])
    a = estimate_fb_first_term(h, 0, 1, CFG)
    b = estimate_fb_first_term(h, 0, 1, CFG)
    assert a.value == b.value


def test_fb_first_term_statistics():
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.0])
    errs = []
    for rep in range(60):
        r = estimate_fb_first_term(h, 0, 1, CFG, stream_prefix=(rep,))
        errs.append(r.error)
    errs = np.asarray(errs)
    assert np.mean(np.abs(errs) <= CFG.epsilon) >= 0.9
    assert abs(errs.mean()) <= 4 * errs.std(ddof=1) / np.sqrt(errs.size)


def test_km_first_term_statistics():
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.3])
    errs = []
    for rep in range(60):
        r = estimate_km_first_term(h, 1, 0, CFG, stream_prefix=(rep,))
        errs.append(r.error)
    errs = np.asarray(errs)
    assert np.mean(np.abs(errs) <= CFG.epsilon) >= 0.9


def test_km_equals_fb_target_for_commuting_terms():
    h = ParamHamiltonian(["ZI", "IZ"], [0.4, -0.7])
    assert abs(exact_first_term(h, FISHER_BURES, 0, 1) - exact_first_term(h, KUBO_MORI, 0, 1)) <= 1e-12
    fb = estimate_fb_first_term(h, 0, 1, CFG)
    km = estimate_km_first_term(h, 0, 1, CFG)
    assert abs(fb.value - km.value) <= 2 * CFG.epsilon


def test_product_term_zero_mean_at_origin():
    h = ParamHamiltonian(["ZI", "IX"], [0.0, 0.0])
    rep = estimate_product_term(h, 0, 1, CFG)
    assert rep.exact_reference == 0.0
    assert abs(rep.value) <= CFG.epsilon


def test_product_term_worked_value():
    h = ParamHamiltonian(["Z"], [np.log(2)])
    rep = estimate_product_term(h, 0, 0, CFG)
    assert abs(rep.exact_reference - 0.36) <= 1e-12
    assert abs(rep.value - 0.36) <= CFG.epsilon
    # outcomes are +-1 exactly, so N * value has the parity of N
    scaled = rep.value * rep.shots
    assert abs(scaled - round(scaled)) <= 1e-9
    assert (round(scaled) - rep.shots) % 2 == 0


def test_exact_product_term_helper():
    h = ParamHamiltonian(["Z"], [np.log(2)])
    assert abs(exact_product_term(h, 0, 0) - 0.36) <= 1e-12


def test_matrix_estimate_commuting_single_term():
    h = ParamHamiltonian(["Z"], [np.log(2)])
    res = estimate_matrix(h, FISHER_BURES, ShotConfig(0.05, 0.05, master_seed=4), include_exact=True)
    assert abs(res.matrix.values[0, 0] - 0.64) <= 2 * 0.05
    assert res.max_dev_from_exact <= 2 * 0.05


def test_matrix_estimate_accounting_and_determinism():
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.3])
    cfg = ShotConfig(0.1, 0.1, master_seed=12)
    res1 = estimate_matrix(h, KUBO_MORI, cfg)
    res2 = estimate_matrix(h, KUBO_MORI, cfg, workers=4)
    np.testing.assert_array_equal(res1.matrix.values, res2.matrix.values)
    assert res1.total_shots == 4 * 2 * cfg.shots
    vals = res1.matrix.values
    np.testing.assert_array_equal(vals, vals.T)
    assert res1.matrix.method == "shot_estimate"
    for row in res1.element_reports:
        for rep in row:
            assert rep.shots == 2 * cfg.shots
            assert rep.value == rep.first_term - rep.second_term


def test_matrix_estimate_builds_sampler_once(monkeypatch):
    # as in a fresh process: the sampler cache is empty when the worker pool starts
    sampler = bp_channel.default_sampler()
    builds = []

    def counting_build():
        builds.append(1)
        time.sleep(0.2)  # a build slow enough that every worker reaches the cache during it
        return sampler

    h = ParamHamiltonian(["Z", "X"], [1.0, 0.3])
    cfg = ShotConfig(0.1, 0.1, master_seed=12)
    serial = estimate_matrix(h, FISHER_BURES, cfg)
    monkeypatch.setattr(bp_channel, "build_tent_sampler", counting_build)
    bp_channel.default_sampler.cache_clear()
    pooled = estimate_matrix(h, FISHER_BURES, cfg, workers=4)
    assert len(builds) == 1
    np.testing.assert_array_equal(pooled.matrix.values, serial.matrix.values)


def test_index_validation():
    h = ParamHamiltonian(["Z"], [0.1])
    with pytest.raises(ValueError):
        estimate_fb_first_term(h, 0, 1, CFG)
    with pytest.raises(ValueError):
        estimate_matrix(h, "nonsense", CFG)
