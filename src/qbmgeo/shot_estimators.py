"""Shot-based estimation of information-matrix elements.

Hardware circuits are simulated at the outcome-distribution level: each shot
computes the exact interference probability of the two-unitary Hadamard-test
primitive, then draws the +-1 outcome. A first-term draw samples evolution
times from the tent density (two independent times for Fisher-Bures, one for
Kubo-Mori), runs the primitive with U0 = exp(-iG(theta)t) and
U1 = G_i exp(-iG(theta)t) G_j, and records (-1)^b; a second-term draw measures
G_i and G_j on two independent copies of rho(theta) and records the product of
the +-1 eigenvalue outcomes. Each term uses N = ceil(2 ln(2/delta)/eps^2)
shots, so a single term honors the (eps, delta) accuracy contract and a
composed element (first minus second) honors (2 eps, 2 delta).

Every estimator draws from its own RNG stream derived from the master seed and
the element's indices, so results are bitwise reproducible for any worker
count; per-draw conditional means are evaluated in the G(theta) eigenbasis,
which the test suite cross-checks against explicitly constructed unitaries fed
through `hadamard_test_prob`. Each shot costs O(d) complex exponentials plus
one row of a d x d GEMM, and a batch of N shots holds N x d phases. All
sampling, the shot gradient's included, goes through two primitives:
`draw_first_term` and `draw_product_term`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bp_channel import default_sampler, sample_t, stream_rng
from .gibbs import ThermalState, state_for
from .hamiltonian import ParamHamiltonian
from .info_geometry import (
    FISHER_BURES,
    KUBO_MORI,
    METHOD_SHOT,
    InfoMatrix,
    _symmetrize_checked,
    fb_exact,
    km_exact,
)

# stream codes for the seed-split rule (master_seed, *prefix, code, i, j)
STREAM_FB_FIRST = 0
STREAM_KM_FIRST = 1
STREAM_PRODUCT = 2
STREAM_GRAD_FIRST = 3
STREAM_GRAD_PRODUCT = 4
STREAM_PAULI_MEAN = 5
STREAM_MLE_REPEAT = 6

_CHUNK = 1 << 18


@dataclass(frozen=True)
class ShotConfig:
    """Accuracy target (epsilon), failure probability (delta), and master seed."""

    epsilon: float
    delta: float
    master_seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if int(self.master_seed) < 0:
            raise ValueError("master_seed must be a non-negative 64-bit integer")

    @property
    def shots(self) -> int:
        """Hoeffding budget for a +-1 random variable: N = ceil(2 ln(2/delta)/eps^2)."""
        return int(math.ceil(2.0 * math.log(2.0 / self.delta) / self.epsilon**2))


@dataclass(frozen=True)
class EstimatorReport:
    """A shot estimate with its budget and term breakdown."""

    value: float
    shots: int
    first_term: float | None = None
    second_term: float | None = None
    exact_reference: float | None = None

    @property
    def error(self) -> float | None:
        if self.exact_reference is None:
            return None
        return self.value - self.exact_reference


def hadamard_test_prob(u0: np.ndarray, u1: np.ndarray, rho: np.ndarray) -> float:
    """P(outcome 0) of the two-unitary interference primitive.

    p_b = (2 + (-1)^b Tr[(U1†U0 + U0†U1) rho]) / 4; p_0 + p_1 = 1 by
    construction, so only p_0 is returned.
    """
    u0 = np.asarray(u0, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if u0.shape != rho.shape or u1.shape != rho.shape:
        raise ValueError("operator dimensions do not match the state")
    eye = np.eye(rho.shape[0])
    for name, u in (("u0", u0), ("u1", u1)):
        dev = float(np.max(np.abs(u.conj().T @ u - eye)))
        if dev > 1e-10:
            raise ValueError(f"{name} is not unitary (max deviation {dev:.3e})")
    t = complex(np.trace((u1.conj().T @ u0 + u0.conj().T @ u1) @ rho))
    if abs(t.imag) > 1e-9 * (1.0 + abs(t)):
        raise ValueError(f"interference trace has imaginary residue {t.imag:.3e}")
    return float(np.clip((2.0 + t.real) / 4.0, 0.0, 1.0))


def _interference_means(ts: ThermalState, gi_eig: np.ndarray, gj_eig: np.ndarray,
                        times: np.ndarray) -> np.ndarray:
    """Re Tr[G_j e^{-iGt} G_i e^{iGt} rho] for a batch of evolution times.

    In the G(theta) eigenbasis the trace is sum_kl W_kl e^{it(mu_l - mu_k)}
    with W_kl = (G_j)_kl (G_i)_lk lam_k. The phase factors as
    e^{-it mu_k} e^{it mu_l}, so with E_tk = e^{it mu_k} the means are
    Re sum_k conj(E) * (E @ W^T): d exponentials and one row of a d x d GEMM
    per time. _CHUNK bounds the complex entries of E per chunk.
    """
    mu = ts.g_eigenvalues
    weights_t = (gj_eig * gi_eig.T * ts.rho_eigenvalues[:, None]).T
    rows = max(1, _CHUNK // mu.size)
    out = np.empty(times.shape[0])
    for lo in range(0, times.shape[0], rows):
        phases = np.exp(1j * np.outer(times[lo:lo + rows], mu))
        out[lo:lo + rows] = np.real(np.sum(phases.conj() * (phases @ weights_t), axis=1))
    return out


def _rademacher_mean(means: np.ndarray, rng: np.random.Generator) -> float:
    p0 = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
    z = np.where(rng.random(means.shape[0]) < p0, 1.0, -1.0)
    return float(np.mean(z))


def pauli_outcomes(mean: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n measurements of a +-1-valued observable with the given mean."""
    p_plus = np.clip((1.0 + mean) / 2.0, 0.0, 1.0)
    return np.where(rng.random(n) < p_plus, 1.0, -1.0)


def draw_first_term(ts: ThermalState, a_eig: np.ndarray, b_eig: np.ndarray, kind: str,
                    cfg: ShotConfig, key: tuple[int, ...]) -> float:
    """Mean of cfg.shots +-1 Hadamard-test outcomes at tent times, A and B in the eigenbasis.

    Fisher-Bures evolves for t1 - t2 (two draws per shot), Kubo-Mori for one draw.
    """
    rng = stream_rng(cfg.master_seed, *key)
    sampler = default_sampler()
    t = sample_t(sampler, rng, size=cfg.shots)
    if kind == FISHER_BURES:
        t = t - sample_t(sampler, rng, size=cfg.shots)
    return _rademacher_mean(_interference_means(ts, a_eig, b_eig, t), rng)


def draw_product_term(mean_a: float, mean_b: float, cfg: ShotConfig,
                      key: tuple[int, ...]) -> float:
    """Mean of cfg.shots products of +-1 outcomes of A, then B, on two fresh copies."""
    rng = stream_rng(cfg.master_seed, *key)
    s_a = pauli_outcomes(mean_a, rng, cfg.shots)
    s_b = pauli_outcomes(mean_b, rng, cfg.shots)
    return float(np.mean(s_a * s_b))


def _state(h: ParamHamiltonian, i: int, j: int, ts: ThermalState | None) -> ThermalState:
    if not (0 <= i < h.n_params and 0 <= j < h.n_params):
        raise ValueError(f"indices ({i}, {j}) out of range [0, {h.n_params})")
    return state_for(h, ts)


def exact_first_term(h: ParamHamiltonian, kind: str, i: int, j: int,
                     ts: ThermalState | None = None) -> float:
    """Exact value targeted by the first-term estimators (for error reporting)."""
    ts = _state(h, i, j, ts)
    gi, gj = ts.terms_eig[i], ts.terms_eig[j]
    lam = ts.rho_eigenvalues.astype(complex)
    filt = ts.filter
    if kind == FISHER_BURES:
        t = complex(np.einsum("kl,l,lk->", filt * gi, lam, filt * gj))
    elif kind == KUBO_MORI:
        t = complex(np.einsum("kl,l,lk->", gi, lam, filt * gj))
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return t.real


def exact_product_term(h: ParamHamiltonian, i: int, j: int,
                       ts: ThermalState | None = None) -> float:
    """<G_i><G_j>, the two-copy product target."""
    means = _state(h, i, j, ts).term_means
    return float(means[i] * means[j])


def _estimate_first_term(h, kind, code, i, j, cfg, ts, stream_prefix) -> EstimatorReport:
    ts = _state(h, i, j, ts)
    value = draw_first_term(ts, ts.terms_eig[i], ts.terms_eig[j], kind, cfg,
                            (*stream_prefix, code, i, j))
    return EstimatorReport(
        value=value, shots=cfg.shots, first_term=value,
        exact_reference=exact_first_term(h, kind, i, j, ts),
    )


def estimate_fb_first_term(h: ParamHamiltonian, i: int, j: int, cfg: ShotConfig,
                           ts: ThermalState | None = None,
                           stream_prefix: tuple[int, ...] = ()) -> EstimatorReport:
    """Unbiased N-shot estimate of 1/2 <{Phi(G_i), Phi(G_j)}>_rho.

    Per draw: t1, t2 sampled independently from the tent density, then one
    Hadamard-test outcome at evolution time t1 - t2.
    """
    return _estimate_first_term(h, FISHER_BURES, STREAM_FB_FIRST, i, j, cfg, ts, stream_prefix)


def estimate_km_first_term(h: ParamHamiltonian, i: int, j: int, cfg: ShotConfig,
                           ts: ThermalState | None = None,
                           stream_prefix: tuple[int, ...] = ()) -> EstimatorReport:
    """Unbiased N-shot estimate of 1/2 <{G_i, Phi(G_j)}>_rho (single sampled time)."""
    return _estimate_first_term(h, KUBO_MORI, STREAM_KM_FIRST, i, j, cfg, ts, stream_prefix)


def estimate_product_term(h: ParamHamiltonian, i: int, j: int, cfg: ShotConfig,
                          ts: ThermalState | None = None,
                          stream_prefix: tuple[int, ...] = ()) -> EstimatorReport:
    """Unbiased N-shot estimate of <G_i><G_j> from two fresh state copies per shot.

    Pauli terms have +-1 eigenvalues, so each copy yields a +-1 outcome with
    the eigenprojector weights; the outcomes are drawn independently (i first,
    then j) and their products averaged.
    """
    means = _state(h, i, j, ts).term_means
    value = draw_product_term(means[i], means[j], cfg, (*stream_prefix, STREAM_PRODUCT, i, j))
    return EstimatorReport(
        value=value, shots=cfg.shots, first_term=value, exact_reference=means[i] * means[j],
    )


def estimate_element(h: ParamHamiltonian, kind: str, i: int, j: int, cfg: ShotConfig,
                     ts: ThermalState | None = None,
                     stream_prefix: tuple[int, ...] = ()) -> EstimatorReport:
    """One matrix element: first term minus product term, each on its own N shots."""
    if kind not in (FISHER_BURES, KUBO_MORI):
        raise ValueError(f"unknown matrix kind {kind!r}")
    first_fn = estimate_fb_first_term if kind == FISHER_BURES else estimate_km_first_term
    first = first_fn(h, i, j, cfg, ts=ts, stream_prefix=stream_prefix)
    second = estimate_product_term(h, i, j, cfg, ts=ts, stream_prefix=stream_prefix)
    return EstimatorReport(
        value=first.value - second.value,
        shots=first.shots + second.shots,
        first_term=first.value,
        second_term=second.value,
        exact_reference=first.exact_reference - second.exact_reference,
    )


@dataclass(frozen=True)
class ShotMatrixResult:
    """Shot-estimated information matrix with per-element reports and accounting."""

    matrix: InfoMatrix
    element_reports: tuple = field(repr=False)
    total_shots: int
    max_dev_from_exact: float | None = None


def estimate_matrix(h: ParamHamiltonian, kind: str, cfg: ShotConfig,
                    ts: ThermalState | None = None,
                    include_exact: bool = False,
                    workers: int = 1,
                    stream_prefix: tuple[int, ...] = ()) -> ShotMatrixResult:
    """Estimate all J^2 elements as first term minus product term, then symmetrize.

    Per-element RNG streams are derived from (master_seed, *stream_prefix,
    code, i, j), so the result does not depend on the worker count and is
    bitwise reproducible for a fixed master seed.
    """
    ts = state_for(h, ts)
    # fill the frame's caches and build the sampler here rather than on the worker threads
    ts.terms_eig, ts.term_means, ts.filter, default_sampler()
    n_params = h.n_params

    def element(idx: int) -> EstimatorReport:
        i, j = divmod(idx, n_params)
        return estimate_element(h, kind, i, j, cfg, ts=ts, stream_prefix=stream_prefix)

    indices = range(n_params * n_params)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(element, indices))
    else:
        reports = [element(idx) for idx in indices]

    raw = np.array([r.value for r in reports]).reshape(n_params, n_params)
    values = _symmetrize_checked(raw, tol=np.inf)  # shot noise: symmetrize unconditionally
    matrix = InfoMatrix(values=values, kind=kind, method=METHOD_SHOT, theta=h.theta)
    max_dev = None
    if include_exact:
        exact = (fb_exact if kind == FISHER_BURES else km_exact)(h, ts).values
        max_dev = float(np.max(np.abs(values - exact)))
    grid = tuple(tuple(reports[i * n_params + j] for j in range(n_params)) for i in range(n_params))
    return ShotMatrixResult(
        matrix=matrix,
        element_reports=grid,
        total_shots=sum(r.shots for r in reports),
        max_dev_from_exact=max_dev,
    )
