"""Fisher-Bures and Kubo-Mori information matrices of thermal states.

Two independent routes are provided for each matrix. The closed forms evaluate
channel-filtered covariances in the G(theta) eigenbasis,

    FB_ij = 1/2 <{Phi(G_i), Phi(G_j)}>_rho - <G_i><G_j>
    KM_ij = 1/2 <{G_i, Phi(G_j)}>_rho   - <G_i><G_j>,

while the spectral oracles sum weighted overlaps of the exact state
derivatives: weight 2/(lam_k + lam_l) for Fisher-Bures and the inverse
logarithmic mean of (lam_k, lam_l) for Kubo-Mori. The two routes agree to
1e-8 and are cross-checked in the test suite; Kubo-Mori dominates
Fisher-Bures in the Loewner order. Both routes pair the frame's stacked terms
by one GEMV per column (`_pair_column`), against one weighted term or one
state derivative at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bp_channel import channel_from_eigenbasis
from .gibbs import ThermalState, _drho_eigenbasis, state_for, thermal_state_from_matrix
from .hamiltonian import ParamHamiltonian
from .linalg import NumericConsistencyError, hermitize, tensor_product

FISHER_BURES = "fisher_bures"
KUBO_MORI = "kubo_mori"

METHOD_CLOSED_FORM = "theorem_closed_form"
METHOD_SPECTRAL = "spectral_oracle"
METHOD_SHOT = "shot_estimate"


@dataclass(frozen=True)
class InfoMatrix:
    """A J x J real symmetric information matrix with provenance metadata."""

    values: np.ndarray = field(repr=False)
    kind: str
    method: str
    theta: np.ndarray = field(repr=False)

    @property
    def n_params(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def condition_number(self) -> float:
        w = np.linalg.eigvalsh(self.values)
        if w[0] <= 0:
            return float("inf")
        return float(w[-1] / w[0])


def _symmetrize_checked(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    asym = float(np.max(np.abs(m - m.T)))
    if asym > tol:
        raise NumericConsistencyError(f"matrix asymmetry {asym:.3e} exceeds {tol:.1e}")
    return (m + m.T) / 2


def _real_checked(z: complex, tol: float = 1e-9) -> float:
    if abs(z.imag) > tol * (1.0 + abs(z)):
        raise NumericConsistencyError(f"imaginary residue {z.imag:.3e} exceeds {tol:.1e}")
    return z.real


def _pairing_weight(ts: ThermalState, kind: str) -> np.ndarray:
    """W = f_kl f_lk lam_l (FB) or f_lk lam_l (KM): sum_kl G_i[k, l] W[k, l] G_j[l, k] is
    Tr[Phi(G_i) rho Phi(G_j)] or Tr[G_i rho Phi(G_j)], whose real part is the first term."""
    if kind not in (FISHER_BURES, KUBO_MORI):
        raise ValueError(f"unknown matrix kind {kind!r}")
    w = ts.filter.T * ts.rho_eigenvalues
    return ts.filter * w if kind == FISHER_BURES else w


def _pair_column(stack: np.ndarray, weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[sum_kl S_i[k, l] weight[k, l] x[l, k] for each S_i in stack]: one GEMV."""
    return stack.reshape(len(stack), -1) @ (weight * x.T).ravel()


def _covariance_values(ts: ThermalState, kind: str) -> np.ndarray:
    terms, weight = ts.terms_eig, _pairing_weight(ts, kind)
    raw = np.empty((len(terms), len(terms)), dtype=complex)
    for j in range(len(terms)):
        raw[:, j] = _pair_column(terms, weight, terms[j])
    # For FB the imaginary part is the commutator component that the i <-> j
    # pairing must cancel; for KM the diagonal is real outright, and the
    # (i, j) vs (j, i) real parts agree, which _symmetrize_checked asserts
    if kind == FISHER_BURES:
        resid, where = float(np.max(np.abs(raw - raw.conj().T))), "in the covariance pairing"
    else:
        resid, where = float(np.max(np.abs(raw.diagonal().imag))), "on the diagonal"
    if resid > 1e-9 * (1.0 + float(np.max(np.abs(raw)))):
        raise NumericConsistencyError(f"imaginary residue {resid:.3e} {where}")
    out = raw.real - np.outer(ts.term_means, ts.term_means)
    return _symmetrize_checked(out)


def fb_exact(h: ParamHamiltonian, ts: ThermalState | None = None) -> InfoMatrix:
    """Fisher-Bures information matrix via the channel-filtered covariance form."""
    ts = state_for(h, ts)
    vals = _covariance_values(ts, FISHER_BURES)
    return InfoMatrix(values=vals, kind=FISHER_BURES, method=METHOD_CLOSED_FORM, theta=h.theta)


def km_exact(h: ParamHamiltonian, ts: ThermalState | None = None) -> InfoMatrix:
    """Kubo-Mori information matrix via the half-filtered covariance form."""
    ts = state_for(h, ts)
    vals = _covariance_values(ts, KUBO_MORI)
    return InfoMatrix(values=vals, kind=KUBO_MORI, method=METHOD_CLOSED_FORM, theta=h.theta)


def _oracle_values(ts: ThermalState, weight_fn) -> np.ndarray:
    # sum_kl w_kl D_i[k, l] D_j[l, k] with D_i = G_i o DD + diag(<G_i> lam), one D_j at a time:
    # the stacked terms pair with DD o w o D_j^T, plus <G_i> sum_k lam_k w_kk D_j[k, k]
    lam = ts.rho_eigenvalues
    weight = weight_fn(lam)
    diag_weight = lam * np.diagonal(weight)
    weight *= ts.divided_differences
    n = len(ts.terms_eig)
    raw = np.empty((n, n), dtype=complex)
    for j in range(n):
        d_j = _drho_eigenbasis(ts, j)
        raw[:, j] = (_pair_column(ts.terms_eig, weight, d_j)
                     + ts.term_means * (diag_weight @ np.diagonal(d_j)))
    out = np.array([_real_checked(complex(z)) for z in raw.ravel()]).reshape(n, n)
    return _symmetrize_checked(out)


def fb_spectral_oracle(h: ParamHamiltonian, ts: ThermalState | None = None) -> InfoMatrix:
    """Independent Fisher-Bures route: derivative overlaps weighted by 2/(lam_k + lam_l)."""
    ts = state_for(h, ts)
    vals = _oracle_values(ts, lambda lam: 2.0 / (lam[:, None] + lam[None, :]))
    return InfoMatrix(values=vals, kind=FISHER_BURES, method=METHOD_SPECTRAL, theta=h.theta)


def km_weight(lam: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Inverse logarithmic mean: (ln x - ln y)/(x - y), with the 1/x limit on ties.

    Pairs with |x - y| <= rel_tol * max(x, y) take the limit weight.
    """
    x, y = lam[:, None], lam[None, :]
    tie = np.abs(x - y) <= rel_tol * np.maximum(x, y)
    num = np.log(np.where(tie, 1.0, x)) - np.log(np.where(tie, 1.0, y))
    den = np.where(tie, 1.0, x - y)
    return np.where(tie, 1.0 / x, num / den)


def km_spectral_oracle(h: ParamHamiltonian, ts: ThermalState | None = None) -> InfoMatrix:
    """Independent Kubo-Mori route: derivative overlaps with inverse-log-mean weights."""
    ts = state_for(h, ts)
    vals = _oracle_values(ts, km_weight)
    return InfoMatrix(values=vals, kind=KUBO_MORI, method=METHOD_SPECTRAL, theta=h.theta)


def sld_operator(h: ParamHamiltonian, j: int, ts: ThermalState | None = None) -> np.ndarray:
    """Symmetric logarithmic derivative for theta_j: -Phi(G_j) + <G_j> I.

    Solves d_j rho = (rho L + L rho)/2 and has zero mean under rho.
    """
    if not 0 <= j < h.n_params:
        raise ValueError(f"term index {j} out of range [0, {h.n_params})")
    ts = state_for(h, ts)
    out = -channel_from_eigenbasis(ts, ts.terms_eig[j]) + ts.term_means[j] * np.eye(ts.dim)
    return hermitize(out, tol=1e-10 * (1.0 + float(np.max(np.abs(out)))))


@dataclass(frozen=True)
class OrderReport:
    """Loewner-order diagnostics for a pair of information matrices."""

    min_eig_diff: float
    min_eig_a: float
    min_eig_b: float
    a_dominates_b: bool
    a_psd: bool
    b_psd: bool


def check_order(a: InfoMatrix, b: InfoMatrix, tol: float = 1e-9) -> OrderReport:
    """Eigenvalue diagnostics for a - b >= 0 and PSD of each operand."""
    if a.values.shape != b.values.shape:
        raise ValueError("information matrices have different shapes")
    if a.theta.shape != b.theta.shape or not np.array_equal(a.theta, b.theta):
        raise ValueError("information matrices were evaluated at different parameter points")
    min_diff = float(np.linalg.eigvalsh(a.values - b.values)[0])
    min_a = a.min_eigenvalue()
    min_b = b.min_eigenvalue()
    return OrderReport(
        min_eig_diff=min_diff,
        min_eig_a=min_a,
        min_eig_b=min_b,
        a_dominates_b=min_diff >= -tol,
        a_psd=min_a >= -tol,
        b_psd=min_b >= -tol,
    )


@dataclass(frozen=True)
class AdditivityReport:
    """Doubled-system Fisher-Bures matrix against twice the single-system one."""

    doubled: np.ndarray = field(repr=False)
    twice_single: np.ndarray = field(repr=False)
    max_abs_diff: float
    passed: bool


def additivity_check(h: ParamHamiltonian, tol: float = 1e-8) -> AdditivityReport:
    """Fisher-Bures additivity under tensor doubling.

    The doubled family has terms G_j (x) I + I (x) G_j sharing theta, whose
    thermal state is rho(theta) (x) rho(theta); its Fisher-Bures matrix must
    equal twice the single-system matrix.
    """
    if 2 * h.n_qubits > 10:
        raise ValueError("doubled system exceeds the 10-qubit cap")
    eye = np.eye(h.dim)
    doubled_terms = [
        tensor_product(g, eye) + tensor_product(eye, g) for g in h.term_matrices()
    ]
    g_doubled = sum(c * g for c, g in zip(h.theta, doubled_terms))
    ts_doubled = thermal_state_from_matrix(g_doubled, theta=h.theta, terms=doubled_terms)
    doubled = _covariance_values(ts_doubled, FISHER_BURES)
    single = 2.0 * fb_exact(h).values
    diff = float(np.max(np.abs(doubled - single)))
    return AdditivityReport(
        doubled=doubled,
        twice_single=single,
        max_abs_diff=diff,
        passed=diff <= tol,
    )
