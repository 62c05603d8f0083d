"""Thermal (Gibbs) states rho(theta) = exp(-G(theta))/Z(theta) and their derivatives.

Inverse temperature is absorbed into theta. The exact parameter derivative of
rho is computed with the divided-difference (Daleckii-Krein) rule for the
matrix exponential in the G(theta) eigenbasis; it doubles as the independent
oracle for the closed-form information-matrix paths. A ThermalState is the
eigenframe every per-state quantity reads, so each term changes basis once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .bp_channel import filter_matrix
from .hamiltonian import ParamHamiltonian, assemble
from .linalg import (
    EXP_OVERFLOW_LIMIT,
    NumericConsistencyError,
    check_density_matrix,
    hermitize,
    spectral,
)


@dataclass(frozen=True)
class ThermalState:
    """rho(theta) together with the eigensystem of G(theta) and ln Z(theta).

    `g_eigenvalues` (mu, ascending) and `g_eigenvectors` (columns) diagonalize
    G(theta); `rho_eigenvalues` are exp(-mu)/Z in the same column order, so the
    state is rho = V diag(rho_eigenvalues) V†. `term_matrices` are the G_j of
    the family; the cached properties below are computed on first use, so a
    state read only for `rho` does no basis change.
    """

    rho: np.ndarray = field(repr=False)
    g_eigenvalues: np.ndarray = field(repr=False)
    g_eigenvectors: np.ndarray = field(repr=False)
    log_partition: float
    theta: np.ndarray = field(repr=False)
    term_matrices: tuple = field(default=(), repr=False)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def rho_eigenvalues(self) -> np.ndarray:
        return np.exp(-self.g_eigenvalues - self.log_partition)

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        v = self.g_eigenvectors
        return v.conj().T @ op @ v

    def from_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        v = self.g_eigenvectors
        return v @ op @ v.conj().T

    def mean(self, op_eig: np.ndarray) -> float:
        """Tr[op rho] for an operator given in the G(theta) eigenbasis."""
        return float(np.real(np.sum(np.diagonal(op_eig) * self.rho_eigenvalues)))

    @cached_property
    def terms_eig(self) -> np.ndarray:
        """The terms G_j in the G(theta) eigenbasis, stacked as one (J, d, d) array."""
        out = np.empty((len(self.term_matrices), self.dim, self.dim), dtype=complex)
        for j, g in enumerate(self.term_matrices):
            out[j] = self.to_eigenbasis(g)
        return out

    @cached_property
    def term_means(self) -> np.ndarray:
        """<G_j> under rho(theta)."""
        return np.array([self.mean(g) for g in self.terms_eig])

    @cached_property
    def filter(self) -> np.ndarray:
        """Channel filter f(mu_k - mu_l) on every eigenvalue gap."""
        return filter_matrix(self.g_eigenvalues)

    @cached_property
    def divided_differences(self) -> np.ndarray:
        """(exp(-mu_k) - exp(-mu_l)) / (mu_k - mu_l), normalized by Z."""
        mu = self.g_eigenvalues
        mid = (mu[:, None] + mu[None, :]) / 2.0
        half_gap = (mu[:, None] - mu[None, :]) / 2.0
        return -np.exp(-mid - self.log_partition) * _sinhc(half_gap)


def thermal_state_from_matrix(g: np.ndarray, theta=None, terms=()) -> ThermalState:
    """Thermal state of an explicit Hermitian generator matrix G = sum_j theta_j terms[j]."""
    dec = spectral(g)
    mu = dec.eigenvalues
    if mu.size and float(np.max(np.abs(mu))) > EXP_OVERFLOW_LIMIT:
        raise ValueError(
            f"max |eigenvalue| of G(theta) is {np.max(np.abs(mu)):.1f} > "
            f"{EXP_OVERFLOW_LIMIT:.0f}; rescale the coefficients"
        )
    log_z = float(logsumexp(-mu))
    lam = np.exp(-mu - log_z)
    v = dec.eigenvectors
    rho = check_density_matrix((v * lam) @ v.conj().T)
    theta = np.asarray(theta, dtype=float) if theta is not None else np.zeros(0)
    return ThermalState(
        rho=rho,
        g_eigenvalues=mu,
        g_eigenvectors=v,
        log_partition=log_z,
        theta=theta,
        term_matrices=tuple(terms),
    )


def thermal_state(h: ParamHamiltonian) -> ThermalState:
    """rho(theta) for a parameterized Pauli Hamiltonian."""
    return thermal_state_from_matrix(assemble(h), theta=h.theta, terms=h.term_matrices())


def state_for(h: ParamHamiltonian, ts: ThermalState | None) -> ThermalState:
    """`ts`, or rho(theta) of h when it is None; a given state must carry h's terms."""
    if ts is None:
        return thermal_state(h)
    if len(ts.term_matrices) != h.n_params:
        raise ValueError(f"thermal state has {len(ts.term_matrices)} terms, expected {h.n_params}")
    return ts


def expectation(obs: np.ndarray, rho: np.ndarray) -> float:
    """Tr[obs · rho] with the imaginary residue checked (<= 1e-10), then dropped."""
    obs = np.asarray(obs, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if obs.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {obs.shape} vs {rho.shape}")
    t = complex(np.trace(obs @ rho))
    if abs(t.imag) > 1e-10 * (1.0 + abs(t)):
        raise NumericConsistencyError(f"expectation has imaginary residue {t.imag:.3e}")
    return t.real


def _sinhc(x: np.ndarray) -> np.ndarray:
    # sinh(x)/x, series below 1e-6 to avoid 0/0
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _drho_eigenbasis(ts: ThermalState, j: int) -> np.ndarray:
    """d rho / d theta_j expressed in the G(theta) eigenbasis.

    Divided differences of exp(-x) across the spectrum give the derivative of
    exp(-G); the normalization contributes +rho <G_j>.
    """
    out = ts.terms_eig[j] * ts.divided_differences
    out[np.diag_indices_from(out)] += ts.term_means[j] * ts.rho_eigenvalues
    return out


def thermal_derivative(h: ParamHamiltonian, j: int, ts: ThermalState | None = None) -> np.ndarray:
    """Exact d rho(theta) / d theta_j as a Hermitian, traceless matrix."""
    if not 0 <= j < h.n_params:
        raise ValueError(f"term index {j} out of range [0, {h.n_params})")
    ts = state_for(h, ts)
    out = ts.from_eigenbasis(_drho_eigenbasis(ts, j))
    out = hermitize(out, tol=1e-10 * (1.0 + float(np.max(np.abs(out)))))
    tr = abs(complex(np.trace(out)))
    if tr > 1e-10:
        raise NumericConsistencyError(f"derivative trace {tr:.3e} is not zero")
    return out


def relative_entropy(omega: np.ndarray, ts: ThermalState, h: ParamHamiltonian) -> float:
    """D(omega || rho(theta)) = Tr[omega ln omega] + Tr[omega G(theta)] + ln Z(theta).

    ln rho = -G - ln Z exactly for this family, so only the entropy of omega
    needs an eigendecomposition; eigenvalues <= 1e-15 contribute 0 (p ln p -> 0).
    """
    omega = check_density_matrix(omega)
    p = np.linalg.eigvalsh(omega)
    p = p[p > 1e-15]
    entropy_term = float(np.sum(p * np.log(p)))
    return entropy_term + expectation(assemble(h), omega) + ts.log_partition
