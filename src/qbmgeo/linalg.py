"""Dense complex-matrix algebra on numpy arrays.

Everything downstream (thermal states, information matrices, estimators) is
built on one numerical pathway: Hermitian eigendecomposition. Matrices are
plain complex ndarrays; the helpers here validate and enforce the structural
invariants (Hermiticity, unit trace, positive semidefiniteness) at the
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIZE_TOL = 1e-12
EXP_OVERFLOW_LIMIT = 700.0


class NumericConsistencyError(RuntimeError):
    """An internal numerical identity failed beyond tolerance (a bug, not noise)."""


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def hermitize(m: np.ndarray, tol: float = HERMITIZE_TOL) -> np.ndarray:
    """Return (M + M†)/2 after checking ‖M − M†‖_max ≤ tol.

    Anything worse than `tol` is treated as a caller bug, not round-off.
    """
    m = _as_square(m)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectral(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, validating the reconstruction."""
    h = hermitize(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        scale = float(np.max(np.abs(h))) if h.size else 0.0
        raise NumericConsistencyError(
            f"eigensolver failed to converge (max |entry| = {scale:.3e})"
        ) from err
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=v)
    scale = 1.0 + float(np.max(np.abs(h))) if h.size else 1.0
    recon_err = np.max(np.abs(dec.reconstruct() - h))
    if recon_err > 1e-10 * scale:
        raise NumericConsistencyError(f"eigendecomposition reconstruction error {recon_err:.3e}")
    return dec


def expm_hermitian(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """e^{scale·H} for Hermitian H, via eigendecomposition."""
    dec = spectral(h)
    top = float(np.max(np.abs(dec.eigenvalues))) * abs(scale) if dec.eigenvalues.size else 0.0
    if top > EXP_OVERFLOW_LIMIT:
        raise ValueError(
            f"scale*max|eig| = {top:.1f} exceeds {EXP_OVERFLOW_LIMIT:.0f}; "
            "rescale the coefficients to avoid exp overflow"
        )
    v = dec.eigenvectors
    out = (v * np.exp(scale * dec.eigenvalues)) @ v.conj().T
    return hermitize(out, tol=1e-9 * (1.0 + float(np.max(np.abs(out)))))


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB + BA."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def pseudo_inverse(m: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose inverse of a real symmetric matrix via eigendecomposition.

    Eigenvalues with |λ| ≤ rel_tol·max|λ| are dropped (inverted to zero);
    for full-rank input this is the ordinary inverse.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-9 * (1.0 + np.max(np.abs(m))):
        raise ValueError("pseudo_inverse expects a symmetric real matrix")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    m = (m + m.T) / 2
    w, v = np.linalg.eigh(m)
    cut = rel_tol * np.max(np.abs(w)) if w.size else 0.0
    inv_w = np.where(np.abs(w) > cut, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    out = (v * inv_w) @ v.T
    return (out + out.T) / 2


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with (i·dimB + k, j·dimB + l) indexing."""
    return np.kron(_as_square(a), _as_square(b))


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = hermitize(rho, tol=tol)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} deviates from 1 beyond {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -tol:
        raise ValueError(f"negative eigenvalue {min_eig:.3e} below -{tol:.1e}")
    return rho

