"""Hamiltonian parameter estimation from thermal-state samples.

Quantifies how well theta can be estimated from n copies of rho(theta): the
multiparameter Cramer-Rao bound pinv(FB)/n (optionally traced against a PSD
weight matrix), the optimal single-parameter measurement (the eigenbasis of
the symmetric logarithmic derivative), the classical Fisher information of any
projective measurement's outcome law, and a maximum-likelihood estimation
experiment that demonstrates saturation of the bound.

The optimal measurement needs the true theta to be built (a standard feature
of quantum estimation; an adaptive guess-and-refine scheme is the natural
extension point and is not implemented here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bp_channel import stream_rng
from .gibbs import ThermalState, thermal_derivative, thermal_state
from .hamiltonian import ParamHamiltonian
from .info_geometry import fb_exact, sld_operator
from .linalg import pseudo_inverse
from .shot_estimators import STREAM_MLE_REPEAT

PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class CramerRaoReport:
    """Covariance lower bound pinv(FB)/n, with an optional weighted scalar form."""

    n_copies: int
    bound_matrix: np.ndarray = field(repr=False)
    weight: np.ndarray | None = field(default=None, repr=False)
    scalar_bound: float | None = None


def cr_bound(h: ParamHamiltonian, n: int, weight=None,
             ts: ThermalState | None = None) -> CramerRaoReport:
    """Cramer-Rao bound for unbiased estimation from n thermal-state copies."""
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    fb = fb_exact(h, ts)
    inv = pseudo_inverse(fb.values)
    scalar = None
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if weight.shape != inv.shape:
            raise ValueError("weight matrix shape does not match the parameter count")
        if np.max(np.abs(weight - weight.T)) > 1e-9 * (1.0 + np.max(np.abs(weight))):
            raise ValueError("weight matrix must be symmetric")
        if float(np.linalg.eigvalsh(weight)[0]) < -1e-9 * (1.0 + np.max(np.abs(weight))):
            raise ValueError("weight matrix must be positive semidefinite")
        scalar = float(np.trace(weight @ inv)) / n
    return CramerRaoReport(
        n_copies=int(n),
        bound_matrix=inv / n,
        weight=weight,
        scalar_bound=scalar,
    )


@dataclass(frozen=True)
class SLDMeasurement:
    """Projective measurement in the SLD eigenbasis, degeneracies merged."""

    j: int
    eigenvalues: np.ndarray = field(repr=False)
    projectors: tuple = field(repr=False)
    outcome_probs: np.ndarray = field(repr=False)

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)


def _merge_groups(w: np.ndarray, rel_gap: float) -> list[np.ndarray]:
    tol = rel_gap * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    groups, start = [], 0
    for k in range(1, w.size + 1):
        if k == w.size or w[k] - w[k - 1] > tol:
            groups.append(np.arange(start, k))
            start = k
    return groups


def sld_measurement(h: ParamHamiltonian, j: int, ts: ThermalState | None = None,
                    rel_gap: float = 1e-10) -> SLDMeasurement:
    """Eigenprojectors of the SLD for theta_j and their outcome probabilities."""
    if ts is None:
        ts = thermal_state(h)
    sld = sld_operator(h, j, ts)
    w, v = np.linalg.eigh(sld)
    projectors, eigenvalues, probs = [], [], []
    for group in _merge_groups(w, rel_gap):
        cols = v[:, group]
        proj = cols @ cols.conj().T
        projectors.append(proj)
        eigenvalues.append(float(np.mean(w[group])))
        probs.append(max(float(np.real(np.trace(proj @ ts.rho))), 0.0))
    probs = np.asarray(probs)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {probs.sum()} != 1")
    return SLDMeasurement(
        j=j,
        eigenvalues=np.asarray(eigenvalues),
        projectors=tuple(projectors),
        outcome_probs=probs,
    )


def _measurement_probs(projectors, rho: np.ndarray) -> np.ndarray:
    return np.array([max(float(np.real(np.trace(p @ rho))), 0.0) for p in projectors])


def classical_fisher_info(h: ParamHamiltonian, j: int, measurement: SLDMeasurement,
                          ts: ThermalState | None = None) -> float:
    """Classical Fisher information of the measurement's outcome law for theta_j.

    F_c = sum_r (d_j p_r)^2 / p_r. Outcomes with p_r <= 1e-14 are excluded;
    their contribution, bounded at the probability floor, is asserted to be
    below 1e-10 so the exclusion cannot bias the sum.
    """
    if ts is None:
        ts = thermal_state(h)
    drho = thermal_derivative(h, j, ts)
    total = 0.0
    for proj, p in zip(measurement.projectors, measurement.outcome_probs):
        dp = float(np.real(np.trace(proj @ drho)))
        if p > PROB_FLOOR:
            total += dp * dp / p
        else:
            bound = dp * dp / PROB_FLOOR
            if bound > 1e-10:
                raise ValueError(
                    f"outcome with p={p:.2e} carries non-negligible term {bound:.2e}"
                )
    return total


@dataclass(frozen=True)
class MLEResult:
    """Maximum-likelihood estimation experiment across repeated n-sample runs."""

    estimate: float
    n_samples: int
    repeats: int
    empirical_variance: float
    crb: float
    estimates: np.ndarray = field(repr=False)

    @property
    def ratio(self) -> float:
        return self.empirical_variance / self.crb


def _negative_log_likelihood(h: ParamHamiltonian, j: int, projectors, counts) -> callable:
    theta = h.theta.copy()

    def nll(candidate: float) -> float:
        trial = theta.copy()
        trial[j] = candidate
        rho = thermal_state(h.with_theta(trial)).rho
        probs = np.maximum(_measurement_probs(projectors, rho), 1e-300)
        return -float(np.sum(counts * np.log(probs)))

    return nll


def _maximize_likelihood(nll, center: float, half_width: float = 2.0) -> float:
    from scipy.optimize import minimize_scalar  # the CLI's slowest import; only the MLE needs it

    for width in (half_width, 2.0 * half_width):
        res = minimize_scalar(
            nll, bounds=(center - width, center + width), method="bounded",
            options={"xatol": 1e-8},
        )
        x = float(res.x)
        if min(x - (center - width), (center + width) - x) > 1e-3:
            return x
    raise RuntimeError("likelihood maximizer stuck at the search-interval boundary")


def mle_single_param(h: ParamHamiltonian, j: int, n: int, repeats: int,
                     master_seed: int, ts: ThermalState | None = None) -> MLEResult:
    """Repeat an n-sample SLD-basis measurement and fit theta_j by 1-D MLE.

    All other parameters are treated as known; the measurement is built at the
    true theta. Each repeat draws from its own seed-derived stream and repeats
    are reduced in index order, so the result is reproducible.
    """
    if n < 1 or repeats < 2:
        raise ValueError("need n >= 1 and repeats >= 2")
    if ts is None:
        ts = thermal_state(h)
    meas = sld_measurement(h, j, ts)
    crb = 1.0 / (n * fb_exact(h, ts).values[j, j])
    truth = float(h.theta[j])
    estimates = np.empty(repeats)
    for r in range(repeats):
        rng = stream_rng(master_seed, STREAM_MLE_REPEAT, j, r)
        counts = rng.multinomial(n, meas.outcome_probs)
        nll = _negative_log_likelihood(h, j, meas.projectors, counts)
        estimates[r] = _maximize_likelihood(nll, truth)
    return MLEResult(
        estimate=float(np.mean(estimates)),
        n_samples=int(n),
        repeats=int(repeats),
        empirical_variance=float(np.var(estimates, ddof=1)),
        crb=float(crb),
        estimates=estimates,
    )
