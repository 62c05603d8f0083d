"""Natural gradient descent for quantum Boltzmann machines.

The update preconditions the loss gradient with the (pseudo)inverse of the
Fisher-Bures or Kubo-Mori matrix:

    theta' = theta - 4 eta * pinv(metric) @ grad.

The Euclidean baseline uses metric = 4I, which makes the step exactly
theta - eta * grad (scaling by 4 and 1/4 is exact in binary floating point).
Two losses are built in: the energy Tr[H rho(theta)] of an observable H, and
the relative entropy D(omega || rho(theta)) of a target state omega, whose
gradient is the moment mismatch <G_j>_omega - <G_j>_rho(theta). Gradients are
evaluated exactly, or by the shot estimators when a ShotConfig is supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bp_channel import stream_rng
from .gibbs import ThermalState, expectation, relative_entropy, state_for, thermal_state
from .hamiltonian import ParamHamiltonian, pauli_decompose, pauli_to_matrix
from .info_geometry import FISHER_BURES, KUBO_MORI, fb_exact, km_exact
from .linalg import check_density_matrix, hermitize, pseudo_inverse
from .shot_estimators import (
    STREAM_GRAD_FIRST,
    STREAM_GRAD_PRODUCT,
    STREAM_PAULI_MEAN,
    ShotConfig,
    draw_first_term,
    draw_product_term,
    estimate_matrix,
    pauli_outcomes,
)

EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class GroundEnergyLoss:
    """Loss Tr[H rho(theta)] for a Hermitian observable H.

    `pauli_labels`/`pauli_coeffs` give H as a real Pauli combination; they are
    required for shot mode (derived automatically when H is small enough) and
    ignored by the exact path.
    """

    observable: np.ndarray = field(repr=False)
    pauli_labels: tuple[str, ...] | None = None
    pauli_coeffs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "observable", hermitize(self.observable))

    @staticmethod
    def from_pauli(labels, coeffs) -> "GroundEnergyLoss":
        labels = tuple(labels)
        coeffs = np.asarray(coeffs, dtype=float)
        if len(labels) != coeffs.size or not labels:
            raise ValueError("labels and coeffs must be non-empty and of equal length")
        obs = sum(c * pauli_to_matrix(p) for c, p in zip(coeffs, labels))
        return GroundEnergyLoss(observable=obs, pauli_labels=labels, pauli_coeffs=coeffs)

    def decomposition(self, n_qubits: int) -> tuple[tuple[str, ...], np.ndarray]:
        if self.pauli_labels is not None:
            return self.pauli_labels, self.pauli_coeffs
        labels, coeffs = pauli_decompose(self.observable, n_qubits)
        return tuple(labels), coeffs


@dataclass(frozen=True)
class RelativeEntropyLoss:
    """Loss D(omega || rho(theta)) for a full-support target state omega."""

    omega: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", check_density_matrix(self.omega))


LossSpec = GroundEnergyLoss | RelativeEntropyLoss


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; `shots=None` selects exact mode."""

    eta: float
    metric: str = FISHER_BURES
    max_iters: int = 1000
    grad_tol: float = 1e-8
    pinv_rel_tol: float = 1e-10
    shots: ShotConfig | None = None
    tikhonov: float = 0.0  # optional ridge for noisy shot-mode metrics; beyond the basic rule

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.metric not in (FISHER_BURES, KUBO_MORI, EUCLIDEAN):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    theta: np.ndarray
    loss: float
    grad_norm: float
    metric_min_eig: float
    metric_cond: float


@dataclass
class TrainTrace:
    """Per-iteration training history; the first record is the initial point."""

    records: list[TraceRecord]
    stop_reason: str = ""

    @property
    def final_theta(self) -> np.ndarray:
        return self.records[-1].theta

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def csv_rows(self) -> list[str]:
        n_params = self.records[0].theta.size
        header = "iter,loss,grad_norm,metric_min_eig,metric_cond," + ",".join(
            f"theta_{k}" for k in range(n_params)
        )
        rows = [header]
        for r in self.records:
            cells = [str(r.iteration)] + [
                f"{x:.17g}"
                for x in (r.loss, r.grad_norm, r.metric_min_eig, r.metric_cond, *r.theta)
            ]
            rows.append(",".join(cells))
        return rows

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_rows()) + "\n")


def grad_ground_energy(h: ParamHamiltonian, observable: np.ndarray,
                       ts: ThermalState | None = None) -> np.ndarray:
    """Exact gradient of Tr[H rho(theta)]: -1/2 <{H, Phi(G_j)}> + <H><G_j>."""
    observable = hermitize(observable)
    ts = state_for(h, ts)
    if observable.shape[0] != ts.dim:
        raise ValueError("observable dimension does not match the state")
    lam = ts.rho_eigenvalues.astype(complex)
    h_eig = ts.to_eigenbasis(observable)
    mean_h = ts.mean(h_eig)
    grad = np.empty(h.n_params)
    for j, (g_eig, mean_j) in enumerate(zip(ts.terms_eig, ts.term_means)):
        t = complex(np.einsum("kl,l,lk->", h_eig, lam, ts.filter * g_eig))
        grad[j] = -t.real + mean_h * mean_j
    return grad


def grad_rel_entropy(h: ParamHamiltonian, omega: np.ndarray,
                     ts: ThermalState | None = None) -> np.ndarray:
    """Exact gradient of D(omega || rho(theta)): <G_j>_omega - <G_j>_rho(theta)."""
    omega = check_density_matrix(omega)
    if ts is None:
        ts = thermal_state(h)
    return np.array([
        expectation(g, omega) - expectation(g, ts.rho) for g in h.term_matrices()
    ])


def loss_value(h: ParamHamiltonian, loss: LossSpec, ts: ThermalState) -> float:
    if isinstance(loss, GroundEnergyLoss):
        return expectation(loss.observable, ts.rho)
    return relative_entropy(loss.omega, ts, h)


def natgrad_step(theta: np.ndarray, grad: np.ndarray, metric, eta: float,
                 pinv_rel_tol: float = 1e-10) -> np.ndarray:
    """theta' = theta - 4 eta * pinv(metric) @ grad."""
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    values = np.asarray(getattr(metric, "values", metric), dtype=float)
    if values.shape != (theta.size, theta.size) or grad.shape != theta.shape:
        raise ValueError("metric/gradient shapes do not match theta")
    return theta - 4.0 * eta * (pseudo_inverse(values, pinv_rel_tol) @ grad)


def _shot_grad_ground_energy(h, loss, cfg, ts, iteration) -> np.ndarray:
    # per Pauli label P of H and term j: -(1/2 <{P, Phi(G_j)}> - <P><G_j>), the
    # Kubo-Mori element shape with P in place of G_i
    shots = cfg.shots
    labels, coeffs = loss.decomposition(h.n_qubits)
    grad = np.zeros(h.n_params)
    for a, (label, c) in enumerate(zip(labels, coeffs)):
        p_eig = ts.to_eigenbasis(pauli_to_matrix(label))
        mean_p = ts.mean(p_eig)
        for j, (g_eig, mean_j) in enumerate(zip(ts.terms_eig, ts.term_means)):
            first = draw_first_term(ts, p_eig, g_eig, KUBO_MORI, shots,
                                    (iteration, STREAM_GRAD_FIRST, a, j))
            product = draw_product_term(mean_p, mean_j, shots,
                                        (iteration, STREAM_GRAD_PRODUCT, a, j))
            grad[j] += c * (-first + product)
    return grad


def _shot_grad_rel_entropy(h, loss, cfg, ts, iteration) -> np.ndarray:
    shots = cfg.shots
    n = shots.shots
    grad = np.empty(h.n_params)
    for j, g in enumerate(h.term_matrices()):
        rng = stream_rng(shots.master_seed, iteration, STREAM_PAULI_MEAN, j, 0)
        s_omega = pauli_outcomes(expectation(g, loss.omega), rng, n)
        rng2 = stream_rng(shots.master_seed, iteration, STREAM_PAULI_MEAN, j, 1)
        s_rho = pauli_outcomes(expectation(g, ts.rho), rng2, n)
        grad[j] = float(np.mean(s_omega)) - float(np.mean(s_rho))
    return grad


def _metric_values(h, cfg: TrainConfig, ts, iteration: int) -> np.ndarray:
    if cfg.metric == EUCLIDEAN:
        return 4.0 * np.eye(h.n_params)
    if cfg.shots is None:
        exact = fb_exact if cfg.metric == FISHER_BURES else km_exact
        return exact(h, ts).values
    result = estimate_matrix(h, cfg.metric, cfg.shots, ts=ts, stream_prefix=(iteration,))
    values = result.matrix.values
    if cfg.tikhonov > 0.0:
        values = values + cfg.tikhonov * np.eye(h.n_params)
    return values


def train(h: ParamHamiltonian, loss: LossSpec, cfg: TrainConfig) -> TrainTrace:
    """Run the hybrid optimization loop until grad_tol or max_iters.

    The trace records every visited iterate (the initial point included); the
    recorded loss is always the exact loss of the iterate, also in shot mode,
    where gradients and metrics are estimated. Deterministic given the seeds.
    """
    if isinstance(loss, GroundEnergyLoss) and loss.observable.shape[0] != h.dim:
        raise ValueError("observable dimension does not match the Hamiltonian")
    if isinstance(loss, RelativeEntropyLoss) and loss.omega.shape[0] != h.dim:
        raise ValueError("target state dimension does not match the Hamiltonian")
    theta = h.theta.copy()
    records: list[TraceRecord] = []
    stop_reason = ""
    for iteration in range(cfg.max_iters + 1):
        ham_it = h.with_theta(theta)
        ts = thermal_state(ham_it)
        if cfg.shots is None:
            if isinstance(loss, GroundEnergyLoss):
                grad = grad_ground_energy(ham_it, loss.observable, ts)
            else:
                grad = grad_rel_entropy(ham_it, loss.omega, ts)
        else:
            if isinstance(loss, GroundEnergyLoss):
                grad = _shot_grad_ground_energy(ham_it, loss, cfg, ts, iteration)
            else:
                grad = _shot_grad_rel_entropy(ham_it, loss, cfg, ts, iteration)
        try:
            metric = _metric_values(ham_it, cfg, ts, iteration)
        except Exception as err:
            raise RuntimeError(f"metric evaluation failed at iteration {iteration}") from err
        eigs = np.linalg.eigvalsh(metric)
        records.append(TraceRecord(
            iteration=iteration,
            theta=theta.copy(),
            loss=loss_value(ham_it, loss, ts),
            grad_norm=float(np.linalg.norm(grad)),
            metric_min_eig=float(eigs[0]),
            metric_cond=float(eigs[-1] / eigs[0]) if eigs[0] > 0 else math.inf,
        ))
        if records[-1].grad_norm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break
        if iteration == cfg.max_iters:
            stop_reason = "max_iters"
            break
        theta = natgrad_step(theta, grad, metric, cfg.eta, cfg.pinv_rel_tol)
    return TrainTrace(records=records, stop_reason=stop_reason)
