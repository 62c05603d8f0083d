"""Seeded op streams for the three workloads, and the per-op output checks.

An op is one `qbmgeo` CLI invocation: a subcommand, a generated config and
extra flags. Each stream is an endless generator; the benchmark draws ops
until its timed phase ends. Problem sizes follow a fixed cycle and only the
Pauli terms, coefficients, indices and seeds come from the workload seed, so
op costs depend on the seed only through the instance, not the size mix.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

EPS, DELTA = 0.1, 0.05
# validate's three sampler-moment lines are 3-sigma tests (about 0.8% false
# alarms per run), so validate seeds come from a pool that passes them.
VALIDATE_SEEDS = (1, 2, 3, 4)
# a negative gradient tolerance never stops training early (a converged
# relative-entropy gradient can be exactly 0), so runs take max_iters iterations
FIXED_BUDGET = -1.0
# Variance / CRB of 200 MLE repeats is chi-square(199)/199 distributed: sd 0.10.
CRB_RATIO_BAND = (0.5, 1.5)


@dataclass
class Op:
    command: str
    config: dict
    flags: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Command, mode or target, and size: e.g. "estimate:element:5q"."""
        block = self.config.get(self.command.replace("-", "_"), {})
        kind = self.meta.get("mode") or block.get("target") or block.get("method") or ""
        return f"{self.command}:{kind}:{self.meta.get('qubits', '?')}q"


def pauli_labels(rng: np.random.Generator, n_qubits: int, n_terms: int) -> list[str]:
    """Distinct non-identity Pauli strings, in draw order."""
    labels: list[str] = []
    while len(labels) < n_terms:
        s = "".join(rng.choice(list("IXYZ"), n_qubits))
        if s != "I" * n_qubits and s not in labels:
            labels.append(s)
    return labels


def hamiltonian(rng, n_qubits: int, n_terms: int, scale: float = 1.5) -> dict:
    return {
        "qubits": n_qubits,
        "terms": pauli_labels(rng, n_qubits, n_terms),
        "theta": [float(x) for x in rng.uniform(-scale, scale, n_terms)],
    }


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# exact_large

def _exact_pair(rng, n_qubits: int, n_terms: int, instance: int):
    ham = hamiltonian(rng, n_qubits, n_terms)
    for kind in ("fb", "km"):
        yield Op("info-matrix", {"hamiltonian": ham, "info_matrix": {"kind": kind, "method": "exact"}},
                 meta={"instance": instance, "kind": kind, "qubits": n_qubits})


def exact_large(rng):
    instance = 0
    while True:
        for n_qubits, n_terms in ((8, 16), (8, 16), (8, 16), (9, 12)):
            instance += 1
            yield from _exact_pair(rng, n_qubits, n_terms, instance)


def exact_probe(rng):
    """The 10-qubit/12-term instance every exact_large run ends with."""
    return list(_exact_pair(rng, 10, 12, 0))


def exact_warmup(rng):
    return next(_exact_pair(rng, 8, 16, -1))


# ---------------------------------------------------------------------------
# shot_medium

def _estimate(rng, ham: dict, target: str, n_terms: int, kind: str = "fb") -> Op:
    block = {"kind": kind, "target": target,
             "i": int(rng.integers(n_terms)), "j": int(rng.integers(n_terms)),
             "epsilon": EPS, "delta": DELTA}
    return Op("estimate", {"hamiltonian": ham, "seed": _seed(rng), "estimate": block},
              meta={"qubits": ham["qubits"]})


def _shot_matrix(rng, ham: dict, kind: str, workers: int) -> Op:
    block = {"kind": kind, "method": "shot", "epsilon": EPS, "delta": DELTA}
    return Op("info-matrix", {"hamiltonian": ham, "seed": _seed(rng), "info_matrix": block},
              flags=("--workers", str(workers)), meta={"qubits": ham["qubits"], "kind": kind})


def shot_medium(rng, workers: int):
    """Cycles of 20 ops on fresh 4-, 5- and 6-qubit instances.

    The order interleaves cheap and costly ops evenly, so a run that ends
    mid-cycle keeps the cycle's mix. The mix puts the median inside the
    5-qubit FB element estimates and p75 inside the 4-qubit matrices, away
    from the boundaries between op types, whatever the machine speed. Kinds
    are fixed per slot: an FB first term draws two times per shot, a KM one
    draws one, so a random kind would blur the clusters.
    """
    n_terms = 6
    cycle = 0
    while True:
        h4, h5, h6 = (hamiltonian(rng, n, n_terms) for n in (4, 5, 6))
        alt = ("fb", "km")[cycle % 2]
        cycle += 1
        yield _shot_matrix(rng, h4, "fb", workers)
        yield _estimate(rng, h4, "product_term", n_terms)
        yield _estimate(rng, h4, "first_term", n_terms, "km")
        yield _estimate(rng, h5, "element", n_terms)
        yield _shot_matrix(rng, h5, "fb", workers)
        yield _estimate(rng, h5, "product_term", n_terms)
        yield _estimate(rng, h4, "first_term", n_terms)
        yield _estimate(rng, h5, "element", n_terms)
        yield _shot_matrix(rng, h6, alt, workers)
        yield _estimate(rng, h6, "element", n_terms, "km")
        yield _estimate(rng, h6, "product_term", n_terms)
        yield _estimate(rng, h4, "first_term", n_terms, "km")
        yield _estimate(rng, h5, "element", n_terms)
        yield _shot_matrix(rng, h4, "km", workers)
        yield _estimate(rng, h4, "product_term", n_terms)
        yield _estimate(rng, h4, "first_term", n_terms)
        yield _estimate(rng, h5, "element", n_terms)
        yield _shot_matrix(rng, h5, "km", workers)
        yield _estimate(rng, h6, "first_term", n_terms, "km")
        yield _shot_matrix(rng, h5, alt, workers)


def shot_warmup(rng):
    return _estimate(rng, hamiltonian(rng, 4, 6), "first_term", 6)


def shot_workers_pair(rng, workers: int) -> tuple[Op, Op]:
    """One 4-qubit shot matrix at --workers N and at --workers 1, same seed."""
    op = _shot_matrix(rng, hamiltonian(rng, 4, 6), "fb", workers)
    return op, Op(op.command, op.config, ("--workers", "1"), op.meta)


# ---------------------------------------------------------------------------
# small_tasks

def _train(ham: dict, loss: dict, metric: str, mode: str, eta: float, max_iters: int,
           grad_tol: float, seed: int, optimum: float | None) -> Op:
    block = {"loss": loss, "metric": metric, "mode": mode, "eta": eta,
             "max_iters": max_iters, "grad_tol": grad_tol}
    if mode == "shot":
        # ridge of 2 eps on the estimated metric: without it a near-singular
        # estimate sent theta into the hundreds (1 run in 80 hit the eigenvalue cap)
        block.update(epsilon=EPS, delta=DELTA, tikhonov=2 * EPS)
    return Op("train", {"hamiltonian": ham, "seed": seed, "train": block},
              meta={"mode": mode, "qubits": ham["qubits"], "optimum": optimum})


def _ground_energy(rng, n_qubits: int, metric: str, mode: str, max_iters: int) -> Op:
    """Ground energy of an in-family observable: the optimum is its lowest eigenvalue.

    Stops at gradient norm 1e-4: past that, training heads to theta of tens
    to hundreds, where the covariance formulas lose precision.
    """
    n_terms = min(3, 4**n_qubits - 1)
    ham = hamiltonian(rng, n_qubits, n_terms)
    # coefficients of magnitude >= 0.3: a near-zero one leaves a near-flat
    # direction that natural gradient takes thousands of iterations to cross
    coeffs = [float(c) for c in rng.choice([-1.0, 1.0], n_terms) * rng.uniform(0.3, 1.0, n_terms)]
    ham["theta"] = [0.0] * n_terms
    loss = {"kind": "ground_energy", "terms": ham["terms"], "coeffs": coeffs}
    optimum = float(np.linalg.eigvalsh(_pauli_sum(ham["terms"], coeffs))[0])
    return _train(ham, loss, metric, mode, 0.05, max_iters, 1e-4, _seed(rng), optimum)


def _relative_entropy(rng, n_qubits: int, metric: str, mode: str, eta: float, iters: int) -> Op:
    """Relative entropy to an in-family target: the optimum is D = 0.

    A fixed iteration budget, so the op's cost depends on its size, not on
    how fast its instance converges.
    """
    n_terms = min(3, 4**n_qubits - 1)
    target = hamiltonian(rng, n_qubits, n_terms, scale=1.0)
    ham = {"qubits": n_qubits, "terms": target["terms"], "theta": [0.0] * n_terms}
    loss = {"kind": "relative_entropy", "omega": {"terms": target["terms"], "theta": target["theta"]}}
    return _train(ham, loss, metric, mode, eta, iters, FIXED_BUDGET, _seed(rng), 0.0)


def _low_temperature(rng) -> Op:
    """Ground energy of Z from infinite temperature down to theta ~ 12."""
    ham = {"qubits": 1, "terms": ["Z"], "theta": [0.0]}
    loss = {"kind": "ground_energy", "terms": ["Z"], "coeffs": [1.0]}
    return _train(ham, loss, "km", "exact", 0.05, 60, FIXED_BUDGET, _seed(rng), -1.0)


def _metrology(rng, n_qubits: int) -> Op:
    ham = hamiltonian(rng, n_qubits, n_qubits)
    block = {"j": int(rng.integers(n_qubits)), "n": 10000, "repeats": 200}
    return Op("metrology", {"hamiltonian": ham, "seed": _seed(rng), "metrology": block},
              meta={"qubits": n_qubits})


def _validate(rng, n_qubits: int) -> Op:
    ham = hamiltonian(rng, n_qubits, 2)
    seed = int(rng.choice(VALIDATE_SEEDS))
    return Op("validate", {"hamiltonian": ham, "seed": seed}, meta={"qubits": ham["qubits"]})


def small_tasks(rng):
    """Blocks of 10 ops at 1, 2, 3 qubits in turn; metrology and validate alternate.

    The mix puts the median inside the 100-iteration exact relative-entropy
    runs and p75 inside the shot relative-entropy runs.
    """
    block = 0
    while True:
        for n_qubits in (1, 2, 3):
            yield _ground_energy(rng, n_qubits, "fb", "exact", 300)
            yield _relative_entropy(rng, n_qubits, "km", "exact", 0.25, 100)
            yield _relative_entropy(rng, n_qubits, "euclidean", "exact", 0.25, 200)
            yield _ground_energy(rng, 2, "fb", "shot", 10)
            yield _ground_energy(rng, n_qubits, "km", "exact", 300)
            yield _low_temperature(rng)
            yield _relative_entropy(rng, n_qubits, "fb", "exact", 0.25, 100)
            yield _relative_entropy(rng, 2, "km", "shot", 0.25, 10)
            yield (_metrology if block % 2 == 0 else _validate)(rng, min(n_qubits, 2))
            yield _relative_entropy(rng, n_qubits, "km", "exact", 0.25, 100)
            block += 1


def small_warmup(rng):
    return _ground_energy(rng, 1, "fb", "shot", 2)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_sum(labels, coeffs) -> np.ndarray:
    """Dense sum of Pauli strings, built here so the optimum does not come from the code under test."""
    total = 0
    for label, c in zip(labels, coeffs):
        m = np.ones((1, 1), dtype=complex)
        for ch in label:
            m = np.kron(m, _PAULI[ch])
        total = total + c * m
    return total


# ---------------------------------------------------------------------------
# checks: each returns a list of failure strings (empty when the op passed)

# condition numbers are inf by contract when a matrix is not positive definite
MAY_BE_INF = {"condition_number", "metric_cond"}


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for k, v in obj.items() if k not in MAY_BE_INF)
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return obj not in ("nan", "inf", "-inf")


def check(op: Op, rc: int, out: dict | None, csv_text: str | None) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if op.command == "validate":
        return []
    if out is None or not _finite(out):
        return ["missing or non-finite output"]
    problems = []
    if op.command == "info-matrix" and op.config["info_matrix"]["method"] == "exact":
        if not out["max_elementwise_deviation"] <= 1e-8:
            problems.append(f"oracle deviation {out['max_elementwise_deviation']:.3e} > 1e-8")
        if not out["min_eigenvalue"] >= -1e-9:
            problems.append(f"min eigenvalue {out['min_eigenvalue']:.3e} < -1e-9")
    elif op.command == "train":
        rows = list(csv.reader(io.StringIO(csv_text or "")))
        if len(rows) - 1 != out["iters"] + 1:
            problems.append(f"trace has {len(rows) - 1} rows for {out['iters']} iterations")
        else:
            cols = [k for k, name in enumerate(rows[0]) if name not in MAY_BE_INF]
            if not all(math.isfinite(float(row[k])) for row in rows[1:] for k in cols):
                problems.append("trace has non-finite values")
        optimum = op.meta["optimum"]
        if op.meta["mode"] == "exact":
            tol = 1e-3 * (1.0 + abs(optimum))
            if not abs(out["final_loss"] - optimum) <= tol:
                problems.append(f"final loss {out['final_loss']!r} not within {tol:.1e} of {optimum!r}")
    elif op.command == "metrology":
        if not abs(out["fisher_classical_sld"] - out["fisher_exact"]) <= 1e-6:
            problems.append("SLD measurement does not saturate the Fisher information")
        lo, hi = CRB_RATIO_BAND
        if not lo <= out["ratio"] <= hi:
            problems.append(f"variance/CRB ratio {out['ratio']:.3f} outside [{lo}, {hi}]")
    return problems


def loewner_gap(fb_out: dict, km_out: dict) -> float:
    """Minimum eigenvalue of KM - FB for one instance."""
    diff = np.array(km_out["matrix"], dtype=float) - np.array(fb_out["matrix"], dtype=float)
    return float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0])


def contract_errors(op: Op, out: dict, exact_matrix) -> list[tuple[float, float]]:
    """(|error|, tolerance) per shot-estimated quantity of a shot op.

    A composed element honours (2 eps, 2 delta); a single term (eps, delta).
    `exact_matrix(op)` supplies the exact matrix for shot info-matrix ops.
    """
    if op.command == "estimate":
        tol = 2 * EPS if op.config["estimate"]["target"] == "element" else EPS
        return [(abs(out["error"]), tol)]
    est = np.array(out["matrix"], dtype=float)
    err = np.abs(est - exact_matrix(op))
    return [(float(e), 2 * EPS) for e in err.ravel()]


def parse_json(text: str | None):
    if not text:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
