"""Each thermal state changes every term into the G(theta) eigenbasis once.

The counts wrap ThermalState.to_eigenbasis and run CLI subcommands on one
2-qubit, 3-term instance (J = 3).
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qbmgeo import (
    KUBO_MORI,
    ParamHamiltonian,
    ShotConfig,
    ThermalState,
    assemble,
    cli,
    estimate_product_term,
    fb_exact,
    grad_ground_energy,
    pauli_to_matrix,
    thermal_derivative,
    thermal_state,
    thermal_state_from_matrix,
)
from qbmgeo.shot_estimators import estimate_element

HAM = {"qubits": 2, "terms": ["ZI", "XX", "IY"], "theta": [0.7, -0.4, 0.3]}
J = 3
GROUND = {"kind": "ground_energy", "terms": ["ZZ", "XI"], "coeffs": [0.8, -0.5]}
L = 2
GENERATIVE = {"kind": "relative_entropy",
              "omega": {"terms": HAM["terms"], "theta": [0.3, 0.2, -0.6]}}
SHOT = {"epsilon": 0.3, "delta": 0.2}


@pytest.fixture
def basis_changes(monkeypatch):
    count = [0]
    original = ThermalState.to_eigenbasis

    def counted(self, op):
        count[0] += 1
        return original(self, op)

    monkeypatch.setattr(ThermalState, "to_eigenbasis", counted)
    return count


def run_counted(count, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hamiltonian": HAM, "seed": 1, **config}))
    count[0] = 0
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out.json")]) == 0
    return count[0]


def train_config(loss, mode, iters):
    block = {"loss": loss, "metric": "fb", "mode": mode, "eta": 0.05,
             "max_iters": iters, "grad_tol": -1.0}
    if mode == "shot":
        block.update(SHOT)
    return {"train": block}


def iteration_cost(count, tmp_path, loss, mode):
    two = run_counted(count, tmp_path, "train", train_config(loss, mode, 2))
    one = run_counted(count, tmp_path, "train", train_config(loss, mode, 1))
    return two - one


@pytest.mark.parametrize("method", ["exact", "spectral", "shot"])
def test_info_matrix_changes_each_term_once(basis_changes, tmp_path, method):
    block = {"kind": "fb", "method": method, **SHOT}
    assert run_counted(basis_changes, tmp_path, "info-matrix", {"info_matrix": block}) == J


@pytest.mark.parametrize("target", ["element", "first_term", "product_term"])
def test_estimate_changes_each_term_once(basis_changes, tmp_path, target):
    block = {"kind": "km", "target": target, "i": 0, "j": 2, **SHOT}
    assert run_counted(basis_changes, tmp_path, "estimate", {"estimate": block}) == J


def test_training_iteration_counts(basis_changes, tmp_path):
    # the exact ground-energy gradient adds the observable; the shot gradient
    # adds each of its L Pauli labels; the generative gradient adds nothing
    assert iteration_cost(basis_changes, tmp_path, GROUND, "exact") == J + 1
    assert iteration_cost(basis_changes, tmp_path, GROUND, "shot") == J + L
    assert iteration_cost(basis_changes, tmp_path, GENERATIVE, "exact") == J
    assert iteration_cost(basis_changes, tmp_path, GENERATIVE, "shot") == J


def test_validate_changes_each_term_once_per_state(basis_changes, tmp_path):
    instances = cli._validate_instances(ParamHamiltonian(HAM["terms"], HAM["theta"]), 1, 3)
    per_instance = sum(inst.n_params for inst in instances)
    # additivity_check builds the single-system state and the doubled one
    expected = per_instance + 2 * J
    config = {"validate": {"instances": 3, "draws": 1000}}
    assert run_counted(basis_changes, tmp_path, "validate", config) == expected


def test_metrology_changes_each_term_once(basis_changes, tmp_path):
    # the likelihood's thermal states are read only for rho
    config = {"metrology": {"j": 1, "n": 100, "repeats": 3}}
    assert run_counted(basis_changes, tmp_path, "metrology", config) == J


def test_state_read_for_rho_does_no_basis_change(basis_changes):
    ts = thermal_state(ParamHamiltonian(HAM["terms"], HAM["theta"]))
    assert np.isclose(np.trace(ts.rho).real, 1.0)
    assert basis_changes[0] == 0


def test_frame_caches_match_direct_evaluation():
    h = ParamHamiltonian(HAM["terms"], HAM["theta"])
    ts = thermal_state(h)
    for g, g_eig, mean in zip(h.term_matrices(), ts.terms_eig, ts.term_means):
        np.testing.assert_array_equal(g_eig, ts.to_eigenbasis(g))
        assert abs(mean - np.trace(g @ ts.rho).real) <= 1e-12
    assert ts.terms_eig is ts.terms_eig


def test_state_must_carry_the_terms():
    # a state built from the bare matrix has no frame terms; consumers refuse
    # it instead of reading an empty frame
    h = ParamHamiltonian(HAM["terms"], HAM["theta"])
    bare = thermal_state_from_matrix(assemble(h), theta=h.theta)
    calls = (
        lambda: fb_exact(h, bare),
        lambda: thermal_derivative(h, 0, bare),
        lambda: grad_ground_energy(h, pauli_to_matrix("ZZ"), bare),
        lambda: estimate_product_term(h, 0, 1, ShotConfig(0.3, 0.2), ts=bare),
    )
    for call in calls:
        with pytest.raises(ValueError, match="thermal state has 0 terms, expected 3"):
            call()
    framed = thermal_state_from_matrix(assemble(h), theta=h.theta, terms=h.term_matrices())
    np.testing.assert_array_equal(fb_exact(h, framed).values, fb_exact(h).values)


def test_fresh_frame_shared_by_threads():
    # worker threads race to fill a fresh frame's lazy caches; every element
    # must still equal the one computed serially on its own state
    h = ParamHamiltonian(HAM["terms"], HAM["theta"])
    cfg = ShotConfig(0.3, 0.2, master_seed=5)
    pairs = [(i, j) for i in range(J) for j in range(J)]
    serial = [estimate_element(h, KUBO_MORI, i, j, cfg).value for i, j in pairs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ts = thermal_state(h)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(estimate_element, h, KUBO_MORI, i, j, cfg, ts) for i, j in pairs]
                values = [f.result(timeout=60).value for f in futures]
            assert values == serial
    finally:
        sys.setswitchinterval(old)
