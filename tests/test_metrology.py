import os
import subprocess
import sys

import numpy as np
import pytest

from qbmgeo import (
    ParamHamiltonian,
    classical_fisher_info,
    cr_bound,
    fb_exact,
    km_exact,
    mle_single_param,
    sld_measurement,
    thermal_state,
)
from qbmgeo.linalg import pseudo_inverse
from qbmgeo.metrology import SLDMeasurement

SINGLE_Z = ParamHamiltonian(["Z"], [np.log(2)])


def test_cr_bound_worked_value():
    rep = cr_bound(SINGLE_Z, 100, weight=[[1.0]])
    assert abs(rep.scalar_bound - 0.015625) <= 1e-12
    np.testing.assert_allclose(rep.bound_matrix, [[0.015625]], atol=1e-12)


def test_cr_bound_scales_inversely_with_copies():
    one = cr_bound(SINGLE_Z, 50)
    two = cr_bound(SINGLE_Z, 100)
    np.testing.assert_allclose(one.bound_matrix, 2.0 * two.bound_matrix)
    # more copies -> smaller bound, PSD difference
    assert np.linalg.eigvalsh(one.bound_matrix - two.bound_matrix)[0] >= 0


def test_cr_bound_zero_weight():
    rep = cr_bound(SINGLE_Z, 10, weight=[[0.0]])
    assert rep.scalar_bound == 0.0


def test_cr_bound_validation():
    with pytest.raises(ValueError):
        cr_bound(SINGLE_Z, 0)
    with pytest.raises(ValueError):
        cr_bound(SINGLE_Z, 10, weight=[[-1.0]])


def test_sld_measurement_single_z():
    m = sld_measurement(SINGLE_Z, 0)
    assert m.n_outcomes == 2
    np.testing.assert_allclose(np.sort(m.outcome_probs), [0.2, 0.8], atol=1e-12)
    # the SLD here is diagonal, so the projectors are computational
    for proj in m.projectors:
        np.testing.assert_allclose(proj, np.diag(np.diag(proj)), atol=1e-12)


def test_sld_measurement_x_at_maximal_mixing():
    m = sld_measurement(ParamHamiltonian(["X"], [0.0]), 0)
    np.testing.assert_allclose(m.outcome_probs, [0.5, 0.5], atol=1e-12)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    probs_plus = [float(np.real(plus @ p @ plus)) for p in m.projectors]
    assert max(probs_plus) >= 1 - 1e-12  # an eigenprojector of X


def test_sld_probs_sum_to_one(instance_battery):
    for h in instance_battery[:10]:
        ts = thermal_state(h)
        for j in range(h.n_params):
            m = sld_measurement(h, j, ts)
            assert abs(m.outcome_probs.sum() - 1.0) <= 1e-10


def test_classical_fisher_saturates_at_sld_basis():
    assert abs(classical_fisher_info(SINGLE_Z, 0, sld_measurement(SINGLE_Z, 0)) - 0.64) <= 1e-10
    h0 = ParamHamiltonian(["Z"], [0.0])
    assert abs(classical_fisher_info(h0, 0, sld_measurement(h0, 0)) - 1.0) <= 1e-10


def test_data_processing_bound():
    h = ParamHamiltonian(["Z", "X"], [1.0, 0.5])
    ts = thermal_state(h)
    eye = np.eye(2)
    computational = SLDMeasurement(
        j=1,
        eigenvalues=np.array([0.0, 1.0]),
        projectors=tuple(np.outer(eye[k], eye[k]).astype(complex) for k in range(2)),
        outcome_probs=np.real(np.diag(ts.rho)),
    )
    f_c = classical_fisher_info(h, 1, computational, ts)
    fb_jj = fb_exact(h, ts).values[1, 1]
    assert f_c <= fb_jj + 1e-8
    assert f_c < fb_jj - 1e-3  # strictly suboptimal measurement here


def test_saturation_random_instances(instance_battery):
    for h in instance_battery[:12]:
        ts = thermal_state(h)
        fb = fb_exact(h, ts).values
        for j in range(h.n_params):
            f_c = classical_fisher_info(h, j, sld_measurement(h, j, ts), ts)
            assert abs(f_c - fb[j, j]) <= 1e-6


def test_inverse_order(instance_battery):
    # pinv(FB) dominates pinv(KM) on full-rank instances
    for h in instance_battery[:12]:
        ts = thermal_state(h)
        fb = fb_exact(h, ts).values
        km = km_exact(h, ts).values
        if np.linalg.eigvalsh(fb)[0] < 1e-8:
            continue
        diff = pseudo_inverse(fb) - pseudo_inverse(km)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-9


def test_mle_recovers_parameter():
    res = mle_single_param(SINGLE_Z, 0, n=2000, repeats=60, master_seed=17)
    assert abs(res.estimate - np.log(2)) <= 3 * np.sqrt(res.crb / res.repeats)
    assert 0.5 <= res.ratio <= 1.8  # loose band at this repeat count
    assert res.estimates.shape == (60,)


def test_mle_bracket_widens_then_errors():
    from qbmgeo.metrology import _maximize_likelihood

    # minimum inside the widened bracket: found on the retry
    assert abs(_maximize_likelihood(lambda x: (x - 3.0) ** 2, center=0.0) - 3.0) <= 1e-6
    # minimum beyond even the widened bracket: loud failure
    with pytest.raises(RuntimeError, match="boundary"):
        _maximize_likelihood(lambda x: (x - 10.0) ** 2, center=0.0)


def test_mle_deterministic():
    a = mle_single_param(SINGLE_Z, 0, n=1000, repeats=20, master_seed=5)
    b = mle_single_param(SINGLE_Z, 0, n=1000, repeats=20, master_seed=5)
    np.testing.assert_array_equal(a.estimates, b.estimates)


def test_mle_validation():
    with pytest.raises(ValueError):
        mle_single_param(SINGLE_Z, 0, n=0, repeats=10, master_seed=1)
    with pytest.raises(ValueError):
        mle_single_param(SINGLE_Z, 0, n=100, repeats=1, master_seed=1)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the MLE needs scipy.optimize, so it is imported on first use
    code = "import sys, qbmgeo.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
