"""The library names that the benchmark's traced run wraps and reads.

`qbmbench/tracer.py` wraps each `(module, attr)` of its TARGETS and reports a
missing one absent; the benchmark reads `pauli_to_matrix`'s cache counters.
Losing either drops declared per-layer metrics from the traced run, so a
removal is a benchmark change, not a library one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qbmgeo import hamiltonian

TRACER = Path(__file__).resolve().parents[1] / "qbmbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("qbmbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name, module_name, attr", _targets())
def test_tracer_target_resolves(name, module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, f"{name}: {module_name}.{attr} is missing"
    assert callable(obj), f"{name}: {module_name}.{attr} is not callable"


def test_pauli_cache_counters_exist():
    assert callable(getattr(hamiltonian.pauli_to_matrix, "cache_info", None))
    assert callable(getattr(hamiltonian.pauli_to_matrix, "cache_clear", None))
