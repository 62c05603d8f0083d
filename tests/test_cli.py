import json
import math
from pathlib import Path

import numpy as np

from qbmgeo import cli

SINGLE_Z = {
    "hamiltonian": {"qubits": 1, "terms": ["Z"], "theta": [math.log(2)]},
    "seed": 7,
    "info_matrix": {"kind": "fb", "method": "exact"},
    "estimate": {"kind": "fb", "target": "element", "i": 0, "j": 0, "epsilon": 0.05, "delta": 0.05},
    "metrology": {"j": 0, "n": 10000, "repeats": 200},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_info_matrix_single_z(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_Z)
    code, out = run(capsys, ["info-matrix", "--config", path])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["matrix"][0][0] - 0.64) <= 1e-12
    assert payload["max_elementwise_deviation"] <= 1e-8
    assert payload["condition_number"] == 1


def test_info_matrix_methods_agree(tmp_path, capsys):
    cfg = dict(SINGLE_Z)
    cfg["info_matrix"] = {"kind": "fb", "method": "spectral"}
    path = write_config(tmp_path, cfg)
    code, out = run(capsys, ["info-matrix", "--config", path])
    assert code == 0
    assert abs(json.loads(out)["matrix"][0][0] - 0.64) <= 1e-8


def test_km_equals_fb_for_commuting_terms(tmp_path, capsys):
    base = {
        "hamiltonian": {"qubits": 2, "terms": ["ZI", "IZ"], "theta": [0.7, -0.2]},
        "info_matrix": {"kind": "fb", "method": "exact"},
    }
    fb_path = write_config(tmp_path, base, "fb.json")
    _, fb_out = run(capsys, ["info-matrix", "--config", fb_path])
    base["info_matrix"] = {"kind": "km", "method": "exact"}
    km_path = write_config(tmp_path, base, "km.json")
    _, km_out = run(capsys, ["info-matrix", "--config", km_path])
    fb = np.array(json.loads(fb_out)["matrix"])
    km = np.array(json.loads(km_out)["matrix"])
    assert np.max(np.abs(fb - km)) <= 1e-9


def test_shot_output_reproducible(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"qubits": 1, "terms": ["Z", "X"], "theta": [1.0, 0.3]},
        "seed": 21,
        "info_matrix": {"kind": "fb", "method": "shot", "epsilon": 0.1, "delta": 0.1},
    }
    path = write_config(tmp_path, cfg)
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["info-matrix", "--config", path, "--out", out_a]) == 0
    assert cli.main(["info-matrix", "--config", path, "--out", out_b, "--workers", "4"]) == 0
    capsys.readouterr()
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()


def test_seed_override_changes_shot_output(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_Z)
    _, out_a = run(capsys, ["estimate", "--config", path])
    _, out_b = run(capsys, ["estimate", "--config", path, "--seed", "12345"])
    _, out_c = run(capsys, ["estimate", "--config", path])
    assert out_a == out_c
    assert json.loads(out_a)["value"] != json.loads(out_b)["value"]
    assert json.loads(out_a)["shots_per_term"] == 2952


def test_floats_round_trip_exactly(tmp_path, capsys):
    from qbmgeo import ParamHamiltonian, fb_exact

    path = write_config(tmp_path, SINGLE_Z)
    _, out = run(capsys, ["info-matrix", "--config", path])
    value = json.loads(out)["matrix"][0][0]
    assert value == fb_exact(ParamHamiltonian(["Z"], [math.log(2)])).values[0, 0]


def test_train_ground_energy(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"qubits": 1, "terms": ["Z"], "theta": [0.0]},
        "train": {
            "loss": {"kind": "ground_energy", "terms": ["Z"], "coeffs": [1.0]},
            "metric": "fb", "mode": "exact", "eta": 0.05,
            "max_iters": 500, "grad_tol": 1e-4,
            "trace_csv": str(tmp_path / "trace.csv"),
        },
    }
    path = write_config(tmp_path, cfg)
    out_path = str(tmp_path / "summary.json")
    assert cli.main(["train", "--config", path, "--out", out_path]) == 0
    summary = json.loads(Path(out_path).read_text())
    assert summary["final_loss"] <= -0.999
    assert summary["stop_reason"] == "grad_tol"
    rows = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(rows) == summary["iters"] + 2  # header + initial point + steps


def test_train_generative_and_row_contract(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"qubits": 1, "terms": ["Z", "X"], "theta": [0.0, 0.0]},
        "train": {
            "loss": {"kind": "relative_entropy", "omega": {"terms": ["Z", "X"], "theta": [0.8, -0.3]}},
            "metric": "km", "mode": "exact", "eta": 0.25,
            "max_iters": 2000, "grad_tol": 1e-10,
            "trace_csv": str(tmp_path / "gen.csv"),
        },
    }
    path = write_config(tmp_path, cfg)
    out_path = str(tmp_path / "gen.json")
    assert cli.main(["train", "--config", path, "--out", out_path]) == 0
    summary = json.loads(Path(out_path).read_text())
    err = np.max(np.abs(np.array(summary["final_theta"]) - np.array([0.8, -0.3])))
    assert err <= 1e-3
    # max_iters=1 -> exactly two data rows
    cfg["train"]["max_iters"] = 1
    cfg["train"]["grad_tol"] = 0.0
    path2 = write_config(tmp_path, cfg, "one.json")
    assert cli.main(["train", "--config", path2, "--out", str(tmp_path / "one_out.json")]) == 0
    rows = (tmp_path / "gen.csv").read_text().strip().split("\n")  # rewritten by second run
    assert len(rows) == 3
    capsys.readouterr()


def test_metrology_report(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_Z)
    code, out = run(capsys, ["metrology", "--config", path])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "theta", "j", "n", "repeats", "crb", "empirical_variance",
        "ratio", "fisher_exact", "fisher_classical_sld",
    }
    assert 0.85 <= payload["ratio"] <= 1.15
    assert abs(payload["crb"] - 1.0 / (10000 * 0.64)) <= 1e-12
    assert abs(payload["fisher_classical_sld"] - payload["fisher_exact"]) <= 1e-6


def test_metrology_crb_halves_with_doubled_copies(tmp_path, capsys):
    cfg = json.loads(json.dumps(SINGLE_Z))
    cfg["metrology"]["repeats"] = 10
    cfg["metrology"]["n"] = 1000
    path = write_config(tmp_path, cfg)
    _, out1 = run(capsys, ["metrology", "--config", path])
    cfg["metrology"]["n"] = 2000
    path2 = write_config(tmp_path, cfg, "double.json")
    _, out2 = run(capsys, ["metrology", "--config", path2])
    assert json.loads(out1)["crb"] == 2 * json.loads(out2)["crb"]


def test_invalid_index_is_schema_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(SINGLE_Z))
    cfg["metrology"]["j"] = 5
    path = write_config(tmp_path, cfg)
    assert cli.main(["metrology", "--config", path]) == 2
    capsys.readouterr()


def test_schema_violations(tmp_path, capsys):
    bad_theta = json.loads(json.dumps(SINGLE_Z))
    bad_theta["hamiltonian"]["theta"] = [0.1, 0.2]
    assert cli.main(["info-matrix", "--config", write_config(tmp_path, bad_theta, "a.json")]) == 2

    unknown = json.loads(json.dumps(SINGLE_Z))
    unknown["surprise"] = 1
    assert cli.main(["info-matrix", "--config", write_config(tmp_path, unknown, "b.json")]) == 2

    missing_block = {"hamiltonian": SINGLE_Z["hamiltonian"]}
    assert cli.main(["train", "--config", write_config(tmp_path, missing_block, "c.json")]) == 2

    bad_json = tmp_path / "d.json"
    bad_json.write_text("{not json")
    assert cli.main(["info-matrix", "--config", str(bad_json)]) == 2
    assert cli.main(["info-matrix", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_validate_passes_on_shipped_style_config(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"qubits": 1, "terms": ["Z", "X"], "theta": [1.0, 0.3]},
        "seed": 11,
        "validate": {"instances": 5, "draws": 100000},
    }
    path = write_config(tmp_path, cfg)
    code, out = run(capsys, ["validate", "--config", path])
    assert code == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert all(line.startswith("[PASS]") for line in lines)
    assert any("sampler-moment(delta=2)" in line and "0.7615941560" in line for line in lines)


def test_dumps17_special_values():
    assert cli.dumps17(float("inf")) == '"inf"'
    assert cli.dumps17(float("-inf")) == '"-inf"'
    assert cli.dumps17(float("nan")) == '"nan"'
    assert cli.dumps17(0.1) == "0.10000000000000001"
    assert json.loads(cli.dumps17({"a": [1, 2.5, None, True]})) == {"a": [1, 2.5, None, True]}


GROUND_TRAIN = {
    "hamiltonian": {"qubits": 1, "terms": ["Z"], "theta": [0.0]},
    "train": {
        "loss": {"kind": "ground_energy", "terms": ["Z"], "coeffs": [1.0]},
        "metric": "fb", "mode": "exact", "eta": 0.05, "max_iters": 2,
    },
}


def test_unwritable_out_is_output_error(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_Z)
    out_path = str(tmp_path / "missing" / "out.json")
    assert cli.main(["info-matrix", "--config", path, "--out", out_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_unwritable_trace_csv_is_output_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(GROUND_TRAIN))
    cfg["train"]["trace_csv"] = str(tmp_path / "missing" / "trace.csv")
    path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_trace_csv_must_be_nonempty_string(tmp_path, capsys):
    # open() takes an int as a file descriptor; a closed one keeps a
    # regression from writing into (and closing) a descriptor the runner holds
    for k, value in enumerate((999_999, 2.5, "", None, ["trace.csv"], {})):
        cfg = json.loads(json.dumps(GROUND_TRAIN))
        cfg["train"]["trace_csv"] = value
        path = write_config(tmp_path, cfg, f"t{k}.json")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o.json")]) == 2
        assert "train.trace_csv" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_validate_integer_fields(tmp_path, capsys):
    for k, block in enumerate(({"instances": True}, {"draws": True}, {"instances": 0},
                               {"draws": 999}, {"draws": 1000.0})):
        cfg = {"hamiltonian": SINGLE_Z["hamiltonian"], "validate": block}
        path = write_config(tmp_path, cfg, f"v{k}.json")
        assert cli.main(["validate", "--config", path]) == 2
        assert "config error: validate." in capsys.readouterr().err
