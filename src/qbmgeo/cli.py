"""Command-line entry point: JSON problem configs in, JSON/CSV results out.

Subcommands: info-matrix, train, metrology, estimate, validate. Every command
is a pure function of (config, seed, workers): numeric output is serialized
with 17 significant digits, so identical inputs produce byte-identical output.

Exit codes: 0 success, 2 config, schema or output-path error, 3 numeric or
internal consistency error, 4 statistical acceptance failure in `validate`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bp_channel import default_sampler, filter_value, sample_t, stream_rng
from .gibbs import thermal_derivative, thermal_state
from .hamiltonian import ParamHamiltonian, random_hamiltonian
from .info_geometry import (
    FISHER_BURES,
    KUBO_MORI,
    additivity_check,
    check_order,
    fb_exact,
    fb_spectral_oracle,
    km_exact,
    km_spectral_oracle,
    sld_operator,
)
from .linalg import NumericConsistencyError
from .metrology import classical_fisher_info, mle_single_param, sld_measurement
from .natgrad import (
    EUCLIDEAN,
    GroundEnergyLoss,
    RelativeEntropyLoss,
    TrainConfig,
    train,
)
from .shot_estimators import (
    ShotConfig,
    estimate_element,
    estimate_fb_first_term,
    estimate_km_first_term,
    estimate_matrix,
    estimate_product_term,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_STATISTICAL = 4

KIND_NAMES = {"fb": FISHER_BURES, "km": KUBO_MORI}
TOP_LEVEL_KEYS = {"hamiltonian", "seed", "info_matrix", "train", "metrology", "estimate", "validate"}


class SchemaError(ValueError):
    """The problem config violates the expected schema."""


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits (round-trip exact for doubles)

def _format_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps17(obj, level: int = 0) -> str:
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps17(v, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps17(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _format_scalar(obj)


# ---------------------------------------------------------------------------
# config parsing

def _check_keys(block: dict, allowed: set, required: set, name: str) -> None:
    if not isinstance(block, dict):
        raise SchemaError(f"{name} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise SchemaError(f"unknown {name} keys: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise SchemaError(f"{name} missing required keys: {sorted(missing)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise SchemaError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"config is not valid JSON: {err}") from err
    _check_keys(config, TOP_LEVEL_KEYS, {"hamiltonian"}, "config")
    return config


def _load_hamiltonian(config: dict) -> ParamHamiltonian:
    try:
        return ParamHamiltonian.from_json_dict(config["hamiltonian"])
    except ValueError as err:
        raise SchemaError(str(err)) from err


def _resolve_seed(config: dict, args) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("seed must be a non-negative integer")
    return seed


def _positive_int(block: dict, key: str, name: str, default=None) -> int:
    if key not in block and default is not None:
        return default
    v = block[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise SchemaError(f"{name}.{key} must be a positive integer")
    return v


def _index(block: dict, key: str, n_params: int, name: str) -> int:
    v = block[key]
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n_params:
        raise SchemaError(f"{name}.{key} must be an index in [0, {n_params})")
    return v


def _number(block: dict, key: str, name: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise SchemaError(f"{name} missing required key {key!r}")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{name}.{key} must be a number")
    return float(v)


def _choice(block: dict, key: str, options: tuple, name: str) -> str:
    v = block.get(key)
    if v not in options:
        raise SchemaError(f"{name}.{key} must be one of {list(options)}")
    return v


def _shot_config(block: dict, seed: int, name: str) -> ShotConfig:
    eps = _number(block, "epsilon", name)
    delta = _number(block, "delta", name)
    try:
        return ShotConfig(epsilon=eps, delta=delta, master_seed=seed)
    except ValueError as err:
        raise SchemaError(str(err)) from err


def _emit(payload: dict, out_path: str | None) -> None:
    text = dumps17(payload) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_info_matrix(config: dict, args) -> int:
    ham = _load_hamiltonian(config)
    seed = _resolve_seed(config, args)
    block = config.get("info_matrix")
    if block is None:
        raise SchemaError("config has no info_matrix block")
    _check_keys(block, {"kind", "method", "epsilon", "delta"}, {"kind", "method"}, "info_matrix")
    kind = KIND_NAMES[_choice(block, "kind", ("fb", "km"), "info_matrix")]
    method = _choice(block, "method", ("exact", "spectral", "shot"), "info_matrix")

    payload = {
        "kind": block["kind"],
        "method": method,
        "terms": list(ham.terms),
        "theta": ham.theta,
        "seed": seed,
    }
    ts = thermal_state(ham)
    closed = (fb_exact if kind == FISHER_BURES else km_exact)
    oracle = (fb_spectral_oracle if kind == FISHER_BURES else km_spectral_oracle)
    if method == "exact":
        mat = closed(ham, ts)
        dev = float(np.max(np.abs(mat.values - oracle(ham, ts).values)))
        payload["max_elementwise_deviation"] = dev
    elif method == "spectral":
        mat = oracle(ham, ts)
    else:
        cfg = _shot_config(block, seed, "info_matrix")
        result = estimate_matrix(ham, kind, cfg, ts=ts, include_exact=True, workers=args.workers)
        mat = result.matrix
        payload.update({
            "epsilon": cfg.epsilon,
            "delta": cfg.delta,
            "shots_per_term": cfg.shots,
            "total_shots": result.total_shots,
            "max_dev_from_exact": result.max_dev_from_exact,
        })
    payload["matrix"] = mat.values
    payload["min_eigenvalue"] = mat.min_eigenvalue()
    payload["condition_number"] = mat.condition_number()
    _emit(payload, args.out)
    return EXIT_OK


def _parse_loss(block: dict, ham: ParamHamiltonian):
    _check_keys(block, {"kind", "terms", "coeffs", "omega"}, {"kind"}, "train.loss")
    kind = _choice(block, "kind", ("ground_energy", "relative_entropy"), "train.loss")
    if kind == "ground_energy":
        if "terms" not in block or "coeffs" not in block:
            raise SchemaError("ground_energy loss needs terms and coeffs")
        try:
            loss = GroundEnergyLoss.from_pauli(block["terms"], block["coeffs"])
        except ValueError as err:
            raise SchemaError(str(err)) from err
        if loss.observable.shape[0] != ham.dim:
            raise SchemaError("loss observable acts on a different qubit count")
        return loss
    omega_block = block.get("omega")
    _check_keys(omega_block or {}, {"terms", "theta"}, {"terms", "theta"}, "train.loss.omega")
    try:
        target = ParamHamiltonian(omega_block["terms"], omega_block["theta"])
    except ValueError as err:
        raise SchemaError(str(err)) from err
    if target.dim != ham.dim:
        raise SchemaError("omega acts on a different qubit count")
    return RelativeEntropyLoss(omega=thermal_state(target).rho)


def cmd_train(config: dict, args) -> int:
    ham = _load_hamiltonian(config)
    seed = _resolve_seed(config, args)
    block = config.get("train")
    if block is None:
        raise SchemaError("config has no train block")
    allowed = {"loss", "metric", "mode", "eta", "max_iters", "grad_tol",
               "pinv_rel_tol", "tikhonov", "epsilon", "delta", "trace_csv"}
    _check_keys(block, allowed, {"loss", "metric", "mode", "eta", "max_iters"}, "train")
    trace_path = block.get("trace_csv")
    if "trace_csv" in block and (not isinstance(trace_path, str) or not trace_path):
        raise SchemaError("train.trace_csv must be a non-empty string")
    loss = _parse_loss(block["loss"], ham)
    metric_name = _choice(block, "metric", ("fb", "km", "euclidean"), "train")
    mode = _choice(block, "mode", ("exact", "shot"), "train")
    shots = _shot_config(block, seed, "train") if mode == "shot" else None
    try:
        cfg = TrainConfig(
            eta=_number(block, "eta", "train"),
            metric=KIND_NAMES.get(metric_name, EUCLIDEAN),
            max_iters=_positive_int(block, "max_iters", "train"),
            grad_tol=_number(block, "grad_tol", "train", default=1e-8),
            pinv_rel_tol=_number(block, "pinv_rel_tol", "train", default=1e-10),
            shots=shots,
            tikhonov=_number(block, "tikhonov", "train", default=0.0),
        )
    except ValueError as err:
        raise SchemaError(str(err)) from err

    trace = train(ham, loss, cfg)
    if trace_path is None:
        if args.out:
            stem = args.out[:-5] if args.out.endswith(".json") else args.out
            trace_path = stem + ".trace.csv"
        else:
            trace_path = "train_trace.csv"
    trace.to_csv(trace_path)
    payload = {
        "final_theta": trace.final_theta,
        "final_loss": trace.final_loss,
        "iters": len(trace.records) - 1,
        "stop_reason": trace.stop_reason,
        "trace_csv": trace_path,
        "metric": metric_name,
        "mode": mode,
        "seed": seed,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_metrology(config: dict, args) -> int:
    ham = _load_hamiltonian(config)
    seed = _resolve_seed(config, args)
    block = config.get("metrology")
    if block is None:
        raise SchemaError("config has no metrology block")
    _check_keys(block, {"j", "n", "repeats", "weight"}, {"j", "n", "repeats"}, "metrology")
    j = _index(block, "j", ham.n_params, "metrology")
    n = _positive_int(block, "n", "metrology")
    repeats = _positive_int(block, "repeats", "metrology")
    if repeats < 2:
        raise SchemaError("metrology.repeats must be at least 2")

    ts = thermal_state(ham)
    result = mle_single_param(ham, j, n, repeats, master_seed=seed, ts=ts)
    fb_jj = float(fb_exact(ham, ts).values[j, j])
    f_sld = classical_fisher_info(ham, j, sld_measurement(ham, j, ts), ts)
    payload = {
        "theta": ham.theta,
        "j": j,
        "n": n,
        "repeats": repeats,
        "crb": result.crb,
        "empirical_variance": result.empirical_variance,
        "ratio": result.ratio,
        "fisher_exact": fb_jj,
        "fisher_classical_sld": f_sld,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_estimate(config: dict, args) -> int:
    ham = _load_hamiltonian(config)
    seed = _resolve_seed(config, args)
    block = config.get("estimate")
    if block is None:
        raise SchemaError("config has no estimate block")
    _check_keys(block, {"kind", "target", "i", "j", "epsilon", "delta"},
                {"kind", "i", "j", "epsilon", "delta"}, "estimate")
    kind_name = _choice(block, "kind", ("fb", "km"), "estimate")
    kind = KIND_NAMES[kind_name]
    target = block.get("target", "element")
    if target not in ("element", "first_term", "product_term"):
        raise SchemaError("estimate.target must be element, first_term, or product_term")
    i = _index(block, "i", ham.n_params, "estimate")
    j = _index(block, "j", ham.n_params, "estimate")
    cfg = _shot_config(block, seed, "estimate")

    ts = thermal_state(ham)
    if target == "first_term":
        first_fn = estimate_fb_first_term if kind == FISHER_BURES else estimate_km_first_term
        report = first_fn(ham, i, j, cfg, ts=ts)
    elif target == "product_term":
        report = estimate_product_term(ham, i, j, cfg, ts=ts)
    else:
        report = estimate_element(ham, kind, i, j, cfg, ts=ts)
    payload = {
        "kind": kind_name,
        "target": target,
        "i": i,
        "j": j,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "shots_per_term": cfg.shots,
        "value": report.value,
        "first_term": report.first_term,
        "second_term": report.second_term,
        "exact_reference": report.exact_reference,
        "error": report.error,
        "seed": seed,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _validate_instances(ham: ParamHamiltonian, seed: int, n_instances: int):
    rng = stream_rng(seed, 90)
    instances = [ham]
    for _ in range(n_instances):
        n = int(rng.integers(1, 4))
        max_terms = min(4, 4**n - 1)
        instances.append(random_hamiltonian(rng, n, int(rng.integers(1, max_terms + 1))))
    return instances


def cmd_validate(config: dict, args) -> int:
    ham = _load_hamiltonian(config)
    seed = _resolve_seed(config, args)
    block = config.get("validate", {})
    _check_keys(block, {"instances", "draws"}, set(), "validate")
    n_instances = _positive_int(block, "instances", "validate", default=20)
    draws = _positive_int(block, "draws", "validate", default=1_000_000)
    if draws < 1000:
        raise SchemaError("validate.draws must be an integer >= 1000")

    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures += 1

    worst = {"fb": 0.0, "km": 0.0, "order": 0.0, "fb_psd": 0.0, "sld": 0.0, "sat": 0.0}
    for inst in _validate_instances(ham, seed, n_instances):
        ts = thermal_state(inst)
        fb = fb_exact(inst, ts)
        km = km_exact(inst, ts)
        worst["fb"] = max(worst["fb"], float(np.max(np.abs(fb.values - fb_spectral_oracle(inst, ts).values))))
        worst["km"] = max(worst["km"], float(np.max(np.abs(km.values - km_spectral_oracle(inst, ts).values))))
        order = check_order(km, fb)
        worst["order"] = max(worst["order"], -order.min_eig_diff)
        worst["fb_psd"] = max(worst["fb_psd"], -order.min_eig_b)
        for j in range(inst.n_params):
            sld = sld_operator(inst, j, ts)
            resid = np.max(np.abs(thermal_derivative(inst, j, ts) - 0.5 * (ts.rho @ sld + sld @ ts.rho)))
            worst["sld"] = max(worst["sld"], float(resid))
            f_c = classical_fisher_info(inst, j, sld_measurement(inst, j, ts), ts)
            worst["sat"] = max(worst["sat"], abs(f_c - float(fb.values[j, j])))
    report("fb-cross-oracle", worst["fb"] <= 1e-8, f"max|dev| = {worst['fb']:.3e} (tol 1e-08)")
    report("km-cross-oracle", worst["km"] <= 1e-8, f"max|dev| = {worst['km']:.3e} (tol 1e-08)")
    report("loewner-order", worst["order"] <= 1e-9, f"max violation = {worst['order']:.3e} (tol 1e-09)")
    report("fb-psd", worst["fb_psd"] <= 1e-9, f"max violation = {worst['fb_psd']:.3e} (tol 1e-09)")
    report("sld-lyapunov", worst["sld"] <= 1e-9, f"max residual = {worst['sld']:.3e} (tol 1e-09)")
    report("sld-saturation", worst["sat"] <= 1e-6, f"max|F_c - FB_jj| = {worst['sat']:.3e} (tol 1e-06)")

    if 2 * ham.n_qubits <= 10:
        add = additivity_check(ham)
        report("fb-additivity", add.passed, f"max|dev| = {add.max_abs_diff:.3e} (tol 1e-08)")

    sampler = default_sampler()
    report("sampler-tv", sampler.tv_error <= 1e-6, f"TV = {sampler.tv_error:.3e} (tol 1e-06)")
    t = sample_t(sampler, stream_rng(seed, 91), size=draws)
    for delta in (0.5, 2.0, 5.0):
        c = np.cos(delta * t)
        emp = float(np.mean(c))
        band = 3.0 * float(np.std(c, ddof=1)) / math.sqrt(draws)
        exact = float(filter_value(delta))
        dev = abs(emp - exact)
        report(
            f"sampler-moment(delta={delta:g})", dev <= band,
            f"|E^[cos({delta:g} t)] - {exact:.10f}| = {dev:.3e}, 3-sigma band {band:.3e}",
        )

    return EXIT_OK if failures == 0 else EXIT_STATISTICAL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmgeo",
        description="Thermal-state information geometry: exact and shot-based computation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("info-matrix", "compute a Fisher-Bures or Kubo-Mori information matrix"),
        ("train", "run natural-gradient training, writing a trace CSV and summary JSON"),
        ("metrology", "single-parameter estimation experiment against the Cramer-Rao bound"),
        ("estimate", "shot-estimate a single matrix element or term"),
        ("validate", "run the cross-oracle, inequality, and sampler-moment suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="threads for shot estimation")
    return parser


COMMANDS = {
    "info-matrix": cmd_info_matrix,
    "train": cmd_train,
    "metrology": cmd_metrology,
    "estimate": cmd_estimate,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return COMMANDS[args.command](config, args)
    except SchemaError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as err:
        # reading the config maps to SchemaError, so this is --out or the trace CSV
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NumericConsistencyError, ValueError, RuntimeError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
