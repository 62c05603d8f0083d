"""One benchmark run: set-up, timed closed loop, checks, metrics.

Each op runs as a CLI invocation would in a fresh process, with one
exception: the tent-sampler grid, which the set-up warm-up builds. The dense
Pauli cache (`pauli_to_matrix`) is cleared before every op, so memory and
time per op do not depend on how many ops ran before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from qbmgeo import ParamHamiltonian, fb_exact, km_exact
from qbmgeo import hamiltonian as ham_module

import tracer
import workloads as wl

RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_PROBES = 2  # child processes that repeat set-up; with the run itself, 3 samples
CONVERGED_GRAD_NORM = 1e-4  # exact training counts as converged at this final gradient norm
SHOTS_PER_TERM = math.ceil(2.0 * math.log(2.0 / wl.DELTA) / wl.EPS**2)


def process_age(script_start: float) -> float:
    """Seconds since this process started (from /proc), else since the script started."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        if 0.0 < age < 600.0:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - script_start


def spawn_setup_probes(args) -> list[float]:
    """Repeat set-up in fresh processes; each reports its own age after the warm-up op."""
    cmd = [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=RUN_PY.parent.parent, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


class Runner:
    """Runs ops through `cli.main` in the current (private) directory."""

    def __init__(self, cli, hamiltonian_module):
        self.cli = cli
        self.pauli = getattr(hamiltonian_module, "pauli_to_matrix", None)
        self.max_cache_entries = 0

    def run(self, op) -> dict:
        Path("op.json").write_text(json.dumps(op.config))
        for name in ("out.json", "out.trace.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)
        if hasattr(self.pauli, "cache_clear"):
            self.pauli.cache_clear()
        argv = [op.command, "--config", "op.json", "--out", "out.json", *op.flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as err:
                rc = err.code if isinstance(err.code, int) else 1
            except Exception as err:  # a traceback is a failed op, not a failed benchmark
                rc = -1
                stderr.write(repr(err))
            seconds = time.perf_counter() - t0
        if hasattr(self.pauli, "cache_info"):
            self.max_cache_entries = max(self.max_cache_entries, self.pauli.cache_info().currsize)
        out, csv_text = _read("out.json"), _read("out.trace.csv")
        parts = [(out or "").encode(), (csv_text or "").encode(), stdout.getvalue().encode()]
        return {
            "rc": rc, "seconds": seconds, "out": out, "csv": csv_text, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-300:], "bytes": sum(len(p) for p in parts),
            "digest": hashlib.sha256(b"\0".join(parts)).hexdigest()[:16],
        }


def _read(name: str):
    path = Path(name)
    return path.read_text() if path.exists() else None


TAIL_PERCENTILES = (99, 95, 90, 75)


def percentile_with_tail(values, beyond: int = 10):
    """Highest of p99, p95, p90, p75 with at least `beyond` samples above it (nearest rank).

    With fewer than 4 * `beyond` samples no tail percentile qualifies and the
    median stands in. A fixed percentile ladder keeps the reported tail at
    the same percentile while the op count drifts with machine speed.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def _stream(name: str, rng, workers: int):
    if name == "exact_large":
        return wl.exact_large(rng)
    if name == "shot_medium":
        return wl.shot_medium(rng, workers)
    return wl.small_tasks(rng)


WARMUPS = {"exact_large": wl.exact_warmup, "shot_medium": wl.shot_warmup, "small_tasks": wl.small_warmup}


def run(args, index: int, cli, workers: int, script_start: float):
    """Returns (result, report); result is None for a set-up probe.

    `index` numbers the workload, so each workload draws its own streams from the seed.
    """
    rng = lambda stream: np.random.default_rng([args.seed, index, stream])  # noqa: E731
    runner = Runner(cli, ham_module)
    rec = None
    if args.trace:
        rec = tracer.SpanRecorder()
        rec.install()
        rec.op = "setup"
    warm_op = WARMUPS[args.workload](rng(1))
    warm = runner.run(warm_op)
    setup_self = process_age(script_start)
    if args.setup_probe:
        return None, {"setup_s": setup_self}
    if rec is not None:
        rec.op = None
    setup = [setup_self] + ([] if args.trace else spawn_setup_probes(args))

    executed = [(warm_op, warm)]
    run_failures: list[str] = []
    if args.workload == "shot_medium":
        pair = wl.shot_workers_pair(rng(3), workers)
        many, one = runner.run(pair[0]), runner.run(pair[1])
        executed += [(pair[0], many), (pair[1], one)]
        if many["digest"] != one["digest"]:
            run_failures.append(f"--workers {workers} output differs from --workers 1")

    # timed phase: closed loop, one caller
    stream = _stream(args.workload, rng(0), workers)
    timed = []
    deadline = time.perf_counter() + args.seconds
    while True:
        op = next(stream)
        start = time.perf_counter()
        if rec is None:
            res = runner.run(op)
        else:
            res = _run_traced_pair(runner, rec, op, len(timed))
        timed.append((op, res))
        end = time.perf_counter()
        if end >= deadline:
            break
    # the last op straddles the deadline and counts for the share of it inside the window
    completed = len(timed) - 1 + (deadline - start) / (end - start)

    probe = []
    if args.workload == "exact_large":
        if rec is not None:
            rec.op = "probe"
        probe = [(op, runner.run(op)) for op in wl.exact_probe(rng(2))]
        if rec is not None:
            rec.op = None

    again = runner.run(warm_op)
    if again["digest"] != warm["digest"]:
        run_failures.append("repeating the warm-up op changed its output")

    everything = executed + timed + probe + [(warm_op, again)]
    failures, quality = _check_all(everything, timed)
    if quality["contract_miss_fraction"] > 2 * wl.DELTA:
        run_failures.append(f"contract miss fraction {quality['contract_miss_fraction']:.3f} > {2 * wl.DELTA}")
    failed = sum(1 for problems in failures if problems)
    report = {
        "ops": len(timed),
        "fail_ratio": failed / len(everything),
        "failures": [f"{op.command}: {p}" for (op, _), problems in zip(everything, failures) for p in problems][:20]
        + run_failures,
        "op_log": [[op.label, res["seconds"], res["digest"]] for op, res in timed],
        "probe_s": [res["seconds"] for _, res in probe],
        "pauli_cache_max_entries": runner.max_cache_entries,
        **quality,
    }
    if rec is None:
        metrics, extra = _end_to_end(timed, setup, completed / args.seconds)
    else:
        metrics, extra = _per_layer(rec, timed, setup_self, runner, quality, workers)
    report.update(extra)
    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": len(everything),
        "failed": failed + len(run_failures),
        "metrics": metrics,
    }
    return result, report


def _run_traced_pair(runner, rec, op, k: int) -> dict:
    """Run an op traced and untraced, alternating which goes first.

    The traced result is kept; a digest mismatch between the two is a failure
    (tracing must not change output bytes), and the pair gives the overhead.
    """
    order = (True, False) if k % 2 == 0 else (False, True)
    results = {}
    for traced in order:
        rec.op = k if traced else None
        results[traced] = runner.run(op)
    rec.op = None
    res = results[True]
    res["untraced_seconds"] = results[False]["seconds"]
    res["trace_mismatch"] = res["digest"] != results[False]["digest"]
    return res


def _exact_matrix(op):
    h = ParamHamiltonian.from_json_dict(op.config["hamiltonian"])
    return (fb_exact if op.config["info_matrix"]["kind"] == "fb" else km_exact)(h).values


def _is_shot(op) -> bool:
    return op.command == "estimate" or (
        op.command == "info-matrix" and op.config["info_matrix"]["method"] == "shot")


def _check_all(everything, timed):
    """Per-op failure lists, plus the run's quality figures."""
    failures = []
    outs = []
    for op, res in everything:
        out = wl.parse_json(res["out"])
        outs.append(out)
        problems = wl.check(op, res["rc"], out, res["csv"])
        if res["rc"] != 0 and res["stderr"]:
            problems.append(res["stderr"].strip())
        if res.get("trace_mismatch"):
            problems.append("traced output differs from untraced output")
        failures.append(problems)
    # Loewner order per exact instance: the km op directly follows its fb op
    gaps, oracle_devs = [], []
    for k in range(1, len(everything)):
        (op_a, _), (op_b, _) = everything[k - 1], everything[k]
        if ("instance" in op_b.meta and op_b.meta["kind"] == "km" and op_a.meta.get("kind") == "fb"
                and op_a.meta.get("instance") == op_b.meta["instance"] and outs[k - 1] and outs[k]):
            gap = wl.loewner_gap(outs[k - 1], outs[k])
            gaps.append(gap)
            if gap < -1e-9:
                failures[k].append(f"KM - FB has eigenvalue {gap:.3e} < -1e-9")
    for out in outs:
        if out and "max_elementwise_deviation" in out:
            oracle_devs.append(out["max_elementwise_deviation"])
    # validate reports its own worst cross-oracle deviation and order violation
    for (op, res) in everything:
        if op.command == "validate":
            for line in res["stdout"].splitlines():
                if "cross-oracle" in line:
                    oracle_devs.append(float(line.split("= ")[1].split()[0]))
                elif "loewner-order" in line:
                    gaps.append(-float(line.split("= ")[1].split()[0]))
    errors = []
    timed_ids = {id(res) for _, res in timed}
    for (op, res), out in zip(everything, outs):
        if id(res) in timed_ids and out and _is_shot(op) and res["rc"] == 0:
            errors += wl.contract_errors(op, out, _exact_matrix)
    misses = sum(1 for err, tol in errors if err > tol)
    quality = {
        "max_oracle_dev": max(oracle_devs, default=0.0),
        "min_loewner_gap": min(gaps, default=0.0),
        "contract_elements": len(errors),
        "contract_miss_fraction": misses / len(errors) if errors else 0.0,
        "crb_ratios": [outs[k]["ratio"] for k, (op, _) in enumerate(everything)
                       if op.command == "metrology" and outs[k]],
    }
    return failures, quality


def _shots(op, out) -> int:
    """Simulated first-term plus product-term shots of one op."""
    if out is None:
        return 0
    if op.command == "estimate":
        return out["shots_per_term"] * (2 if op.config["estimate"]["target"] == "element" else 1)
    if op.command == "info-matrix" and op.config["info_matrix"]["method"] == "shot":
        return out["total_shots"]
    if op.command == "train" and op.meta["mode"] == "shot":
        block = op.config["train"]
        j = len(op.config["hamiltonian"]["terms"])
        grad_terms = j * len(block["loss"]["terms"]) if block["loss"]["kind"] == "ground_energy" else j
        metric_terms = 0 if block["metric"] == "euclidean" else j * j
        return (out["iters"] + 1) * 2 * SHOTS_PER_TERM * (grad_terms + metric_terms)
    return 0


def _train_rates(timed) -> dict:
    iters = {"exact": 0, "shot": 0}
    seconds = {"exact": 0.0, "shot": 0.0}
    for op, res in timed:
        out = wl.parse_json(res["out"])
        if op.command == "train" and out:
            iters[op.meta["mode"]] += out["iters"]
            seconds[op.meta["mode"]] += res["seconds"]
    return {f"{m}_iters_per_s": iters[m] / seconds[m] if seconds[m] else None for m in iters}


def _end_to_end(timed, setup, ops_per_s):
    times = [res["seconds"] for _, res in timed]
    pct, tail = percentile_with_tail(times)
    shot_ops = [(n, res["seconds"]) for op, res in timed if (n := _shots(op, wl.parse_json(res["out"])))]
    shots = sum(n for n, _ in shot_ops)
    shot_time = sum(t for _, t in shot_ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "op_tail_s": {"value": tail, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    extra = {
        "setup_samples_s": setup,
        "tail_percentile": pct,
        "shots_per_s": shots / shot_time if shot_time else None,
        **_train_rates(timed),
    }
    return metrics, extra


# per-layer metric -> unit (the traced run reports these)
PER_LAYER_UNITS = {
    "linalg.spectral.calls": "count",
    "linalg.spectral.self_s": "s",
    "linalg.pseudo_inverse.self_s": "s",
    "hamiltonian.assemble.self_s": "s",
    "hamiltonian.pauli_to_matrix.cache_entries": "count",
    "gibbs.thermal_state.calls": "count",
    "gibbs.thermal_state.self_s": "s",
    "gibbs.to_eigenbasis.calls_per_op": "count",
    "gibbs.to_eigenbasis.self_s": "s",
    "gibbs.to_eigenbasis.gflops_computed": "GFLOP",
    "gibbs.thermal_derivative.self_s": "s",
    "bp_channel.sample_t.draws": "count",
    "bp_channel.sample_t.self_s": "s",
    "bp_channel.sample_t.ns_per_draw": "ns",
    "bp_channel.apply_channel.self_s": "s",
    "bp_channel.grid_build_s": "s",
    "bp_channel.grid_build.setup_share": "ratio",
    "info_geometry.closed_form.self_s": "s",
    "info_geometry.oracle.self_s": "s",
    "info_geometry.sld_operator.self_s": "s",
    "info_geometry.max_oracle_dev": "abs",
    "info_geometry.min_loewner_gap": "abs",
    "shot_estimators.first_term.calls": "count",
    "shot_estimators.first_term.self_s": "s",
    "shot_estimators.first_term.ns_per_shot": "ns",
    "shot_estimators.product_term.self_s": "s",
    "shot_estimators.estimate_matrix.self_s": "s",
    "shot_estimators.shots": "count",
    "shot_estimators.parallel_efficiency": "ratio",
    "shot_estimators.contract_hit_ratio": "ratio",
    "natgrad.train.self_s": "s",
    "natgrad.grad.self_s": "s",
    "natgrad.natgrad_step.self_s": "s",
    "natgrad.iterations": "count",
    "natgrad.converged_ratio": "ratio",
    "metrology.mle_single_param.self_s": "s",
    "metrology.nll_thermal_states": "count",
    "metrology.crb_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _per_layer(rec, timed, setup_self, runner, quality, workers):
    """Per-layer metrics over the timed ops; spans of absent targets give absent metrics."""
    ids = set(range(len(timed)))
    spans = [s for s in rec.spans if s[tracer.OP] in ids]
    agg = tracer.aggregate(spans)
    every = tracer.aggregate(rec.spans)
    absent = set(rec.absent)

    def get(*names, key="self_s"):
        present = [n for n in names if n not in absent]
        return sum(agg[n][key] if n in agg else 0 for n in present) if present else None

    first = ("shot_estimators.estimate_fb_first_term", "shot_estimators.estimate_km_first_term")
    product = "shot_estimators.estimate_product_term"
    draws = get("bp_channel.sample_t", key="work")
    first_shots = get(*first, key="work")
    first_self = get(*first)
    shots = None if first_shots is None else first_shots + (get(product, key="work") or 0)
    eig = agg.get("gibbs.to_eigenbasis")
    # two complex d x d GEMMs per basis change, 8 d^3 real flops each
    eig_gflops = sum(c * 16.0 * d**3 for d, (c, _) in eig["by_dim"].items()) / 1e9 if eig else 0.0
    grid_s = None if "bp_channel.build_tent_sampler" in absent else (
        every["bp_channel.build_tent_sampler"]["incl_s"] if "bp_channel.build_tent_sampler" in every else 0.0)
    pool = agg.get("shot_estimators.estimate_matrix")
    outs = [(op, wl.parse_json(res["out"])) for op, res in timed]
    trains = [out for op, out in outs if op.command == "train" and out]
    exact_grads = [_final_grad_norm(res["csv"]) for op, res in timed
                   if op.command == "train" and op.meta["mode"] == "exact" and res["csv"]]
    untraced = sum(res["untraced_seconds"] for _, res in timed)
    cache = runner.max_cache_entries if hasattr(runner.pauli, "cache_info") else None

    values = {
        "linalg.spectral.calls": get("linalg.spectral", key="calls"),
        "linalg.spectral.self_s": get("linalg.spectral"),
        "linalg.pseudo_inverse.self_s": get("linalg.pseudo_inverse"),
        "hamiltonian.assemble.self_s": get("hamiltonian.assemble"),
        "hamiltonian.pauli_to_matrix.cache_entries": cache,
        "gibbs.thermal_state.calls": get("gibbs.thermal_state", key="calls"),
        "gibbs.thermal_state.self_s": get("gibbs.thermal_state"),
        "gibbs.to_eigenbasis.calls_per_op": _ratio(get("gibbs.to_eigenbasis", key="calls"), len(timed)),
        "gibbs.to_eigenbasis.self_s": get("gibbs.to_eigenbasis"),
        "gibbs.to_eigenbasis.gflops_computed": None if "gibbs.to_eigenbasis" in absent else eig_gflops,
        "gibbs.thermal_derivative.self_s": get("gibbs.thermal_derivative"),
        "bp_channel.sample_t.draws": draws,
        "bp_channel.sample_t.self_s": get("bp_channel.sample_t"),
        "bp_channel.sample_t.ns_per_draw": _ratio(get("bp_channel.sample_t"), draws and draws / 1e9),
        "bp_channel.apply_channel.self_s": get("bp_channel.apply_channel"),
        "bp_channel.grid_build_s": grid_s,
        "bp_channel.grid_build.setup_share": _ratio(grid_s, setup_self),
        "info_geometry.closed_form.self_s": get("info_geometry.fb_exact", "info_geometry.km_exact"),
        "info_geometry.oracle.self_s": get("info_geometry.fb_spectral_oracle", "info_geometry.km_spectral_oracle"),
        "info_geometry.sld_operator.self_s": get("info_geometry.sld_operator"),
        "info_geometry.max_oracle_dev": quality["max_oracle_dev"],
        "info_geometry.min_loewner_gap": quality["min_loewner_gap"],
        "shot_estimators.first_term.calls": get(*first, key="calls"),
        "shot_estimators.first_term.self_s": first_self,
        "shot_estimators.first_term.ns_per_shot": _ratio(first_self, first_shots and first_shots / 1e9),
        "shot_estimators.product_term.self_s": get(product),
        "shot_estimators.estimate_matrix.self_s": get("shot_estimators.estimate_matrix"),
        "shot_estimators.shots": shots,
        "shot_estimators.parallel_efficiency":
            _ratio(pool["foreign_busy_s"], pool["foreign_wall_s"] * workers) if pool else 0.0,
        "shot_estimators.contract_hit_ratio":
            1.0 - quality["contract_miss_fraction"] if quality["contract_elements"] else 0.0,
        "natgrad.train.self_s": get("natgrad.train"),
        "natgrad.grad.self_s": get("natgrad.grad_ground_energy", "natgrad.grad_rel_entropy"),
        "natgrad.natgrad_step.self_s": get("natgrad.natgrad_step"),
        "natgrad.iterations": sum(out["iters"] for out in trains),
        "natgrad.converged_ratio": _ratio(sum(g <= CONVERGED_GRAD_NORM for g in exact_grads), len(exact_grads)),
        "metrology.mle_single_param.self_s": get("metrology.mle_single_param"),
        "metrology.nll_thermal_states": tracer.descendants_named(spans, "metrology.mle_single_param",
                                                                 "gibbs.thermal_state"),
        "metrology.crb_ratio": statistics.median(quality["crb_ratios"]) if quality["crb_ratios"] else 0.0,
        "cli.main.self_s": get("cli.main"),
        "cli.bytes_written": sum(res["bytes"] for _, res in timed),
        "trace.overhead_ratio": _ratio(sum(res["seconds"] for _, res in timed), untraced),
        "trace.ops": len(timed),
    }
    metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items() if v is not None}
    extra = {
        "absent_spans": sorted(absent),
        "setup_self_s": setup_self,
        "layers": {name: {"calls": a["calls"], "incl_s": a["incl_s"], "self_s": a["self_s"], "work": a["work"],
                          "by_dim": {str(d): c for d, c in sorted(a["by_dim"].items())}}
                   for name, a in sorted(every.items())},
    }
    probe = tracer.aggregate([s for s in rec.spans if s[tracer.OP] == "probe"])
    trains = _breakdown(timed, agg, "natgrad.train",
                        lambda op: op.command == "train" and f"{op.meta['mode']}@{op.meta['qubits']}q")
    matrices = _breakdown(timed, agg, "shot_estimators.estimate_matrix",
                          lambda op: op.command == "info-matrix" and f"{op.meta['kind']}@{op.meta['qubits']}q")
    mle = agg.get("metrology.mle_single_param")
    big = [s for s in spans if s[tracer.NAME] == "bp_channel.sample_t" and s[tracer.WORK] >= 100_000]
    # headline per-layer figures, where this workload has them
    figures = {
        "grid_build_s": grid_s or None,
        "s_per_1M_draws": _ratio(get("bp_channel.sample_t"), draws and draws / 1e6) or None,
        "s_per_1M_draws_in_large_calls": _ratio(sum(s[tracer.END] - s[tracer.START] for s in big),
                                                sum(s[tracer.WORK] for s in big) / 1e6) or None,
        "thermal_state_s_10q": _per_call(probe.get("gibbs.thermal_state")),
        "fb_exact_s_10q": _per_call(probe.get("info_geometry.fb_exact")),
        "shot_fb_matrix_s_6q": _per_call(matrices.get("fb@6q"), "ops", "s"),
        "exact_train_s_per_iter_2q": _per_call(trains.get("exact@2q"), "iters", "s"),
        "shot_train_s_per_iter_2q": _per_call(trains.get("shot@2q"), "iters", "s"),
        "mle_200_repeats_s": _per_call(mle),
    }
    extra.update({
        "figures": {k: v for k, v in figures.items() if v is not None},
        "probe_layers": {name: [a["calls"], a["incl_s"]] for name, a in sorted(probe.items())},
        "train_by_mode": trains,
        "shot_matrix_by_size": matrices,
    })
    return metrics, extra


def _per_call(row, count: str = "calls", seconds: str = "incl_s"):
    return row[seconds] / row[count] if row and row[count] else None


def _final_grad_norm(csv_text: str) -> float:
    lines = csv_text.strip().splitlines()
    return float(lines[-1].split(",")[lines[0].split(",").index("grad_norm")])


def _breakdown(timed, agg, span: str, label) -> dict:
    """Inclusive seconds of `span` (and training iterations) per op label."""
    by_op = agg[span]["by_op"] if span in agg else {}
    rows: dict = {}
    for k, (op, res) in enumerate(timed):
        key = label(op)
        if not key or k not in by_op:
            continue
        row = rows.setdefault(key, {"ops": 0, "s": 0.0, "iters": 0})
        row["ops"] += 1
        row["s"] += by_op[k]
        out = wl.parse_json(res["out"])
        row["iters"] += out.get("iters", 0) if out else 0
    return rows
