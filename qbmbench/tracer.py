"""In-memory span recorder for the traced benchmark run.

The recorder wraps public library functions from outside the library: for
each target it rebinds the name in every loaded `qbmgeo.*` module that holds
the original object (a `from .gibbs import thermal_state` copies the binding,
so rebinding only the defining module would miss those callers). It also
wraps the `ThermalState.to_eigenbasis` method. A target that no longer exists
is skipped and reported absent, so the benchmark keeps running against a
library that has removed a public function.

Each span records its name, start, end, parent span, thread id, op id, the
operator dimension of its arguments and a work count (draws or shots). A span
opened on a worker thread with no open span of its own takes as parent the
innermost open span of the thread that installed the recorder: ops run one at
a time, so that span is the one waiting on the worker pool.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" wraps a method.
TARGETS = (
    ("linalg.spectral", "qbmgeo.linalg", "spectral"),
    ("linalg.pseudo_inverse", "qbmgeo.linalg", "pseudo_inverse"),
    ("hamiltonian.assemble", "qbmgeo.hamiltonian", "assemble"),
    ("gibbs.thermal_state", "qbmgeo.gibbs", "thermal_state"),
    ("gibbs.to_eigenbasis", "qbmgeo.gibbs", "ThermalState.to_eigenbasis"),
    ("gibbs.thermal_derivative", "qbmgeo.gibbs", "thermal_derivative"),
    ("bp_channel.build_tent_sampler", "qbmgeo.bp_channel", "build_tent_sampler"),
    ("bp_channel.sample_t", "qbmgeo.bp_channel", "sample_t"),
    ("bp_channel.apply_channel", "qbmgeo.bp_channel", "apply_channel"),
    ("info_geometry.fb_exact", "qbmgeo.info_geometry", "fb_exact"),
    ("info_geometry.km_exact", "qbmgeo.info_geometry", "km_exact"),
    ("info_geometry.fb_spectral_oracle", "qbmgeo.info_geometry", "fb_spectral_oracle"),
    ("info_geometry.km_spectral_oracle", "qbmgeo.info_geometry", "km_spectral_oracle"),
    ("info_geometry.sld_operator", "qbmgeo.info_geometry", "sld_operator"),
    ("shot_estimators.estimate_fb_first_term", "qbmgeo.shot_estimators", "estimate_fb_first_term"),
    ("shot_estimators.estimate_km_first_term", "qbmgeo.shot_estimators", "estimate_km_first_term"),
    ("shot_estimators.estimate_product_term", "qbmgeo.shot_estimators", "estimate_product_term"),
    ("shot_estimators.estimate_matrix", "qbmgeo.shot_estimators", "estimate_matrix"),
    ("natgrad.train", "qbmgeo.natgrad", "train"),
    ("natgrad.grad_ground_energy", "qbmgeo.natgrad", "grad_ground_energy"),
    ("natgrad.grad_rel_entropy", "qbmgeo.natgrad", "grad_rel_entropy"),
    ("natgrad.natgrad_step", "qbmgeo.natgrad", "natgrad_step"),
    ("metrology.mle_single_param", "qbmgeo.metrology", "mle_single_param"),
    ("cli.main", "qbmgeo.cli", "main"),
)

# span slots
NAME, START, END, PARENT, THREAD, OP, DIM, WORK = range(8)


def _dim_of(args) -> int:
    for a in args:
        d = getattr(a, "dim", None)
        if isinstance(d, int):
            return d
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
    return 0


def _work_of(name: str, args, kwargs) -> int:
    """Draws for sample_t, shots for the public shot estimators, else 0."""
    if name == "bp_channel.sample_t":
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        return 1 if size is None else int(size)
    if name.startswith("shot_estimators.estimate_") and name != "shot_estimators.estimate_matrix":
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        return int(getattr(cfg, "shots", 0))
    return 0


class SpanRecorder:
    """Collects spans while `op` is not None; spans stay in memory until read."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.absent: list[str] = []
        self._stacks: dict[int, list] = {}
        self._home = threading.get_ident()

    def _wrap(self, name: str, fn):
        rec = self

        def traced(*args, **kwargs):
            op = rec.op
            if op is None:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = rec._stacks.setdefault(tid, [])
            parent = stack[-1] if stack else None
            if parent is None and tid != rec._home:
                home = rec._stacks.get(rec._home)
                parent = home[-1] if home else None
            span = [name, time.perf_counter(), 0.0, parent, tid, op,
                    _dim_of(args), _work_of(name, args, kwargs)]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                rec.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "qbmgeo" or k.startswith("qbmgeo.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                setattr(owner, method, self._wrap(name, fn))
                continue
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, wrapper)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per-span-name totals: calls, inclusive and self seconds, work, by dimension.

    Self time is a span's duration minus the union of its children's
    intervals, so children on two worker threads are not subtracted twice.
    Also returns, per name, the busy time of children on other threads and
    the wall time of the spans that had such children (for pool efficiency),
    and inclusive seconds per op id.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    out: dict = defaultdict(lambda: {
        "calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0,
        "by_dim": defaultdict(lambda: [0, 0.0]), "foreign_busy_s": 0.0, "foreign_wall_s": 0.0,
        "by_op": defaultdict(float),
    })
    for s in spans:
        dur = s[END] - s[START]
        kids = children.get(id(s), ())
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["incl_s"] += dur
        agg["self_s"] += dur - _covered([(k[START], k[END]) for k in kids])
        agg["work"] += s[WORK]
        cell = agg["by_dim"][s[DIM]]
        cell[0] += 1
        cell[1] += dur
        foreign = [k[END] - k[START] for k in kids if k[THREAD] != s[THREAD]]
        if foreign:
            agg["foreign_busy_s"] += sum(foreign)
            agg["foreign_wall_s"] += dur
        agg["by_op"][s[OP]] += dur
    return out


def descendants_named(spans, ancestor: str, name: str) -> int:
    """Number of spans called `name` with an ancestor span called `ancestor`."""
    count = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p is not None:
            if p[NAME] == ancestor:
                count += 1
                break
            p = p[PARENT]
    return count
