"""Layered benchmark for qbmgeo: three closed-loop CLI workloads, one caller each.

Usage, from the root of a checkout:

    python3 qbmbench/run.py --workload exact_large --seed 1 --seconds 18 --trace 0

Every op is an in-process `qbmgeo.cli.main([...])` call on a config generated
from `--seed` (see workloads.py). With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it reports per-layer metrics from spans
recorded around the library's public functions (see tracer.py). The last
stdout line is the result object; the line before it holds provenance, the
per-op digests and the figures that are not metrics of every workload.
Exit code 0 on a completed run (check "correct" for the verdict), 2 when the
library cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

SCRIPT_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_large", "shot_medium", "small_tasks")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit (used by the benchmark itself)")
    return p.parse_args(argv)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_facts(np) -> dict:
    import ctypes
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": threads}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qbmgeo" / "cli.py").is_file():
        print(f"qbmbench: no qbmgeo sources under {src}", file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    if args.workload == "shot_medium":
        # the shot kernel runs on `workers` threads, so BLAS gets one thread
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np
    import scipy

    from qbmgeo import cli
    import bench

    workdir = ROOT / ".qbmbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        result, report = bench.run(args, WORKLOADS.index(args.workload), cli, workers, SCRIPT_START)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if result is None:  # set-up probe
        print(json.dumps(report))
        return 0
    report["provenance"] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_facts(np),
        "workers": workers, "git_commit": git_commit(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
