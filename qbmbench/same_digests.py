"""Determinism check: two runs of one workload and seed must give identical op digests.

Usage, from the root of a checkout:

    python3 qbmbench/same_digests.py --workload small_tasks --seed 7 --seconds 5

Each run lists, per op, a sha256 prefix of everything the op wrote (JSON
output, trace CSV, stdout). Runs are time-bounded, so they may complete a
different number of ops; the common prefix is compared. Exit code 0 when the
digests agree, 1 when they differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent / "run.py"


def digests(workload: str, seed: int, seconds: float) -> list[str]:
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=RUN_PY.parent.parent, capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    return [digest for _, _, digest in report["op_log"]]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    args = p.parse_args()
    first = digests(args.workload, args.seed, args.seconds)
    second = digests(args.workload, args.seed, args.seconds)
    n = min(len(first), len(second))
    mismatched = [k for k in range(n) if first[k] != second[k]]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "compared": n, "mismatched": mismatched}))
    return 1 if mismatched or n == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
