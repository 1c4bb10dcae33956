"""One digest line per solver call of the benchmark's request pools.

    python3 benchmarks/solve_digests.py > digests.txt

Runs every request in the three pools of `perfbench/reference.json`
(verify-deep, sweep-grid, oracle-lp) once, in pool order, through the
workload classes of `perfbench/workloads.py`, with `sdpverify.solver.solve`
wrapped to record what each call returns.  Each call prints one line:

    <workload> <request key> <status> <iterations> <sha256>

where the hash covers the bytes of the final `xblocks`, `y` and `sblocks`.
Two checkouts whose outputs `diff` clean made bit-identical solves.  BLAS
is pinned to one thread before numpy loads, as in the benchmark, since
the thread count moves iterates.  A status count and the elapsed seconds
go to stderr.  The package is imported from this checkout's `src/`;
nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(sol) -> str:
    h = hashlib.sha256()
    for arr in [*sol.xblocks, sol.y, *sol.sblocks]:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def main() -> None:
    start = time.perf_counter()
    api = run.load_api()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    real = api.solver.solve
    lines = []

    def recording(prob, config=None, trace=None):
        sol = real(prob, config, trace)
        lines.append(f"{sol.status} {sol.iterations} {digest(sol)}")
        return sol

    statuses = Counter()
    api.solver.solve = recording
    try:
        for name in ("verify-deep", "sweep-grid", "oracle-lp"):
            workload = WORKLOADS[name](api, reference["workloads"][name]["pool"])
            workload.make_fixtures()
            for req in workload.all_requests():
                lines.clear()
                workload.run(req)
                for line in lines:
                    print(name, workload.key(req), line)
                    statuses[line.split()[0]] += 1
    finally:
        api.solver.solve = real
    counts = ", ".join(f"{n} {s}" for s, n in sorted(statuses.items()))
    print(f"{sum(statuses.values())} solves: {counts}; "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
