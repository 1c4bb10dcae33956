"""One digest line per solver call of the benchmark's request pools.

    python3 benchmarks/solve_digests.py > digests.txt
    python3 benchmarks/solve_digests.py --nudge rhs > rhs.txt
    python3 benchmarks/solve_digests.py --dscale > dscale.txt
    python3 benchmarks/solve_digests.py --compare before.txt after.txt

Runs every request in the three pools of `perfbench/reference.json`
(verify-deep, sweep-grid, oracle-lp) once, in pool order, through the
workload classes of `perfbench/workloads.py`, with `sdpverify.solver.solve`
wrapped to record what each call gets and returns.  Each call prints one
line:

    <workload> <request key> <status> <iterations> <sha256> <m> <nnz> <primal_obj>

where the hash covers the bytes of the final `xblocks`, `y` and `sblocks`,
m and nnz are the problem's constraint count and stored constraint
nonzeros, counted as `perfbench/tracing.py` counts them for `sdpform.rows`
and `sdpform.nnz`, and primal_obj is the `repr` of the solve's final
primal objective.  Two checkouts whose outputs `diff` clean made
bit-identical solves of problems of the same size.  BLAS
is pinned to one thread before numpy loads, as in the benchmark, since
the thread count moves iterates.  A status count and the elapsed seconds
go to stderr.  The package is imported from this checkout's `src/`, so
to digest another checkout, copy this file into its `benchmarks/`;
nothing under `perfbench/` is changed.

`--nudge rhs` (or `obj`) hands each solve a copy of its problem in which
every nonzero b_j (every nonzero objective coefficient) is moved one ulp
up with `np.nextafter`; the workloads go on with what the copy returns.
Comparing such a run with a plain one shows which solves a last-bit
change of the data moves, the fragile set `fragile_set.txt` records.

`--dscale` runs the verify-deep pool alone, with `sdpverify.cli.run_verify`
wrapped to pass `dscale=True`, so its lines digest the scaled relaxation's
solves.  Two checkouts' `--dscale` outputs compare as plain ones do.

`--compare OLD NEW` reads two such outputs, made in the same pool order.
It prints one line per solve that changed status or iteration count:

    moved <workload> <request key> <solve index> <old status> <old iterations> -> <new status> <new iterations>

where the solve index counts the request's solves from 0.  Then per
workload it prints the number of solves, how many changed status or
iteration count, how many changed hash, and the largest relative change
of the primal objective, |new - old| / max(|old|, |new|).  It exits 1 if
any solve changed status or iteration count, and 2 if the files do not
list the same solves.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import functools  # noqa: E402
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
from tracing import _problem_size  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(sol) -> str:
    h = hashlib.sha256()
    for arr in [*sol.xblocks, sol.y, *sol.sblocks]:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def nudged(prob, what: str):
    """A copy of `prob` with every nonzero b_j (`what` "rhs") or objective
    coefficient ("obj") moved one ulp up."""
    if what == "rhs":
        return dataclasses.replace(prob, constraints=[
            dataclasses.replace(c, rhs=float(np.nextafter(c.rhs, np.inf)))
            if c.rhs != 0.0 else c for c in prob.constraints])
    return dataclasses.replace(prob, objective={
        b: mat._replace(data=np.where(mat.data != 0.0,
                                      np.nextafter(mat.data, np.inf), mat.data))
        for b, mat in prob.objective.items()})


def main(nudge: str | None, dscale: bool = False) -> None:
    start = time.perf_counter()
    api = run.load_api()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    real, real_verify = api.solver.solve, api.cli.run_verify
    lines = []

    def recording(prob, config=None):
        sol = real(nudged(prob, nudge) if nudge else prob, config)
        m, nnz = _problem_size(prob)
        lines.append(f"{sol.status} {sol.iterations} {digest(sol)} {m} {nnz} "
                     f"{sol.primal_obj!r}")
        return sol

    statuses = Counter()
    api.solver.solve = recording
    if dscale:
        api.cli.run_verify = functools.partial(real_verify, dscale=True)
    pools = ("verify-deep",) if dscale else ("verify-deep", "sweep-grid", "oracle-lp")
    try:
        for name in pools:
            workload = WORKLOADS[name](api, reference["workloads"][name]["pool"])
            workload.make_fixtures()
            for req in workload.all_requests():
                lines.clear()
                workload.run(req)
                for line in lines:
                    print(name, workload.key(req), line)
                    statuses[line.split()[0]] += 1
    finally:
        api.solver.solve, api.cli.run_verify = real, real_verify
    counts = ", ".join(f"{n} {s}" for s, n in sorted(statuses.items()))
    print(f"{sum(statuses.values())} solves: {counts}; "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


def compare(old_path: str, new_path: str) -> int:
    """Print the per-workload summary of two digest files; the exit code."""
    old = Path(old_path).read_text().splitlines()
    new = Path(new_path).read_text().splitlines()
    if len(old) != len(new):
        print(f"{len(old)} solves against {len(new)}", file=sys.stderr)
        return 2
    summary = {}
    index = Counter()
    for a, b in zip(old, new):
        a, b = a.split(), b.split()
        if a[:2] != b[:2]:
            print(f"solve {' '.join(a[:2])} against {' '.join(b[:2])}",
                  file=sys.stderr)
            return 2
        index[a[0], a[1]] += 1
        row = summary.setdefault(a[0], [0, 0, 0, 0.0])
        row[0] += 1
        if a[2:4] != b[2:4]:
            row[1] += 1
            print("moved", *a[:2], index[a[0], a[1]] - 1, *a[2:4], "->", *b[2:4])
        row[2] += a[4] != b[4]
        pa, pb = float(a[7]), float(b[7])
        if pa != pb:
            row[3] = max(row[3], abs(pb - pa) / max(abs(pa), abs(pb)))
    for name, (n, moved, rehashed, drift) in summary.items():
        print(f"{name}: {n} solves, {moved} moved in status or iterations, "
              f"{rehashed} in hash, largest relative objective drift {drift:.3g}")
    return int(any(row[1] for row in summary.values()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) == 1:
        main(None)
    elif sys.argv[1:] == ["--dscale"]:
        main(None, dscale=True)
    elif sys.argv[1:2] == ["--nudge"] and sys.argv[2:] in (["rhs"], ["obj"]):
        main(sys.argv[2])
    else:
        sys.exit(f"usage: {sys.argv[0]} "
                 "[--nudge rhs|obj | --dscale | --compare OLD NEW]")
