"""Solver micro-benchmarks on one pinned instance (pytest-benchmark).

    PYTHONPATH=src python3 -m pytest benchmarks/bench_solver.py \
        --benchmark-json=bench.json

The instance is the depth-12, width-8, seed-0 fixture of
`cli.random_instance` with rho 0.1, pruned, against its first competitor
label, under the `base` relaxation: the margin SDP in standard form (a
psd block of order 70, a diagonal slack block of 203, 271 constraints)
and its inscribed-ball form (the same plus a free block).  For each form
it times the Schur assembly `solver._schur` at the final iterate and one
full `solver.solve`; on the margin form also one step-length call
`solver._max_step_psd` at the final iterate and the constraint compile
`solver._compile`.  It also times one solve of the first linear program
that `oracle.exact_gamma` hands the solver on the depth-2, width-8,
seed-0 fixture (diagonal blocks of 2, 1 and 6 slacks; 6 constraints),
and that solve's walk over its terms, `solver._block_terms` on each
block: its blocks are all diagonal, so it runs on the dense LP path,
which fills one dense A of 6 x 9 from that walk instead of calling
`_compile`.  The layers
before the solver are timed on the same depth-12 instance:
`build_relaxation`, `to_standard_form` of its result and
`build_strict_feasibility` of that; and one whole `exact_gamma` on the
depth-2 fixture, which builds and solves every branch pattern's two
linear programs.  Every timing follows a discarded warm-up so that the
first LAPACK call is not timed.  Every solve asserts its status and
iteration count, so a faster run is never a different convergence.

The cold-start entry is the exception: it times `python -c "import
sdpverify.cli"` in a fresh interpreter, interpreter start-up included,
and records the largest of the children's peak resident sets as
`extra_info["child_maxrss_mb"]`.  Each child reads its own from
/proc/self/status (VmHWM, Linux only): `ru_maxrss` of a child spawned
by this process would report at least this process's peak, since exec
carries the old high-water mark over.

The solver loads scipy's compiled LAPACK and sparse modules without
importing `scipy.linalg` or `scipy.sparse`, and avoids a bare
`np.unique`, which imports `numpy.ma`.  On a 2-core x86-64 machine the
first depth-2 `cli.run_verify` in a fresh process took 14-18 ms and the
next 14-16 ms, against 31-40 ms and 14-17 ms while `numpy.ma` loaded on
the first solve.

This directory is outside the test suite's `testpaths`; name the file to
run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from sdpverify import cli, oracle, solver  # noqa: E402
from sdpverify.sdpform import (  # noqa: E402
    Variant,
    build_relaxation,
    build_strict_feasibility,
    to_standard_form,
)

# (status, iterations) of each form's solve.  The same with one and two
# OpenBLAS threads on a 2-core x86-64 machine.
EXPECTED = {"margin": ("Optimal", 32), "radius": ("Optimal", 32)}
LP_EXPECTED = ("Optimal", 15)
# exact_gamma on the depth-2 fixture, bit for bit, with the oracle's LPs on
# the dense LP path
GAMMA_EXPECTED = -0.01237619811578957


@pytest.fixture(scope="module")
def forms():
    net, center = cli.random_instance(12, 8, seed=0)
    prep = cli.prepare_instance(net, center, 0.1)
    target = cli._competitors(prep, None)[0]
    std = cli._relaxation(prep, target, Variant.base())
    return {
        "margin": (std, cli._MARGIN_CONFIG),
        "radius": (build_strict_feasibility(std), cli._RADIUS_CONFIG),
    }


@pytest.fixture(scope="module")
def oracle_lp():
    """The first standard-form LP of `exact_gamma` on the depth-2 fixture."""
    net, center = cli.random_instance(2, 8, seed=0)
    prep = cli.prepare_instance(net, center, 0.1)
    seen = []
    real = solver.solve

    def record(prob, config=None):
        seen.append((prob, config))
        return real(prob, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve", record)
        oracle.exact_gamma(prep.net, prep.bounds, cli._competitors(prep, None)[0])
    return seen[0]


def _check(name, sol):
    assert (sol.status, sol.iterations) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_solve(benchmark, forms, name):
    prob, config = forms[name]
    sol = benchmark.pedantic(solver.solve, args=(prob, config),
                             rounds=5, warmup_rounds=1)
    _check(name, sol)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_schur_assembly(benchmark, forms, name):
    prob, config = forms[name]
    sol = solver.solve(prob, config)
    _check(name, sol)
    compiled = solver._compile(prob)
    sinv = [
        solver._psd_inverse(sla.cholesky(sb, lower=True)) if cb.kind == "psd"
        else 1.0 / sb if cb.kind == "diag" else None
        for cb, sb in zip(compiled, sol.sblocks)
    ]
    args = (compiled, sol.xblocks, sol.sblocks, sinv, prob.num_constraints)
    M = benchmark.pedantic(solver._schur, args=args, rounds=50, iterations=1,
                           warmup_rounds=5)
    assert M.shape == (prob.num_constraints,) * 2 and np.isfinite(M).all()


def test_oracle_lp_solve(benchmark, oracle_lp):
    prob, config = oracle_lp
    sol = benchmark.pedantic(solver.solve, args=(prob, config),
                             rounds=200, warmup_rounds=5)
    assert (sol.status, sol.iterations) == LP_EXPECTED


def test_compile_margin(benchmark, forms):
    prob, config = forms["margin"]
    compiled = benchmark.pedantic(solver._compile, args=(prob,), rounds=50,
                                  iterations=1, warmup_rounds=5)
    assert [cb.kind for cb in compiled] == ["psd", "diag"]
    _check("margin", solver.solve(prob, config))


def test_compile_oracle_lp(benchmark, oracle_lp):
    prob, config = oracle_lp
    def walk():
        return [solver._block_terms(prob, b) for b in range(len(prob.blocks))]

    terms = benchmark.pedantic(walk, rounds=500, iterations=1, warmup_rounds=5)
    assert [C.shape for C, _, _ in terms] == [(2,), (1,), (6,)]
    assert sum(val.size for _, _, (_, _, _, val) in terms) > 0
    sol = solver.solve(prob, config)
    assert (sol.status, sol.iterations) == LP_EXPECTED


def test_max_step_psd(benchmark, forms):
    """Step from the margin solve's final X towards its final S."""
    prob, config = forms["margin"]
    sol = solver.solve(prob, config)
    _check("margin", sol)
    X, S = sol.xblocks[0], sol.sblocks[0]
    L = sla.cholesky(X, lower=True)
    step = benchmark.pedantic(solver._max_step_psd, args=(L, S - X),
                              rounds=200, iterations=1, warmup_rounds=5)
    assert 0.0 < step < np.inf


@pytest.fixture(scope="module")
def base_instance():
    net, center = cli.random_instance(12, 8, seed=0)
    prep = cli.prepare_instance(net, center, 0.1)
    return prep, cli._competitors(prep, None)[0]


def test_build_relaxation(benchmark, base_instance):
    prep, target = base_instance
    prob = benchmark.pedantic(build_relaxation,
                              args=(prep.net, prep.bounds, target, Variant.base()),
                              rounds=50, iterations=1, warmup_rounds=5)
    assert prob.num_constraints == 271


def test_to_standard_form(benchmark, base_instance):
    prep, target = base_instance
    prob = build_relaxation(prep.net, prep.bounds, target, Variant.base())
    std = benchmark.pedantic(to_standard_form, args=(prob,), rounds=50,
                             iterations=1, warmup_rounds=5)
    assert [b.dim for b in std.blocks] == [70, 203]


def test_build_strict_feasibility(benchmark, base_instance):
    prep, target = base_instance
    std = to_standard_form(
        build_relaxation(prep.net, prep.bounds, target, Variant.base()))
    sf = benchmark.pedantic(build_strict_feasibility, args=(std,), rounds=50,
                            iterations=1, warmup_rounds=5)
    assert [b.kind for b in sf.blocks] == ["psd", "diag", "free"]


def test_exact_gamma(benchmark):
    net, center = cli.random_instance(2, 8, seed=0)
    prep = cli.prepare_instance(net, center, 0.1)
    target = cli._competitors(prep, None)[0]
    gamma = benchmark.pedantic(oracle.exact_gamma,
                               args=(prep.net, prep.bounds, target),
                               rounds=20, iterations=1, warmup_rounds=2)
    assert gamma == GAMMA_EXPECTED


# The child prints its own peak resident set: the kernel's VmHWM, which is
# what ru_maxrss reports for a process that was not spawned by another.
_COLD_IMPORT = ("import sdpverify.cli; "
                "print(open('/proc/self/status').read())")


def _fresh_import(env, peaks):
    """`import sdpverify.cli` in a fresh interpreter; appends the child's
    peak resident set in MB to `peaks`."""
    out = subprocess.run([sys.executable, "-c", _COLD_IMPORT], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    kb = next(int(ln.split()[1]) for ln in out.splitlines()
              if ln.startswith("VmHWM:"))
    peaks.append(kb / 1024.0)


def test_cold_import(benchmark):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    peaks = []
    benchmark.pedantic(_fresh_import, args=(env, peaks), rounds=10,
                       iterations=1, warmup_rounds=1)
    benchmark.extra_info["child_maxrss_mb"] = max(peaks)
