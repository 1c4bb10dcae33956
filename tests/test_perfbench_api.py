"""The names and report attributes that `perfbench/` reads stay in place.

The benchmark imports the package through `perfbench/run.py:load_api`,
rebinds entry points of `cli`, `oracle` and `solver` with
`perfbench/tracing.Tracer`, and reads report attributes in
`perfbench/workloads.py`.  A refactor that drops any of them would break
the benchmark only when it runs; these tests break first.  They only
read files under `perfbench/`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def api():
    saved = list(sys.path)
    try:
        return _module("run").load_api()
    finally:
        sys.path[:] = saved


def test_tracer_rebinds_every_name_and_restores_it(api):
    tracing = _module("tracing")
    modules = (api.cli, api.oracle, api.solver)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer(api)
    try:
        tracer.install()  # getattr fails on a name that is gone
        assert tracer._saved
        for module, attr, original in tracer._saved:
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("name, pool, req", [
    ("verify-deep", [[2, 0]], (2, 0)),
    ("sweep-grid", [0, 1], (2, "base", (0, 1))),
    ("oracle-lp", [[2, 0]], (2, 0)),
])
def test_each_workload_runs_one_request_traced(api, name, pool, req):
    """One depth-2 request per workload, traced: the record holds every
    attribute the reference check reads, and the tracer's counters read
    theirs off the solver's results."""
    workloads, tracing = _module("workloads"), _module("tracing")
    workload = workloads.WORKLOADS[name](api, pool)
    workload.make_fixtures()
    assert req in workload.all_requests()
    tracer = tracing.Tracer(api)
    tracer.install()
    tracer.begin(0)
    try:
        out = workload.run(req)
    finally:
        counts, solves = tracer.end()
        tracer.uninstall()
    assert out.units >= 1 and 0 <= out.certified <= out.units
    assert workload.compare(out.record, out.record) == []
    assert solves and all(iters > 0 for _, iters, _ in solves)
    assert counts["rows"] > 0 and counts["nnz"] > 0


@pytest.mark.parametrize("name, pool, key", [
    ("verify-deep", [[10, 8]], "L10/s8"),
    ("sweep-grid", [10, 11], "L2/base/s10,11"),
    ("oracle-lp", [[2, 83]], "L2/s83"),
])
def test_requests_match_the_reference_traced(api, name, pool, key):
    """A rounding tripwire: one request per workload, traced, passes
    `perfbench/run.py`'s own reference and exact-count checks.  The psd
    requests sit where a last-bit change in the solver moves a margin
    (L10/s8's gamma) or a radius solve's status and iteration count
    (L2/base/s10,11), which only the traced counts catch."""
    run, workloads, tracing = _module("run"), _module("workloads"), _module("tracing")
    workload = workloads.WORKLOADS[name](api, pool)
    workload.make_fixtures()
    ref = json.loads(run.REFERENCE.read_text())["workloads"][name]["entries"]
    assert key in ref
    (req,) = [r for r in workload.all_requests() if workload.key(r) == key]
    tracer = tracing.Tracer(api)
    tracer.install()
    tracer.begin(0)
    try:
        result = run._execute(workload, req)
    finally:
        counts, solves = tracer.end()
        tracer.uninstall()
    assert run.check(workload, ref, req, result) == []
    assert run.check_counts(workload, ref, req, counts, solves) == []


# The solver call behind each reference value, named by its caller.
_SOLVE_OF = {
    ("sdpverify.cli", "_margin"): "gamma",
    ("sdpverify.cli", "_radius"): "lambda_star",
    ("sdpverify.oracle", "_region_lp"): "gamma_star",
}


def test_solves_stop_at_the_reference_tolerances(api, monkeypatch):
    """A tolerance tripwire: every margin, radius and oracle LP solve that
    verify, diagnose, sweep and compare make stops at the gap tolerance
    that `perfbench/workloads.TOL` lets its value drift by.  A tolerance
    changed in the package alone fails here before the benchmark's
    reference check reads a drift as a wrong answer."""
    tol = _module("workloads").TOL
    cli, real = api.cli, api.solver.solve
    seen = []

    def record(prob, config=None):
        caller = sys._getframe(1)
        seen.append((caller.f_globals["__name__"], caller.f_code.co_name,
                     config.gap_tol))
        return real(prob, config)

    monkeypatch.setattr(api.solver, "solve", record)
    net, center = cli.random_instance(2, 8, seed=0)
    cli.run_verify(net, center, 0.1, api.Variant.base())
    cli.run_diagnose(net, center, 0.1, api.Variant.base())
    cli.run_sweep(cli.SweepSpec(depths=[2], seeds=[0], variants=["base"]))
    cli.run_compare(net, center, 0.1)
    assert {_SOLVE_OF[module, fn] for module, fn, _ in seen} == set(tol)
    for module, fn, gap_tol in seen:
        assert gap_tol == tol[_SOLVE_OF[module, fn]], (module, fn)
