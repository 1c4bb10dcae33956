"""Regenerate `reference.json`: the expected answer to every pool request.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run from the root of a source checkout.  For each workload it picks the
fixture pool (`pool`), runs every request in it once with tracing on,
and stores the outputs, the solver (status, iterations, rows) of every
solve, the exact counts, and the request's wall time (`cost_ms`, used
only to order requests into cost strata).  For oracle-lp it also lists
every target on which the base relaxation's gamma exceeds gamma* + 1e-6
(`known_unsound`): the benchmark reports those and fails only on a
violation not listed there.  Other workloads' entries in an existing
file are kept.  `run` is imported before numpy, so the reference is
solved under the benchmark's single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from tracing import Tracer
from workloads import RHO, WIDTH, WORKLOADS

RUN_DEPTHS = {"verify-deep": (10, 12), "oracle-lp": (2, 3)}
POOL_SIZE = {"verify-deep": 80, "sweep-grid": 12, "oracle-lp": 120}
# oracle-lp enumerates 2^k activation patterns for k unstable neurons; it
# keeps nets with 1 to 4 of them, so that requests are many small LP
# solves instead of a few that take the whole run.
ORACLE_UNSTABLE = (1, 4)


def _prepared(api, depth, s):
    """The pruned instance, or None if the net is constant on the box."""
    net, center = api.cli.random_instance(depth, WIDTH, seed=s)
    try:
        return api.cli.prepare_instance(net, center, RHO)
    except api.cli.UsageError:
        return None


def _unstable(prep):
    b = prep.bounds
    return sum(int(((b.lower(i) == 0) & (b.upper(i) > 0)).sum())
               for i in range(1, b.num_layers))


def pool(api, name):
    """Fixture seeds (sweep-grid) or [depth, seed] pairs (the others).

    The first fixture seeds whose nets are not constant on the input box
    (such a net has nothing to verify, and prepare_instance refuses it).
    """
    out, s = [], 0
    while len(out) < POOL_SIZE[name]:
        if name == "oracle-lp":
            lo, hi = ORACLE_UNSTABLE
            for depth in RUN_DEPTHS[name]:
                prep = _prepared(api, depth, s)
                if prep is not None and lo <= _unstable(prep) <= hi:
                    out.append([depth, s])
        elif _prepared(api, 12, s) is not None:
            # deeper fixtures extend shallower ones, so a net that is not
            # constant at depth 12 is not constant at any smaller depth
            if name == "sweep-grid":
                out.append(s)
            else:
                out += [[depth, s] for depth in RUN_DEPTHS[name]]
        s += 1
    return out[:POOL_SIZE[name]]


def build(api, name):
    fixtures = pool(api, name)
    workload = WORKLOADS[name](api, fixtures)
    workload.make_fixtures()
    tracer = Tracer(api)
    entries, unsound = {}, {}
    workload.run(workload.all_requests()[0])  # warm-up, as in the benchmark
    tracer.install()
    try:
        for i, req in enumerate(workload.all_requests()):
            tracer.begin(i)
            t0 = time.perf_counter()
            out = workload.run(req)
            cost_ms = 1e3 * (time.perf_counter() - t0)
            counts, solves = tracer.end()
            entries[workload.key(req)] = {
                "cost_ms": round(cost_ms, 1),
                "out": out.record,
                "solves": [list(s) for s in solves],
                "counts": run.request_counts(counts, solves),
            }
            if hasattr(workload, "soundness"):
                for target, excess in workload.soundness(req, out.record):
                    unsound[f"{workload.key(req)}/t{target}"] = excess
    finally:
        tracer.uninstall()
    result = {"pool": fixtures, "entries": entries}
    if hasattr(workload, "soundness"):
        result["known_unsound"] = unsound
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    api = run.load_api()
    try:
        reference = json.loads(run.REFERENCE.read_text())
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference.update(rho=RHO, width=WIDTH, src_sha256=run._src_digest())
    for name in args.workload or list(WORKLOADS):
        t0 = time.perf_counter()
        reference["workloads"][name] = build(api, name)
        print(f"{name}: {len(reference['workloads'][name]['entries'])} "
              f"requests in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        run.REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
