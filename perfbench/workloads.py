"""The three benchmark workloads and their reference checks.

Every workload draws its requests from a fixed pool of fixtures made by
`sdpverify.cli.random_instance` (`make_reference.py` says how each pool
was chosen), so that `reference.json` can hold the expected answer to
every request any seed can produce.  The workload seed picks the order.

Requests run in cost strata.  The pool is sorted by each request's wall
time when the reference was made (`cost_ms` in the reference) and cut
into groups of neighbours (`strata`, a power of two set per workload).
One pass of the order takes one request from every stratum, in an order
that spreads every prefix of the pass evenly over the strata; the seed
picks which member of a stratum each pass takes.  Every run thus
measures nearly the same mix of costs whatever the seed, and a faster
program finishes more of the same mix instead of reaching a different
part of the pool.
"""

from __future__ import annotations

import itertools

import numpy as np

RHO = 0.1
WIDTH = 8
SWEEP_DEPTHS = tuple(range(2, 13))

# Solver gap tolerances the program solves each value to: cli's verify
# default, cli's strict-feasibility default, and oracle's LP config.  A
# value may drift by this much, relative to 1 + |reference|.
TOL = {"gamma": 1e-6, "lambda_star": 1e-8, "gamma_star": 1e-10}


def _bit_reversed(k):
    """0..k-1 (k a power of two) in bit-reversed order: every prefix of
    length 2^j is evenly spaced over the range."""
    bits = k.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(k)]


def _certified(status, gamma):
    return status == "Optimal" and gamma > 0.0


class Outcome:
    """What one request returned: work units, certified units, and a record
    of the outputs that the reference check compares."""

    __slots__ = ("units", "certified", "record")

    def __init__(self, units, certified, record):
        self.units = units
        self.certified = certified
        self.record = record


class _PerNet:
    """Workload whose request is one fixture net; the pool lists the nets
    as [depth, fixture seed] pairs."""

    overlapping = False
    strata = 16

    def __init__(self, api, pool):
        self.api = api
        self.pool = [tuple(entry) for entry in pool]
        self.nets = {}

    def make_fixtures(self):
        """Generate every net in the pool (part of the measured set-up)."""
        ri = self.api.cli.random_instance
        for depth, s in self.pool:
            self.nets[(depth, s)] = ri(depth, WIDTH, seed=s)

    def all_requests(self):
        return list(self.pool)

    @staticmethod
    def key(req):
        depth, s = req
        return f"L{depth}/s{s}"


class VerifyDeep(_PerNet):
    name = "verify-deep"
    unit = "target"

    def run(self, req):
        api = self.api
        net, center = self.nets[req]
        report = api.cli.run_verify(net, center, RHO, api.Variant.base())
        targets = [[t.target, t.gamma, t.status] for t in report.targets]
        return Outcome(
            len(targets),
            sum(_certified(st, g) for _, g, st in targets),
            {"verdict": report.verdict, "pruned": report.pruned_neurons,
             "targets": targets},
        )

    @staticmethod
    def compare(got, ref):
        errs = _same(got, ref, ("verdict", "pruned"))
        errs += _rows(got["targets"], ref["targets"], ("gamma", None))
        return errs


class OracleLp(_PerNet):
    name = "oracle-lp"
    unit = "target"

    def run(self, req):
        api = self.api
        net, center = self.nets[req]
        prep = api.cli.prepare_instance(net, center, RHO)
        targets = [t for t in range(prep.net.output_dim) if t != prep.predicted]
        stars = [[t, api.oracle.exact_gamma(prep.net, prep.bounds, t)]
                 for t in targets]
        return Outcome(
            len(stars),
            sum(g > 0.0 for _, g in stars),
            {"pruned": prep.pruned_neurons, "gamma_star": stars},
        )

    def soundness(self, req, record):
        """Targets where the base relaxation's gamma exceeds gamma* + 1e-6.

        The relaxation bounds the exact margin from below, so any such
        target is a soundness violation; returns (target, excess) pairs.
        """
        api = self.api
        net, center = self.nets[req]
        report = api.cli.run_verify(net, center, RHO, api.Variant.base())
        star = dict((t, g) for t, g in record["gamma_star"])
        return [(t.target, t.gamma - star[t.target]) for t in report.targets
                if t.status == "Optimal" and t.gamma > star[t.target] + 1e-6]

    @staticmethod
    def compare(got, ref):
        errs = _same(got, ref, ("pruned",))
        errs += _rows(got["gamma_star"], ref["gamma_star"], ("gamma_star",))
        return errs


class SweepGrid:
    """One `run_sweep` call per (depth, variant, pair of fixture seeds).

    Two seeds give the sweep's thread pool two cells to run; the pool
    covers depths 2-12, all six variants and six seed pairs.
    """

    name = "sweep-grid"
    unit = "row"
    # run_sweep runs its cells on a thread pool, so the spans of one
    # request overlap and their self times add up to more than its wall.
    overlapping = True
    # 25-45 requests per run from a pool whose costs span 36x: about one
    # stratum per request keeps each run's cost mix the same whatever
    # the seed.
    strata = 32

    def __init__(self, api, pool):
        self.api = api
        self.pairs = [tuple(pool[i:i + 2]) for i in range(0, len(pool) - 1, 2)]
        self.variants = tuple(api.VARIANT_NAMES)

    def make_fixtures(self):
        # run_sweep draws its own nets from the seeds; build the specs.
        self.specs = {
            req: self.api.cli.SweepSpec(depths=[req[0]], seeds=list(req[2]),
                                        width=WIDTH, rho=RHO, variants=[req[1]])
            for req in self.all_requests()
        }

    def all_requests(self):
        return [(d, v, p) for d in SWEEP_DEPTHS for v in self.variants
                for p in self.pairs]

    @staticmethod
    def key(req):
        depth, variant, pair = req
        return f"L{depth}/{variant}/s{pair[0]},{pair[1]}"

    def run(self, req):
        rows = self.api.cli.run_sweep(self.specs[req])
        record = [[r.seed, r.gamma, r.status, r.lambda_star] for r in rows]
        return Outcome(
            len(rows),
            sum(_certified(r.status, r.gamma) for r in rows),
            {"rows": record},
        )

    @staticmethod
    def compare(got, ref):
        return _rows(got["rows"], ref["rows"], ("gamma", None, "lambda_star"))


WORKLOADS = {cls.name: cls for cls in (VerifyDeep, SweepGrid, OracleLp)}


def request_order(workload, costs, seed):
    """Endless request order: passes over the cost strata (module doc).

    `costs` maps each request key to its reference cost.
    """
    pool = sorted(workload.all_requests(),
                  key=lambda req: (costs[workload.key(req)], workload.key(req)))
    rng = np.random.default_rng(seed)
    k = workload.strata
    bounds = [i * len(pool) // k for i in range(k + 1)]
    strata = [[pool[lo + j] for j in rng.permutation(hi - lo)]
              for lo, hi in zip(bounds, bounds[1:])]
    for p in itertools.count(int(rng.integers(len(pool)))):
        for i in _bit_reversed(k):
            yield strata[i][p % len(strata[i])]


def _same(got, ref, fields):
    return [f"{f}: got {got[f]!r}, reference {ref[f]!r}"
            for f in fields if got[f] != ref[f]]


def _close(a, b, tol):
    if np.isnan(a) or np.isnan(b):
        return np.isnan(a) and np.isnan(b)
    return abs(a - b) <= tol * (1.0 + abs(b))


def _rows(got, ref, tolerances):
    """Compare row lists: floats within their gap tolerance, rest exactly.

    Column 0 is the row key; `tolerances` names, for each later column,
    the TOL entry of a float column, or None for one compared exactly.
    """
    if len(got) != len(ref):
        return [f"{len(got)} rows, reference has {len(ref)}"]
    errs = []
    for g, r in zip(got, ref):
        if g[0] != r[0]:
            errs.append(f"row key {g[0]!r}, reference {r[0]!r}")
            continue
        for col, tol_name in enumerate(tolerances, start=1):
            a, b = g[col], r[col]
            if tol_name is None:
                if a != b:
                    errs.append(f"row {g[0]} column {col}: {a!r} vs {b!r}")
            elif not _close(a, b, TOL[tol_name]):
                errs.append(f"row {g[0]} {tol_name}: {a!r} drifted from {b!r}")
    return errs
