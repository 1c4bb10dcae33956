"""In-memory spans around the public entry points of each sdpverify module.

Nothing in the package is edited: `Tracer.install` rebinds the names the
callers use (for example `sdpverify.cli.build_relaxation`, which cli
imported by value, and `sdpverify.solver.solve`, which cli and oracle
reach through the module) to thin wrappers, and `Tracer.uninstall` puts
the originals back.  Each wrapper records one span (name, layer, start,
end, parent, request id) and, for a few entry points, exact counts read
off the returned objects.  Spans stay in memory until `write_spans`.

Worker threads of the sweep pool start with an empty span stack; their
spans hang off the outermost span open in the thread that started the
request, so self time is still derived per request.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "network", "bounds", "sdpform", "solver", "analysis", "oracle")


def _problem_size(prob):
    """Rows and stored constraint nonzeros of a standard-form problem."""
    nnz = sum(mat.nnz for c in prob.constraints for mat in c.terms.values())
    return prob.num_constraints, nnz


class Tracer:
    """Records spans and per-request counters while installed."""

    def __init__(self, api):
        self._api = api
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.spans = []
        self.request = None
        self._root = None
        self.counts = None
        self.solves = None

    # -- request bookkeeping -------------------------------------------

    def begin(self, request_id):
        """Start collecting counters for one request."""
        self.request = request_id
        self.counts = defaultdict(float)
        self.solves = []

    def end(self):
        """Finish the current request; return its counters and solves."""
        counts, solves = dict(self.counts), sorted(self.solves)
        self.request = None
        self.counts = None
        self.solves = None
        return counts, solves

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            if not stack and threading.current_thread() is threading.main_thread():
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if not stack and self._root == sid:
                    self._root = None
                self.spans[sid] = (name, layer, start, end, parent, self.request)
            if count is not None and self.counts is not None:
                with self._lock:
                    count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced entry point; undone by `uninstall`."""
        api = self._api
        cli, oracle, solver = api.cli, api.oracle, api.solver

        def count_prune(tr, args, result):
            tr.counts["pruned_neurons"] += len(result[1].removed)

        def count_stdform(tr, args, result):
            rows, nnz = _problem_size(result)
            tr.counts["rows"] += rows
            tr.counts["nnz"] += nnz

        def count_solve(tr, args, sol):
            m = args[0].num_constraints
            tr.solves.append((sol.status, int(sol.iterations), int(m)))

        targets = [
            (cli, "run_verify", "cli.run_verify", "cli", None),
            (cli, "run_sweep", "cli.run_sweep", "cli", None),
            (cli, "prepare_instance", "cli.prepare_instance", "cli", None),
            (cli, "prune_inactive", "network.prune_inactive", "network", count_prune),
            (cli, "propagate", "bounds.propagate", "bounds", None),
            (cli, "build_relaxation", "sdpform.build_relaxation", "sdpform", None),
            (cli, "to_standard_form", "sdpform.to_standard_form", "sdpform",
             count_stdform),
            (oracle, "to_standard_form", "sdpform.to_standard_form", "sdpform",
             count_stdform),
            (cli, "build_strict_feasibility", "sdpform.build_strict_feasibility",
             "sdpform", None),
            (solver, "solve", "solver.solve", "solver", count_solve),
            (cli, "min_eig_bound", "analysis.min_eig_bound", "analysis", None),
            (cli, "trace_bounds", "analysis.trace_bounds", "analysis", None),
            (cli, "min_eigenvalue", "analysis.min_eigenvalue", "analysis", None),
            (oracle, "exact_gamma", "oracle.exact_gamma", "oracle", None),
        ]
        for module, attr, name, layer, count in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, layer, original, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- derived figures --------------------------------------------------

    def analyse(self):
        """Per request: self seconds per layer, inclusive seconds per span
        name, and the number of solver calls made directly by the oracle.

        A span's self time is its duration minus the part of its interval
        covered by the union of its children's intervals.
        """
        children = defaultdict(list)
        for sid, s in enumerate(self.spans):
            if s is not None and s[4] is not None:
                children[s[4]].append(sid)
        out = defaultdict(lambda: {"layer_self": defaultdict(float),
                                   "name_total": defaultdict(float),
                                   "lp_solves": 0})
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            name, layer, start, end, parent, request = s
            covered = _union_length(
                [(max(start, self.spans[c][2]), min(end, self.spans[c][3]))
                 for c in children[sid]]
            )
            entry = out[request]
            entry["layer_self"][layer] += (end - start) - covered
            entry["name_total"][name] += end - start
            if (name == "solver.solve" and parent is not None
                    and self.spans[parent][0] == "oracle.exact_gamma"):
                entry["lp_solves"] += 1
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                if s is None:
                    continue
                name, layer, start, end, parent, request = s
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
