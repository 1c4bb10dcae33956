"""Benchmark for sdpverify: closed loop, one client, one process.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nowhere else.  The workloads (see
`workloads.py`) call the package's public functions on fixtures made by
`sdpverify.cli.random_instance`; the seed picks which fixtures and in
which order.  Each request's outputs are checked against
`reference.json` after the timed loop.

`--trace 0` measures the end-to-end metrics with nothing patched.
`--trace 1` runs every request twice, untraced and traced, alternating
which goes first; the traced copy records spans around each module's
entry points (`tracing.py`) and gives the per-layer metrics, and the
difference between the two copies is the tracing overhead.  Spans are
written to `.perfbench_out/` in the checkout.

Set-up time is import, fixture generation and one discarded warm-up
solve, the first LAPACK call included.  It is measured in this process
and in `SETUP_PROBES` fresh interpreters, and reported as the median.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
a fuller report (environment, tail percentile and sample count, exact
counts, self time per layer).  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# BLAS runs single-threaded.  run_sweep's two worker threads already
# fill a 2-core machine, and BLAS helper threads on top of them measure
# the scheduler, not the program.  With one calling thread, a 2-thread
# OpenBLAS ran verify-deep about 12% slower at twice the CPU time on a
# 2-vCPU Xeon VM.  The setting also moves results (iteration counts,
# and a few sweep statuses between Optimal and NumericalFailure), so
# reference.json is made with it.  Set before numpy is first imported,
# here or in a set-up probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4
SOUNDNESS_CHECKS = 10
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120

# Counts that must repeat exactly for the same request, and how each one
# is obtained: read off the program's objects, or computed from them.
EXACT_COUNTS = {
    "sdpform.rows": "exact",
    "sdpform.nnz": "exact",
    "solver.iterations": "exact",
    "solver.schur_entries": "computed",
    "network.pruned_neurons": "exact",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_api():
    """Import sdpverify from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "sdpverify" / "__init__.py").is_file():
        raise BenchError(f"no sdpverify package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdpverify
    from sdpverify import cli, oracle, solver
    from sdpverify.sdpform import VARIANT_NAMES, Variant

    if Path(sdpverify.__file__).resolve().parent != SRC / "sdpverify":
        raise BenchError(f"sdpverify imported from {sdpverify.__file__}")
    return SimpleNamespace(cli=cli, oracle=oracle, solver=solver,
                           Variant=Variant, VARIANT_NAMES=VARIANT_NAMES)


def set_up(name, pool):
    """Import, generate fixtures, run one discarded warm-up solve."""
    from workloads import RHO, WIDTH, WORKLOADS

    t0 = time.perf_counter()
    api = load_api()
    t1 = time.perf_counter()
    workload = WORKLOADS[name](api, pool)
    workload.make_fixtures()
    t2 = time.perf_counter()
    net, center = api.cli.random_instance(2, WIDTH, seed=0)
    api.cli.run_verify(net, center, RHO, api.Variant.base())
    t3 = time.perf_counter()
    split = {"import_s": t1 - t0, "fixtures_s": t2 - t1, "warmup_s": t3 - t2}
    return api, workload, t3 - t0, split


def probe_setup(name, seed):
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count reported by each loaded OpenBLAS library."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    for path in sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(name, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "workload": name,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# running requests

def _execute(workload, req):
    t0 = time.perf_counter()
    try:
        out = workload.run(req)
    except Exception:  # a failed request is counted, the loop keeps going
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, None


def run_plain(workload, order, seconds):
    """(request, (seconds, outcome, error), None) per request, in order."""
    done = []
    start = time.perf_counter()
    for req in order:
        if done and time.perf_counter() - start >= seconds:
            break
        done.append((req, _execute(workload, req), None))
    return done, time.perf_counter() - start


def run_traced(workload, tracer, order, seconds):
    """Each request untraced and traced, alternating which runs first."""
    done = []
    start = time.perf_counter()
    for i, req in enumerate(order):
        if done and time.perf_counter() - start >= seconds:
            break
        entry = {"req": req, "rid": i}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                entry["plain"] = _execute(workload, req)
                continue
            tracer.install()
            tracer.begin(i)
            try:
                entry["traced"] = _execute(workload, req)
            finally:
                entry["counts"], entry["solves"] = tracer.end()
                tracer.uninstall()
        done.append(entry)
    return done, time.perf_counter() - start


# ---------------------------------------------------------------------------
# checks

def check(workload, ref_entries, req, result):
    """Errors of one request execution against its reference entry."""
    _, out, err = result
    key = workload.key(req)
    if err is not None:
        return [f"{key}: raised {err.strip().splitlines()[-1]}"]
    ref = ref_entries.get(key)
    if ref is None:
        return [f"{key}: no reference entry"]
    return [f"{key}: {e}" for e in workload.compare(out.record, ref["out"])]


def request_counts(counts, solves):
    """Exact per-request counts from the tracer's counters and solves."""
    return {
        "sdpform.rows": int(counts.get("rows", 0)),
        "sdpform.nnz": int(counts.get("nnz", 0)),
        "solver.iterations": sum(it for _, it, _ in solves),
        "solver.schur_entries": sum(it * m * m for _, it, m in solves),
        "network.pruned_neurons": int(counts.get("pruned_neurons", 0)),
    }


def check_counts(workload, ref_entries, req, counts, solves):
    key = workload.key(req)
    ref = ref_entries.get(key)
    if ref is None:
        return []
    errs = []
    if [list(s) for s in solves] != ref["solves"]:
        errs.append(f"{key}: solver (status, iterations, rows) {solves} "
                    f"differ from reference {ref['solves']}")
    got = request_counts(counts, solves)
    for name, value in got.items():
        if value != ref["counts"][name]:
            errs.append(f"{key}: {name} {value} != reference {ref['counts'][name]}")
    return errs


def soundness(workload, executed, known):
    """Soundness of the first few distinct fixtures, checked untimed.

    Returns (errors, known violations seen): a violation listed in the
    reference's `known_unsound` is reported, any other one is an error.
    """
    if not hasattr(workload, "soundness"):
        return [], {}
    seen, errs, seen_known = set(), [], {}
    for req, (_, out, _), _ in executed:
        if out is None or req in seen:
            continue
        seen.add(req)
        for target, excess in workload.soundness(req, out.record):
            key = f"{workload.key(req)}/t{target}"
            if key in known:
                seen_known[key] = excess
            else:
                errs.append(f"{key}: base gamma exceeds gamma* by {excess:.3g}")
        if len(seen) >= SOUNDNESS_CHECKS:
            break
    return errs, seen_known


# ---------------------------------------------------------------------------
# figures

def latency_figures(latencies_s):
    lat = sorted(x * 1e3 for x in latencies_s)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, pct = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = lat[-1], 100.0
    return statistics.median(lat), tail, pct, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, executed, wall, setup_s):
    ok = [(lat, out) for _, (lat, out, _), _ in executed if out is not None]
    p50, tail, pct, n = latency_figures([lat for lat, _ in ok] or [wall])
    units = sum(out.units for _, out in ok)
    metrics = {
        "latency_ms_p50": metric(p50, "ms"),
        "latency_ms_tail": metric(tail, "ms"),
        "throughput_rps": metric(units / wall, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    certified = sum(out.certified for _, out in ok)
    extra = {"tail_percentile": pct, "samples": n, "units": units,
             "latency_ms": [[workload.key(req), round(1e3 * lat, 3)]
                            for req, (lat, _, _), _ in executed],
             "certified_frac": certified / units if units else None}
    return metrics, extra


def per_layer(entries, tracer):
    """Per-layer metrics from the traced copies, per traced request."""
    from tracing import LAYERS

    spans = tracer.analyse()
    traced = [e for e in entries if e["traced"][1] is not None]
    n = max(1, len(traced))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    name_total = {}
    lp_solves = 0
    unattributed = overhead = wall = 0.0
    solves = []
    counts = dict.fromkeys(EXACT_COUNTS, 0)
    units = certified = 0
    for e in traced:
        rec = spans.get(e["rid"])
        if rec is not None:
            for layer, sec in rec["layer_self"].items():
                layer_self[layer] += sec
            for name, sec in rec["name_total"].items():
                name_total[name] = name_total.get(name, 0.0) + sec
            lp_solves += rec["lp_solves"]
            unattributed += e["traced"][0] - sum(rec["layer_self"].values())
        wall += e["traced"][0]
        overhead += e["traced"][0] - e["plain"][0]
        solves += e["solves"]
        for name, value in request_counts(e["counts"], e["solves"]).items():
            counts[name] += value
        units += e["traced"][1].units
        certified += e["traced"][1].certified

    def ms(seconds):
        return metric(1e3 * seconds / n, "ms")

    def per_request(count):
        return metric(count / n, "count")

    calls = len(solves)
    iters = sum(it for _, it, _ in solves)
    optimal = sum(st == "Optimal" for st, _, _ in solves)
    solve_s = name_total.get("solver.solve", 0.0)
    metrics = {
        "solver.solve_ms": ms(solve_s),
        "solver.calls": per_request(calls),
        "solver.ms_per_iter": metric(1e3 * solve_s / max(1, iters), "ms"),
        "solver.iterations": per_request(counts["solver.iterations"]),
        "solver.schur_entries": per_request(counts["solver.schur_entries"]),
        "solver.optimal_ratio": metric(optimal / max(1, calls), "ratio"),
        "solver.max_iterations": per_request(
            sum(st == "MaxIterations" for st, _, _ in solves)),
        "solver.numerical_failure": per_request(
            sum(st == "NumericalFailure" for st, _, _ in solves)),
        "sdpform.build_ms": ms(name_total.get("sdpform.build_relaxation", 0.0)),
        "sdpform.stdform_ms": ms(name_total.get("sdpform.to_standard_form", 0.0)),
        "sdpform.strict_ms": ms(
            name_total.get("sdpform.build_strict_feasibility", 0.0)),
        "sdpform.rows": per_request(counts["sdpform.rows"]),
        "sdpform.nnz": per_request(counts["sdpform.nnz"]),
        "bounds.propagate_ms": ms(name_total.get("bounds.propagate", 0.0)),
        "network.prune_ms": ms(name_total.get("network.prune_inactive", 0.0)),
        "network.pruned_neurons": per_request(counts["network.pruned_neurons"]),
        "analysis.ms": ms(layer_self["analysis"]),
        "oracle.exact_ms": ms(name_total.get("oracle.exact_gamma", 0.0)),
        "oracle.self_ms": ms(layer_self["oracle"]),
        "oracle.lp_solves": per_request(lp_solves),
        "cli.self_ms": ms(layer_self["cli"]),
        "cli.sweep_overlap": metric(sum(layer_self.values()) / max(wall, 1e-12),
                                    "ratio"),
        "failed_frac": metric((calls - optimal) / max(1, calls), "ratio"),
        "certified_frac": metric(certified / max(1, units), "ratio"),
        "trace.wall_ms": ms(wall),
        "trace.overhead_ms": ms(overhead),
        "trace.unattributed_ms": ms(unattributed),
    }
    extra = {
        "traced_requests": len(traced),
        "self_ms_per_layer": {k: 1e3 * v / n for k, v in layer_self.items()},
        "exact_counts": {
            name: {"kind": kind, "per_request": [
                request_counts(e["counts"], e["solves"])[name] for e in traced]}
            for name, kind in EXACT_COUNTS.items()},
        # Module self times partition the traced request wall time up to
        # the benchmark's own bookkeeping between spans, which must stay
        # within the measured tracing overhead.
        "self_sum_within_overhead": abs(unattributed) <= max(abs(overhead),
                                                             1e-3 * wall),
    }
    return metrics, extra


def _main(args):
    from workloads import WORKLOADS, request_order

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    try:
        reference = json.loads(Path(args.reference).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read reference {args.reference}: {exc}")
    ref = reference["workloads"][args.workload]
    api, workload, setup_here, split = set_up(args.workload, ref["pool"])
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0
    t_probe = time.perf_counter()
    samples = [setup_here] + [probe_setup(args.workload, args.seed)
                              for _ in range(0 if args.trace else SETUP_PROBES)]
    harness = {"setup_probes_s": time.perf_counter() - t_probe}
    setup_s = statistics.median(samples)
    entries = ref["entries"]
    order = request_order(workload, {k: e["cost_ms"] for k, e in entries.items()},
                          args.seed)

    errors = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(api)
        done, wall = run_traced(workload, tracer, order, args.seconds)
        executed = []
        for e in done:
            executed += [(e["req"], e["plain"], None),
                         (e["req"], e["traced"], (e["counts"], e["solves"]))]
        metrics, extra = per_layer(done, tracer)
        if not workload.overlapping and not extra["self_sum_within_overhead"]:
            errors.append("module self times do not add up to request wall "
                          "time within the tracing overhead")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        executed, wall = run_plain(workload, order, args.seconds)
        metrics, extra = end_to_end(workload, executed, wall, setup_s)

    t_check = time.perf_counter()
    failed = 0
    for req, result, traced in executed:
        errs = check(workload, entries, req, result)
        if traced is not None and not errs:
            errs = check_counts(workload, entries, req, *traced)
        failed += bool(errs)
        errors += errs
    unsound, known_unsound = soundness(workload, executed,
                                       ref.get("known_unsound", {}))
    errors += unsound
    harness["checks_s"] = time.perf_counter() - t_check

    report = {
        "environment": environment(args.workload, args.seed),
        "workload": args.workload,
        "unit": workload.unit,
        "closed_loop_clients": 1,
        "measured_s": wall,
        "setup_samples_s": samples,
        "setup_split_s": split,
        "harness_s": harness,
        **extra,
        "known_unsound_seen": known_unsound,
        "errors": errors[:20],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": len(executed),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference answers (a perturbed copy must fail)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only measure set-up in this interpreter")
    args = parser.parse_args(argv)
    try:
        return _main(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
