"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see every line; under a
plain run the lines of failing criteria surface in the assertion message.
The depth sweep is a shared module fixture whose rows keep their margin
solutions, so the full suite costs under a minute, dominated by the sweep.
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from helpers import box_trace_cap, make_net, planted_instance
from sdpverify.analysis import diagonal_bounds, min_eig_bound, min_eigenvalue, trace_bounds
from sdpverify.bounds import input_box
from sdpverify.cli import (
    SweepSpec,
    UsageError,
    prepare_instance,
    random_instance,
    run_diagnose,
    run_sweep,
    run_verify,
)
from sdpverify.network import Network, forward, predict, w_scale
from sdpverify.oracle import exact_gamma
from sdpverify.sdpform import (
    VARIANT_NAMES,
    Variant,
    VariableLayout,
    build_strict_feasibility,
    strict_feasibility_value,
    to_standard_form,
)
from sdpverify.solver import SolverConfig, solve

RHO_SMALL = 0.3
SWEEP_DEPTHS = [2, 4, 6, 8, 10, 12]
SWEEP_SEEDS = [0, 1, 2, 3, 4]
SWEEP_RHO = 0.1
SWEEP_WIDTH = 8
# Sweep-width nets whose base margin solve is known to fail
RESCUE_DEPTHS = [10, 11, 12]
RESCUE_SEED = 8


def _criterion(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _small_instance(seed):
    """Oracle-sized random net: input dim 2, widths <= 3, at most 3 layers."""
    for attempt in itertools.count():
        rng = np.random.default_rng([71, seed, attempt])
        depth = int(rng.integers(2, 4))
        widths = rng.integers(1, 4, size=depth - 1)
        net = make_net(rng, [2, *widths, 2])
        center = 0.5 * rng.normal(size=2)
        try:
            prepare_instance(net, center, RHO_SMALL)
        except UsageError:
            continue
        return net, center


def _rigged_instance(seed):
    """Random net with hidden neuron (0, 0) forced inactive on the box."""
    for attempt in itertools.count():
        rng = np.random.default_rng([31, seed, attempt])
        depth = int(rng.integers(2, 4))
        net = make_net(rng, [2] + [3] * (depth - 1) + [2])
        center = 0.5 * rng.normal(size=2)
        lo, hi = input_box(center, RHO_SMALL)
        W0 = np.array(net.weights[0])
        b0 = np.array(net.biases[0])
        pre_hi = np.maximum(W0[0], 0) @ hi + np.minimum(W0[0], 0) @ lo
        b0[0] = -pre_hi - 0.05
        rigged = Network((W0,) + net.weights[1:], (b0,) + net.biases[1:])
        try:
            prepare_instance(rigged, center, RHO_SMALL, prune=True)
        except UsageError:
            continue
        return rigged, center


@pytest.fixture(scope="module")
def soundness_table():
    """20 oracle-sized instances with gamma* and every variant's margin."""
    t0 = time.perf_counter()
    records = []
    for seed in range(20):
        net, center = _small_instance(seed)
        prep = prepare_instance(net, center, RHO_SMALL)
        target = 1 - prep.predicted
        gamma_star = exact_gamma(prep.net, prep.bounds, target)
        entry = {"seed": seed, "net": net, "center": center,
                 "gamma_star": gamma_star, "variants": {}}
        for name in VARIANT_NAMES:
            rep = run_verify(net, center, RHO_SMALL, Variant(name))
            t = rep.targets[0]
            entry["variants"][name] = (t.gamma, t.status)
        records.append(entry)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def depth_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(SweepSpec(depths=SWEEP_DEPTHS, seeds=SWEEP_SEEDS,
                               width=SWEEP_WIDTH, rho=SWEEP_RHO))
    return rows, time.perf_counter() - t0


def _sweep_caps():
    """Proved caps of every sweep cell's fixture, keyed by (depth, seed).

    Only the cheap parts are rebuilt here; the margin solutions come from
    the `depth_sweep` rows.
    """
    cells = {}
    for depth in SWEEP_DEPTHS:
        for seed in SWEEP_SEEDS:
            net, center = random_instance(depth, SWEEP_WIDTH, seed=seed)
            prep = prepare_instance(net, center, SWEEP_RHO)
            cells[(depth, seed)] = {
                "prep": prep,
                "layout": VariableLayout(prep.net.layer_sizes),
                "T": trace_bounds(prep.net, center, SWEEP_RHO),
                "caps": diagonal_bounds(prep.net, center, SWEEP_RHO),
                "bound": min_eig_bound(prep.net, center, SWEEP_RHO),
            }
    return cells


def test_criterion_01_soundness(soundness_table):
    records, elapsed = soundness_table
    worst = -np.inf
    for rec in records:
        for name, (gamma, status) in rec["variants"].items():
            assert status == "Optimal", f"seed {rec['seed']} {name}: {status}"
            worst = max(worst, gamma - rec["gamma_star"])
    ok = worst <= 1e-6 and elapsed < 60.0
    _criterion(1, ok,
               f"20 nets x {len(VARIANT_NAMES)} variants, "
               f"worst gamma_D - gamma* = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_variant_nesting(soundness_table):
    records, _ = soundness_table
    worst = -np.inf
    for rec in records:
        base_gamma, base_status = rec["variants"]["base"]
        if base_status != "Optimal":
            continue
        for name in VARIANT_NAMES[1:]:
            gamma, status = rec["variants"][name]
            if status == "Optimal":
                worst = max(worst, gamma - base_gamma)
    _criterion(2, worst <= 1e-6,
               f"relaxed variants vs base on the same instances, "
               f"worst excess = {worst:.2e}")


def test_criterion_03_inactive_neuron_vanishing():
    t0 = time.perf_counter()
    dead_ok = 0
    revived = 0
    for seed in range(10):
        net, center = _rigged_instance(seed)
        raw = run_diagnose(net, center, RHO_SMALL, Variant.base(), prune=False)
        pruned = run_diagnose(net, center, RHO_SMALL, Variant.base(), prune=True)
        dead_ok += raw.lambda_star <= 1e-7
        revived += pruned.lambda_star >= 1e-6
    ok = dead_ok == 10 and revived >= 8
    _criterion(3, ok,
               f"unpruned lambda* <= 1e-7 on {dead_ok}/10, "
               f"pruned lambda* >= 1e-6 on {revived}/10, "
               f"{time.perf_counter() - t0:.1f}s")


def test_criterion_04_depth_sweep_trend(depth_sweep):
    rows, elapsed = depth_sweep
    counts, medians = [], []
    for depth in SWEEP_DEPTHS:
        base = [r for r in rows if r.variant == "base" and r.L == depth]
        assert len(base) == len(SWEEP_SEEDS)
        # a failed radius solve measures nothing; only Optimal radii count
        lam = [r.lambda_star for r in base if r.radius.status == "Optimal"]
        counts.append(len(lam))
        medians.append(statistics.median(lam) if lam else np.nan)
    # non-increasing up to solver noise; ties happen when the added layers
    # are slack on the shared prefix of the nested fixtures
    monotone = all(b <= a + 1e-7 for a, b in zip(medians, medians[1:]))
    ok = min(counts) > 0 and medians[0] > 0 and monotone and elapsed < 600.0
    _criterion(4, ok,
               "median Optimal lambda* by depth = ["
               + ", ".join(f"{m:.3e}" for m in medians)
               + "] over " + "/".join(map(str, counts))
               + f" seeds, {elapsed:.0f}s")


def test_criterion_05_rescue_by_loosening(depth_sweep):
    rows, _ = depth_sweep

    def solved(variant):
        return {(r.L, r.seed) for r in rows
                if r.variant == variant and r.status == "Optimal" and r.gap < 1e-6}

    base = solved("base")
    ok = True
    notes = []
    for name in ("bremove", "eps"):
        missing = base - solved(name)
        ok &= not missing
        notes.append(f"{name} covers base minus {len(missing)}")
    base_by_depth = {d: sum(1 for (L, _) in base if L == d) for d in SWEEP_DEPTHS}
    empty = [d for d in SWEEP_DEPTHS if base_by_depth[d] == 0]
    if empty:
        deepest = max(empty)
        rescued = sum(1 for (L, _) in solved("bremove") if L == deepest)
        ok &= rescued >= 1
        notes.append(f"bremove rescues {rescued} cells at L={deepest}")
    else:
        notes.append("base solved a cell at every sweep depth")

    # every target whose base solve fails is solved by some remedy
    status = {}
    for depth in RESCUE_DEPTHS:
        net, center = random_instance(depth, SWEEP_WIDTH, seed=RESCUE_SEED)
        for name in VARIANT_NAMES:
            for t in run_verify(net, center, SWEEP_RHO, Variant(name)).targets:
                status[depth, t.target, name] = t.status
    failed = sorted({(d, t) for d, t, name in status
                     if name == "base" and status[d, t, name] != "Optimal"})
    remedies = [name for name in VARIANT_NAMES if name != "base"]
    if failed:
        solved_by = {name: [cell for cell in failed
                            if status[(*cell, name)] == "Optimal"]
                     for name in remedies}
        ok &= all(any(cell in solved_by[name] for name in remedies)
                  for cell in failed)
        notes.append(f"base fails on {len(failed)} seed-{RESCUE_SEED} targets "
                     f"at L={sorted({d for d, _ in failed})}; solved by "
                     + ", ".join(f"{name} {len(solved_by[name])}"
                                 for name in remedies))
    else:
        notes.append(f"base solved every seed-{RESCUE_SEED} target at "
                     f"L={RESCUE_DEPTHS}; rescue clause vacuous")
    _criterion(5, ok, "; ".join(notes))


def test_criterion_06_feasible_point_caps(depth_sweep):
    rows, _ = depth_sweep
    cells = _sweep_caps()
    checked = 0
    violations = []
    for row in rows:
        if row.solution.status != "Optimal":
            continue
        checked += 1
        depth, seed, name = row.L, row.seed, row.variant
        cell = cells[(depth, seed)]
        X = row.solution.xblocks[0]
        layout = cell["layout"]
        T, caps, bound = cell["T"], cell["caps"], cell["bound"]
        for i in range(cell["prep"].net.num_hidden + 1):
            sl = layout.layer_slice(i)
            if np.trace(X[sl, sl]) > T[i] + 1e-6:
                violations.append((depth, seed, name, f"trace[{i}]"))
        for i, cap in enumerate(caps):
            sl = layout.layer_slice(i + 1)
            if (np.diag(X)[sl] > cap + 1e-6).any():
                violations.append((depth, seed, name, f"diag[{i + 1}]"))
        if min_eigenvalue(X) > bound + 1e-6:
            violations.append((depth, seed, name, "eig"))
    ok = checked > 0 and not violations
    _criterion(6, ok,
               f"trace/diagonal/eigenvalue caps on {checked} solved cells, "
               f"{len(violations)} violations"
               + (f", first {violations[0]}" if violations else ""))


def test_criterion_07_dscale_invariance(soundness_table):
    records, _ = soundness_table
    worst = 0.0
    pairs = 0
    for rec in records:
        for name in VARIANT_NAMES:
            plain_gamma, plain_status = rec["variants"][name]
            rep = run_verify(rec["net"], rec["center"], RHO_SMALL,
                             Variant(name), dscale=True)
            t = rep.targets[0]
            if plain_status == "Optimal" and t.status == "Optimal":
                pairs += 1
                worst = max(worst, abs(t.gamma - plain_gamma))
    _criterion(7, pairs > 0 and worst <= 1e-5,
               f"|gamma_scaled - gamma| over {pairs} converged pairs, "
               f"worst = {worst:.2e}")


def test_criterion_08_wscale_invariance():
    worst = 0.0
    flips = 0
    for seed in range(10):
        rng = np.random.default_rng([81, seed])
        net = make_net(rng, [3, 4, 4, 2])
        scaled, _ = w_scale(net)
        for x in rng.uniform(-2.0, 2.0, size=(100, 3)):
            y0 = forward(net, x)
            y1 = forward(scaled, x)
            worst = max(worst, float(np.max(np.abs(y1 - y0) / (1.0 + np.abs(y0)))))
            flips += predict(net, x) != predict(scaled, x)
    _criterion(8, worst <= 1e-9 and flips == 0,
               f"1000 inputs over 10 nets, worst relative deviation = "
               f"{worst:.2e}, label flips = {flips}")


def test_criterion_09_feasible_set_boundedness(depth_sweep):
    """Trace caps that the constraints prove for the box-driven formulations.

    problem-a: a box row plus the 2x2 minor P_0k^2 <= P_kk (with P_00 = 1)
    gives P_0k in [l_k, u_k], and then P_kk <= (l_k + u_k) P_0k - l_k u_k
    <= max(l_k^2, u_k^2), so tr(X) <= 1 + sum_i sum_k max(l_ik^2, u_ik^2).
    bremove: the trace recursion caps each layer block by T_i, and P_00
    lies in no block, so tr(X) <= 1 + sum_i T_i.  Lifted forward traces
    attain the problem-a cap and exceed the bremove cap less its unit
    entry (test_sdpform.test_trace_caps_on_lifted_points), so neither can
    be tightened; a returned solution above either has escaped its rows.
    """
    rows, _ = depth_sweep
    cells = _sweep_caps()
    worst_a = worst_b = -np.inf
    cell_a = cell_b = None
    checked_a = checked_b = 0
    for row in rows:
        if row.solution.status != "Optimal":
            continue
        depth, seed, name = row.L, row.seed, row.variant
        cell = cells[(depth, seed)]
        tr = float(np.trace(row.solution.xblocks[0]))
        if name == "problem-a":
            checked_a += 1
            excess = tr - box_trace_cap(cell["prep"].bounds)
            if excess > worst_a:
                worst_a, cell_a = excess, (depth, seed)
        elif name == "bremove":
            checked_b += 1
            excess = tr - (1.0 + float(cell["T"].sum()))
            if excess > worst_b:
                worst_b, cell_b = excess, (depth, seed)
    ok_a = checked_a > 0 and worst_a <= 1e-6
    ok_b = checked_b > 0 and worst_b <= 1e-6
    _criterion(9, ok_a and ok_b,
               f"box-row trace cap on {checked_a} problem-a cells, worst excess = "
               f"{worst_a:.4f} at {cell_a}; trace-recursion cap on {checked_b} "
               f"bremove cells, worst excess = {worst_b:.4f} at {cell_b}")


def test_criterion_10_planted_solver_portfolio():
    worst_gap = worst_res = worst_err = slowest = 0.0
    for i in range(50):
        rng = np.random.default_rng([90, i])
        d = 5 + (i * 5) % 36  # psd dims cycling through 5..40
        prob, opt, _ = planted_instance(rng, (d,), (int(rng.integers(2, 7)),), m=d)
        t0 = time.perf_counter()
        sol = solve(prob, SolverConfig())
        dt = time.perf_counter() - t0
        assert sol.status == "Optimal", f"instance {i}: {sol.status}"
        worst_gap = max(worst_gap, sol.gap)
        worst_res = max(worst_res, sol.primal_res, sol.dual_res)
        worst_err = max(worst_err,
                        abs(sol.primal_obj - opt) / (1.0 + abs(opt)))
        slowest = max(slowest, dt)
    ok = worst_gap <= 1e-6 and worst_res <= 1e-7 and slowest < 2.0
    _criterion(10, ok,
               f"50 planted instances, worst gap = {worst_gap:.2e}, "
               f"worst residual = {worst_res:.2e}, worst objective error = "
               f"{worst_err:.2e}, slowest = {slowest:.2f}s")


def test_criterion_11_hand_built_radii():
    from helpers import coo
    from sdpverify.sdpform import Block, Constraint, SdpProblem

    def radius(dim, rows):
        cons = [Constraint({0: coo(A)}, b, "=", lab)
                for A, b, lab in rows]
        prob = SdpProblem(blocks=(Block("psd", dim),), objective={},
                          obj_offset=0.0, constraints=cons)
        sf = build_strict_feasibility(to_standard_form(prob))
        sol = solve(sf, SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
        assert sol.status == "Optimal"
        return strict_feasibility_value(sol)

    lam_unit = radius(1, [([[1.0]], 1.0, "tr")])
    lam_pinned = radius(2, [([[1.0, 0.0], [0.0, 0.0]], 0.0, "pin"),
                            (np.eye(2), 1.0, "tr")])
    ok = abs(lam_unit - 1.0) <= 1e-7 and abs(lam_pinned) <= 1e-7
    _criterion(11, ok,
               f"unit-trace ball radius = {lam_unit:.9f}, "
               f"pinned-diagonal radius = {lam_pinned:.2e}")
