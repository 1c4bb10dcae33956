"""Interior-point solver on planted instances and hand-built problems."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helpers import coo, planted_instance, residuals, validate
from sdpverify import oracle, solver
from sdpverify.cli import (
    SweepSpec,
    _competitors,
    _relaxation,
    prepare_instance,
    random_instance,
    run_compare,
    run_diagnose,
    run_sweep,
    run_verify,
)
from sdpverify.sdpform import (
    VARIANT_NAMES,
    Block,
    Constraint,
    Coo,
    SdpProblem,
    Variant,
    build_strict_feasibility,
)
from sdpverify.solver import (
    _TAU,
    SdpSolution,
    SolverConfig,
    _Csr,
    _NumericalProblem,
    _compile,
    _cone_factor,
    _eigvalsh,
    _matvec,
    _matvecs,
    _max_step_psd,
    _potrf,
    _potrs,
    _psd_inverse,
    _ratio_steps,
    _schur,
    _steps,
    _trtrs,
    solve,
)

def _simple(objective, constraints, blocks=(Block("psd", 2),)):
    return SdpProblem(blocks=blocks, objective=objective, obj_offset=0.0,
                      constraints=constraints)


def test_minimum_trace_on_simplex():
    prob = _simple(
        {0: coo(np.eye(2))},
        [Constraint({0: coo(np.eye(2))}, 1.0, "=", "tr")],
    )
    sol = solve(prob, SolverConfig())
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - 1.0) <= 1e-7


def test_planted_portfolio():
    """Random strictly complementary plants across block shapes."""
    shapes = [((4,), ()), ((3, 2), ()), ((4,), (3,)), ((5,), (2, 2))]
    for seed in range(8):
        rng = np.random.default_rng([40, seed])
        psd, diag = shapes[seed % len(shapes)]
        prob, opt, _ = planted_instance(rng, psd, diag)
        sol = solve(prob, SolverConfig())
        assert sol.status == "Optimal"
        assert sol.gap <= 1e-6
        assert sol.primal_res <= 1e-7 and sol.dual_res <= 1e-7
        slack = 1e-6 * (1.0 + abs(opt)) + sol.gap * (1.0 + abs(sol.primal_obj))
        assert abs(sol.primal_obj - opt) <= slack


def test_planted_point_has_zero_residuals():
    rng = np.random.default_rng(41)
    prob, _, (xhat, yhat, shat) = planted_instance(rng, (4,), (3,))
    pres, dres, gap = residuals(prob, xhat, yhat, shat)
    assert pres <= 1e-12
    assert dres <= 1e-12
    assert gap <= 1e-12


def test_residuals_see_perturbations():
    prob = _simple(
        {0: coo(np.eye(2))},
        [Constraint({0: coo(np.eye(2))}, 1.0, "=", "tr")],
    )
    X = np.eye(2) / 2 + np.diag([1e-3, 0.0])
    pres, _, _ = residuals(prob, [X], np.array([1.0]), [np.zeros((2, 2))])
    assert abs(pres - 1e-3 / 2) <= 1e-12


def test_residuals_zero_problem():
    prob = _simple({}, [])
    pres, dres, gap = residuals(prob, [np.zeros((2, 2))], np.zeros(0),
                                [np.zeros((2, 2))])
    assert (pres, dres, gap) == (0.0, 0.0, 0.0)


def test_mu_contracts_every_iteration():
    # each accepted step must shrink complementarity at least by 1 - _TAU/100
    for seed in range(4):
        rng = np.random.default_rng([42, seed])
        prob, _, _ = planted_instance(rng, (4,), (2,))
        sol = solve(prob, SolverConfig())
        assert sol.status == "Optimal"
        # one row per iteration started, the last one the optimal check's
        assert len(sol.history) == sol.iterations + 1 >= 2
        mus = [mu for mu, _, _, _ in sol.history]
        for a, b in zip(mus, mus[1:]):
            assert b <= a * (1.0 - 0.01 * _TAU) + 1e-300


def test_identical_runs_identical_iterates():
    rng = np.random.default_rng(43)
    prob, _, _ = planted_instance(rng, (4,), (3,))
    one = solve(prob, SolverConfig())
    two = solve(prob, SolverConfig())
    assert one.iterations == two.iterations
    assert one.primal_obj == two.primal_obj
    for a, b in zip(one.xblocks, two.xblocks):
        assert np.array_equal(a, b)


def test_unbounded_objective_detected():
    prob = _simple(
        {0: coo(np.diag([-1.0, 0.0]))},
        [Constraint({0: coo(np.diag([0.0, 1.0]))}, 1.0, "=", "pin")],
    )
    sol = solve(prob, SolverConfig())
    assert sol.status == "Unbounded"


def test_unbounded_threshold_scales_with_the_data():
    """min -x_0 over x_0 + x_1 = 1e20 is bounded at -1e20, far below the
    absolute -1e12 at which data of magnitude 1 counts as diverging."""
    prob = _simple(
        {0: coo(np.diag([-1.0, 0.0]))},
        [Constraint({0: coo(np.eye(2))}, 1e20, "=", "cap")],
        blocks=(Block("diag", 2),),
    )
    sol = solve(prob, SolverConfig())
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj + 1e20) <= 1e-5 * 1e20


def test_free_variable_elimination():
    # min x with x >= 0 tied to a free variable pinned at 3
    prob = SdpProblem(
        blocks=(Block("diag", 1), Block("free", 1)),
        objective={0: coo([[1.0]])},
        obj_offset=0.0,
        constraints=[
            Constraint({0: coo([[1.0]]), 1: coo([[-1.0]])},
                       0.0, "=", "tie"),
            Constraint({1: coo([[1.0]])}, 3.0, "=", "pin"),
        ],
    )
    sol = solve(prob, SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - 3.0) <= 1e-7
    assert abs(sol.xblocks[0][0] - 3.0) <= 1e-6
    assert abs(sol.xblocks[1][0] - 3.0) <= 1e-6


def test_two_free_blocks_around_a_cone_block():
    # free f, then x >= 0, then free (g0, g1):
    #   f - x0 = 1, g0 - x1 = -2, f + g1 = 5, g0 + g1 = 4
    # leave x = (f - 1, f + 1), so min x0 + x1 = 2f sits at f = 1
    def diag(*vals):
        return coo(np.diag(vals))

    prob = SdpProblem(
        blocks=(Block("free", 1), Block("diag", 2), Block("free", 2)),
        objective={1: diag(1.0, 1.0)},
        obj_offset=0.0,
        constraints=[
            Constraint({0: diag(1.0), 1: diag(-1.0, 0.0)}, 1.0, "=", "f"),
            Constraint({1: diag(0.0, -1.0), 2: diag(1.0, 0.0)}, -2.0, "=", "g0"),
            Constraint({0: diag(1.0), 2: diag(0.0, 1.0)}, 5.0, "=", "g1"),
            Constraint({2: diag(1.0, 1.0)}, 4.0, "=", "sum"),
        ],
    )
    validate(prob)
    sol = solve(prob, SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - 2.0) <= 1e-7
    for got, want in zip(sol.xblocks, ([1.0], [0.0, 2.0], [0.0, 4.0])):
        assert np.allclose(got, want, atol=1e-6)
    assert np.array_equal(sol.sblocks[0], [0.0])
    assert np.array_equal(sol.sblocks[2], [0.0, 0.0])


def test_overflowing_start_is_rejected():
    # finite data, but mu_0 = 1e162 makes the start's <X, S> = 4 mu_0^2 inf;
    # with two diagonal blocks the problem takes the LP path
    for kind in ("psd", "diag"):
        prob = SdpProblem(
            blocks=(Block(kind, 2), Block("diag", 2)),
            objective={},
            obj_offset=0.0,
            constraints=[
                Constraint({0: coo(np.eye(2))}, 1e160, "=", "big"),
                Constraint({1: coo(np.eye(2))}, 1.0, "=", "unit"),
            ],
        )
        with pytest.raises(ValueError, match="overflows at mu_0 = 1e\\+162"):
            solve(prob, SolverConfig())


def test_rejects_non_standard_and_coneless_problems():
    ineq = _simple(
        {0: coo(np.eye(2))},
        [Constraint({0: coo(np.eye(2))}, 1.0, "<=", "cap")],
    )
    with pytest.raises(ValueError):
        solve(ineq, SolverConfig())
    free_only = SdpProblem(
        blocks=(Block("free", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: coo(np.eye(2))}, 1.0, "=", "tr")],
    )
    with pytest.raises(ValueError):
        solve(free_only, SolverConfig())
    unpinned_free = SdpProblem(
        blocks=(Block("diag", 1), Block("free", 1)),
        objective={0: coo([[1.0]])},
        obj_offset=0.0,
        constraints=[],
    )
    with pytest.raises(ValueError, match="free block"):
        solve(unpinned_free, SolverConfig())


@pytest.mark.parametrize("c, a, b, bad", [
    (1.0, 1.0, np.inf, "b"),
    (1.0, np.nan, 1.0, "A"),
    (np.nan, 1.0, 1.0, "C"),
])
def test_rejects_non_finite_data(c, a, b, bad):
    """Data that overflowed upstream is named before the first iteration,
    not solved into an infinite iterate; a NaN counts too, though a plain
    max over the data would skip it.  A diagonal block takes the LP path."""
    for kind in ("psd", "diag"):
        prob = _simple({0: coo(c * np.eye(2))},
                       [Constraint({0: coo(a * np.eye(2))}, b, "=", "tr")],
                       blocks=(Block(kind, 2),))
        with pytest.raises(ValueError, match=f"problem data {bad} is not finite"):
            solve(prob, SolverConfig())


def test_solve_leaves_the_problem_unchanged():
    # unsorted, with the (1, 1) entry stored twice
    mat = Coo(np.array([1, 0, 1]), np.array([1, 0, 1]), np.array([1.0, 2.0, 0.5]),
              (2, 2))
    before = (mat.row.copy(), mat.col.copy(), mat.data.copy(), mat.nnz)
    prob = _simple({0: coo(np.eye(2))},
                   [Constraint({0: mat}, 1.0, "=", "w")])
    sol = solve(prob, SolverConfig())
    assert sol.status == "Optimal"
    assert prob.constraints[0].terms[0] is mat
    for got, want in zip((mat.row, mat.col, mat.data, mat.nnz), before):
        assert np.array_equal(got, want)
    # its canonical form, and a sorted form whose repeats sit side by side,
    # compile to the same constraint and reach the same optimum
    sorted_repeats = Coo(np.array([0, 1, 1]), np.array([0, 1, 1]),
                         np.array([2.0, 1.0, 0.5]), (2, 2))
    for form in (Coo.of(mat.row, mat.col, mat.data, mat.shape), sorted_repeats):
        other = solve(_simple({0: coo(np.eye(2))},
                              [Constraint({0: form}, 1.0, "=", "w")]))
        assert other.status == "Optimal"
        assert abs(other.primal_obj - sol.primal_obj) <= 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(feas_tol=-1e-9)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(gap_tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(feas_tol=tol)


def test_solution_reports_are_consistent():
    rng = np.random.default_rng(46)
    prob, _, _ = planted_instance(rng, (4,))
    sol = solve(prob, SolverConfig())
    assert isinstance(sol, SdpSolution)
    pres, dres, gap = residuals(prob, sol.xblocks, sol.y, sol.sblocks)
    assert abs(pres - sol.primal_res) <= 1e-10
    assert abs(dres - sol.dual_res) <= 1e-10
    assert abs(gap - sol.gap) <= 1e-10
    # cone iterates stay (numerically) inside the cone
    eigs = np.linalg.eigvalsh(sol.xblocks[0])
    assert eigs.min() >= -1e-7


def test_diagonal_blocks_around_a_psd_block():
    """Diagonal blocks on both sides of a psd block compile as three blocks
    in the problem's order, and the solution hands them back in that order
    and their shapes."""
    rng = np.random.default_rng(51)
    planted, opt, _ = planted_instance(rng, (3,), (2, 4))
    order = [1, 0, 2]  # block k of the new problem is block order[k]
    new_index = {old: new for new, old in enumerate(order)}

    def moved(terms):
        return {new_index[b]: mat for b, mat in terms.items()}

    prob = SdpProblem(
        blocks=tuple(planted.blocks[b] for b in order),
        objective=moved(planted.objective), obj_offset=0.0,
        constraints=[Constraint(moved(c.terms), c.rhs, c.sense, c.label)
                     for c in planted.constraints],
    )
    assert [(cb.kind, cb.dim) for cb in _compile(prob)] == [
        ("diag", 2), ("psd", 3), ("diag", 4)]
    sol = solve(prob, SolverConfig())
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - opt) <= 1e-6 * (1.0 + abs(opt))
    for blocks in (sol.xblocks, sol.sblocks):
        assert [b.shape for b in blocks] == [(2,), (3, 3), (4,)]
    pres, dres, gap = residuals(prob, sol.xblocks, sol.y, sol.sblocks)
    assert abs(pres - sol.primal_res) <= 1e-10
    assert abs(dres - sol.dual_res) <= 1e-10
    assert abs(gap - sol.gap) <= 1e-10


def _schur_by_constraint(prob, compiled, xblocks, sblocks, sinv):
    """The Schur assembly as one column loop per psd constraint, which the
    batched `_schur` replaced; kept to pin its floating-point operations."""
    m = prob.num_constraints
    M = np.zeros((m, m))
    for bidx, (cb, xb, sb, si) in enumerate(zip(compiled, xblocks, sblocks, sinv)):
        A = sp.csr_matrix((cb.Avec.data, cb.Avec.indices, cb.Avec.indptr),
                          shape=cb.Avec.shape)
        if A.nnz == 0 or cb.kind == "free":
            continue
        if cb.kind == "diag":
            weighted = A.multiply(xb / sb)
            M += (weighted @ A.T).toarray()
            continue
        for j, cons in enumerate(prob.constraints):
            mat = cons.terms.get(bidx)
            if mat is None:
                continue
            mat = Coo.of(*mat)
            rows = np.unique(mat.row)
            Asub = np.zeros((rows.size, cb.dim))
            np.add.at(Asub, (np.searchsorted(rows, mat.row), mat.col), mat.data)
            V = xb[:, rows] @ (Asub @ si)
            M[:, j] += A @ V.T.ravel()
    return (M + M.T) / 2.0


def _spd(rng, d):
    """Random positive definite matrix, bitwise symmetric like the iterates."""
    G = rng.normal(size=(d, d))
    P = G @ G.T + d * np.eye(d)
    return (P + P.T) / 2.0


def _interior_point(rng, compiled):
    """Random strictly interior X and S per compiled block, bitwise symmetric
    like the iterates."""
    xblocks, sblocks = [], []
    for blk in compiled:
        if blk.kind == "psd":
            pair = [_spd(rng, blk.dim) for _ in range(2)]
        elif blk.kind == "diag":
            pair = list(rng.uniform(0.5, 2.0, size=(2, blk.dim)))
        else:
            pair = [rng.normal(size=blk.dim), np.zeros(blk.dim)]
        xblocks.append(pair[0])
        sblocks.append(pair[1])
    return xblocks, sblocks


def _hand_built():
    """Constraint 1 has no psd term, constraint 3 an empty one; the second
    psd block appears in no constraint."""
    def entries(rows, cols, vals, d):
        return Coo.of(rows, cols, vals, (d, d))

    blocks = (Block("psd", 4), Block("psd", 3), Block("diag", 2))
    cons = [
        Constraint({0: entries([0, 2], [2, 0], [1.0, 1.0], 4),
                    2: entries([0], [0], [1.0], 2)}, 1.0, "=", "c0"),
        Constraint({2: entries([1], [1], [2.0], 2)}, 1.0, "=", "c1"),
        Constraint({0: entries([1, 1, 3], [1, 3, 1], [3.0, -1.0, -1.0], 4)},
                   0.0, "=", "c2"),
        Constraint({0: entries([], [], [], 4), 2: entries([0], [0], [1.0], 2)},
                   2.0, "=", "c3"),
    ]
    objective = {1: coo(np.eye(3))}
    return SdpProblem(blocks=blocks, objective=objective, obj_offset=0.0,
                      constraints=cons)


def _oracle_lps(depth=2, seed=0, every_target=False):
    """(problem, config) of each LP that `exact_gamma` hands the solver on
    the oracle-lp benchmark's width-8, rho-0.1 fixture of `depth` and
    `seed`, against its first competitor label or every one."""
    net, center = random_instance(depth, 8, seed=seed)
    prep = prepare_instance(net, center, 0.1)
    targets = _competitors(prep, None)
    seen = []
    real = solver.solve

    def record(prob, config=None):
        seen.append((prob, config))
        return real(prob, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve", record)
        for target in targets if every_target else targets[:1]:
            oracle.exact_gamma(prep.net, prep.bounds, target)
    return seen


def _oracle_lp(nblocks=2):
    """The first standard-form LP of `nblocks` blocks that `exact_gamma`
    solves on the depth-2 fixture.  With two, a minimum LP: a diag block of 2
    whose columns have 4 nonzeros each, and a diag slack block; with three,
    a margin LP, whose margin variable is a diag block of 1 between them."""
    return next(p for p, _ in _oracle_lps() if len(p.blocks) == nblocks)


def test_schur_assembly_matches_per_constraint_loop():
    """The batched assembly repeats the column loop's arithmetic bit for bit."""
    net, center = random_instance(12, 8, seed=0)
    prep = prepare_instance(net, center, 0.1)
    target = _competitors(prep, None)[0]
    problems = []
    for variant in (Variant.base(), Variant("eps"), Variant("bremove")):
        problems.append(_relaxation(prep, target, variant))
    problems.append(build_strict_feasibility(problems[0]))
    rng = np.random.default_rng(47)
    for _ in range(3):
        problems.append(planted_instance(rng, (5, 3), (4,))[0])
    problems.append(_hand_built())
    lp = _oracle_lp()
    assert [b.kind for b in lp.blocks] == ["diag", "diag"]
    # every column of the first block holds more than one nonzero
    assert np.diff(_compile(lp)[0].AvecT.indptr)[:lp.blocks[0].dim].min() > 1
    problems.append(lp)
    for prob in problems:
        compiled = _compile(prob)
        xblocks, sblocks = _interior_point(rng, compiled)
        sinv = [
            _psd_inverse(np.linalg.cholesky(sb)) if cb.kind == "psd"
            else 1.0 / sb if cb.kind == "diag" else None
            for cb, sb in zip(compiled, sblocks)
        ]
        M = _schur(compiled, xblocks, sblocks, sinv, prob.num_constraints)
        ref = _schur_by_constraint(prob, compiled, xblocks, sblocks, sinv)
        assert np.array_equal(M, ref)
        assert np.any(M != 0.0)


def _one_diagonal_block(prob):
    """`prob`, all of whose blocks are diagonal, with them joined by hand into
    one diagonal block: block b's columns shifted by the dims before it."""
    offsets = np.cumsum([0] + [blk.dim for blk in prob.blocks])
    n = int(offsets[-1])

    def joined(terms):
        parts = [(terms[b], offsets[b]) for b in sorted(terms)]
        return {0: Coo.of(np.concatenate([t.row + off for t, off in parts]),
                          np.concatenate([t.col + off for t, off in parts]),
                          np.concatenate([t.data for t, _ in parts]), (n, n))}

    return SdpProblem(
        blocks=(Block("diag", n),), objective=joined(prob.objective),
        obj_offset=prob.obj_offset,
        constraints=[Constraint(joined(c.terms), c.rhs, c.sense, c.label)
                     for c in prob.constraints],
    )


def test_solve_ignores_how_the_orthant_is_split():
    """The oracle's margin LP solves the same with its diagonal blocks of 2,
    1 and the slacks as with their columns in one block, to the last bit:
    both run `_solve_lp`, so this pins its column layout, which joins the
    blocks' columns in block order."""
    lp = _oracle_lp(nblocks=3)
    assert [(b.kind, b.dim) for b in lp.blocks[:2]] == [("diag", 2), ("diag", 1)]
    assert lp.blocks[2].kind == "diag"
    split = solve(lp, oracle._LP_CONFIG)
    one = solve(_one_diagonal_block(lp), oracle._LP_CONFIG)
    assert split.status == one.status == "Optimal"
    assert split.iterations == one.iterations
    assert split.primal_obj == one.primal_obj
    assert [x.shape for x in split.xblocks] == [(b.dim,) for b in lp.blocks]
    cuts = np.cumsum([b.dim for b in lp.blocks])[:-1]
    for mine, theirs in ((split.xblocks, one.xblocks), (split.sblocks, one.sblocks)):
        for a, b in zip(mine, np.split(theirs[0], cuts), strict=True):
            assert np.array_equal(a, b)


def test_general_loop_sees_one_block_of_each_kind(monkeypatch):
    """What compiling each block as itself rests on: through every entry
    point of the pipeline, `_solve_blocks` gets a psd block and one slack
    block, plus the radius problem's free block, and every LP of the exact
    oracle runs `_solve_lp`."""
    calls = []
    for name in ("_solve_blocks", "_solve_lp"):
        def record(prob, cfg, name=name, real=getattr(solver, name)):
            kinds = tuple(blk.kind for blk in prob.blocks)
            calls.append((name, cfg is oracle._LP_CONFIG, kinds))
            return real(prob, cfg)

        monkeypatch.setattr(solver, name, record)
    net, center = random_instance(2, 8, seed=0)
    for variant in map(Variant, VARIANT_NAMES):
        for dscale in (False, True):
            run_verify(net, center, 0.1, variant, dscale=dscale)
            run_diagnose(net, center, 0.1, variant, dscale=dscale)
    run_sweep(SweepSpec(depths=[2], seeds=[0], variants=["base"]))
    run_compare(net, center, 0.1)
    general = {kinds for name, _, kinds in calls if name == "_solve_blocks"}
    assert general == {("psd", "diag"), ("psd", "diag", "free")}
    assert {name for name, lp, _ in calls if lp} == {"_solve_lp"}


@pytest.mark.parametrize("key", ["L2/s0", "L2/s10", "L3/s1"])
def test_lp_path_matches_the_general_loop(key):
    """Every LP the oracle solves on the fixtures whose solves
    perfbench/reference.json pins ends on the dense LP path as in the
    general block loop, its reference: same status and iteration count,
    the same objective to 1e-10, and the problem's block shapes."""
    depth, seed = (int(part[1:]) for part in key.split("/"))
    lps = _oracle_lps(depth, seed, every_target=True)
    assert lps
    for prob, config in lps:
        dense = solver._solve_lp(prob, config)
        general = solver._solve_blocks(prob, config)
        assert (dense.status, dense.iterations) == (general.status, general.iterations)
        assert dense.primal_obj == pytest.approx(general.primal_obj, rel=1e-10, abs=0.0)
        shapes = [(blk.dim,) for blk in prob.blocks]
        for blocks in (dense.xblocks, dense.sblocks):
            assert [b.shape for b in blocks] == shapes


@pytest.mark.parametrize("rhs, status", [(None, "Optimal"), (-1.0, "NumericalFailure")])
def test_lp_path_ends_degenerate_lps_as_the_general_loop(rhs, status):
    """An LP with no constraints, and an infeasible one (x >= 0 summing
    to -1), end in the general loop's status on the LP path."""
    cons = [] if rhs is None else [Constraint({0: coo(np.eye(2))}, rhs, "=", "sum")]
    prob = _simple({0: coo(np.diag([1.0, 2.0]))}, cons,
                   blocks=(Block("diag", 2), Block("diag", 1)))
    dense = solver._solve_lp(prob, SolverConfig())
    assert dense.status == solver._solve_blocks(prob, SolverConfig()).status == status
    assert [b.shape for b in dense.xblocks] == [(2,), (1,)]


def _policy_cases():
    """(name, solve) on the infeasible LP above, run by either path, and on
    the depth-10 seed-8 `base` margin SDP, a verify-deep request that ends
    NumericalFailure: each reaches `_iterate`'s fallback."""
    cons = [Constraint({0: coo(np.eye(2))}, -1.0, "=", "sum")]
    lp = _simple({0: coo(np.diag([1.0, 2.0]))}, cons,
                 blocks=(Block("diag", 2), Block("diag", 1)))
    net, center = random_instance(10, 8, seed=8)
    prep = prepare_instance(net, center, 0.1)
    sdp = _relaxation(prep, _competitors(prep, None)[0], Variant.base())
    return [("lp", lambda: solver._solve_lp(lp, SolverConfig())),
            ("blocks", lambda: solver._solve_blocks(lp, SolverConfig())),
            ("sdp", lambda: solve(sdp))]


def test_three_stalled_steps_end_either_path(monkeypatch):
    """With every step counted as stalled, both paths stop at the third
    one, after three history rows, as MaxIterations."""
    monkeypatch.setattr(solver, "_STALL_STEP", np.inf)
    for name, run in _policy_cases():
        sol = run()
        assert (sol.status, sol.iterations, len(sol.history)) == (
            "MaxIterations", 2, 3), name


def test_breakdown_returns_the_best_iterate_on_either_path():
    """A numerical breakdown hands back the iterate whose max(pres, dres,
    gap) is the least over the run's history, and says why it broke down."""
    iterations, reasons = {}, {}
    for name, run in _policy_cases():
        sol = run()
        assert sol.status == "NumericalFailure", name
        iterations[name], reasons[name] = sol.iterations, sol.reason
        best = min(max(row[1:]) for row in sol.history)
        assert max(sol.primal_res, sol.dual_res, sol.gap) == best, name
    assert iterations == {"lp": 18, "blocks": 23, "sdp": 36}
    # the breakdown's message is kept as the solution's reason
    assert reasons == {"lp": "non-finite direction",
                       "blocks": "non-finite direction",
                       "sdp": "primal iterate left the cone"}


def test_each_iterate_is_measured_once(monkeypatch):
    """The general loop computes an iterate's residuals once: once per
    history row, and once more for the unmeasured last iterate of a
    MaxIterations run.  An Optimal solve on either path reports its last
    row's residuals and gap bit for bit."""
    calls = []
    triplet = solver._residual_triplet
    monkeypatch.setattr(solver, "_residual_triplet",
                        lambda *args: calls.append(1) or triplet(*args))
    sdp, _, _ = planted_instance(np.random.default_rng(46), (4,))
    infeasible = _simple({0: coo(np.diag([1.0, 2.0]))},
                         [Constraint({0: coo(np.eye(2))}, -1.0, "=", "sum")],
                         blocks=(Block("diag", 2),))
    for prob, cap, status, extra in (
            (sdp, solver._MAX_ITER, "Optimal", 0),
            (sdp, 3, "MaxIterations", 1),
            (infeasible, solver._MAX_ITER, "NumericalFailure", 0)):
        monkeypatch.setattr(solver, "_MAX_ITER", cap)
        calls.clear()
        sol = solver._solve_blocks(prob, SolverConfig())
        assert sol.status == status
        assert (sol.reason == "") == (status != "NumericalFailure")
        assert len(calls) == len(sol.history) + extra, status
    lp = _simple({0: coo(np.diag([1.0, 2.0]))},
                 [Constraint({0: coo(np.eye(2))}, 1.0, "=", "sum")],
                 blocks=(Block("diag", 2),))
    for sol in (solve(sdp), solver._solve_lp(lp, SolverConfig()),
                solver._solve_blocks(lp, SolverConfig())):
        assert sol.status == "Optimal"
        assert (sol.primal_res, sol.dual_res, sol.gap) == sol.history[-1][1:]


def test_lapack_wrappers_match_scipy_bit_for_bit():
    rng = np.random.default_rng(48)
    for d in (1, 5, 70):
        P = _spd(rng, d)
        B = rng.normal(size=(d, 3))
        for a in (P, np.asfortranarray(P)):
            assert np.array_equal(_potrf(a), sla.cho_factor(a, lower=True)[0])
        # every factor the solver holds comes from `_potrf`: Fortran-ordered
        L = _potrf(P)
        assert L.flags.f_contiguous
        for b in (B, np.asfortranarray(B), B[:, 0]):
            assert np.array_equal(_trtrs(L, b),
                                  sla.solve_triangular(L, b, lower=True))
            for f in (L, np.ascontiguousarray(L)):
                assert np.array_equal(_potrs(f, b), sla.cho_solve((f, True), b))
        W = rng.normal(size=(d, d))
        for a in ((W + W.T) / 2.0, np.asfortranarray((W + W.T) / 2.0)):
            assert np.array_equal(_eigvalsh(a), sla.eigvalsh(a))


def test_csr_kernels_match_scipy_bit_for_bit():
    rng = np.random.default_rng(49)
    mats = [sp.csr_matrix((4, 5))]  # no stored entries
    for m, n, density in ((1, 1, 1.0), (7, 9, 0.3), (40, 60, 0.05), (30, 12, 0.5)):
        D = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
        D[m // 2:m // 2 + 3] = 0.0  # empty rows
        mats.append(sp.csr_matrix(D))
    for A in mats:
        n = A.shape[1]
        # as compiled (int64 indices) and as scipy holds it (int32)
        wide = _Csr(A.indptr.astype(np.int64), A.indices.astype(np.int64),
                    A.data, A.shape)
        for B in (wide, A):
            for x in (rng.normal(size=n), rng.normal(size=2 * n)[::2]):
                assert np.array_equal(_matvec(B, x), A @ x)
            for k in (1, 2, 16):
                for X in (rng.normal(size=(n, k)), rng.normal(size=(k, n)).T):
                    assert np.array_equal(_matvecs(B, X), A @ X)
            with pytest.raises(ValueError):
                _matvec(B, np.zeros(n - 1))
            with pytest.raises(ValueError):
                _matvecs(B, np.zeros((n + 1, 2)))
            with pytest.raises(ValueError):
                _matvecs(B, np.zeros(n))


_FRESH_IMPORT = """
import sys
import numpy as np
import sdpverify.cli
from sdpverify import solver
loaded = [m for m in ("scipy.linalg", "scipy.sparse", "scipy._lib._util")
          if m in sys.modules]
assert not loaded, loaded
import scipy.linalg, scipy.sparse
assert scipy.sparse._sparsetools.csr_matvec
assert scipy.linalg._flapack.dpotrf
a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
assert np.array_equal(scipy.linalg.cho_factor(a, lower=True)[0],
                      solver._potrf(a))
"""


def _run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_kernels_without_scipy_packages():
    """In a fresh interpreter the solver imports neither scipy.linalg nor
    scipy.sparse, and leaves both importable as usual afterwards; a
    missing compiled module is an ImportError that names it."""
    _run_fresh(_FRESH_IMPORT)
    with pytest.raises(ImportError, match="linalg/_missing"):
        solver._load_scipy_extension("linalg", "_missing")


_FIRST_SOLVES = """
import sys
from sdpverify import cli, oracle
net, center = cli.random_instance(2, 8, seed=0)
cli.run_verify(net, center, 0.1, cli.Variant.base())
cli.run_sweep(cli.SweepSpec(depths=[2], seeds=[0], variants=["base"]))
prep = cli.prepare_instance(net, center, 0.1)
oracle.exact_gamma(prep.net, prep.bounds, cli._competitors(prep, None)[0])
assert "numpy.ma" not in sys.modules
"""


def test_first_solves_leave_numpy_ma_unimported():
    """A verify, a sweep cell and an exact oracle in a fresh interpreter
    never import numpy.ma, which a bare np.unique would (10-20 ms of the
    first solve of every process)."""
    _run_fresh(_FIRST_SOLVES)


def test_diagonal_steps_merge_into_one_pass():
    """`_steps` gives each side min(1, frac * t), t the least step any block
    allows: psd blocks by `_max_step_psd`, the diagonal blocks of both
    sides by one ratio test, free blocks none.  A non-finite direction in
    any block is a breakdown."""
    rng = np.random.default_rng(50)
    kinds = ["diag", "psd", "diag", "free", "diag"]
    compiled = [SimpleNamespace(kind=k) for k in kinds]
    P, Q = _spd(rng, 3), _spd(rng, 3)

    def ratio(x, dx):
        neg = dx < 0.0
        return float((-x[neg] / dx[neg]).min()) if neg.any() else np.inf

    def sym(d):
        W = rng.normal(size=(d, d))
        return W + W.T

    for _ in range(5):
        xs = [rng.uniform(0.5, 2.0, 3), _potrf(P), rng.uniform(0.5, 2.0, 1),
              rng.normal(size=2), rng.uniform(0.5, 2.0, 4)]
        ss = [rng.uniform(0.5, 2.0, 3), _potrf(Q), rng.uniform(0.5, 2.0, 1),
              np.zeros(2), rng.uniform(0.5, 2.0, 4)]
        dX = [rng.normal(size=3), 4.0 * sym(3), rng.normal(size=1),
              rng.normal(size=2), rng.normal(size=4)]
        dS = [rng.normal(size=3), 4.0 * sym(3), rng.normal(size=1), np.zeros(2),
              rng.normal(size=4)]
        for frac in (1.0, _TAU):
            want = tuple(
                min(1.0, frac * min(
                    [ratio(c[i], d[i]) for i in (0, 2, 4)]
                    + [_max_step_psd(c[1], d[1])]))
                for c, d in ((xs, dX), (ss, dS)))
            assert _steps(compiled, xs, dX, ss, dS, frac) == want
            assert want != (1.0, 1.0)
    up = [np.abs(dX[0]), P, np.abs(dX[2]), dX[3], np.abs(dX[4])]
    assert _steps(compiled, xs, up, ss, up, _TAU) == (1.0, 1.0)
    for side in (dX, dS):
        for bi in range(len(kinds)):
            bad = list(side)
            bad[bi] = np.full_like(side[bi], np.nan)
            args = (bad, ss, dS) if side is dX else (dX, ss, bad)
            with pytest.raises(_NumericalProblem):
                _steps(compiled, xs, *args, 1.0)
    with pytest.raises(_NumericalProblem):
        _ratio_steps(xs[0], dX[0], xs[2], np.array([np.nan]), 1.0)


def test_cone_factor_rejects_indefinite_iterate():
    with pytest.raises(_NumericalProblem):
        _cone_factor(np.diag([1.0, -1e-3]), "primal")
    assert _potrf(np.diag([1.0, -1e-3])) is None
