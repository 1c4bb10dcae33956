"""Interior-point solver on planted instances and hand-built problems."""

import io
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helpers import planted_instance
from sdpverify import oracle, solver
from sdpverify.cli import _competitors, _relaxation, prepare_instance, random_instance
from sdpverify.sdpform import (
    Block,
    Constraint,
    SdpProblem,
    Variant,
    build_strict_feasibility,
)
from sdpverify.solver import (
    _TAU,
    SdpSolution,
    SolverConfig,
    _NumericalProblem,
    _compile,
    _cone_factor,
    _eigvalsh,
    _potrf,
    _potrs,
    _psd_inverse,
    _schur,
    _trtrs,
    residuals,
    solve,
)

TRACE_LINE = re.compile(
    r"^iter=\d+ mu=\S+ pres=\S+ dres=\S+ gap=\S+$"
)


def _simple(objective, constraints, blocks=(Block("psd", 2),)):
    return SdpProblem(blocks=blocks, objective=objective, obj_offset=0.0,
                      constraints=constraints)


def test_minimum_trace_on_simplex():
    prob = _simple(
        {0: sp.coo_matrix(np.eye(2))},
        [Constraint({0: sp.coo_matrix(np.eye(2))}, 1.0, "=", "tr")],
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
        {0: sp.coo_matrix(np.eye(2))},
        [Constraint({0: sp.coo_matrix(np.eye(2))}, 1.0, "=", "tr")],
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
        buf = io.StringIO()
        sol = solve(prob, SolverConfig(), trace=buf)
        assert sol.status == "Optimal"
        lines = buf.getvalue().splitlines()
        assert len(lines) >= 2
        for line in lines:
            assert TRACE_LINE.match(line), line
        mus = [float(re.search(r"mu=(\S+)", ln).group(1)) for ln in lines]
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
        {0: sp.coo_matrix(np.diag([-1.0, 0.0]))},
        [Constraint({0: sp.coo_matrix(np.diag([0.0, 1.0]))}, 1.0, "=", "pin")],
    )
    sol = solve(prob, SolverConfig())
    assert sol.status == "Unbounded"


def test_free_variable_elimination():
    # min x with x >= 0 tied to a free variable pinned at 3
    prob = SdpProblem(
        blocks=(Block("diag", 1), Block("free", 1)),
        objective={0: sp.coo_matrix([[1.0]])},
        obj_offset=0.0,
        constraints=[
            Constraint({0: sp.coo_matrix([[1.0]]), 1: sp.coo_matrix([[-1.0]])},
                       0.0, "=", "tie"),
            Constraint({1: sp.coo_matrix([[1.0]])}, 3.0, "=", "pin"),
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
        return sp.coo_matrix(np.diag(vals))

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
    prob.validate()
    sol = solve(prob, SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - 2.0) <= 1e-7
    for got, want in zip(sol.xblocks, ([1.0], [0.0, 2.0], [0.0, 4.0])):
        assert np.allclose(got, want, atol=1e-6)
    assert np.array_equal(sol.sblocks[0], [0.0])
    assert np.array_equal(sol.sblocks[2], [0.0, 0.0])


def test_overflow_ends_in_numerical_failure():
    # mu_0 = 1e162 overflows the first Newton right-hand side to inf
    prob = SdpProblem(
        blocks=(Block("psd", 2), Block("diag", 2)),
        objective={},
        obj_offset=0.0,
        constraints=[
            Constraint({0: sp.coo_matrix(np.eye(2))}, 1e160, "=", "big"),
            Constraint({1: sp.coo_matrix(np.eye(2))}, 1.0, "=", "unit"),
        ],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve(prob, SolverConfig())
    assert sol.status == "NumericalFailure"


def test_rejects_non_standard_and_coneless_problems():
    ineq = _simple(
        {0: sp.coo_matrix(np.eye(2))},
        [Constraint({0: sp.coo_matrix(np.eye(2))}, 1.0, "<=", "cap")],
    )
    with pytest.raises(ValueError):
        solve(ineq, SolverConfig())
    free_only = SdpProblem(
        blocks=(Block("free", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: sp.coo_matrix(np.eye(2))}, 1.0, "=", "tr")],
    )
    with pytest.raises(ValueError):
        solve(free_only, SolverConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(feas_tol=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


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


def _schur_by_constraint(prob, compiled, xblocks, sblocks, sinv):
    """The Schur assembly as one column loop per psd constraint, which the
    batched `_schur` replaced; kept to pin its floating-point operations."""
    m = prob.num_constraints
    M = np.zeros((m, m))
    for bidx, (cb, xb, sb, si) in enumerate(zip(compiled, xblocks, sblocks, sinv)):
        if cb.Avec.nnz == 0 or cb.kind == "free":
            continue
        if cb.kind == "diag":
            weighted = cb.Avec.multiply(xb / sb)
            M += (weighted @ cb.Avec.T).toarray()
            continue
        for j, cons in enumerate(prob.constraints):
            mat = cons.terms.get(bidx)
            if mat is None:
                continue
            coo = mat.tocoo()
            coo.sum_duplicates()
            rows = np.unique(coo.row)
            Asub = np.zeros((rows.size, cb.dim))
            np.add.at(Asub, (np.searchsorted(rows, coo.row), coo.col), coo.data)
            V = xb[:, rows] @ (Asub @ si)
            M[:, j] += cb.Avec @ V.T.ravel()
    return (M + M.T) / 2.0


def _spd(rng, d):
    """Random positive definite matrix, bitwise symmetric like the iterates."""
    G = rng.normal(size=(d, d))
    P = G @ G.T + d * np.eye(d)
    return (P + P.T) / 2.0


def _interior_point(rng, prob):
    """Random strictly interior X and S, bitwise symmetric like the iterates."""
    xblocks, sblocks = [], []
    for blk in prob.blocks:
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
    def coo(rows, cols, vals, d):
        return sp.coo_matrix((vals, (rows, cols)), shape=(d, d))

    blocks = (Block("psd", 4), Block("psd", 3), Block("diag", 2))
    cons = [
        Constraint({0: coo([0, 2], [2, 0], [1.0, 1.0], 4),
                    2: coo([0], [0], [1.0], 2)}, 1.0, "=", "c0"),
        Constraint({2: coo([1], [1], [2.0], 2)}, 1.0, "=", "c1"),
        Constraint({0: coo([1, 1, 3], [1, 3, 1], [3.0, -1.0, -1.0], 4)},
                   0.0, "=", "c2"),
        Constraint({0: coo([], [], [], 4), 2: coo([0], [0], [1.0], 2)},
                   2.0, "=", "c3"),
    ]
    objective = {1: sp.coo_matrix(np.eye(3))}
    return SdpProblem(blocks=blocks, objective=objective, obj_offset=0.0,
                      constraints=cons)


def _oracle_lp(monkeypatch):
    """The first two-block standard-form LP that `exact_gamma` solves on a
    depth-2 fixture: a diag block of 2 whose columns have 4 nonzeros each,
    and a diag slack block."""
    net, center = random_instance(2, 8, seed=0)
    prep = prepare_instance(net, center, 0.1)
    seen = []
    real = solver.solve

    def record(prob, config=None, trace=None):
        seen.append(prob)
        return real(prob, config, trace)

    monkeypatch.setattr(solver, "solve", record)
    oracle.exact_gamma(prep.net, prep.bounds, _competitors(prep, None)[0])
    return next(p for p in seen if len(p.blocks) == 2)


def test_schur_assembly_matches_per_constraint_loop(monkeypatch):
    """The batched assembly repeats the column loop's arithmetic bit for bit."""
    net, center = random_instance(12, 8, seed=0)
    prep = prepare_instance(net, center, 0.1)
    target = _competitors(prep, None)[0]
    problems = []
    for variant in (Variant.base(), Variant.epsilon(), Variant.bremove()):
        _, std = _relaxation(prep, target, variant)
        problems.append(std)
    problems.append(build_strict_feasibility(problems[0]))
    rng = np.random.default_rng(47)
    for _ in range(3):
        problems.append(planted_instance(rng, (5, 3), (4,))[0])
    problems.append(_hand_built())
    lp = _oracle_lp(monkeypatch)
    assert [b.kind for b in lp.blocks] == ["diag", "diag"]
    assert np.diff(_compile(lp)[0].AvecT.indptr).min() > 1
    problems.append(lp)
    for prob in problems:
        compiled = _compile(prob)
        xblocks, sblocks = _interior_point(rng, prob)
        sinv = [
            _psd_inverse(np.linalg.cholesky(sb)) if cb.kind == "psd"
            else 1.0 / sb if cb.kind == "diag" else None
            for cb, sb in zip(compiled, sblocks)
        ]
        M = _schur(compiled, xblocks, sblocks, sinv, prob.num_constraints)
        ref = _schur_by_constraint(prob, compiled, xblocks, sblocks, sinv)
        assert np.array_equal(M, ref)
        assert np.any(M != 0.0)


def test_lapack_wrappers_match_scipy_bit_for_bit():
    rng = np.random.default_rng(48)
    for d in (1, 5, 70):
        P = _spd(rng, d)
        B = rng.normal(size=(d, 3))
        for a in (P, np.asfortranarray(P)):
            assert np.array_equal(_potrf(a, clean=1),
                                  sla.cholesky(a, lower=True))
            assert np.array_equal(_potrf(a, clean=0),
                                  sla.cho_factor(a, lower=True)[0])
        L = sla.cholesky(P, lower=True)
        for f in (L, np.ascontiguousarray(L)):
            for b in (B, np.asfortranarray(B), B[:, 0]):
                assert np.array_equal(_potrs(f, b), sla.cho_solve((f, True), b))
                assert np.array_equal(_trtrs(f, b),
                                      sla.solve_triangular(f, b, lower=True))
        W = rng.normal(size=(d, d))
        for a in ((W + W.T) / 2.0, np.asfortranarray((W + W.T) / 2.0)):
            assert np.array_equal(_eigvalsh(a), sla.eigvalsh(a))
    assert not np.ascontiguousarray(L).flags.f_contiguous


def test_cone_factor_rejects_indefinite_iterate():
    with pytest.raises(_NumericalProblem):
        _cone_factor(np.diag([1.0, -1e-3]), "primal")
    assert _potrf(np.diag([1.0, -1e-3]), clean=0) is None
