"""Relaxation assembly, scaling, standard form, and the inscribed-ball recast."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    activations,
    box_trace_cap,
    boxed,
    constraint_violations,
    coo,
    lifted_point,
    make_net,
    objective_value,
    sample_box,
    validate,
)
from sdpverify.analysis import trace_bounds
from sdpverify.network import Network, predict
from sdpverify.sdpform import (
    VARIANT_NAMES,
    Block,
    Constraint,
    Coo,
    SdpProblem,
    Variant,
    VariableLayout,
    build_relaxation,
    build_strict_feasibility,
    dscale_diagonal,
    strict_feasibility_value,
    to_standard_form,
)
from sdpverify.solver import SolverConfig, solve


def _family(label):
    return label.split("[")[0]


def _census(prob):
    out = {}
    for c in prob.constraints:
        out[_family(c.label)] = out.get(_family(c.label), 0) + 1
    return out


def _hand_sdp(dim, rows):
    """Equality-constrained SDP on one psd block; rows are (matrix, rhs, label)."""
    cons = [
        Constraint({0: coo(A)}, float(b), "=", lab)
        for A, b, lab in rows
    ]
    return SdpProblem(
        blocks=(Block("psd", dim), ),
        objective={},
        obj_offset=0.0,
        constraints=cons,
    )


def _radius(prob, gap=1e-9):
    sf = build_strict_feasibility(to_standard_form(prob))
    sol = solve(sf, SolverConfig(gap_tol=gap, feas_tol=1e-9))
    return strict_feasibility_value(sol), sol


def test_base_constraint_census(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)
    prob = build_relaxation(tiny_net, bounds, 1, Variant.base())
    validate(prob)
    # one relu neuron: unit + pos + aff + comp + box on both moment layers
    assert prob.blocks == (Block("psd", 3),)
    assert prob.num_constraints == 6
    assert _census(prob) == {
        "unit": 1,
        "relu-pos": 1,
        "relu-aff": 1,
        "relu-comp": 1,
        "box": 2,
    }
    assert prob.constraints[0].label == "unit"
    senses = {c.label: c.sense for c in prob.constraints}
    assert senses["relu-pos[0][0]"] == ">="
    assert senses["relu-aff[0][0]"] == ">="
    assert senses["relu-comp[0][0]"] == "="
    assert senses["box[0][0]"] == "<="


def test_variant_constraint_families(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)

    prob = build_relaxation(tiny_net, bounds, 1, Variant("bremove"))
    assert _census(prob) == {"unit": 1, "relu-pos": 1, "relu-aff": 1,
                             "relu-comp": 1, "box": 1}
    assert all("box[1]" not in c.label for c in prob.constraints)

    prob = build_relaxation(tiny_net, bounds, 1, Variant("problem-a"))
    assert _census(prob) == {"unit": 1, "relu-pos": 1, "relu-aff": 1, "box": 2}

    prob = build_relaxation(tiny_net, bounds, 1, Variant("eps", eps=0.01))
    census = _census(prob)
    assert census["relu-comp-ub"] == 1 and census["relu-comp-lb"] == 1
    senses = {c.label: (c.sense, c.rhs) for c in prob.constraints}
    assert senses["relu-comp-ub[0][0]"] == ("<=", 0.01)
    assert senses["relu-comp-lb[0][0]"] == (">=", -0.01)

    prob = build_relaxation(tiny_net, bounds, 1, Variant("leaky", alpha=0.01))
    census = _census(prob)
    assert census["relu-leak"] == 1 and "relu-pos" not in census
    assert census["relu-comp-ub"] == 1  # one-sided under the leaky slope


def test_variants_build_distinct_rows(tiny_net):
    """No two variant names build the same constraint system."""
    bounds = boxed(tiny_net, [1.0], 0.5)

    def rows(name):
        prob = build_relaxation(tiny_net, bounds, 1, Variant(name))
        return [(c.label, c.sense, c.rhs,
                 sorted((k, A.toarray().tolist())
                        for k, A in c.terms.items()))
                for c in prob.constraints]

    built = {name: rows(name) for name in VARIANT_NAMES}
    for a, b in itertools.combinations(VARIANT_NAMES, 2):
        assert built[a] != built[b], f"{a} and {b} build the same rows"


def test_builder_is_deterministic(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)
    a = build_relaxation(tiny_net, bounds, 1, Variant.base())
    b = build_relaxation(tiny_net, bounds, 1, Variant.base())
    assert [c.label for c in a.constraints] == [c.label for c in b.constraints]
    assert np.array_equal(a.rhs_vector(), b.rhs_vector())


def _entrywise_rows(net, bounds, target, variant):
    """(label, sense, rhs, entries) per row, written weight by weight from
    the formulas: an entry (p, q, c) adds c P[p, q] to the row."""
    off = np.cumsum([1] + list(net.layer_sizes)).tolist()  # layer i starts at off[i]
    rows = [("unit", "=", 1.0, [(0, 0, 1.0)])]
    for i, (W, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        out, ins = off[i + 1], off[i]

        def lin(j, s):
            return [(0, out + j, 1.0)] + [(0, ins + k, s * W[j, k]) for k in range(W.shape[1])]

        def comp(j):
            return ([(out + j, out + j, 1.0)] + [(ins + k, out + j, -W[j, k])
                    for k in range(W.shape[1])] + [(0, out + j, -b[j])])

        if variant.name == "leaky":
            rows += [(f"relu-leak[{i}][{j}]", ">=", variant.alpha * b[j],
                      lin(j, -variant.alpha)) for j in range(len(b))]
        else:
            rows += [(f"relu-pos[{i}][{j}]", ">=", 0.0, [(0, out + j, 1.0)])
                     for j in range(len(b))]
        rows += [(f"relu-aff[{i}][{j}]", ">=", b[j], lin(j, -1.0)) for j in range(len(b))]
        comps = {"eps": [("relu-comp-ub", "<=", variant.eps),
                         ("relu-comp-lb", ">=", -variant.eps)],
                 "leaky": [("relu-comp-ub", "<=", 0.0)],
                 "problem-a": []}.get(variant.name, [("relu-comp", "=", 0.0)])
        for name, sense, rhs in comps:
            rows += [(f"{name}[{i}][{j}]", sense, rhs, comp(j)) for j in range(len(b))]
    for i in [0] if variant.name == "bremove" else range(bounds.num_layers):
        l, u = bounds.boxes[i]
        rows += [(f"box[{i}][{j}]", "<=", -l[j] * u[j],
                  [(off[i] + j, off[i] + j, 1.0), (0, off[i] + j, -(l[j] + u[j]))])
                 for j in range(len(l))]
    s = predict(net, bounds.center)
    c = net.weights[-1][s] - net.weights[-1][target]
    return rows, [(0, off[-2] + j, c[j]) for j in range(len(c))]


def _entrywise_coo(entries, dim):
    """Nonzero weights kept, off-diagonal ones halved into both slots."""
    rows, cols, vals = [], [], []
    for p, q, c in entries:
        if c != 0.0:
            slots = [(p, q, c)] if p == q else [(p, q, c / 2.0), (q, p, c / 2.0)]
            for r, k, v in slots:
                rows.append(r)
                cols.append(k)
                vals.append(v)
    return Coo.of(rows, cols, vals, (dim, dim))


def test_relaxation_matches_an_entrywise_reference(tiny_net):
    """The vectorized builder stores exactly the terms, rhs (-0.0 included),
    senses and labels of a builder that adds one weight at a time, on zero
    biases, eps = 0, the [0, 0] boxes of unpruned dead neurons and a deep
    pruned net."""
    from sdpverify.cli import _competitors, prepare_instance, random_instance

    cases = [(tiny_net, boxed(tiny_net, [1.0], 0.5), 1)]
    for depth, prune in [(4, False), (12, True)]:
        prep = prepare_instance(*random_instance(depth, 8, seed=0), 0.1, prune=prune)
        cases.append((prep.net, prep.bounds, _competitors(prep, None)[0]))
    variants = [Variant(n) for n in VARIANT_NAMES] + [Variant("eps", eps=0.0)]
    for (net, bounds, target), variant in itertools.product(cases, variants):
        prob = build_relaxation(net, bounds, target, variant)
        rows, objective = _entrywise_rows(net, bounds, target, variant)
        dim = prob.blocks[0].dim
        assert [(c.label, c.sense) for c in prob.constraints] == [r[:2] for r in rows]
        pairs = [(prob.objective[0], _entrywise_coo(objective, dim))]
        for c, (_, _, rhs, entries) in zip(prob.constraints, rows):
            assert np.float64(c.rhs).tobytes() == np.float64(rhs).tobytes(), c.label
            pairs.append((c.terms[0], _entrywise_coo(entries, dim)))
        for got, want in pairs:
            assert got.shape == want.shape
            for x, y in zip(got[:3], want[:3]):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_layout_indexing():
    rng = np.random.default_rng(20)
    net = make_net(rng, [2, 3, 2, 2])
    bounds = boxed(net, [0.0, 0.0], 0.3)
    target = 1 - predict(net, np.zeros(2))
    prob = build_relaxation(net, bounds, target, Variant.base())
    layout = VariableLayout(net.layer_sizes)
    assert layout.dim == 1 + 2 + 3 + 2
    assert layout.offsets[0] == 1
    sl = layout.layer_slice(1)
    assert sl.stop - sl.start == 3
    assert prob.blocks[0].dim == layout.dim


def test_rank_one_traces_are_feasible():
    """Moment matrices of true forward traces satisfy every variant."""
    for seed in range(10):
        rng = np.random.default_rng([21, seed])
        net = make_net(rng, [2, 3, 2, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        target = 1 - predict(net, center)
        xs = sample_box(rng, bounds, 20)
        for name in VARIANT_NAMES:
            prob = build_relaxation(net, bounds, target, Variant(name))
            for x in xs:
                acts = activations(net, x)
                P = lifted_point(VariableLayout(net.layer_sizes), acts)
                assert constraint_violations(prob, [P]).max() <= 1e-9
                out = net.weights[-1] @ acts[-1] + net.biases[-1]
                margin = out[predict(net, center)] - out[target]
                assert abs(objective_value(prob, [P]) - margin) <= 1e-10


def test_trace_caps_on_lifted_points(tiny_net):
    """Feasible rank-one points against the trace caps of criterion 9.

    The box rows prove tr(P) <= 1 + sum max(l^2, u^2) for problem-a, and
    the trace recursion proves tr(P) <= 1 + sum T_i for bremove; the
    unit entry P_00 = 1 counts in both.  Lifted forward traces refute the
    half-sum cap and the cap without the unit entry, and attain the box cap.
    """
    def lifted(net, x, variant):
        bounds = boxed(net, [1.0], 0.5)
        prob = build_relaxation(net, bounds, 1, variant)
        P = lifted_point(VariableLayout(net.layer_sizes),
                         activations(net, np.array([x])))
        assert constraint_violations(prob, [P]).max() <= 1e-9
        return float(np.trace(P)), bounds

    # problem-a, both boxes [0.5, 1.5]
    tr, bounds = lifted(tiny_net, 1.0, Variant("problem-a"))
    half_sum = 0.5 * sum(float((bounds.upper(i) ** 2).sum() + (bounds.lower(i) ** 2).sum())
                         for i in range(bounds.num_layers))
    assert (tr, half_sum) == (3.0, 2.5)
    tr, bounds = lifted(tiny_net, 1.5, Variant("problem-a"))
    assert tr == box_trace_cap(bounds) == 5.5

    # bremove on a contracting layer, T = (2.25, 0.0325)
    shrunk = Network((np.array([[0.1]]),) + tiny_net.weights[1:], tiny_net.biases)
    tr, _ = lifted(shrunk, 1.5, Variant("bremove"))
    T = trace_bounds(shrunk, np.array([1.0]), 0.5)
    assert T.sum() < tr <= 1.0 + T.sum()
    assert abs(tr - 3.2725) <= 1e-12 and abs(1.0 + T.sum() - 3.2825) <= 1e-12


def test_epsilon_zero_recovers_base_optimum():
    # at eps=0 the two one-sided rows pin their slacks at zero, so the
    # status flag may report a stall short of the 1e-10 target; the best
    # iterate is still certified by its own gap and residuals
    for seed in range(8):
        rng = np.random.default_rng([33, seed])
        net = make_net(rng, [2, 2, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        target = 1 - predict(net, center)
        vals = []
        for variant in (Variant.base(), Variant("eps", eps=0.0)):
            prob = build_relaxation(net, bounds, target, variant)
            sol = solve(to_standard_form(prob),
                        SolverConfig(gap_tol=1e-10, feas_tol=1e-9))
            assert abs(sol.gap) <= 1e-7
            assert max(sol.primal_res, sol.dual_res) <= 1e-8
            vals.append(sol.primal_obj + prob.obj_offset)
        assert abs(vals[0] - vals[1]) <= 1e-7


def test_looser_variants_never_beat_base():
    for seed in range(3):
        rng = np.random.default_rng([22, seed])
        net = make_net(rng, [2, 3, 3, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        target = 1 - predict(net, center)
        gammas = {}
        for name in VARIANT_NAMES:
            prob = build_relaxation(net, bounds, target, Variant(name))
            sol = solve(to_standard_form(prob), SolverConfig())
            assert sol.status == "Optimal"
            gammas[name] = sol.primal_obj + prob.obj_offset
        for name in VARIANT_NAMES[1:]:
            assert gammas[name] <= gammas["base"] + 1e-6


def test_builder_rejects_bad_arguments(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)
    with pytest.raises(ValueError):
        build_relaxation(tiny_net, bounds, 0, Variant.base())  # predicted label
    with pytest.raises(ValueError):
        Variant("eps", eps=-0.1)
    with pytest.raises(ValueError):
        Variant("leaky", alpha=0.0)
    with pytest.raises(ValueError):
        Variant("leaky", alpha=1.0)
    with pytest.raises(ValueError):
        Variant("nope")


def test_dscale_is_identity_on_unit_bounds():
    # box [0,1] makes both the input scale and the hidden upper bound 1
    net = Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.0]), np.array([0.0, 0.0])),
    )
    bounds = boxed(net, [0.5], 0.5)
    prob = build_relaxation(net, bounds, 1, Variant.base())
    scaled = build_relaxation(net, bounds, 1, Variant.base(), dscale=True)
    assert np.array_equal(dscale_diagonal(bounds), np.ones(3))
    for c0, c1 in zip(prob.constraints, scaled.constraints):
        assert np.allclose(c0.terms[0].toarray(), c1.terms[0].toarray(), atol=0)


def test_dscale_preserves_optimum_and_unscales():
    for seed in range(3):
        rng = np.random.default_rng([23, seed])
        net = make_net(rng, [2, 3, 2, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        target = 1 - predict(net, center)
        prob = build_relaxation(net, bounds, target, Variant.base())
        scaled = build_relaxation(net, bounds, target, Variant.base(), dscale=True)
        cfg = SolverConfig(gap_tol=1e-8)
        plain = solve(to_standard_form(prob), cfg)
        conj = solve(to_standard_form(scaled), cfg)
        assert plain.status == "Optimal" and conj.status == "Optimal"
        assert abs(plain.primal_obj - conj.primal_obj) <= 1e-6
        # pulled-back solution must satisfy the unscaled constraints
        d = dscale_diagonal(bounds)
        X = conj.xblocks[0] * np.outer(d, d)
        viol = constraint_violations(prob, [X])
        assert viol.max() <= 1e-6


def test_dscale_rejects_dead_neurons(tiny_net):
    # box [0.5, 1.5]: input scale 1.5, hidden upper bound 1.5
    bounds = boxed(tiny_net, [1.0], 0.5)
    assert np.array_equal(dscale_diagonal(bounds), [1.0, 1.5, 1.5])
    # a dead hidden neuron leaves u = 0, which cannot scale
    dead = Network(
        (np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])),
        (np.array([0.0, -100.0]), np.array([0.0])),
    )
    dbounds = boxed(dead, [1.0], 0.5)
    dtarget_net = Network(
        (dead.weights[0], np.array([[1.0, 1.0], [0.0, 0.0]])),
        (dead.biases[0], np.array([0.0, 0.0])),
    )
    build_relaxation(dtarget_net, dbounds, 1, Variant.base())
    with pytest.raises(ValueError, match="prune inactive neurons"):
        build_relaxation(dtarget_net, dbounds, 1, Variant.base(), dscale=True)
    with pytest.raises(ValueError, match="prune inactive neurons"):
        dscale_diagonal(dbounds)


def test_standard_form_slack_accounting():
    A = np.eye(2)
    rows = [
        Constraint({0: coo(A)}, 1.0, "<=", "a"),
        Constraint({0: coo(A)}, -1.0, ">=", "b"),
        Constraint({0: coo(np.diag([1.0, 0.0]))}, 0.5, "<=", "c"),
        Constraint({0: coo(A)}, 1.0, "=", "d"),
        Constraint({0: coo(np.diag([0.0, 1.0]))}, 0.25, "=", "e"),
    ]
    prob = SdpProblem(blocks=(Block("psd", 2),), objective={},
                      obj_offset=0.0, constraints=rows)
    std = to_standard_form(prob)
    validate(std)
    assert all(c.sense == "=" for c in std.constraints)
    assert std.num_constraints == 5
    # one slack per inequality, in a diagonal block after the psd one
    assert std.blocks == (Block("psd", 2), Block("diag", 3))


def test_standard_form_noop_on_equalities():
    prob = _hand_sdp(2, [(np.eye(2), 1.0, "tr")])
    assert to_standard_form(prob) is prob


def test_standard_form_preserves_optimum():
    # min x11 subject to x11 >= 1: slack formulation still bottoms at 1
    prob = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={0: coo([[1.0]])},
        obj_offset=0.0,
        constraints=[Constraint({0: coo([[1.0]])}, 1.0, ">=", "floor")],
    )
    sol = solve(to_standard_form(prob), SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
    assert sol.status == "Optimal"
    assert abs(sol.primal_obj - 1.0) <= 1e-7


def test_inscribed_ball_unit_trace():
    # {tr X = 1} on a 1x1 block: X + lambda = 1 with X >= 0 reaches lambda = 1
    lam, sol = _radius(_hand_sdp(1, [([[1.0]], 1.0, "tr")]))
    assert sol.status == "Optimal"
    assert abs(lam - 1.0) <= 1e-7


def test_inscribed_ball_pinned_diagonal():
    # a forced-zero diagonal entry leaves no room in the identity direction
    lam, sol = _radius(
        _hand_sdp(2, [([[1.0, 0.0], [0.0, 0.0]], 0.0, "pin"), (np.eye(2), 1.0, "tr")])
    )
    assert sol.status == "Optimal"
    assert abs(lam) <= 1e-7


def test_inscribed_ball_infeasible_is_negative():
    # X = -1 - lambda needs lambda <= -1 before X reaches the cone
    lam, sol = _radius(_hand_sdp(1, [([[1.0]], -1.0, "neg")]))
    assert sol.status == "Optimal"
    assert abs(lam + 1.0) <= 1e-7


def test_inscribed_ball_free_variable_plumbing():
    prob = _hand_sdp(1, [([[1.0]], 1.0, "tr")])
    sf = build_strict_feasibility(to_standard_form(prob))
    lam_block = len(sf.blocks) - 1
    assert sf.blocks[lam_block] == Block("free", 1)
    # the recast constraint carries tr(A) as the lambda coefficient
    assert np.allclose(sf.constraints[0].terms[lam_block].toarray(), [[1.0]])


def test_inscribed_ball_shift_skips_slack():
    # {x <= 2}: slack absorbs the gap, the ball only measures the psd block
    prob = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: coo([[1.0]])}, 2.0, "<=", "cap")],
    )
    std = to_standard_form(prob)
    sf = build_strict_feasibility(std)
    lam_block = len(sf.blocks) - 1
    assert sf.blocks[lam_block] == Block("free", 1)
    assert np.allclose(sf.constraints[0].terms[lam_block].toarray(), [[1.0]])
    sol = solve(sf, SolverConfig(gap_tol=1e-9, feas_tol=1e-9))
    assert abs(strict_feasibility_value(sol) - 2.0) <= 1e-7


def test_inscribed_ball_rejects_inequalities():
    prob = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: coo([[1.0]])}, 1.0, "<=", "cap")],
    )
    with pytest.raises(ValueError):
        build_strict_feasibility(prob)


def test_dead_neuron_kills_the_interior():
    # an unpruned zero-upper-bound neuron pins its diagonal, so no ball fits
    net = Network(
        (np.array([[1.0], [1.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
        (np.array([0.0, -100.0]), np.array([0.0, 0.0])),
    )
    bounds = boxed(net, [1.0], 0.5)
    prob = build_relaxation(net, bounds, 1, Variant.base())
    lam, sol = _radius(prob, gap=1e-8)
    assert lam <= 1e-7


def test_validate_catches_malformed_problems():
    asym = SdpProblem(
        blocks=(Block("psd", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[
            Constraint({0: coo(np.array([[0.0, 1.0], [0.0, 0.0]]))},
                       0.0, "=", "asym")
        ],
    )
    with pytest.raises(ValueError):
        validate(asym)
    offdiag = SdpProblem(
        blocks=(Block("diag", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[
            Constraint({0: coo(np.array([[0.0, 1.0], [1.0, 0.0]]))},
                       0.0, "=", "offdiag")
        ],
    )
    with pytest.raises(ValueError):
        validate(offdiag)
    bad_sense = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: coo([[1.0]])}, 0.0, "<", "bad")],
    )
    with pytest.raises(ValueError):
        validate(bad_sense)
    bad_index = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({3: coo([[1.0]])}, 0.0, "=", "idx")],
    )
    with pytest.raises(ValueError):
        validate(bad_index)


def _scipy_of(row, col, data, shape):
    """The entries as the scipy-based builder stored them: one scipy coo
    matrix per term, after `sum_duplicates`."""
    m = sp.coo_matrix((data, (row, col)), shape=shape)
    m.sum_duplicates()
    return Coo(m.row, m.col, m.data, m.shape)


def _term_path_problems(monkeypatch):
    """Every problem the scipy-free term path builds on the pinned fixtures:
    all variants at depth 12 with and without scaling, their standard and
    strict-feasibility forms, every oracle LP at depth 2, and one row whose
    entries cancel to explicit zeros and repeat a position."""
    from sdpverify import oracle, solver
    from sdpverify.cli import _competitors, prepare_instance, random_instance

    out = []
    prep = prepare_instance(*random_instance(12, 8, seed=0), 0.1)
    target = _competitors(prep, None)[0]
    for name in VARIANT_NAMES:
        for dscale in (False, True):
            p = build_relaxation(prep.net, prep.bounds, target, Variant(name),
                                 dscale=dscale)
            std = to_standard_form(p)
            out += [p, std, build_strict_feasibility(std)]

    real = solver.solve

    def record(prob, config=None):
        out.append(prob)
        return real(prob, config)

    monkeypatch.setattr(solver, "solve", record)
    prep = prepare_instance(*random_instance(2, 8, seed=0), 0.1)
    oracle.exact_gamma(prep.net, prep.bounds, _competitors(prep, None)[0])
    monkeypatch.setattr(solver, "solve", real)

    cancel = Coo.of([0, 1, 2, 1, 0, 2, 1, 2, 1], [1, 0, 2, 0, 1, 2, 1, 2, 1],
                    [0.25, 0.25, 0.1, -0.25, -0.25, 0.2, 1.0, 0.3, -1.0], (3, 3))
    out.append(SdpProblem((Block("psd", 3),), {0: cancel}, 0.0, []))
    return out


def test_coo_terms_match_the_scipy_path_bit_for_bit(monkeypatch):
    new = _term_path_problems(monkeypatch)
    monkeypatch.setattr(Coo, "of", classmethod(lambda cls, *args: _scipy_of(*args)))
    old = _term_path_problems(monkeypatch)
    monkeypatch.undo()
    assert len(new) == len(old) > 30
    assert {len(p.blocks) for p in new[30:-1]} == {2, 3}  # both oracle LPs
    for a, b in zip(new, old):
        assert a.blocks == b.blocks
        assert np.array_equal(a.rhs_vector(), b.rhs_vector())
        for ta, tb in zip([a.objective] + [c.terms for c in a.constraints],
                          [b.objective] + [c.terms for c in b.constraints]):
            assert ta.keys() == tb.keys()
            for k in ta:
                # relaxation rows bypass Coo.of, so compare them to scipy too
                for x, y, z in zip(ta[k][:3], tb[k][:3], _scipy_of(*ta[k])):
                    assert np.array_equal(x, y) and np.array_equal(x, z)
                assert ta[k].nnz == tb[k].nnz
    zeros = new[-1].objective[0]
    assert zeros.nnz == 4 and (zeros.data == 0.0).sum() == 3


def _hubs(mat: Coo) -> set:
    """Every r whose row and column hold all nonzeros of `mat`."""
    row, col = mat.row[mat.data != 0], mat.col[mat.data != 0]
    return {int(r) for r in (row[:1].tolist() + col[:1].tolist())
            if ((row == r) | (col == r)).all()}


def test_every_relaxation_row_is_a_hub_row(tiny_net):
    """Every constraint and objective of every variant is sym(e_r g^T):
    its nonzeros lie in row r and column r, unscaled and scaled alike; r
    is 0 for all but the complementarity and box rows."""
    from sdpverify.cli import _competitors, prepare_instance, random_instance

    prep = prepare_instance(*random_instance(12, 8, seed=0), 0.1)
    cases = [(tiny_net, boxed(tiny_net, [1.0], 0.5), 1),
             (prep.net, prep.bounds, _competitors(prep, None)[0])]
    for net, bounds, target in cases:
        for name in VARIANT_NAMES:
            for dscale in (False, True):
                p = build_relaxation(net, bounds, target, Variant(name),
                                     dscale=dscale)
                assert 0 in _hubs(p.objective[0])
                for c in p.constraints:
                    hubs = _hubs(c.terms[0])
                    assert hubs, c.label
                    own = c.label.startswith(("relu-comp", "box"))
                    assert (0 not in hubs) == own, c.label


def test_scaled_terms_are_the_plain_terms_times_d_r_d_c():
    """`dscale=True` keeps every term's entries where they are and
    multiplies each by d[row] * d[col], the product D M D forms."""
    from sdpverify.cli import _competitors, prepare_instance, random_instance

    prep = prepare_instance(*random_instance(12, 8, seed=0), 0.1)
    target = _competitors(prep, None)[0]
    d = dscale_diagonal(prep.bounds)
    for name in VARIANT_NAMES:
        plain, scaled = (build_relaxation(prep.net, prep.bounds, target,
                                          Variant(name), dscale=dscale)
                         for dscale in (False, True))
        assert scaled.blocks == plain.blocks
        assert scaled.obj_offset == plain.obj_offset
        assert np.array_equal(scaled.rhs_vector(), plain.rhs_vector())
        pairs = [(plain.objective[0], scaled.objective[0])]
        pairs += [(a.terms[0], b.terms[0])
                  for a, b in zip(plain.constraints, scaled.constraints, strict=True)]
        for a, b in pairs:
            assert np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
            assert np.array_equal(b.data, a.data * d[a.row] * d[a.col])
