"""Relaxation assembly, scaling, standard form, and the inscribed-ball recast."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import box_trace_cap, boxed, make_net, sample_box
from sdpverify.analysis import trace_bounds
from sdpverify.network import Network, activations, predict
from sdpverify.sdpform import (
    VARIANT_NAMES,
    Block,
    Constraint,
    SdpProblem,
    Variant,
    apply_dscale,
    build_relaxation,
    build_strict_feasibility,
    constraint_violations,
    lifted_point,
    objective_value,
    read_sdpa,
    strict_feasibility_value,
    to_standard_form,
    unscale_psd_block,
    write_sdpa,
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
        Constraint({0: sp.coo_matrix(np.asarray(A, dtype=float))}, float(b), "=", lab)
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
    prob.validate()
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

    prob = build_relaxation(tiny_net, bounds, 1, Variant.bremove())
    assert _census(prob) == {"unit": 1, "relu-pos": 1, "relu-aff": 1,
                             "relu-comp": 1, "box": 1}
    assert all("box[1]" not in c.label for c in prob.constraints)

    prob = build_relaxation(tiny_net, bounds, 1, Variant.problem_a())
    assert _census(prob) == {"unit": 1, "relu-pos": 1, "relu-aff": 1, "box": 2}

    prob = build_relaxation(tiny_net, bounds, 1, Variant.epsilon(0.01))
    census = _census(prob)
    assert census["relu-comp-ub"] == 1 and census["relu-comp-lb"] == 1
    senses = {c.label: (c.sense, c.rhs) for c in prob.constraints}
    assert senses["relu-comp-ub[0][0]"] == ("<=", 0.01)
    assert senses["relu-comp-lb[0][0]"] == (">=", -0.01)

    prob = build_relaxation(tiny_net, bounds, 1, Variant.leaky(0.01))
    census = _census(prob)
    assert census["relu-leak"] == 1 and "relu-pos" not in census
    assert census["relu-comp-ub"] == 1  # one-sided under the leaky slope


def test_variants_build_distinct_rows(tiny_net):
    """No two variant names build the same constraint system."""
    bounds = boxed(tiny_net, [1.0], 0.5)

    def rows(name):
        prob = build_relaxation(tiny_net, bounds, 1, Variant.parse(name))
        return [(c.label, c.sense, c.rhs,
                 sorted((k, sp.csr_matrix(A).toarray().tolist())
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


def test_layout_indexing():
    rng = np.random.default_rng(20)
    net = make_net(rng, [2, 3, 2, 2])
    bounds = boxed(net, [0.0, 0.0], 0.3)
    target = 1 - predict(net, np.zeros(2))
    prob = build_relaxation(net, bounds, target, Variant.base())
    layout = prob.layout
    assert layout.dim == 1 + 2 + 3 + 2
    assert layout.index(0, 0) == 1
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
            prob = build_relaxation(net, bounds, target, Variant.parse(name))
            for x in xs:
                acts = activations(net, x)
                P = lifted_point(prob.layout, acts)
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
        P = lifted_point(prob.layout, activations(net, np.array([x])))
        assert constraint_violations(prob, [P]).max() <= 1e-9
        return float(np.trace(P)), bounds

    # problem-a, both boxes [0.5, 1.5]
    tr, bounds = lifted(tiny_net, 1.0, Variant.problem_a())
    half_sum = 0.5 * sum(float((bounds.upper(i) ** 2).sum() + (bounds.lower(i) ** 2).sum())
                         for i in range(bounds.num_layers))
    assert (tr, half_sum) == (3.0, 2.5)
    tr, bounds = lifted(tiny_net, 1.5, Variant.problem_a())
    assert tr == box_trace_cap(bounds) == 5.5

    # bremove on a contracting layer, T = (2.25, 0.0325)
    shrunk = Network((np.array([[0.1]]),) + tiny_net.weights[1:], tiny_net.biases)
    tr, _ = lifted(shrunk, 1.5, Variant.bremove())
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
        for variant in (Variant.base(), Variant.epsilon(0.0)):
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
            prob = build_relaxation(net, bounds, target, Variant.parse(name))
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
        Variant.epsilon(-0.1)
    with pytest.raises(ValueError):
        Variant.leaky(0.0)
    with pytest.raises(ValueError):
        Variant.leaky(1.0)
    with pytest.raises(ValueError):
        Variant.parse("nope")


def test_dscale_is_identity_on_unit_bounds():
    # box [0,1] makes both the input scale and the hidden upper bound 1
    net = Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.0]), np.array([0.0, 0.0])),
    )
    bounds = boxed(net, [0.5], 0.5)
    prob = build_relaxation(net, bounds, 1, Variant.base())
    scaled = apply_dscale(prob, bounds)
    assert np.array_equal(scaled.dscale, np.ones(3))
    for c0, c1 in zip(prob.constraints, scaled.constraints):
        assert np.allclose(c0.terms[0].toarray(), c1.terms[0].toarray(), atol=0)


def test_dscale_carried_through_standard_and_strict_forms(tiny_net):
    # box [0.5, 1.5]: input scale 1.5, hidden upper bound 1.5
    bounds = boxed(tiny_net, [1.0], 0.5)
    prob = build_relaxation(tiny_net, bounds, 1, Variant.base())
    assert prob.dscale is None
    sf = build_strict_feasibility(to_standard_form(apply_dscale(prob, bounds)))
    assert np.array_equal(sf.dscale, [1.0, 1.5, 1.5])


def test_dscale_preserves_optimum_and_unscales():
    for seed in range(3):
        rng = np.random.default_rng([23, seed])
        net = make_net(rng, [2, 3, 2, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        target = 1 - predict(net, center)
        prob = build_relaxation(net, bounds, target, Variant.base())
        scaled = apply_dscale(prob, bounds)
        cfg = SolverConfig(gap_tol=1e-8)
        plain = solve(to_standard_form(prob), cfg)
        conj = solve(to_standard_form(scaled), cfg)
        assert plain.status == "Optimal" and conj.status == "Optimal"
        assert abs(plain.primal_obj - conj.primal_obj) <= 1e-6
        # pulled-back solution must satisfy the unscaled constraints
        std = to_standard_form(scaled)
        X = unscale_psd_block(std, conj.xblocks[0])
        viol = constraint_violations(prob, [X])
        assert viol.max() <= 1e-6


def test_dscale_rejects_double_and_dead(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)
    prob = build_relaxation(tiny_net, bounds, 1, Variant.base())
    scaled = apply_dscale(prob, bounds)
    with pytest.raises(ValueError):
        apply_dscale(scaled, bounds)
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
    dprob = build_relaxation(dtarget_net, dbounds, 1, Variant.base())
    with pytest.raises(ValueError):
        apply_dscale(dprob, dbounds)


def test_standard_form_slack_accounting():
    A = np.eye(2)
    rows = [
        Constraint({0: sp.coo_matrix(A)}, 1.0, "<=", "a"),
        Constraint({0: sp.coo_matrix(A)}, -1.0, ">=", "b"),
        Constraint({0: sp.coo_matrix(np.diag([1.0, 0.0]))}, 0.5, "<=", "c"),
        Constraint({0: sp.coo_matrix(A)}, 1.0, "=", "d"),
        Constraint({0: sp.coo_matrix(np.diag([0.0, 1.0]))}, 0.25, "=", "e"),
    ]
    prob = SdpProblem(blocks=(Block("psd", 2),), objective={},
                      obj_offset=0.0, constraints=rows)
    std = to_standard_form(prob)
    std.validate()
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
        objective={0: sp.coo_matrix([[1.0]])},
        obj_offset=0.0,
        constraints=[Constraint({0: sp.coo_matrix([[1.0]])}, 1.0, ">=", "floor")],
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
        constraints=[Constraint({0: sp.coo_matrix([[1.0]])}, 2.0, "<=", "cap")],
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
        constraints=[Constraint({0: sp.coo_matrix([[1.0]])}, 1.0, "<=", "cap")],
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


def test_sdpa_round_trip(tmp_path):
    from helpers import planted_instance

    rng = np.random.default_rng(24)
    prob, _, _ = planted_instance(rng, (3,), (2,), m=4)
    path = tmp_path / "inst.dat-s"
    write_sdpa(prob, path)
    back = read_sdpa(path)
    assert back.blocks == prob.blocks
    assert np.allclose(back.rhs_vector(), prob.rhs_vector(), atol=0)
    for c0, c1 in zip(prob.constraints, back.constraints):
        for bidx in c0.terms:
            assert np.array_equal(c0.terms[bidx].toarray(), c1.terms[bidx].toarray())
    for bidx in prob.objective:
        assert np.array_equal(
            prob.objective[bidx].toarray(), back.objective[bidx].toarray()
        )


def test_sdpa_rejects_free_blocks(tmp_path):
    prob = _hand_sdp(1, [([[1.0]], 1.0, "tr")])
    sf = build_strict_feasibility(to_standard_form(prob))
    with pytest.raises(ValueError):
        write_sdpa(sf, tmp_path / "free.dat-s")


def test_validate_catches_malformed_problems():
    asym = SdpProblem(
        blocks=(Block("psd", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[
            Constraint({0: sp.coo_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))},
                       0.0, "=", "asym")
        ],
    )
    with pytest.raises(ValueError):
        asym.validate()
    offdiag = SdpProblem(
        blocks=(Block("diag", 2),),
        objective={},
        obj_offset=0.0,
        constraints=[
            Constraint({0: sp.coo_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))},
                       0.0, "=", "offdiag")
        ],
    )
    with pytest.raises(ValueError):
        offdiag.validate()
    bad_sense = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({0: sp.coo_matrix([[1.0]])}, 0.0, "<", "bad")],
    )
    with pytest.raises(ValueError):
        bad_sense.validate()
    bad_index = SdpProblem(
        blocks=(Block("psd", 1),),
        objective={},
        obj_offset=0.0,
        constraints=[Constraint({3: sp.coo_matrix([[1.0]])}, 0.0, "=", "idx")],
    )
    with pytest.raises(ValueError):
        bad_index.validate()
