"""Analytic trace/eigenvalue bounds, verdict folding, and report formats."""

import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import make_net, sym
from sdpverify.analysis import (
    SWEEP_CSV_COLUMNS,
    BoundReport,
    SolveSummary,
    SweepRow,
    TargetResult,
    VerificationReport,
    diagonal_bounds,
    format_sweep_csv,
    min_eig_bound,
    min_eigenvalue,
    trace_bounds,
    verdict,
)
from sdpverify.network import Network


def _one_one_net(w=1.0, b=0.0):
    return Network(
        (np.array([[w]]), np.array([[1.0], [0.0]])),
        (np.array([b]), np.array([0.0, 0.0])),
    )


def test_trace_bound_recursion():
    # ||W~||_F^2 = 3 with the unit bias column, T_1 = (1 + T_0) * 3
    net = Network(
        (np.array([[1.0, 1.0]]), np.array([[1.0], [0.0]])),
        (np.array([1.0]), np.array([0.0, 0.0])),
    )
    T = trace_bounds(net, np.zeros(2), 1.0)
    assert T.shape == (2,)
    assert np.allclose(T, [2.0, 9.0], atol=1e-12)


def test_trace_bound_accepts_zero_radius():
    net = Network(
        (np.array([[1.0, 1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.0]), np.array([0.0, 0.0])),
    )
    T = trace_bounds(net, np.array([3.0, 4.0]), 0.0)
    assert abs(T[0] - 25.0) <= 1e-12
    with pytest.raises(ValueError):
        trace_bounds(net, np.array([3.0, 4.0]), -0.1)


def test_min_eig_bound_hand_value():
    # W~ = (0, 1), center 1, rho 0.5: T_0 = 2.25 and the cap is 3.25
    net = _one_one_net()
    assert abs(min_eig_bound(net, np.array([1.0]), 0.5) - 3.25) <= 1e-12
    T = trace_bounds(net, np.array([1.0]), 0.5)
    assert np.allclose(T, [2.25, 3.25], atol=1e-12)


def test_zero_extended_row_forces_zero_bound():
    net = Network(
        (np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]])),
        (np.array([0.0, 0.0]), np.array([0.0])),
    )
    assert min_eig_bound(net, np.array([1.0]), 0.5) == 0.0


def test_diagonal_bounds_shapes_and_values():
    rng = np.random.default_rng(50)
    net = make_net(rng, [2, 3, 2, 2])
    center = rng.normal(size=2)
    T = trace_bounds(net, center, 0.3)
    caps = diagonal_bounds(net, center, 0.3)
    assert len(caps) == net.num_hidden
    for i, cap in enumerate(caps):
        want = (1.0 + T[i]) * (net.extended(i) ** 2).sum(axis=1)
        assert np.allclose(cap, want, atol=1e-12)
    assert min_eig_bound(net, center, 0.3) == min(c.min() for c in caps)


def test_min_eigenvalue():
    assert abs(min_eigenvalue(np.eye(3)) - 1.0) <= 1e-12
    assert abs(min_eigenvalue(np.diag([0.0, 1.0]))) <= 1e-12
    for seed in range(5):
        rng = np.random.default_rng([51, seed])
        d = np.sort(rng.normal(size=6))
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        M = (Q * d) @ Q.T
        assert abs(min_eigenvalue((M + M.T) / 2) - d[0]) <= 1e-9
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.ones((2, 3)))


def _result(gamma=0.3, status="Optimal"):
    return TargetResult(target=1, gamma=gamma, status=status, iterations=9,
                        gap=1e-8, reason="", lambda_min=0.01, runtime_ms=1.0)


def test_verdict_rules():
    assert verdict([_result(), _result(gamma=0.2)]) == "Robust"
    assert verdict([_result(), _result(gamma=-0.1)]) == "Undetermined"
    assert verdict([_result(gamma=0.0)]) == "Undetermined"
    assert verdict([_result(status="MaxIterations")]) == "SolverFailed"
    # numerical breakdown wins over a negative margin
    assert verdict([_result(gamma=-1.0), _result(status="NumericalFailure")]) \
        == "SolverFailed"
    with pytest.raises(ValueError):
        verdict([])


def test_reports_serialize_to_json():
    rep = VerificationReport(
        verdict="Robust", predicted=0, rho=0.5, variant="base",
        targets=[_result()], layer_sizes=[1, 1, 2],
    )
    data = json.loads(rep.to_json())
    assert sorted(data) == ["dscale", "layer_sizes", "predicted", "pruned_neurons",
                            "rho", "targets", "variant", "verdict", "wscale"]
    assert data["verdict"] == "Robust"
    assert data["targets"][0]["gamma"] == pytest.approx(0.3)
    assert data["targets"][0]["iterations"] == 9
    assert data["targets"][0]["reason"] == ""
    bound = BoundReport(
        variant="base", lambda_star=np.float64(0.25), status="NumericalFailure",
        gap=1e-9, iterations=12, reason="dual iterate left the cone",
        min_eig_bound=3.25,
        trace_bounds=[np.float64(2.25), np.float64(3.25)],
    )
    data = json.loads(bound.to_json())
    assert sorted(data) == ["gap", "iterations", "lambda_star", "layer_sizes",
                            "min_eig_bound", "pruned_neurons", "reason", "status",
                            "trace_bounds", "variant"]
    assert data["reason"] == "dual iterate left the cone"
    assert data["lambda_star"] == pytest.approx(0.25)
    assert data["trace_bounds"] == [2.25, 3.25]


def test_reports_take_their_solve_fields_from_one_summary():
    """`status`, `iterations`, `gap` and `reason` are declared once, on
    `SolveSummary`, and `of` copies them off a solution."""
    sol = SimpleNamespace(status="NumericalFailure", iterations=200, gap=3e-5,
                          reason="primal iterate left the cone")
    for cls, extra in ((TargetResult, dict(target=1, gamma=0.5, lambda_min=0.0,
                                           runtime_ms=1.0)),
                       (BoundReport, dict(variant="base", lambda_star=0.1,
                                          min_eig_bound=1.0, trace_bounds=[]))):
        assert issubclass(cls, SolveSummary)
        rep = cls.of(sol, **extra)
        assert (rep.status, rep.iterations, rep.gap, rep.reason) == (
            "NumericalFailure", 200, 3e-5, "primal iterate left the cone")
    for cls in (TargetResult, BoundReport, SweepRow):
        assert not ({"status", "iterations", "gap", "reason"}
                    & set(inspect.get_annotations(cls)))


def test_sweep_csv_formatting():
    row = SweepRow(seed=0, L=2, variant="base", target=1,
                   gamma=0.123456789123, status="Optimal", iterations=17,
                   gap=1e-9, reason="", lambda_star=0.25,
                   radius=SolveSummary("NumericalFailure", 42, 1e-3,
                                       "Schur complement factorization failed"),
                   min_eig_bound=3.25, runtime_ms=12.5, radius_ms=5.25,
                   margin_ms=6.0)
    text = format_sweep_csv([row])
    header, line = text.splitlines()
    assert header == ",".join(SWEEP_CSV_COLUMNS)
    assert SWEEP_CSV_COLUMNS == (
        "seed", "L", "variant", "target", "gamma", "status", "iterations",
        "gap", "lambda_star", "radius_status", "radius_iterations",
        "min_eig_bound", "runtime_ms", "radius_ms", "margin_ms", "reason",
        "radius_reason")
    assert line == ("0,2,base,1,0.1234567891,Optimal,17,1e-09,0.25,"
                    "NumericalFailure,42,3.25,12.5,5.25,6,,"
                    "Schur complement factorization failed")
    assert text.endswith("\n")
