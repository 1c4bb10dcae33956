"""Exact enumeration oracle for tiny networks."""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import boxed, make_net, sample_box
from sdpverify import cli, solver
from sdpverify.network import Network, forward, predict
from sdpverify.oracle import PATTERN_CAP, PatternCapError, exact_gamma

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_active_path_margin(tiny_net):
    # the single neuron stays active on [0.5, 1.5]; margin bottoms at 0.5
    bounds = boxed(tiny_net, [1.0], 0.5)
    assert abs(exact_gamma(tiny_net, bounds, 1) - 0.5) <= 1e-8


def test_dead_path_margin(tiny_net):
    # on [-1.5, -0.5] the relu is identically zero, so the margin is too
    bounds = boxed(tiny_net, [-1.0], 0.5)
    assert abs(exact_gamma(tiny_net, bounds, 1)) <= 1e-8


def _sampling_cases():
    """Five random [2, 2, 2, 2] nets on a box: (rng, net, bounds, predicted
    label, target, gamma*), rng left where the net's draws end."""
    for seed in range(5):
        rng = np.random.default_rng([60, seed])
        net = make_net(rng, [2, 2, 2, 2])
        center = 0.4 * rng.normal(size=2)
        bounds = boxed(net, center, 0.3)
        pred = predict(net, center)
        yield rng, net, bounds, pred, 1 - pred, exact_gamma(net, bounds, 1 - pred)


def test_oracle_lower_bounds_sampling():
    """gamma* can never exceed the margin at any sampled box point."""
    for rng, net, bounds, pred, target, gamma in _sampling_cases():
        outs = np.array([forward(net, x) for x in sample_box(rng, bounds, 1000)])
        margins = outs[:, pred] - outs[:, target]
        assert gamma <= margins.min() + 1e-9


def test_oracle_not_below_true_minimum():
    """gamma* is at least the grid minimum less what the margin can drop
    between grid points.

    The margin is Lipschitz in the 2-norm with L = ||c|| prod ||W_i||, and
    every box point lies within h / sqrt(2) of a grid point of spacing h.
    """
    h = 0.003
    for _, net, bounds, pred, target, gamma in _sampling_cases():
        (l1, l2), (u1, u2) = bounds.boxes[0]
        t1, t2 = np.meshgrid(np.arange(l1, u1 + h, h).clip(max=u1),
                             np.arange(l2, u2 + h, h).clip(max=u2))
        x = np.stack([t1.ravel(), t2.ravel()], axis=1)
        for W, b in zip(net.weights[:-1], net.biases[:-1]):
            x = np.maximum(x @ W.T + b, 0.0)
        c = net.weights[-1][pred] - net.weights[-1][target]
        c0 = net.biases[-1][pred] - net.biases[-1][target]
        lip = np.linalg.norm(c) * np.prod([np.linalg.norm(W, 2)
                                           for W in net.weights[:-1]])
        assert gamma >= (x @ c + c0).min() - lip * h / np.sqrt(2)


@pytest.mark.parametrize("key", ["L2/s0", "L2/s10", "L3/s1"])
def test_oracle_issues_the_pinned_lps(key, monkeypatch):
    """The oracle-lp benchmark's reference pins each request's solves.

    Width 8 and rho 0.1 are that workload's fixtures.
    """
    entry = json.loads(REFERENCE.read_text())["workloads"]["oracle-lp"]["entries"][key]
    depth, seed = (int(part[1:]) for part in key.split("/"))
    net, center = cli.random_instance(depth, 8, seed=seed)
    prep = cli.prepare_instance(net, center, 0.1)
    solves = []
    real = solver.solve

    def record(prob, config=None):
        sol = real(prob, config)
        solves.append([sol.status, sol.iterations, prob.num_constraints])
        return sol

    monkeypatch.setattr(solver, "solve", record)
    for target, star in entry["out"]["gamma_star"]:
        gamma = exact_gamma(prep.net, prep.bounds, target)
        assert gamma == pytest.approx(star, rel=1e-10, abs=0.0)
    assert sorted(solves) == sorted(entry["solves"])


def test_pattern_cap():
    assert PATTERN_CAP == 16
    rng = np.random.default_rng(61)
    net = make_net(rng, [1, 17, 2])
    bounds = boxed(net, [0.0], 0.5)
    with pytest.raises(PatternCapError):
        exact_gamma(net, bounds, 1)


def test_target_validation(tiny_net):
    bounds = boxed(tiny_net, [1.0], 0.5)
    with pytest.raises(ValueError):
        exact_gamma(tiny_net, bounds, 0)  # predicted label
    with pytest.raises(ValueError):
        exact_gamma(tiny_net, bounds, 2)  # out of range


def test_bounds_must_match_network(tiny_net):
    rng = np.random.default_rng(62)
    other = make_net(rng, [2, 3, 2])
    with pytest.raises(ValueError):
        exact_gamma(tiny_net, boxed(other, [0.0, 0.0], 0.5), 1)
