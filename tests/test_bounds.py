"""Interval bound propagation and the box containers."""

import numpy as np
import pytest

from helpers import activations, make_net, sample_box
from sdpverify.bounds import LayerBounds, input_box, propagate
from sdpverify.network import Network


def test_input_box_basics():
    lo, hi = input_box(np.array([1.0, -2.0]), 0.5)
    assert np.array_equal(lo, [0.5, -2.5])
    assert np.array_equal(hi, [1.5, -1.5])


def test_input_box_rejects_bad_arguments():
    with pytest.raises(ValueError):
        input_box(np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        input_box(np.array([0.0]), -0.1)
    with pytest.raises(ValueError, match="finite"):
        input_box(np.array([0.0]), np.inf)
    with pytest.raises(ValueError):
        input_box(np.array([[0.0]]), 0.1)
    with pytest.raises(ValueError):
        input_box(np.array([np.inf]), 0.1)


def test_layer_bounds_validation():
    with pytest.raises(ValueError):
        LayerBounds(((np.array([1.0]), np.array([0.0])),))  # lower > upper
    with pytest.raises(ValueError):
        # hidden layers are post-ReLU, negative lower bound impossible
        LayerBounds(
            ((np.array([0.0]), np.array([1.0])), (np.array([-0.5]), np.array([1.0])))
        )
    lb = LayerBounds(((np.array([0.0, 2.0]), np.array([1.0, 4.0])),))
    assert lb.num_layers == 1
    assert np.array_equal(lb.center, [0.5, 3.0])
    assert np.array_equal(lb.lower(0), [0.0, 2.0])
    assert np.array_equal(lb.upper(0), [1.0, 4.0])


def test_propagate_hand_example():
    # x - y over [0,1]^2 spans [-1,1] pre-activation, [0,1] after the relu
    net = Network(
        (np.array([[1.0, -1.0]]), np.array([[1.0]])),
        (np.array([0.0]), np.array([0.0])),
    )
    lb = propagate(net, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(lb.lower(1), [0.0])
    assert np.allclose(lb.upper(1), [1.0])


def test_propagate_clips_dead_neuron_to_zero():
    net = Network(
        (np.array([[-1.0, 0.0]]), np.array([[1.0]])),
        (np.array([-1.0]), np.array([0.0])),
    )
    lb = propagate(net, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert np.array_equal(lb.lower(1), [0.0])
    assert np.array_equal(lb.upper(1), [0.0])


def test_propagate_contains_sampled_activations():
    for seed in range(8):
        rng = np.random.default_rng([7, seed])
        net = make_net(rng, [2, 3, 3, 2])
        center = 0.5 * rng.normal(size=2)
        lo, hi = input_box(center, 0.3)
        lb = propagate(net, lo, hi)
        for x in sample_box(rng, lb, 200):
            acts = activations(net, x)
            for i, a in enumerate(acts):
                assert (a >= lb.lower(i) - 1e-12).all()
                assert (a <= lb.upper(i) + 1e-12).all()


def test_propagate_single_layer_is_tight():
    # one affine layer over a 2-d box: extremes sit at the corners
    rng = np.random.default_rng(8)
    net = make_net(rng, [2, 4, 2])
    lo, hi = input_box(np.array([0.2, -0.1]), 0.4)
    lb = propagate(net, lo, hi)
    corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
    pre = corners @ net.weights[0].T + net.biases[0]
    post = np.maximum(pre, 0.0)
    assert np.allclose(lb.lower(1), post.min(axis=0), atol=1e-12)
    assert np.allclose(lb.upper(1), post.max(axis=0), atol=1e-12)


def test_wider_box_widens_every_layer():
    rng = np.random.default_rng(9)
    net = make_net(rng, [2, 3, 3, 2])
    center = np.array([0.1, 0.2])
    small = propagate(net, *input_box(center, 0.1))
    large = propagate(net, *input_box(center, 0.3))
    for i in range(small.num_layers):
        assert (large.lower(i) <= small.lower(i) + 1e-12).all()
        assert (large.upper(i) >= small.upper(i) - 1e-12).all()


def test_propagate_rejects_mismatched_box():
    rng = np.random.default_rng(10)
    net = make_net(rng, [2, 3, 2])
    with pytest.raises(ValueError):
        propagate(net, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        propagate(net, np.ones(2), np.zeros(2))
