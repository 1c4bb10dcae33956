"""Network container, serialization, pruning, and weight rescaling."""

import json

import numpy as np
import pytest

from helpers import activations, boxed, make_net
from sdpverify.network import (
    EmptyLayerError,
    Network,
    NetworkError,
    ZeroRowError,
    forward,
    load,
    predict,
    prune_inactive,
    save,
    w_scale,
)


def test_shape_validation():
    W = np.ones((2, 3))
    with pytest.raises(NetworkError):
        Network((W,), (np.zeros(3),))  # bias length != row count
    with pytest.raises(NetworkError):
        Network((W, np.ones((2, 4))), (np.zeros(2), np.zeros(2)))  # chain break
    with pytest.raises(NetworkError):
        Network((np.ones((0, 3)),), (np.zeros(0),))
    with pytest.raises(NetworkError):
        Network((np.array([[np.nan]]),), (np.zeros(1),))
    with pytest.raises(NetworkError):
        Network((W,), (np.zeros(2), np.zeros(2)))  # unpaired bias


def test_dimension_properties():
    rng = np.random.default_rng(0)
    net = make_net(rng, [3, 5, 4, 2])
    assert net.input_dim == 3
    assert net.output_dim == 2
    assert net.num_hidden == 2
    assert net.layer_sizes == (3, 5, 4)
    # extended matrix carries the bias as its first column
    ext = net.extended(0)
    assert ext.shape == (5, 4)
    assert np.array_equal(ext[:, 0], net.biases[0])
    assert np.array_equal(ext[:, 1:], net.weights[0])


def test_weights_are_frozen():
    rng = np.random.default_rng(1)
    net = make_net(rng, [2, 2, 2])
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0


def test_forward_matches_manual_chain():
    for seed in range(10):
        rng = np.random.default_rng([2, seed])
        net = make_net(rng, [3, 4, 4, 2])
        x = rng.normal(size=3)
        h = x
        for W, b in zip(net.weights[:-1], net.biases[:-1]):
            h = np.maximum(W @ h + b, 0.0)
        want = net.weights[-1] @ h + net.biases[-1]
        assert np.allclose(forward(net, x), want, atol=1e-12)


def test_predict_breaks_ties_toward_low_label():
    net = Network((np.zeros((3, 2)),), (np.zeros(3),))
    assert predict(net, np.array([1.0, -1.0])) == 0


def test_activations_trace():
    rng = np.random.default_rng(3)
    net = make_net(rng, [2, 3, 3, 2])
    x = rng.normal(size=2)
    acts = activations(net, x)
    assert len(acts) == net.num_hidden + 1
    assert np.array_equal(acts[0], x)
    assert all((a >= 0).all() for a in acts[1:])
    out = net.weights[-1] @ acts[-1] + net.biases[-1]
    assert np.allclose(out, forward(net, x), atol=1e-12)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    net = make_net(rng, [3, 4, 2])
    path = tmp_path / "net.json"
    save(net, path)
    back = load(path)
    for W0, W1 in zip(net.weights, back.weights):
        assert np.array_equal(W0, W1)
    for b0, b1 in zip(net.biases, back.biases):
        assert np.array_equal(b0, b1)


def test_load_rejects_bad_files(tmp_path):
    # every failure mode surfaces as NetworkError with the path in it
    with pytest.raises(NetworkError, match="missing.json"):
        load(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json at all")
    with pytest.raises(NetworkError):
        load(garbled)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"something": []}))
    with pytest.raises(NetworkError):
        load(wrong)


def test_prune_drops_dead_neuron():
    # second hidden neuron is pushed far negative, so it is 0 on the box
    net = Network(
        (np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])),
        (np.array([0.0, -100.0]), np.array([0.0])),
    )
    bounds = boxed(net, [1.0], 0.5)
    pruned, report = prune_inactive(net, bounds)
    assert report.removed == ((1, 1),)
    assert report.original_sizes == (1, 2)
    assert report.pruned_sizes == (1, 1)
    assert pruned.layer_sizes == (1, 1)
    assert len(report.bounds.boxes[1][0]) == 1
    for x in np.linspace(0.5, 1.5, 7):
        assert np.allclose(forward(net, [x]), forward(pruned, [x]), atol=1e-12)


def test_prune_keeps_live_network_intact():
    rng = np.random.default_rng(5)
    net = make_net(rng, [2, 3, 2])
    bounds = boxed(net, [5.0, 5.0], 0.1)  # far from the origin, likely one-sided
    try:
        pruned, report = prune_inactive(net, bounds)
    except EmptyLayerError:
        pytest.skip("all neurons dead for this draw")
    x = np.array([5.02, 4.97])
    assert np.allclose(forward(net, x), forward(pruned, x), atol=1e-12)
    assert len(report.removed) == report.original_sizes[1] - report.pruned_sizes[1]


def test_prune_rejects_fully_dead_layer():
    net = Network(
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.array([-100.0]), np.array([0.0])),
    )
    bounds = boxed(net, [0.0], 0.5)
    with pytest.raises(EmptyLayerError):
        prune_inactive(net, bounds)


def test_wscale_preserves_function():
    for seed in range(5):
        rng = np.random.default_rng([6, seed])
        net = make_net(rng, [2, 3, 3, 2])
        scaled, factors = w_scale(net)
        assert factors.shape == (net.num_hidden,)
        assert (factors > 0).all()
        for i in range(scaled.num_hidden):
            row_norms = np.linalg.norm(scaled.extended(i), axis=1)
            assert abs(row_norms.min() - 1.0) <= 1e-12
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            y0 = forward(net, x)
            y1 = forward(scaled, x)
            assert np.max(np.abs(y1 - y0)) <= 1e-12 * (1.0 + np.max(np.abs(y0)))
            assert predict(net, x) == predict(scaled, x)


def test_wscale_rejects_zero_row():
    net = Network(
        (np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 1.0]])),
        (np.array([0.0, 0.0]), np.array([0.0])),
    )
    with pytest.raises(ZeroRowError):
        w_scale(net)
