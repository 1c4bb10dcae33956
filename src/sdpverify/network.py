"""Feed-forward ReLU networks: loading, evaluation, and structural transforms.

A network is a chain of affine layers with ReLU activations between them.
The final layer is affine (logits, no activation).  Weights are stored
row-major: layer i maps an n_i vector to an n_{i+1} vector via W_i x + b_i.

The JSON on-disk schema is::

    {"layers": [{"W": [[...], ...], "b": [...]}, ...]}

with the last entry being the output layer.  Floats are written in plain
decimal with enough digits (17 significant) to round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Network",
    "PruneReport",
    "NetworkError",
    "EmptyLayerError",
    "ZeroRowError",
    "load",
    "save",
    "forward",
    "predict",
    "prune_inactive",
    "w_scale",
]


class NetworkError(ValueError):
    """Malformed network file or inconsistent layer shapes."""


class EmptyLayerError(NetworkError):
    """Pruning removed every neuron of some hidden layer."""


class ZeroRowError(NetworkError):
    """A hidden layer has a neuron with zero weight row and zero bias."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Network:
    """Immutable weight container.

    weights[i] has shape (n_{i+1}, n_i), biases[i] has shape (n_{i+1},).
    The last pair is the output layer; everything before it is followed
    by a ReLU.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise NetworkError("weights and biases must pair up")
        if len(self.weights) < 1:
            raise NetworkError("network needs at least an output layer")
        object.__setattr__(self, "weights", tuple(_freeze(W) for W in self.weights))
        object.__setattr__(self, "biases", tuple(_freeze(b) for b in self.biases))
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.ndim != 1:
                raise NetworkError(f"layer {i}: W must be 2-d and b 1-d")
            if W.shape[0] != b.shape[0]:
                raise NetworkError(
                    f"layer {i}: W has {W.shape[0]} rows but b has {b.shape[0]} entries"
                )
            if W.shape[0] == 0 or W.shape[1] == 0:
                raise NetworkError(f"layer {i}: empty weight matrix")
            if i > 0 and W.shape[1] != self.weights[i - 1].shape[0]:
                raise NetworkError(
                    f"layer {i}: expects {W.shape[1]} inputs, previous layer emits "
                    f"{self.weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise NetworkError(f"layer {i}: non-finite weight or bias")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_hidden(self) -> int:
        """Number of ReLU layers (layers before the final affine map)."""
        return len(self.weights) - 1

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_{num_hidden}): input plus each hidden width."""
        return (self.input_dim,) + tuple(W.shape[0] for W in self.weights[:-1])

    def extended(self, i: int) -> np.ndarray:
        """Extended weight matrix of layer i with the bias as first column."""
        return np.column_stack([self.biases[i], self.weights[i]])


@dataclass(frozen=True)
class PruneReport:
    """What prune_inactive removed, plus the re-indexed bounds."""

    removed: tuple[tuple[int, int], ...]  # (hidden layer index >= 1, neuron index)
    original_sizes: tuple[int, ...]
    pruned_sizes: tuple[int, ...]
    bounds: "object" = field(repr=False, default=None)  # LayerBounds, re-indexed


def load(path: str) -> Network:
    """Read a network from a JSON file.  Raises NetworkError on bad input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkError(f"cannot read network file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise NetworkError(f"{path}: expected an object with a 'layers' list")
    layers = doc["layers"]
    if not isinstance(layers, list) or not layers:
        raise NetworkError(f"{path}: 'layers' must be a non-empty list")
    weights, biases = [], []
    for i, entry in enumerate(layers):
        if not isinstance(entry, dict) or "W" not in entry or "b" not in entry:
            raise NetworkError(f"{path}: layer {i} needs 'W' and 'b'")
        try:
            W = np.array(entry["W"], dtype=float)
            b = np.array(entry["b"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise NetworkError(f"{path}: layer {i}: {exc}") from exc
        weights.append(W)
        biases.append(b)
    return Network(tuple(weights), tuple(biases))


def save(net: Network, path: str) -> None:
    """Write a network as JSON.  load(save(net)) reproduces net bit-exactly."""
    doc = {
        "layers": [
            {"W": [[float(v) for v in row] for row in W], "b": [float(v) for v in b]}
            for W, b in zip(net.weights, net.biases)
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Logits for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x = np.maximum(W @ x + b, 0.0)
    return net.weights[-1] @ x + net.biases[-1]


def predict(net: Network, x: np.ndarray) -> int:
    """Argmax label; ties break toward the lowest index."""
    return int(np.argmax(forward(net, x)))


def prune_inactive(net: Network, bounds) -> tuple[Network, PruneReport]:
    """Drop hidden neurons whose post-activation upper bound is <= 0.

    Such a neuron outputs 0 on the whole input box, so deleting its row and
    the corresponding column of the next layer leaves the function on the
    box unchanged.  The report carries the bounds re-indexed to the pruned
    net.  Raises EmptyLayerError if a hidden layer loses all its neurons.
    """
    H = net.num_hidden
    if len(bounds.boxes) != H + 1:
        raise ValueError(
            f"bounds cover {len(bounds.boxes) - 1} hidden layers, net has {H}"
        )
    weights = [np.array(W) for W in net.weights]
    biases = [np.array(b) for b in net.biases]
    boxes = [(np.array(l), np.array(u)) for (l, u) in bounds.boxes]
    removed = []
    for i in range(1, H + 1):  # bounds index; layer i-1 feeds these neurons
        _, u = boxes[i]
        keep = u > 0.0
        if not keep.any():
            raise EmptyLayerError(f"hidden layer {i} prunes to zero neurons")
        if keep.all():
            continue
        for j in np.flatnonzero(~keep):
            removed.append((i, int(j)))
        weights[i - 1] = weights[i - 1][keep, :]
        biases[i - 1] = biases[i - 1][keep]
        weights[i] = weights[i][:, keep]
        boxes[i] = (boxes[i][0][keep], boxes[i][1][keep])
    pruned = Network(tuple(weights), tuple(biases))
    # rebuild bounds container without importing at module load (cycle-free)
    from .bounds import LayerBounds

    report = PruneReport(
        removed=tuple(removed),
        original_sizes=net.layer_sizes,
        pruned_sizes=pruned.layer_sizes,
        bounds=LayerBounds(tuple((l, u) for (l, u) in boxes)),
    )
    return pruned, report


def w_scale(net: Network) -> tuple[Network, np.ndarray]:
    """Rescale hidden layers so each extended matrix has min row norm 1.

    Layer i's extended matrix (bias as first column) is divided by the
    smallest row 2-norm among its rows; ReLU positive homogeneity lets the
    scale ride through the activation.  Bias columns are corrected by the
    accumulated product of earlier factors so the network computes exactly
    the same function, and the output layer is multiplied by the full
    product (its bias untouched).  Returns the new net and the factors,
    one per hidden layer.  Raises ZeroRowError when a hidden row is
    identically zero (no positive scale exists).
    """
    H = net.num_hidden
    weights = [np.array(W) for W in net.weights]
    biases = [np.array(b) for b in net.biases]
    factors = np.empty(H)
    cum = 1.0
    for i in range(H):
        b_corr = biases[i] / cum
        row_norms = np.sqrt(b_corr**2 + (weights[i] ** 2).sum(axis=1))
        if (row_norms == 0.0).any():
            j = int(np.flatnonzero(row_norms == 0.0)[0])
            raise ZeroRowError(f"hidden layer {i} row {j} is zero; cannot rescale")
        w = float(row_norms.min())
        factors[i] = w
        weights[i] = weights[i] / w
        biases[i] = b_corr / w
        cum *= w
    weights[H] = weights[H] * cum
    scaled = Network(tuple(weights), tuple(biases))
    return scaled, factors
