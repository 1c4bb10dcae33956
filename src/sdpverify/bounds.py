"""Interval bounds on layer activations over an input box.

Bounds are propagated with plain interval arithmetic: for an affine layer,
split the weight matrix into positive and negative parts and combine the
endpoints, then clip at zero for the ReLU.  Hidden-layer boxes are stored
post-activation, so their lower ends are never negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network

__all__ = ["LayerBounds", "input_box", "propagate"]


@dataclass(frozen=True)
class LayerBounds:
    """Per-layer boxes (l_i, u_i), index 0 being the input box.

    Hidden entries are post-ReLU, so 0 <= l_i <= u_i for i >= 1.
    """

    boxes: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for i, (l, u) in enumerate(self.boxes):
            l = np.array(l, dtype=float)
            u = np.array(u, dtype=float)
            if l.shape != u.shape or l.ndim != 1:
                raise ValueError(f"layer {i}: bound shapes {l.shape} vs {u.shape}")
            if (l > u).any():
                raise ValueError(f"layer {i}: lower bound exceeds upper bound")
            if i >= 1 and (l < 0).any():
                raise ValueError(f"layer {i}: post-ReLU lower bound below zero")
            l.flags.writeable = False
            u.flags.writeable = False
            frozen.append((l, u))
        object.__setattr__(self, "boxes", tuple(frozen))

    @property
    def num_layers(self) -> int:
        return len(self.boxes)

    def lower(self, i: int) -> np.ndarray:
        return self.boxes[i][0]

    def upper(self, i: int) -> np.ndarray:
        return self.boxes[i][1]

    @property
    def center(self) -> np.ndarray:
        """Center of the input box."""
        l, u = self.boxes[0]
        return (l + u) / 2.0


def input_box(center: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """L-infinity ball of radius rho around center, as (lower, upper)."""
    center = np.asarray(center, dtype=float)
    if center.ndim != 1:
        raise ValueError("input center must be a vector")
    if not np.isfinite(center).all():
        raise ValueError("input center must be finite")
    if not (rho > 0.0):
        raise ValueError(f"rho must be positive, got {rho}")
    if not np.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    return center - rho, center + rho


def propagate(net: Network, lower: np.ndarray, upper: np.ndarray) -> LayerBounds:
    """Interval bounds for every hidden layer of net over the given box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (net.input_dim,) or upper.shape != (net.input_dim,):
        raise ValueError("input box does not match network input dimension")
    if (lower > upper).any():
        raise ValueError("input box is empty")
    boxes = [(lower, upper)]
    l, u = lower, upper
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        Wp = np.maximum(W, 0.0)
        Wn = np.minimum(W, 0.0)
        pre_l = Wp @ l + Wn @ u + b
        pre_u = Wp @ u + Wn @ l + b
        l = np.maximum(pre_l, 0.0)
        u = np.maximum(pre_u, 0.0)
        boxes.append((l, u))
    return LayerBounds(tuple(boxes))
