"""Spectral bounds, verdicts, and report serialization.

The moment matrix of any feasible point has bounded blocks: the input box
caps the input block trace, and the complementarity rows propagate that cap
forward layer by layer.  With W~_i the extended matrix of layer i (bias as
first column) and T_i the block trace caps,

    T_0     = (||center||_2 + rho sqrt(n_0))^2
    T_{i+1} = (1 + T_i) ||W~_i||_F^2

each diagonal entry of the block for layer i+1 is at most
(1 + T_i) ||W~_i(j,:)||_2^2, so the smallest such cap bounds the minimum
eigenvalue of every feasible moment matrix.  A cap near zero means the
feasible set hugs the boundary of the cone: no interior point survives.
The unit entry P_00 = 1 lies in no layer block, so the whole moment matrix
has tr(P) <= 1 + sum_i T_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .network import Network
from . import solver as _solver

__all__ = [
    "trace_bounds",
    "diagonal_bounds",
    "min_eig_bound",
    "min_eigenvalue",
    "verdict",
    "TargetResult",
    "VerificationReport",
    "BoundReport",
    "SweepRow",
    "SWEEP_CSV_COLUMNS",
    "format_csv",
    "format_sweep_csv",
]


def trace_bounds(net: Network, center: np.ndarray, rho: float) -> np.ndarray:
    """Trace caps T_0 .. T_H, one per moment block x_0 (input) .. x_H."""
    center = np.asarray(center, dtype=float)
    if center.shape != (net.input_dim,):
        raise ValueError("center does not match network input dimension")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    H = net.num_hidden
    T = np.empty(H + 1)
    T[0] = (np.linalg.norm(center) + rho * np.sqrt(net.input_dim)) ** 2
    for i in range(H):
        T[i + 1] = (1.0 + T[i]) * float((net.extended(i) ** 2).sum())
    return T


def diagonal_bounds(net: Network, center: np.ndarray, rho: float) -> list[np.ndarray]:
    """Caps on the diagonal entries of the blocks for layers 1 .. H.

    Entry j of list element i bounds the (j, j) entry of the moment block
    of layer i+1: (1 + T_i) ||W~_i(j,:)||_2^2.
    """
    T = trace_bounds(net, center, rho)
    caps = []
    for i in range(net.num_hidden):
        row_sq = (net.extended(i) ** 2).sum(axis=1)
        caps.append((1.0 + T[i]) * row_sq)
    return caps


def min_eig_bound(net: Network, center: np.ndarray, rho: float) -> float:
    """Upper bound on the minimum eigenvalue of any feasible moment matrix."""
    return float(min(caps.min() for caps in diagonal_bounds(net, center, rho)))


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, asymmetry checked."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(M).max()) if M.size else 1.0)
    if float(np.abs(M - M.T).max()) > 1e-9 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])


@dataclass
class TargetResult:
    """Outcome of one verification solve against one competitor label."""

    target: int
    gamma: float
    status: str
    iterations: int
    gap: float
    lambda_min: float
    runtime_ms: float


def verdict(results: list[TargetResult]) -> str:
    """Fold per-target outcomes into Robust / Undetermined / SolverFailed.

    Robust needs every competitor pushed above zero by a converged solve;
    any numerical breakdown poisons the run; everything else (a converged
    but nonpositive margin) is Undetermined.
    """
    if not results:
        raise ValueError("no target results to judge")
    if all(r.status == _solver.OPTIMAL and r.gamma > 0.0 for r in results):
        return "Robust"
    if any(
        r.status in (_solver.NUMERICAL_FAILURE, _solver.MAX_ITERATIONS)
        for r in results
    ):
        return "SolverFailed"
    return "Undetermined"


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass
class VerificationReport:
    """Everything cmd_verify learned about one network and box."""

    verdict: str
    predicted: int
    rho: float
    variant: str
    targets: list
    bound_method: str = "ibp"
    pruned_neurons: int = 0
    layer_sizes: list = field(default_factory=list)
    dscale: bool = False
    wscale: bool = False

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True)


@dataclass
class BoundReport:
    """Strict-feasibility diagnosis for one network and box."""

    variant: str
    lambda_star: float
    status: str
    gap: float
    iterations: int
    min_eig_bound: float
    trace_bounds: list
    bound_method: str = "ibp"
    pruned_neurons: int = 0
    layer_sizes: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True)


@dataclass
class SweepRow:
    """One sweep cell: a (depth, seed, variant) verification plus diagnosis.

    `solution` is the margin solve behind `gamma`, `status`, `iterations`
    and `gap`; it is not a CSV column.  `radius_status` and
    `radius_iterations` belong to the inscribed-ball solve behind
    `lambda_star`.  `runtime_ms` is the whole cell, the relaxation build
    included; `radius_ms` and `margin_ms` time the two solves alone.
    """

    seed: int
    L: int
    variant: str
    target: int
    gamma: float
    status: str
    iterations: int
    gap: float
    lambda_star: float
    radius_status: str
    radius_iterations: int
    min_eig_bound: float
    runtime_ms: float
    radius_ms: float
    margin_ms: float
    solution: _solver.SdpSolution | None = field(
        default=None, repr=False, compare=False
    )


SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "solution")


def format_csv(columns, rows) -> str:
    """CSV text: a header line of `columns`, then one line per row of values.

    Floats print as `.10g`; every other value prints with `str`.
    """
    def cell(v):
        return f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(columns)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_sweep_csv(rows: list[SweepRow]) -> str:
    return format_csv(
        SWEEP_CSV_COLUMNS, ([getattr(r, c) for c in SWEEP_CSV_COLUMNS] for r in rows)
    )
