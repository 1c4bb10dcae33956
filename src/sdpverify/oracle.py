"""Exact robustness margins for tiny networks by branch enumeration.

Fixing every hidden neuron to its active or inactive branch makes the
network affine, so the exact margin over an input box is the minimum,
over all branch patterns, of a linear program: the box, plus one sign
constraint per open neuron pinning its pre-activation to the chosen
branch.  The search runs layer by layer.  Under the branches chosen so
far each layer's pre-activations are affine in the input; a neuron the
bounds fix keeps its one branch, and an open neuron keeps each branch an
interval check over the box cannot rule out.  A branch ruled out is
never expanded, so no pattern below it is built.  The hidden neuron
count is capped because the pattern count is exponential.

The linear programs are phrased as diagonal-block cone problems and
handed to the interior-point solver rather than a separate simplex
routine: one numerical core, one test surface.  A preliminary max-margin
solve per region decides feasibility and whether the region is thick
enough for the main solve; nearly degenerate regions get their sign rows
relaxed by a hair, which perturbs the reported minimum by far less than
any tolerance used downstream.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .network import Network
from .bounds import LayerBounds
from .sdpform import (
    Block, Constraint, Coo, SdpProblem, check_instance, to_standard_form,
)
from . import solver as _solver

__all__ = ["PATTERN_CAP", "PatternCapError", "exact_gamma"]

PATTERN_CAP = 16

# Margin thresholds: below _FEAS_CUT the pattern region is declared empty,
# below _THIN_CUT its sign rows are relaxed by _SIGN_SLACK (plus whatever
# it takes to cover a slightly negative margin) so the main solve keeps a
# strict interior to walk through.
_FEAS_CUT = -1e-9
_THIN_CUT = 1e-6
_SIGN_SLACK = 1e-8

_LP_CONFIG = _solver.SolverConfig(gap_tol=1e-10, feas_tol=1e-10)


class PatternCapError(ValueError):
    """Network has too many hidden neurons to enumerate branch patterns."""


def _diag_entries(values: np.ndarray, dim: int) -> Coo:
    idx = np.nonzero(values)[0]
    return Coo.of(idx, idx, values[idx], (dim, dim))


def _diag_entry(dim: int, k: int, value: float) -> Coo:
    return Coo.of([k], [k], [value], (dim, dim))


def _region_lp(rows, w: np.ndarray, shift: float, g: np.ndarray | None = None) -> float:
    """Optimal value of one region's linear program over the box 0 <= t <= w.

    With `g`, the program minimises g^T t subject to every sign row of
    `rows`, each relaxed by `shift`.  Without `g`, it finds the largest
    margin m with which every sign row holds, as the minimum of -(m + K)
    for the shift K: the margin variable m + K then lives in the
    nonnegative cone.  K bounds every row's range over the box, which
    makes the shifted problem strictly feasible, and the cap row keeps
    the feasible set bounded so the dual side is strictly feasible too.
    """
    n0 = w.size
    margin = g is None
    cons = [
        Constraint({0: _diag_entry(n0, k, 1.0)}, float(w[k]), "<=", f"box[{k}]")
        for k in range(n0)
    ]
    for r, (a, beta, active, _) in enumerate(rows):
        terms = {0: _diag_entries(a, n0)}
        if margin:
            terms[1] = _diag_entry(1, 0, -1.0 if active else 1.0)
        if active:
            cons.append(Constraint(terms, float(-beta - shift), ">=", f"sign[{r}]"))
        else:
            cons.append(Constraint(terms, float(shift - beta), "<=", f"sign[{r}]"))
    if margin:
        cons.append(Constraint({1: _diag_entry(1, 0, 1.0)}, 2.0 * shift, "<=", "cap"))
        blocks = (Block("diag", n0), Block("diag", 1))
        objective = {1: _diag_entry(1, 0, -1.0)}
    else:
        blocks = (Block("diag", n0),)
        objective = {0: _diag_entries(g, n0)}
    prob = SdpProblem(blocks=blocks, objective=objective, obj_offset=0.0,
                      constraints=cons)
    sol = _solver.solve(to_standard_form(prob), _LP_CONFIG)
    if sol.status != _solver.OPTIMAL:
        what = "region margin" if margin else "region minimum"
        raise RuntimeError(f"{what} subproblem ended with status {sol.status}")
    return sol.primal_obj


def _branches(a: np.ndarray, beta, w: np.ndarray) -> list:
    """The branches an open neuron with pre-activation a^T t + beta can take.

    Each is (active, row), row being the sign row (a, beta, active, reach)
    that pins the branch, or None when the row holds on the whole box.  A
    branch whose row can hold nowhere in the box is left out.
    """
    hi = beta + float(np.maximum(a, 0.0) @ w)
    lo = beta + float(np.minimum(a, 0.0) @ w)
    reach = max(abs(hi), abs(lo))
    out = []
    if not lo > 0.0:
        out.append((False, (a, beta, False, reach) if hi > 0.0 else None))
    if not hi < 0.0:
        out.append((True, (a, beta, True, reach) if lo < 0.0 else None))
    return out


def _regions(net: Network, bounds: LayerBounds, w: np.ndarray, i: int,
             F: np.ndarray, f: np.ndarray, rows: list):
    """Yield (F, f, rows) for every branch pattern of layers i and beyond.

    x_i = F t + f is layer i's activation on the box-anchored input t
    under the branches chosen so far, and rows holds their sign rows.
    Patterns come inactive before active, layer-major, neuron by neuron.
    """
    if i == net.num_hidden:
        yield F, f, rows
        return
    W, b = net.weights[i], net.biases[i]
    G = W @ F
    g0 = W @ f + b
    options = []
    for j, (lo, up) in enumerate(zip(bounds.lower(i + 1), bounds.upper(i + 1))):
        if up <= 0.0:
            options.append([(False, None)])
        elif lo > 0.0:
            options.append([(True, None)])
        else:
            options.append(_branches(G[j], g0[j], w))
    for choice in product(*options):
        mask = np.array([active for active, _ in choice])
        pinned = rows + [row for _, row in choice if row is not None]
        yield from _regions(net, bounds, w, i + 1, mask[:, None] * G, mask * g0, pinned)


def exact_gamma(net: Network, bounds: LayerBounds, target: int) -> float:
    """Exact minimum of the predicted-vs-target margin over the input box.

    Positive means no point of the box flips the prediction to `target`.
    """
    hidden_total = sum(net.layer_sizes[1:])
    if hidden_total > PATTERN_CAP:
        raise PatternCapError(
            f"{hidden_total} hidden neurons exceed the enumeration cap of {PATTERN_CAP}"
        )
    target = int(target)
    predicted = check_instance(net, bounds, target)

    l0, u0 = bounds.lower(0), bounds.upper(0)
    w = u0 - l0
    if not np.all(w > 0):
        raise ValueError("input box must have positive width in every coordinate")
    c = net.weights[-1][predicted] - net.weights[-1][target]
    c0 = float(net.biases[-1][predicted] - net.biases[-1][target])

    best = np.inf
    found = False
    for F, f, rows in _regions(net, bounds, w, 0, np.eye(net.input_dim), l0, []):
        g = c @ F
        const = float(c @ f + c0)
        if not rows:
            value = const + float(np.minimum(0.0, g * w).sum())
        else:
            K = 1.0 + max(reach for *_, reach in rows)
            m_star = -_region_lp(rows, w, K) - K
            if m_star < _FEAS_CUT:
                continue
            slack = 0.0 if m_star > _THIN_CUT else _SIGN_SLACK + 2.0 * max(0.0, -m_star)
            value = _region_lp(rows, w, slack, g) + const
        found = True
        best = min(best, value)
    if not found:
        raise RuntimeError("every branch pattern came back infeasible on a nonempty box")
    return float(best)
