"""Exact robustness margins for tiny networks by branch enumeration.

Fixing every hidden neuron to its active or inactive branch makes the
network affine, so the exact margin over an input box is the minimum,
over all branch patterns, of a linear program: the box, plus one sign
constraint per hidden neuron pinning its pre-activation to the chosen
branch.  Patterns whose sign constraints cannot hold anywhere in the box
are skipped.  The hidden neuron count is capped because the pattern
count is exponential.

The linear programs are phrased as diagonal-block cone problems and
handed to the interior-point solver rather than a separate simplex
routine: one numerical core, one test surface.  A preliminary max-margin
solve per pattern decides feasibility and whether the region is thick
enough for the main solve; nearly degenerate regions get their sign rows
relaxed by a hair, which perturbs the reported minimum by far less than
any tolerance used downstream.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .network import Network, predict
from .bounds import LayerBounds
from .sdpform import Block, Constraint, Coo, SdpProblem, to_standard_form
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

_LP_CONFIG = _solver.SolverConfig(gap_tol=1e-10, feas_tol=1e-10, max_iter=300)


class PatternCapError(ValueError):
    """Network has too many hidden neurons to enumerate branch patterns."""


def _diag_entries(values: np.ndarray, dim: int) -> Coo:
    idx = np.nonzero(values)[0]
    return Coo.of(idx, idx, values[idx], (dim, dim))


def _diag_entry(dim: int, k: int, value: float) -> Coo:
    return Coo.of([k], [k], [value], (dim, dim))


def _run_lp(prob: SdpProblem, what: str) -> _solver.SdpSolution:
    sol = _solver.solve(to_standard_form(prob), _LP_CONFIG)
    if sol.status != _solver.OPTIMAL:
        raise RuntimeError(f"{what} subproblem ended with status {sol.status}")
    return sol


def _pattern_margin(rows, n0: int, w: np.ndarray, K: float) -> float:
    """Largest m such that every sign row holds with slack m inside the box.

    The margin variable is shifted by K so it lives in the nonnegative
    cone; K bounds every row's range over the box, which makes the
    shifted problem strictly feasible, and the cap row keeps the feasible
    set bounded so the dual side is strictly feasible too.
    """
    cons = [
        Constraint({0: _diag_entry(n0, k, 1.0)}, float(w[k]), "<=", f"box[{k}]")
        for k in range(n0)
    ]
    for r, (a, beta, active) in enumerate(rows):
        if active:
            terms = {0: _diag_entries(a, n0), 1: _diag_entry(1, 0, -1.0)}
            cons.append(Constraint(terms, float(-beta - K), ">=", f"sign[{r}]"))
        else:
            terms = {0: _diag_entries(a, n0), 1: _diag_entry(1, 0, 1.0)}
            cons.append(Constraint(terms, float(K - beta), "<=", f"sign[{r}]"))
    cons.append(Constraint({1: _diag_entry(1, 0, 1.0)}, 2.0 * K, "<=", "cap"))
    prob = SdpProblem(
        blocks=(Block("diag", n0), Block("diag", 1)),
        objective={1: _diag_entry(1, 0, -1.0)},
        obj_offset=0.0,
        constraints=cons,
    )
    sol = _run_lp(prob, "pattern margin")
    return -sol.primal_obj - K


def _pattern_minimum(rows, n0, w, g, const, slack) -> float:
    cons = [
        Constraint({0: _diag_entry(n0, k, 1.0)}, float(w[k]), "<=", f"box[{k}]")
        for k in range(n0)
    ]
    for r, (a, beta, active) in enumerate(rows):
        terms = {0: _diag_entries(a, n0)}
        if active:
            cons.append(Constraint(terms, float(-beta - slack), ">=", f"sign[{r}]"))
        else:
            cons.append(Constraint(terms, float(slack - beta), "<=", f"sign[{r}]"))
    prob = SdpProblem(
        blocks=(Block("diag", n0),),
        objective={0: _diag_entries(g, n0)},
        obj_offset=0.0,
        constraints=cons,
    )
    sol = _run_lp(prob, "pattern minimum")
    return sol.primal_obj + const


def _pattern_value(net, masks, free_set, l0, w, c, c0):
    """Minimum of the margin over one pattern's region, or None if empty.

    Propagates the pattern-masked affine map x_i = F t + f with t the
    box-anchored input (x_0 = l0 + t, 0 <= t <= w), collecting one sign
    row per free neuron.  Rows that an interval check shows can never
    hold kill the pattern; rows that can never bind are dropped.
    """
    F = np.eye(net.input_dim)
    f = l0.copy()
    rows = []
    for i in range(net.num_hidden):
        W, b = net.weights[i], net.biases[i]
        G = W @ F
        g0 = W @ f + b
        mask = masks[i]
        for j in range(W.shape[0]):
            if (i, j) in free_set:
                a, beta = G[j], g0[j]
                hi = beta + float(np.maximum(a, 0.0) @ w)
                lo = beta + float(np.minimum(a, 0.0) @ w)
                if mask[j]:
                    if hi < 0.0:
                        return None
                    if lo < 0.0:
                        rows.append((a, beta, True))
                else:
                    if lo > 0.0:
                        return None
                    if hi > 0.0:
                        rows.append((a, beta, False))
        F = mask[:, None] * G
        f = mask * g0
    g = c @ F
    const = float(c @ f + c0)
    if not rows:
        return const + float(np.minimum(0.0, g * w).sum())

    K = 1.0 + max(max(abs(beta + float(np.maximum(a, 0.0) @ w)),
                      abs(beta + float(np.minimum(a, 0.0) @ w)))
                  for a, beta, _ in rows)
    m_star = _pattern_margin(rows, net.input_dim, w, K)
    if m_star < _FEAS_CUT:
        return None
    slack = 0.0 if m_star > _THIN_CUT else _SIGN_SLACK + 2.0 * max(0.0, -m_star)
    return _pattern_minimum(rows, net.input_dim, w, g, const, slack)


def exact_gamma(net: Network, bounds: LayerBounds, target: int) -> float:
    """Exact minimum of the predicted-vs-target margin over the input box.

    Positive means no point of the box flips the prediction to `target`.
    """
    if bounds.num_layers != net.num_hidden + 1:
        raise ValueError("bounds do not cover every layer of the network")
    for i, n in enumerate(net.layer_sizes):
        if bounds.lower(i).shape != (n,):
            raise ValueError(f"bounds for layer {i} do not match the network")
    hidden_total = sum(net.layer_sizes[1:])
    if hidden_total > PATTERN_CAP:
        raise PatternCapError(
            f"{hidden_total} hidden neurons exceed the enumeration cap of {PATTERN_CAP}"
        )
    predicted = predict(net, bounds.center)
    target = int(target)
    if not 0 <= target < net.output_dim:
        raise ValueError("target label out of range")
    if target == predicted:
        raise ValueError("target label equals the predicted label")

    l0, u0 = bounds.lower(0), bounds.upper(0)
    w = u0 - l0
    if not np.all(w > 0):
        raise ValueError("input box must have positive width in every coordinate")
    c = net.weights[-1][predicted] - net.weights[-1][target]
    c0 = float(net.biases[-1][predicted] - net.biases[-1][target])

    fixed = {}
    free = []
    for i in range(net.num_hidden):
        lo, up = bounds.lower(i + 1), bounds.upper(i + 1)
        for j in range(net.layer_sizes[i + 1]):
            if up[j] <= 0.0:
                fixed[(i, j)] = False
            elif lo[j] > 0.0:
                fixed[(i, j)] = True
            else:
                free.append((i, j))
    free_set = set(free)

    best = np.inf
    found = False
    for bits in product((False, True), repeat=len(free)):
        masks = [np.zeros(n, dtype=bool) for n in net.layer_sizes[1:]]
        for (i, j), val in fixed.items():
            masks[i][j] = val
        for (i, j), bit in zip(free, bits):
            masks[i][j] = bit
        value = _pattern_value(net, masks, free_set, l0, w, c, c0)
        if value is None:
            continue
        found = True
        best = min(best, value)
    if not found:
        raise RuntimeError("every branch pattern came back infeasible on a nonempty box")
    return float(best)
