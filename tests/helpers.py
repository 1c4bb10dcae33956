"""Builders and reference checkers shared across the test modules.

The checkers (`activations`, `validate`, `lifted_point`, `objective_value`,
`constraint_violations`, `residuals`) evaluate a network, a problem or a
candidate point directly; the package's pipeline never calls them.
"""

import numpy as np

from sdpverify.bounds import input_box, propagate
from sdpverify.network import Network
from sdpverify.sdpform import Block, Constraint, Coo, SdpProblem, VariableLayout
from sdpverify.solver import (
    _compile,
    _dual_residuals,
    _dual_scale,
    _residual_triplet,
)


def make_net(rng, sizes):
    """Random network over the given size chain, last pair being the output."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    return Network(tuple(weights), tuple(biases))


def boxed(net, center, rho):
    lo, hi = input_box(np.asarray(center, dtype=float), rho)
    return propagate(net, lo, hi)


def box_trace_cap(bounds):
    """1 + sum max(l^2, u^2): the trace cap that box rows on every layer prove."""
    return 1.0 + sum(float(np.maximum(l ** 2, u ** 2).sum()) for l, u in bounds.boxes)


def sample_box(rng, bounds, n):
    lo, hi = bounds.boxes[0]
    return lo + (hi - lo) * rng.random((n, lo.size))


def sym(rng, d):
    M = rng.normal(size=(d, d))
    return (M + M.T) / 2.0


def coo(A):
    """The nonzero entries of a dense matrix as a `Coo`, row by row."""
    A = np.asarray(A, dtype=float)
    row, col = np.nonzero(A)
    return Coo.of(row, col, A[row, col], A.shape)


def planted_instance(rng, psd_dims, diag_dims=(), m=None):
    """Standard-form SDP with a planted, strictly complementary optimum.

    Each PSD block splits a random orthonormal eigenbasis between the
    primal X (first k eigenvalues) and the dual slack S (the rest), so
    X S = 0 with X + S positive definite; diagonal blocks split their
    coordinates the same way.  With b_j = tr(A_j X) and C = S + sum y_j A_j
    the triple (X, y, S) satisfies the optimality conditions exactly and
    the optimal value is tr(C X) = b^T y.
    """
    blocks = tuple(
        [Block("psd", d) for d in psd_dims] + [Block("diag", d) for d in diag_dims]
    )
    xhat, shat = [], []
    for d in psd_dims:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        k = int(rng.integers(1, d))
        dx = np.concatenate([rng.uniform(0.5, 2.0, size=k), np.zeros(d - k)])
        ds = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, size=d - k)])
        X = (Q * dx) @ Q.T
        S = (Q * ds) @ Q.T
        # symmetrize exactly: C is built from S, and `validate` checks that
        # every psd coefficient matrix is symmetric
        xhat.append((X + X.T) / 2)
        shat.append((S + S.T) / 2)
    for d in diag_dims:
        k = int(rng.integers(1, d))
        xhat.append(np.concatenate([rng.uniform(0.5, 2.0, size=k), np.zeros(d - k)]))
        shat.append(np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, size=d - k)]))
    if m is None:
        m = sum(psd_dims) + sum(diag_dims)
    yhat = rng.normal(size=m)
    coeffs = []
    constraints = []
    for j in range(m):
        terms = {}
        row = []
        rhs = 0.0
        for bidx, blk in enumerate(blocks):
            if blk.kind == "psd":
                A = sym(rng, blk.dim)
                rhs += float((A * xhat[bidx]).sum())
                terms[bidx] = coo(A)
            else:
                A = rng.normal(size=blk.dim)
                rhs += float(A @ xhat[bidx])
                terms[bidx] = coo(np.diag(A))
            row.append(A)
        coeffs.append(row)
        constraints.append(Constraint(terms=terms, rhs=rhs, sense="=", label=f"plant[{j}]"))
    objective = {}
    opt = 0.0
    for bidx, blk in enumerate(blocks):
        C = shat[bidx] + sum(yhat[j] * coeffs[j][bidx] for j in range(m))
        if blk.kind == "psd":
            opt += float((C * xhat[bidx]).sum())
            objective[bidx] = coo(C)
        else:
            opt += float(C @ xhat[bidx])
            objective[bidx] = coo(np.diag(C))
    prob = SdpProblem(
        blocks=blocks,
        objective=objective,
        obj_offset=0.0,
        constraints=constraints,
    )
    validate(prob)
    b = prob.rhs_vector()
    assert abs(opt - float(b @ yhat)) <= 1e-9 * (1.0 + abs(opt))
    return prob, opt, (xhat, yhat, shat)


def activations(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer values (x_0, x_1, ..., x_H) with x_i the post-ReLU output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    out = [x]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x = np.maximum(W @ x + b, 0.0)
        out.append(x)
    return out


def validate(prob: SdpProblem) -> None:
    """Shape, sense, and symmetry checks; raises ValueError on the first
    violation."""
    for where, terms in [("objective", prob.objective)] + [
        (c.label or f"constraint {k}", c.terms)
        for k, c in enumerate(prob.constraints)
    ]:
        for bidx, mat in terms.items():
            if not 0 <= bidx < len(prob.blocks):
                raise ValueError(f"{where}: bad block index {bidx}")
            blk = prob.blocks[bidx]
            if mat.shape != (blk.dim, blk.dim):
                raise ValueError(f"{where}: coefficient shape {mat.shape}")
            if blk.kind == "psd":
                _check_symmetric(mat, where)
            elif not (mat.row == mat.col).all():
                raise ValueError(
                    f"{where}: off-diagonal entry in {blk.kind} block"
                )
    for k, c in enumerate(prob.constraints):
        if c.sense not in ("=", "<=", ">="):
            raise ValueError(f"constraint {k}: bad sense {c.sense!r}")
        if not np.isfinite(c.rhs):
            raise ValueError(f"constraint {k}: non-finite rhs")


def _check_symmetric(mat: Coo, where: str) -> None:
    a, t = Coo.of(*mat), Coo.of(mat.col, mat.row, mat.data, mat.shape)
    scale = np.abs(a.data).max() if a.nnz else 1.0
    if not (np.array_equal(a.row, t.row) and np.array_equal(a.col, t.col)
            and np.allclose(a.data, t.data, atol=1e-12 * (1.0 + scale))):
        raise ValueError(f"{where}: coefficient matrix not symmetric")


def lifted_point(layout: VariableLayout, acts: list[np.ndarray]) -> np.ndarray:
    """Rank-one moment matrix of a concrete activation trace."""
    if tuple(len(a) for a in acts) != layout.sizes:
        raise ValueError("activation trace does not match layout")
    v = np.concatenate([[1.0]] + [np.asarray(a, dtype=float) for a in acts])
    return np.outer(v, v)


def _term_value(mat: Coo, xb) -> float:
    if xb.ndim == 1:
        return float(mat.data @ xb[mat.row])
    return float(mat.data @ xb[mat.row, mat.col])


def objective_value(prob: SdpProblem, xblocks: list[np.ndarray]) -> float:
    """tr(C X) + obj_offset for a candidate block solution."""
    total = prob.obj_offset
    for bidx, mat in prob.objective.items():
        total += _term_value(mat, xblocks[bidx])
    return float(total)


def constraint_violations(prob: SdpProblem, xblocks: list[np.ndarray]) -> np.ndarray:
    """Nonnegative violation of each constraint at a candidate point."""
    out = np.empty(prob.num_constraints)
    for k, c in enumerate(prob.constraints):
        val = sum(_term_value(mat, xblocks[bidx]) for bidx, mat in c.terms.items())
        resid = val - c.rhs
        if c.sense == "=":
            out[k] = abs(resid)
        elif c.sense == "<=":
            out[k] = max(0.0, resid)
        else:
            out[k] = max(0.0, -resid)
    return out


def residuals(prob: SdpProblem, xblocks, y, sblocks) -> tuple[float, float, float]:
    """Scaled primal/dual infeasibility and duality gap at a candidate point,
    by the solver's own stopping arithmetic.

    primal: max_j |tr(A_j X) - b_j| / (1 + |b_j|)
    dual:   ||C - S - A^T(y)||_F / (1 + ||C||_F)
    gap:    |tr(C X) - b^T y| / (1 + |tr(C X)|)
    """
    assert len(xblocks) == len(sblocks) == len(prob.blocks)
    compiled = _compile(prob)
    y = np.asarray(y, dtype=float)
    dscale = _dual_scale([cb.C for cb in compiled])
    pres, dres, gap, _, _ = _residual_triplet(
        compiled, prob.rhs_vector(), dscale, xblocks, y,
        _dual_residuals(compiled, y, sblocks),
    )
    return pres, dres, gap
