"""Builders shared across the test modules."""

import numpy as np

from sdpverify.bounds import input_box, propagate
from sdpverify.network import Network
from sdpverify.sdpform import Block, Constraint, Coo, SdpProblem


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
        # bitwise symmetry matters: the SDPA writer keeps one triangle
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
    prob.validate()
    b = prob.rhs_vector()
    assert abs(opt - float(b @ yhat)) <= 1e-9 * (1.0 + abs(opt))
    return prob, opt, (xhat, yhat, shat)
