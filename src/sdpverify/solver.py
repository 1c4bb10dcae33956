"""Primal-dual interior-point solver for block-diagonal SDPs.

Standard form: minimize sum_b tr(C_b X_b) subject to sum_b tr(A_jb X_b) = b_j
and every block of X positive semidefinite (diagonal blocks are elementwise
nonnegative vectors; free blocks are unconstrained).  The method is an
infeasible-start path follower using the HKM direction with Mehrotra's
predictor-corrector:

    1. residuals  r_p = b - A(X), R_d = C - S - A^T(y), mu = <X, S>/n
    2. predictor  solve the Newton system with sigma = 0
    3. centering  sigma = (mu_aff / mu)^3 from the boundary step lengths
    4. corrector  re-solve against the sigma mu I target plus the
                  second-order term dX_aff dS_aff, reusing the factorization
    5. step       fraction _TAU to the boundary, separately for X and (y, S)

Eliminating dX and dS leaves the Schur system M dy = rhs with
M_jk = tr(A_j X A_k S^{-1}).  Constraint matrices here have few nonzero
rows r_j, so column j of M needs only V_j = X[:, r_j] (A_j[r_j, :] S^{-1}),
formed in one stacked product per chunk of constraints with as many rows.
A diagonal block adds Avec diag(x/s) Avec^T, whose sparsity pattern is
found once per solve, so each iteration costs one weighted bincount.  One
Cholesky factor each of X and S per iteration serves S^{-1} and all four
step lengths.  Factorizations, solves and eigenvalues call LAPACK directly
with the arguments scipy.linalg would pass, without its per-call checks,
so the iterates are bit for bit those of the scipy.linalg calls.

Free variables carry no barrier: they ride along in the Newton system as
the augmented equations M dy + B df = rhs, B^T dy = c_f - B^T y, solved by
eliminating df through the small dense B^T M^{-1} B complement.  Their
dual slack is identically zero, so they never restrict a step length.
Splitting a free variable into a difference of cone variables instead
would leave the dual side without an interior and hence without a central
path; the augmented system keeps both sides strictly feasible whenever
the underlying problem is.

Psd and diagonal blocks share one Newton path.  `_mul` multiplies three
block iterates left to right (matrix products on psd blocks, elementwise
ones on diagonal blocks), `_sym` symmetrizes psd blocks, and
`_add_traces` adds tr(A_j G_b) into a vector block by block.  Over them
the right-hand side, the corrector term, dX and the update are each
written once.  The corrector term goes into the right-hand side in
place, one block after another: summing it over the blocks first and
adding the sum once rounds differently, which on the benchmark's request
pools changes every final iterate and some iteration counts and statuses.

Everything is deterministic: same problem and config, same iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr, dsyevr_lwork, dtrtrs

from .sdpform import SdpProblem

__all__ = [
    "OPTIMAL",
    "MAX_ITERATIONS",
    "NUMERICAL_FAILURE",
    "UNBOUNDED",
    "SolverConfig",
    "SdpSolution",
    "solve",
    "residuals",
]

OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"
UNBOUNDED = "Unbounded"

# Objective below this is treated as a divergence certificate.
_UNBOUNDED_OBJ = -1e12
# Schur regularization ladder, relative to the diagonal scale.
_REG_LADDER = tuple(1e-12 * 10.0**k for k in range(7))
# Steps below this in both cones count as a stall.
_STALL_STEP = 1e-10
# Fraction of the distance to the cone boundary taken by each step.
_TAU = 0.95
# Most constraints per stacked Schur product; bounds its (k, d, d) temporary.
_SCHUR_CHUNK = 16


class _NumericalProblem(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """When a solve stops: gap and feasibility tolerances, iteration cap.

    The iteration itself has no settings.  It starts from X = S = mu_0 I
    with mu_0 = 100 times the largest input coefficient magnitude, floored
    at 1 so the start never degenerates on all-zero data, and every step
    goes the fraction _TAU of the way to the cone boundary.
    """

    gap_tol: float = 1e-6
    feas_tol: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        if not (self.gap_tol > 0 and self.feas_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SdpSolution:
    """Final iterate of a solve run, whatever the status."""

    status: str
    xblocks: list
    y: np.ndarray
    sblocks: list
    primal_obj: float
    dual_obj: float
    gap: float
    primal_res: float
    dual_res: float
    iterations: int


class _CompiledBlock:
    """Per-block constraint data in solver-friendly form."""

    def __init__(self, kind, dim, C, Avec, chunks):
        self.kind = kind
        self.dim = dim
        self.C = C  # dense (d, d) for psd, (d,) for diag
        self.Avec = Avec  # csr: (m, d*d) for psd, (m, d) for diag
        self.AvecT = Avec.T.tocsr()
        self.chunks = chunks  # psd: (ids, rows (k, r), A[rows, :] (k, r, d))
        if kind == "psd":
            # Avec on its nonzero columns c = a*d + b, each read off V_j[b, a]
            used = np.unique(Avec.indices)
            cols = np.searchsorted(used, Avec.indices)
            self.Aused = sp.csr_matrix((Avec.data, cols, Avec.indptr),
                                       shape=(Avec.shape[0], used.size))
            self.vidx = (used % dim) * dim + used // dim
        elif kind == "diag":
            self._diag_pattern()

    def _diag_pattern(self):
        """Triples (i, j, k) of M_ij += (A_ik w_k) A_jk in the order scipy's
        csr_matmat visits them for (Avec diag(w)) @ Avec^T: rows i
        ascending, then row i's stored columns k, then column k's stored
        rows j.  Summing in that order by bincount reproduces its M."""
        A, AT = self.Avec, self.AvecT
        m = A.shape[0]
        per_entry = np.diff(AT.indptr)[A.indices]  # rows j under entry (i, k)
        self.entry = np.repeat(np.arange(A.nnz), per_entry)
        first = np.cumsum(per_entry) - per_entry
        pos = np.arange(self.entry.size) + np.repeat(
            AT.indptr[A.indices] - first, per_entry
        )
        rows = np.repeat(np.arange(m), np.diff(A.indptr))
        self.pair = rows[self.entry] * m + AT.indices[pos]
        self.right = AT.data[pos]


def _compile(prob: SdpProblem):
    m = prob.num_constraints
    compiled = []
    for bidx, blk in enumerate(prob.blocks):
        d = blk.dim
        psd = blk.kind == "psd"
        cmat = prob.objective.get(bidx)
        if psd:
            C = cmat.toarray() if cmat is not None else np.zeros((d, d))
        else:
            C = np.zeros(d)
            if cmat is not None:
                coo = cmat.tocoo()
                np.add.at(C, coo.row, coo.data)
        cons_all, idx_all, vals_all = [], [], []
        by_size = {}
        for j, cons in enumerate(prob.constraints):
            mat = cons.terms.get(bidx)
            if mat is None:
                continue
            coo = mat.tocoo()
            coo.sum_duplicates()
            cons_all.append(np.full(coo.nnz, j))
            idx_all.append(coo.row * d + coo.col if psd else coo.row)
            vals_all.append(coo.data)
            if psd:
                rset = np.unique(coo.row)
                slot = np.searchsorted(rset, coo.row)
                Asub = np.zeros((rset.size, d))
                np.add.at(Asub, (slot, coo.col), coo.data)
                by_size.setdefault(rset.size, []).append((j, rset, Asub))
        chunks = [] if psd else None
        for group in by_size.values():  # constraints with equally many rows
            for lo in range(0, len(group), _SCHUR_CHUNK):
                ids, rsets, subs = zip(*group[lo:lo + _SCHUR_CHUNK])
                chunks.append((np.array(ids), np.stack(rsets), np.stack(subs)))
        shape = (m, d * d if psd else d)
        if cons_all:
            Avec = sp.coo_matrix(
                (
                    np.concatenate(vals_all),
                    (np.concatenate(cons_all), np.concatenate(idx_all)),
                ),
                shape=shape,
            ).tocsr()
        else:
            Avec = sp.csr_matrix(shape)
        compiled.append(_CompiledBlock(blk.kind, d, C, Avec, chunks))
    return compiled


def _max_coefficient(prob: SdpProblem, compiled) -> float:
    best = 0.0
    for cb in compiled:
        if cb.Avec.nnz:
            best = max(best, float(np.abs(cb.Avec.data).max()))
        if np.size(cb.C):
            best = max(best, float(np.abs(cb.C).max()))
    if prob.num_constraints:
        best = max(best, float(np.abs(prob.rhs_vector()).max()))
    return best


def _apply_A(compiled, xblocks) -> np.ndarray:
    m = compiled[0].Avec.shape[0] if compiled else 0
    out = np.zeros(m)
    for cb, xb in zip(compiled, xblocks):
        out += cb.Avec @ xb.ravel()
    return out


def _apply_AT(cb: _CompiledBlock, y: np.ndarray):
    if cb.kind == "psd":
        Aty = (cb.AvecT @ y).reshape(cb.dim, cb.dim)
        return (Aty + Aty.T) / 2.0
    return cb.AvecT @ y


def _sym(cb: _CompiledBlock, a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 on psd blocks; other blocks are vectors, left as they are."""
    return (a + a.T) / 2.0 if cb.kind == "psd" else a


def _mul(cb: _CompiledBlock, a, b, c):
    """a b c, left to right: matrix products on psd blocks, elementwise ones
    on diagonal blocks; None on free blocks, which have no S^{-1}."""
    if cb.kind == "psd":
        return a @ b @ c
    return a * b * c if cb.kind == "diag" else None


def _add_traces(out, compiled, gblocks):
    """out_j += tr(A_jb G_b) over the blocks b, one block after another, in
    place; a None G_b (a free block) adds nothing."""
    for cb, G in zip(compiled, gblocks):
        if G is not None and cb.Avec.nnz:
            out += cb.Avec @ G.T.ravel()
    return out


def _dual_residuals(compiled, y, sblocks):
    """R_d = C - S - A^T(y), blockwise."""
    return [cb.C - sb - _apply_AT(cb, y) for cb, sb in zip(compiled, sblocks)]


def _dual_scale(compiled):
    """1 + ||C||_F, the denominator of the scaled dual residual."""
    return 1.0 + np.sqrt(sum(float((cb.C**2).sum()) for cb in compiled))


def _residual_triplet(compiled, bvec, dscale, xblocks, y, rd_blocks):
    m = bvec.size
    pres = 0.0
    if m:
        ax = _apply_A(compiled, xblocks)
        pres = float(np.max(np.abs(ax - bvec) / (1.0 + np.abs(bvec))))
    dual_sq = sum(float((rd**2).sum()) for rd in rd_blocks)
    dres = float(np.sqrt(dual_sq) / dscale)
    pobj = sum(float((cb.C * xb).sum()) for cb, xb in zip(compiled, xblocks))
    dobj = float(bvec @ y) if m else 0.0
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return pres, dres, gap, pobj, dobj


def residuals(prob: SdpProblem, xblocks, y, sblocks) -> tuple[float, float, float]:
    """Scaled primal/dual infeasibility and duality gap at a candidate point.

    primal: max_j |tr(A_j X) - b_j| / (1 + |b_j|)
    dual:   ||C - S - A^T(y)||_F / (1 + ||C||_F)
    gap:    |tr(C X) - b^T y| / (1 + |tr(C X)|)
    """
    compiled = _compile(prob)
    y = np.asarray(y, dtype=float)
    pres, dres, gap, _, _ = _residual_triplet(
        compiled, prob.rhs_vector(), _dual_scale(compiled), xblocks, y,
        _dual_residuals(compiled, y, sblocks),
    )
    return pres, dres, gap


def _potrf(a: np.ndarray, clean: int):
    """Lower Cholesky factor by dpotrf with the flags of scipy's `cholesky`
    (clean=1) or `cho_factor` (clean=0); None if `a` is not positive
    definite."""
    c, info = dpotrf(a, lower=1, clean=clean)
    return None if info > 0 else c


def _potrs(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} b by dpotrs, as scipy's `cho_solve((L, True), b)`."""
    return dpotrs(L, b, lower=1)[0]


def _trtrs(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b by dtrtrs, as scipy's `solve_triangular(L, b, lower=True)`:
    a factor that is not Fortran-ordered goes in as its transpose."""
    if L.flags.f_contiguous:
        return dtrtrs(L, b, lower=1, trans=0)[0]
    return dtrtrs(L.T, b, lower=0, trans=1)[0]


@lru_cache(maxsize=64)
def _syevr_work(n: int) -> tuple[int, int]:
    """(lwork, liwork) that scipy's `eigvalsh` passes dsyevr for order n."""
    work, iwork, _ = dsyevr_lwork(n, lower=1)
    return int(work), int(iwork)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues by dsyevr, as scipy's `eigvalsh(a)`."""
    if not np.isfinite(a).all():
        raise _NumericalProblem("non-finite direction")
    lwork, liwork = _syevr_work(a.shape[0])
    w, _, _, _, info = dsyevr(a, compute_v=0, range="A", lower=1,
                              lwork=lwork, liwork=liwork)
    if info:
        raise _NumericalProblem("eigenvalue iteration failed")
    return w


def _chol_factor_schur(M: np.ndarray):
    if not np.isfinite(M).all():
        raise _NumericalProblem("non-finite Schur complement")
    scale = max(1.0, float(np.abs(np.diag(M)).max())) if M.size else 1.0
    L = _potrf(M, clean=0)
    if L is not None:
        return L
    eye = np.eye(M.shape[0])
    for reg in _REG_LADDER:
        L = _potrf(M + reg * scale * eye, clean=0)
        if L is not None:
            return L
    raise _NumericalProblem("Schur complement factorization failed")


def _schur(compiled, xblocks, sblocks, sinv, m) -> np.ndarray:
    """M_jk = tr(A_j X A_k S^{-1}) over the blocks, symmetrized; bit for bit
    the per-constraint column loop that test_solver keeps as reference."""
    M = np.zeros((m, m))
    for cb, xb, sb, si in zip(compiled, xblocks, sblocks, sinv):
        if cb.Avec.nnz == 0 or cb.kind == "free":
            continue
        if cb.kind == "diag":
            weighted = cb.Avec.data * (xb / sb)[cb.Avec.indices]
            M += np.bincount(cb.pair, weighted[cb.entry] * cb.right,
                             minlength=m * m).reshape(m, m)
            continue
        for ids, rows, Asub in cb.chunks:
            # V_j = X[:, rows_j] @ (A_j[rows_j, :] @ S^{-1}), one per slice
            V = xb[:, rows].transpose(1, 0, 2) @ (Asub @ si)
            M[:, ids] += cb.Aused @ V.reshape(ids.size, -1).T[cb.vidx]
            del V  # free the (k, d, d) stack before the next chunk forms its own
    return (M + M.T) / 2.0


def _cone_factor(mat: np.ndarray, side: str) -> np.ndarray:
    """Lower Cholesky factor of a psd iterate, which is finite by construction."""
    L = _potrf(mat, clean=1)
    if L is None:
        raise _NumericalProblem(f"{side} iterate left the cone")
    return L


def _psd_inverse(L: np.ndarray) -> np.ndarray:
    inv = _potrs(L, np.eye(L.shape[0]))
    return (inv + inv.T) / 2.0


def _max_step_psd(L: np.ndarray, dX: np.ndarray) -> float:
    """Largest t with L L^T + t dX still positive semidefinite."""
    if not np.isfinite(dX).all():
        raise _NumericalProblem("non-finite direction")
    W = _trtrs(L, dX)
    W = _trtrs(L, W.T)
    lam = float(_eigvalsh((W + W.T) / 2.0)[0])
    return np.inf if lam >= 0.0 else -1.0 / lam


def _max_step_diag(x: np.ndarray, dx: np.ndarray) -> float:
    if not np.isfinite(dx).all():
        raise _NumericalProblem("non-finite direction")
    neg = dx < 0.0
    if not neg.any():
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _max_step(compiled, cones, dxblocks) -> float:
    """Largest step along `dxblocks`; `cones`: psd factors, diagonal iterates."""
    step = np.inf
    for cb, xb, dxb in zip(compiled, cones, dxblocks):
        if cb.kind == "free":
            if not np.isfinite(dxb).all():
                raise _NumericalProblem("non-finite direction")
            continue
        step = min(
            step,
            _max_step_psd(xb, dxb) if cb.kind == "psd" else _max_step_diag(xb, dxb),
        )
    return step


def solve(
    prob: SdpProblem, config: SolverConfig | None = None, trace=None
) -> SdpSolution:
    """Run the interior-point iteration on a standard-form problem.

    Returns the final iterate with one of the statuses Optimal,
    MaxIterations, NumericalFailure, or Unbounded; a line search stalled in
    both cones for three consecutive iterations also ends the run with
    MaxIterations.  `trace`, when given, receives one text line per
    iteration: iter=.. mu=.. pres=.. dres=.. gap=..
    """
    if any(c.sense != "=" for c in prob.constraints):
        raise ValueError("solver expects standard form (equalities only)")
    cfg = config or SolverConfig()
    compiled = _compile(prob)
    m = prob.num_constraints
    bvec = prob.rhs_vector()
    n_cone = sum(cb.dim for cb in compiled if cb.kind != "free")
    if n_cone == 0:
        raise ValueError("problem needs at least one cone block")
    free = [bi for bi, cb in enumerate(compiled) if cb.kind == "free"]
    if free:
        Bfree = np.hstack([compiled[bi].Avec.toarray() for bi in free])
        free_cuts = np.cumsum([compiled[bi].dim for bi in free])[:-1]

    dscale = _dual_scale(compiled)
    mu0 = max(1.0, 100.0 * _max_coefficient(prob, compiled))

    def start(cb):
        # mu_0 I on the cones; a free block and its dual slack start at
        # zero, the slack to stay there, so the residuals read B^T y = c_f
        if cb.kind == "psd":
            return np.eye(cb.dim) * mu0
        return np.full(cb.dim, mu0 if cb.kind == "diag" else 0.0)

    xblocks = [start(cb) for cb in compiled]
    sblocks = [start(cb) for cb in compiled]
    y = np.zeros(m)

    def snapshot(status: str, k: int) -> SdpSolution:
        pres, dres, gap, pobj, dobj = _residual_triplet(
            compiled, bvec, dscale, xblocks, y, _dual_residuals(compiled, y, sblocks)
        )
        return SdpSolution(
            status=status,
            xblocks=xblocks,
            y=y,
            sblocks=sblocks,
            primal_obj=pobj,
            dual_obj=dobj,
            gap=gap,
            primal_res=pres,
            dual_res=dres,
            iterations=k,
        )

    # A run that breaks down late should hand back its best iterate, not
    # whatever the failed step left behind.  Steps build new blocks and
    # lists, so holding on to an iterate needs no copy.
    best_score = np.inf
    best_state = None

    def fallback(status: str, k: int) -> SdpSolution:
        nonlocal xblocks, y, sblocks
        if best_state is not None:
            pres, dres, gap, _, _ = _residual_triplet(
                compiled, bvec, dscale, xblocks, y,
                _dual_residuals(compiled, y, sblocks),
            )
            if best_score < max(pres, dres, gap):
                xblocks, y, sblocks = best_state
        return snapshot(status, k)

    stall = 0
    k = 0
    try:
        for k in range(cfg.max_iter):
            rd_blocks = _dual_residuals(compiled, y, sblocks)
            pres, dres, gap, pobj, _ = _residual_triplet(
                compiled, bvec, dscale, xblocks, y, rd_blocks
            )
            mu = (
                sum(float((xb * sb).sum()) for xb, sb in zip(xblocks, sblocks))
                / n_cone
            )
            if trace is not None:
                trace.write(
                    f"iter={k} mu={mu:.6e} pres={pres:.6e} "
                    f"dres={dres:.6e} gap={gap:.6e}\n"
                )
            if gap <= cfg.gap_tol and pres <= cfg.feas_tol and dres <= cfg.feas_tol:
                return snapshot(OPTIMAL, k)
            if pobj < _UNBOUNDED_OBJ:
                return snapshot(UNBOUNDED, k)
            score = max(pres, dres, gap)
            if score < best_score:
                best_score, best_state = score, (xblocks, y, sblocks)

            # psd blocks: S^{-1} and both step lengths from one factor each
            sinv, xcones, scones = [], list(xblocks), list(sblocks)
            for bi, cb in enumerate(compiled):
                if cb.kind == "psd":
                    scones[bi] = _cone_factor(sblocks[bi], "dual")
                    sinv.append(_psd_inverse(scones[bi]))
                    xcones[bi] = _cone_factor(xblocks[bi], "primal")
                else:
                    sinv.append(1.0 / sblocks[bi] if cb.kind == "diag" else None)

            M = _schur(compiled, xblocks, sblocks, sinv, m)
            factor = _chol_factor_schur(M) if m else None
            b_eff = bvec
            if free:
                MiB = _potrs(factor, Bfree)
                BtMiB = Bfree.T @ MiB
                BtMiB_factor = _potrf((BtMiB + BtMiB.T) / 2.0, clean=0)
                if BtMiB_factor is None:
                    raise _NumericalProblem("free-variable complement is singular")
                rf_now = np.concatenate([rd_blocks[bi] for bi in free])
                b_eff = bvec - Bfree @ np.concatenate([xblocks[bi] for bi in free])

            # constant rhs pieces: tr(A_j S^{-1}) and tr(A_j X R_d S^{-1})
            a_sinv = _add_traces(np.zeros(m), compiled, sinv)
            g_rd = _add_traces(
                np.zeros(m), compiled, map(_mul, compiled, xblocks, rd_blocks, sinv)
            )

            def newton(sigma_mu: float, corr):
                rhs = b_eff - sigma_mu * a_sinv + g_rd
                if corr is not None:
                    # into rhs itself, block by block (module docstring)
                    _add_traces(rhs, compiled, map(_mul, compiled, *corr, sinv))
                if free:
                    u1 = _potrs(factor, rhs)
                    dfree = _potrs(BtMiB_factor, Bfree.T @ u1 - rf_now)
                    dy = u1 - MiB @ dfree
                    free_steps = iter(np.split(dfree, free_cuts))
                else:
                    dy = _potrs(factor, rhs) if m else np.zeros(0)
                dxb, dsb = [], []
                for bi, (cb, xb, si, rd) in enumerate(
                    zip(compiled, xblocks, sinv, rd_blocks)
                ):
                    if cb.kind == "free":
                        dxb.append(next(free_steps))
                        dsb.append(np.zeros(cb.dim))
                        continue
                    ds = rd - _apply_AT(cb, dy)
                    dx = sigma_mu * si - xb - _mul(cb, xb, ds, si)
                    if corr is not None:
                        dx = dx - _mul(cb, corr[0][bi], corr[1][bi], si)
                    dxb.append(_sym(cb, dx))
                    dsb.append(ds)
                return dxb, dy, dsb

            # predictor: pure Newton step toward complementarity zero
            dxa, dya, dsa = newton(0.0, None)
            ap_aff = min(1.0, _max_step(compiled, xcones, dxa))
            ad_aff = min(1.0, _max_step(compiled, scones, dsa))
            mu_aff = (
                sum(
                    float(((xb + ap_aff * dx) * (sb + ad_aff * ds)).sum())
                    for xb, dx, sb, ds in zip(xblocks, dxa, sblocks, dsa)
                )
                / n_cone
            )
            mu_aff = max(mu_aff, 0.0)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # corrector: recentered step with the second-order term
            dxb, dy, dsb = newton(sigma * mu, (dxa, dsa))
            ap = min(1.0, _TAU * _max_step(compiled, xcones, dxb))
            ad = min(1.0, _TAU * _max_step(compiled, scones, dsb))
            if ap < _STALL_STEP and ad < _STALL_STEP:
                stall += 1
                if stall >= 3:
                    return fallback(MAX_ITERATIONS, k)
            else:
                stall = 0

            xblocks = [_sym(cb, xb + ap * dx)
                       for cb, xb, dx in zip(compiled, xblocks, dxb)]
            sblocks = [_sym(cb, sb + ad * ds)
                       for cb, sb, ds in zip(compiled, sblocks, dsb)]
            y = y + ad * dy
    except _NumericalProblem:
        return fallback(NUMERICAL_FAILURE, k)

    return fallback(MAX_ITERATIONS, cfg.max_iter)
