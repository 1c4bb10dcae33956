"""Primal-dual interior-point solver for block-diagonal SDPs.

Standard form: minimize sum_b tr(C_b X_b) subject to sum_b tr(A_jb X_b) = b_j
and every block of X positive semidefinite (diagonal blocks are elementwise
nonnegative vectors; free blocks are unconstrained).  The method is an
infeasible-start path follower using the HKM direction with Mehrotra's
predictor-corrector.  `_iterate` runs it for both solve paths below,
which supply only their arithmetic: step 1 is their `measure`, 2-5 their
`step`.

    1. residuals  r_p = b - A(X), R_d = C - S - A^T(y), mu = <X, S>/n
    2. predictor  solve the Newton system with sigma = 0
    3. centering  sigma = (mu_aff / mu)^3 from the boundary step lengths
    4. corrector  re-solve against the sigma mu I target plus the
                  second-order term dX_aff dS_aff S^{-1}, reusing the
                  factorization
    5. step       fraction _TAU to the boundary, separately for X and (y, S)

`_iterate` runs step 1 once per iterate, records it in `history` and
stops there on Optimal or Unbounded.  A numerical breakdown, the
iteration cap _MAX_ITER, or a step below _STALL_STEP in both cones three
times in a row also ends the run, which then returns the iterate before
that step or the best earlier one by max(pres, dres, gap), whichever
scores lower, with the residuals, gap and objectives its step 1 found.

Eliminating dX and dS leaves the Schur system M dy = rhs with
M_jk = tr(A_j X A_k S^{-1}).  Constraint matrices here have few nonzero
rows r_j, so column j of M needs only V_j = X[:, r_j] (A_j[r_j, :] S^{-1}),
formed in one stacked product per chunk of constraints with as many rows.
A diagonal block adds Avec diag(x/s) Avec^T, which scipy's csr_matmat
forms into an output sized once per solve and csr_todense adds into M.
One Cholesky factor each of X and S per iteration serves S^{-1} and the
psd step lengths; the diagonal blocks of both sides share one ratio
test.  Factorizations, solves and eigenvalues call LAPACK directly with
the arguments scipy.linalg would pass, and sparse products call scipy's
csr_matvec, csr_matvecs, csr_matmat and csr_todense kernels directly as
scipy.sparse would, without the per-call checks and dispatch, so the
iterates are bit for bit those of the scipy calls.  Those kernels live
in the compiled modules scipy/linalg/_flapack and scipy/sparse/_sparsetools,
loaded from scipy's install directory at import time under private
names (sdpverify._flapack, sdpverify._sparsetools).  Neither scipy.linalg
nor scipy.sparse is imported: their package imports cost most of a
process's start-up time and memory, for ten compiled functions.  The
private names keep a later import of scipy.sparse intact: an extension
loaded under its scipy.* name would already sit in sys.modules when
scipy.sparse imports it, and would not be bound as its attribute.

The constraint data is compiled once per solve, per problem block and in
block order, from all (constraint, row, col, value) triplets of the block
at once, taken in the order the `Coo` terms hold them (its docstring) and
laid out as csr arrays with one row per constraint.  The iterates are
held per problem block too, so the solution hands back the final iterate
as it is.

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

A problem whose blocks are all diagonal is a linear program, and `solve`
hands it to `_solve_lp`; a problem with any psd or free block takes the
general loop `_solve_blocks`.  The choice reads only the block kinds.
The exact oracle's LPs are tiny (3 to 7 constraints over at most a dozen
columns in the benchmark's pool), so numpy's per-call cost, not
arithmetic, sets their time: the LP path builds a dense A (m, n) and c
once from the constraint terms, with no compile or csr arrays, and then
A x, A^T y and the Schur matrix (A diag(x/s)) A^T are one BLAS call
each.  Its `step` is the same predictor-corrector on the vectors x, s
and y, and it shares the input checks, mu_0 and the Unbounded threshold
with the general loop through `_checked_start`.  Its dense products and
dot products round differently from the csr kernels and sums, so its
iterates are not bit for bit those of the general loop, which stays the
tests' reference for LPs.

Everything is deterministic: same problem and config, same iterates.
A solve does no I/O: it records each iteration's mu, residuals and gap
in the solution's `history`, which the CLI prints when IPV_LOG is set.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import PathFinder
from typing import NamedTuple

import numpy as np

from .sdpform import SdpProblem


def _load_scipy_extension(subpackage: str, name: str):
    """scipy's compiled module `<subpackage>/<name>`, loaded from its file
    as `sdpverify.<name>` without running any scipy `__init__`."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("sdpverify needs scipy, which is not installed",
                          name="scipy")
    dirs = [os.path.join(d, subpackage)
            for d in scipy_spec.submodule_search_locations]
    found = PathFinder.find_spec(name, dirs)
    if found is None or not found.has_location:
        raise ImportError(f"scipy has no compiled module {subpackage}/{name}",
                          name=f"scipy.{subpackage}.{name}")
    spec = importlib.util.spec_from_file_location(f"{__package__}.{name}",
                                                  found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_scipy_extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
dsyevr, dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork
_sparsetools = _load_scipy_extension("sparse", "_sparsetools")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs
csr_matmat, csr_matmat_maxnnz = _sparsetools.csr_matmat, _sparsetools.csr_matmat_maxnnz
csr_todense = _sparsetools.csr_todense

__all__ = [
    "OPTIMAL",
    "MAX_ITERATIONS",
    "NUMERICAL_FAILURE",
    "UNBOUNDED",
    "SolverConfig",
    "SdpSolution",
    "solve",
]

OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"
UNBOUNDED = "Unbounded"

# Objective below this times the largest coefficient magnitude (at least
# 1) is treated as a divergence certificate.
_UNBOUNDED_OBJ = -1e12
# Schur regularization ladder, relative to the diagonal scale.
_REG_LADDER = tuple(1e-12 * 10.0**k for k in range(7))
# Steps below this in both cones count as a stall.
_STALL_STEP = 1e-10
# Iterations before a solve ends MaxIterations.
_MAX_ITER = 200
# Fraction of the distance to the cone boundary taken by each step.
_TAU = 0.95
# Most constraints per stacked Schur product; bounds its (k, d, d) temporary.
_SCHUR_CHUNK = 16


class _NumericalProblem(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """When a solve stops: gap and feasibility tolerances.  Every solve
    also stops after _MAX_ITER iterations.

    The iteration itself has no settings.  It starts from X = S = mu_0 I
    with mu_0 = 100 times the largest input coefficient magnitude, floored
    at 1 so the start never degenerates on all-zero data, and every step
    goes the fraction _TAU of the way to the cone boundary.
    """

    gap_tol: float = 1e-6
    feas_tol: float = 1e-7

    def __post_init__(self):
        if not all(0 < tol < math.inf for tol in (self.gap_tol, self.feas_tol)):
            raise ValueError("tolerances must be finite and positive")


@dataclass
class SdpSolution:
    """Final iterate of a solve run, whatever the status.

    `history[k]` is `(mu, pres, dres, gap)` at the start of iteration k.
    `reason` is a NumericalFailure's breakdown message, else empty.
    """

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
    history: list
    reason: str = ""


class _Csr(NamedTuple):
    """Compressed sparse rows with int64 indices, its fields named as on a
    scipy csr matrix, so that `_matvec` takes either."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


class _CompiledBlock:
    """Per-block constraint data in solver-friendly form."""

    def __init__(self, kind, dim, C, Avec, AvecT, chunks):
        self.kind = kind
        self.dim = dim
        self.C = C  # dense (d, d) for psd, (d,) for diag
        self.Avec = Avec  # csr: (m, d*d) for psd, (m, d) for diag
        self.AvecT = AvecT  # csr: Avec.T
        self.nnz = Avec.data.size
        self.chunks = chunks  # psd: (ids, rows (k, r), A[rows, :] (k, r, d))
        if kind == "psd":
            # Avec on its nonzero columns c = a*d + b, each read off V_j[b, a]
            # distinct columns; np.unique would import numpy.ma
            used = np.sort(Avec.indices)
            used = used[np.diff(used, prepend=-1) != 0]
            cols = np.searchsorted(used, Avec.indices)
            self.Aused = _Csr(Avec.indptr, cols, Avec.data,
                              (Avec.shape[0], used.size))
            self.vidx = (used % dim) * dim + used // dim
        elif kind == "diag":
            # csr arrays of (Avec diag(w)) @ Avec^T, sized once for every w
            m = Avec.shape[0]
            nnz = csr_matmat_maxnnz(m, m, Avec.indptr, Avec.indices,
                                    AvecT.indptr, AvecT.indices)
            self.product = (np.empty(m + 1, dtype=np.int64),
                            np.empty(nnz, dtype=np.int64), np.empty(nnz))


def _csr(data, indices, owner, shape) -> _Csr:
    """Row `owner[i]` holds entry i; entries come sorted by row."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=shape[0]), out=indptr[1:])
    return _Csr(indptr, indices, data, shape)


def _triplets(present, mats):
    """(constraint, row, col, value) of the entries of `mats`, the `Coo`
    terms of constraints `present` (ascending), one term after another in
    the order each holds its entries.  The terms are only read."""
    if not mats:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0)
    j = np.repeat(present, [mat.data.size for mat in mats])
    row = np.concatenate([mat.row for mat in mats], dtype=np.int64)
    col = np.concatenate([mat.col for mat in mats], dtype=np.int64)
    val = np.concatenate([mat.data for mat in mats], dtype=float)
    return j, row, col, val


def _psd_chunks(present, j, row, col, val, d, m):
    """A psd block's constraints in chunks of at most _SCHUR_CHUNK with
    equally many nonzero rows r: (ids, rows (k, r), A_j[rows, :] (k, r, d)).
    Row counts come in order of first appearance, ids ascending.  A_j's
    rows are the runs of equal row among its entries, and entries at one
    place add up, so a term in any order gives the same A_j."""
    new = np.ones(j.size, dtype=bool)
    new[1:] = (j[1:] != j[:-1]) | (row[1:] != row[:-1])
    nrows = np.bincount(j[new], minlength=m)
    start = np.cumsum(nrows) - nrows  # first (j, row) pair of each j
    slot = np.cumsum(new) - 1 - start[j]  # entry's row within A_j's rows
    rows_of = row[new]
    sizes = nrows[present]
    chunks = []
    for r in sizes[np.sort(np.unique(sizes, return_index=True)[1])]:
        group = present[sizes == r]
        for lo in range(0, group.size, _SCHUR_CHUNK):
            ids = group[lo:lo + _SCHUR_CHUNK]
            mine = np.isin(j, ids)
            Asub = np.zeros((ids.size, r, d))
            np.add.at(Asub, (np.searchsorted(ids, j[mine]), slot[mine], col[mine]),
                      val[mine])
            rows = rows_of[start[ids][:, None] + np.arange(r)]
            chunks.append((ids, rows, Asub))
    return chunks


def _compile(prob: SdpProblem):
    """One `_CompiledBlock` per block of `prob`, in block order; an
    all-diagonal problem takes `_solve_lp` and `_lp_data` instead."""
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
                np.add.at(C, cmat.row, cmat.data)
        present, mats = [], []
        for j, cons in enumerate(prob.constraints):
            mat = cons.terms.get(bidx)
            if mat is not None:
                present.append(j)
                mats.append(mat)
        present = np.array(present, dtype=np.int64)
        j, row, col, val = _triplets(present, mats)
        # the csr arrays tocsr gives: entries by (j, column); transposed,
        # by (column, j), which a stable sort on the column yields
        ncols = d * d if psd else d
        idx = row * d + col if psd else row
        Avec = _csr(val, idx, j, (m, ncols))
        by_col = np.argsort(idx, kind="stable")
        AvecT = _csr(val[by_col], j[by_col], idx[by_col], (ncols, m))
        chunks = _psd_chunks(present, j, row, col, val, d, m) if psd else None
        compiled.append(_CompiledBlock(blk.kind, d, C, Avec, AvecT, chunks))
    return compiled


def _matvec(A, x: np.ndarray) -> np.ndarray:
    """A @ x for a csr A (a `_Csr` or a scipy csr matrix) and a vector x, as
    scipy computes it: its csr_matvec kernel into a fresh zero array,
    without the per-call dispatch.  The kernel reads x unchecked, hence
    the length check."""
    m, n = A.shape
    if x.shape != (n,):
        raise ValueError(f"matvec: expected shape ({n},), got {x.shape}")
    out = np.zeros(m)
    csr_matvec(m, n, A.indptr, A.indices, A.data, x, out)
    return out


def _matvecs(A, X: np.ndarray) -> np.ndarray:
    """A @ X for a csr A and a 2-d X, as scipy computes it: its csr_matvecs
    kernel, which for one column adds csr_matvec's products in its order."""
    m, n = A.shape
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"matvecs: expected shape ({n}, k), got {X.shape}")
    k = X.shape[1]
    out = np.zeros((m, k))
    csr_matvecs(m, n, k, A.indptr, A.indices, A.data, X.ravel(), out.ravel())
    return out


def _max_coefficient(cs: list, avals: list, bvec: np.ndarray) -> float:
    """Largest magnitude in C (the arrays `cs`), A (`avals`) and b; a
    non-finite entry is a ValueError."""
    best = 0.0
    for name, arrays in (("C", cs), ("A", avals), ("b", [bvec])):
        tops = [float(np.abs(a).max()) for a in arrays if np.size(a)]
        if not np.isfinite(tops).all():
            raise ValueError(f"problem data {name} is not finite")
        best = max([best, *tops])
    return best


def _checked_start(prob: SdpProblem, n_cone: int, cs: list, avals: list,
                   bvec: np.ndarray) -> tuple[float, float, float]:
    """(mu_0, Unbounded threshold, dual residual scale) of `prob`, whose C
    and A values either solve path holds in the arrays `cs` and `avals`,
    with `n_cone` cone coordinates.  A problem the iteration cannot start
    on is a ValueError: not in standard form, a free block but no
    constraint, no cone, non-finite data, or a start whose <X, S> = n
    mu_0^2 overflows."""
    if any(c.sense != "=" for c in prob.constraints):
        raise ValueError("solver expects standard form (equalities only)")
    if not prob.constraints and any(blk.kind == "free" for blk in prob.blocks):
        raise ValueError("a free block needs at least one constraint")
    if n_cone == 0:
        raise ValueError("problem needs at least one cone block")
    cmax = _max_coefficient(cs, avals, bvec)
    mu0 = max(1.0, 100.0 * cmax)
    if not np.isfinite(n_cone * mu0 * mu0):
        raise ValueError(f"problem data too large: the start's <X, S> = n mu_0^2 "
                         f"overflows at mu_0 = {mu0:.3g}")
    return mu0, _UNBOUNDED_OBJ * max(1.0, cmax), _dual_scale(cs)


def _apply_AT(cb: _CompiledBlock, y: np.ndarray):
    if cb.kind == "psd":
        Aty = _matvec(cb.AvecT, y).reshape(cb.dim, cb.dim)
        return (Aty + Aty.T) / 2.0
    return _matvec(cb.AvecT, y)


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
        if G is not None and cb.nnz:
            out += _matvec(cb.Avec, G.T.ravel())
    return out


def _dual_residuals(compiled, y, sblocks):
    """R_d = C - S - A^T(y), blockwise."""
    return [cb.C - sb - _apply_AT(cb, y) for cb, sb in zip(compiled, sblocks)]


def _dual_scale(cs: list):
    """1 + ||C||_F over the arrays `cs`, the denominator of the scaled dual
    residual."""
    return 1.0 + np.sqrt(sum(float((C**2).sum()) for C in cs))


def _residual_triplet(compiled, bvec, dscale, xblocks, y, rd_blocks):
    m = bvec.size
    pres = 0.0
    if m:
        ax = _add_traces(np.zeros(m), compiled, xblocks)
        pres = float(np.max(np.abs(ax - bvec) / (1.0 + np.abs(bvec))))
    dual_sq = sum(float((rd**2).sum()) for rd in rd_blocks)
    dres = float(np.sqrt(dual_sq) / dscale)
    pobj = sum(float((cb.C * xb).sum()) for cb, xb in zip(compiled, xblocks))
    dobj = float(bvec @ y) if m else 0.0
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return pres, dres, gap, pobj, dobj


def _potrf(a: np.ndarray):
    """Lower Cholesky factor by dpotrf as `cho_factor(a, lower=True)`, whose
    upper triangle no caller reads; None if `a` is not positive definite."""
    c, info = dpotrf(a, lower=1, clean=0)
    return None if info > 0 else c


def _potrs(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} b by dpotrs, as scipy's `cho_solve((L, True), b)`."""
    return dpotrs(L, b, lower=1)[0]


def _trtrs(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b by dtrtrs, as scipy's `solve_triangular(L, b, lower=True)`
    for a Fortran-ordered L, as `_potrf` gives."""
    return dtrtrs(L, b, lower=1, trans=0)[0]


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
    L = _potrf(M)
    if L is not None:
        return L
    scale = max(1.0, float(np.abs(np.diag(M)).max())) if M.size else 1.0
    eye = np.eye(M.shape[0])
    for reg in _REG_LADDER:
        L = _potrf(M + reg * scale * eye)
        if L is not None:
            return L
    raise _NumericalProblem("Schur complement factorization failed")


def _schur(compiled, xblocks, sblocks, sinv, m) -> np.ndarray:
    """M_jk = tr(A_j X A_k S^{-1}) over the blocks, symmetrized; bit for bit
    the per-constraint column loop that test_solver keeps as reference."""
    M = np.zeros((m, m))
    for cb, xb, sb, si in zip(compiled, xblocks, sblocks, sinv):
        if cb.nnz == 0 or cb.kind == "free":
            continue
        if cb.kind == "diag":
            # M += (Avec diag(x/s)) @ Avec^T as scipy's csr @ csr and
            # toarray form it; M holds no -0.0, so adding 0.0 changes nothing
            A, AT = cb.Avec, cb.AvecT
            csr_matmat(m, m, A.indptr, A.indices, A.data * (xb / sb)[A.indices],
                       AT.indptr, AT.indices, AT.data, *cb.product)
            csr_todense(m, m, *cb.product, M)
            continue
        for ids, rows, Asub in cb.chunks:
            # V_j = X[:, rows_j] @ (A_j[rows_j, :] @ S^{-1}), one per slice
            V = xb[:, rows].transpose(1, 0, 2) @ (Asub @ si)
            M[:, ids] += _matvecs(cb.Aused, V.reshape(ids.size, -1).T[cb.vidx])
            del V  # free the (k, d, d) stack before the next chunk forms its own
    return (M + M.T) / 2.0


def _cone_factor(mat: np.ndarray, side: str) -> np.ndarray:
    """Lower Cholesky factor of a psd iterate, which is finite by construction."""
    L = _potrf(mat)
    if L is None:
        raise _NumericalProblem(f"{side} iterate left the cone")
    return L


def _psd_inverse(L: np.ndarray) -> np.ndarray:
    inv = _potrs(L, np.eye(L.shape[0]))
    return (inv + inv.T) / 2.0


def _max_step_psd(L: np.ndarray, dX: np.ndarray) -> float:
    """Largest t with L L^T + t dX psd; `_eigvalsh` rejects a non-finite dX."""
    W = _trtrs(L, dX)
    W = _trtrs(L, W.T)
    lam = float(_eigvalsh((W + W.T) / 2.0)[0])
    return np.inf if lam >= 0.0 else -1.0 / lam


def _ratio_steps(x: np.ndarray, dx: np.ndarray, s: np.ndarray, ds: np.ndarray,
                 frac: float) -> tuple[float, float]:
    """min(1, frac * t) for the largest t >= 0 with x + t dx >= 0, and the
    same for (s, ds), by one ratio test over both pairs."""
    d = np.concatenate((dx, ds))
    if not np.isfinite(d).all():
        raise _NumericalProblem("non-finite direction")
    t = np.divide(np.concatenate((x, s)), d, out=np.full(d.size, -np.inf),
                  where=d < 0.0)
    p, q = np.maximum.reduceat(t, (0, x.size)).tolist()
    return min(1.0, -frac * p), min(1.0, -frac * q)


def _steps(compiled, xcones, dX, scones, dS, frac: float) -> tuple[float, float]:
    """(primal, dual) step lengths min(1, frac * t), t the largest step along
    dX (dS) that keeps every block in its cone; `xcones`, `scones`: psd
    factors, diagonal iterates.  The diagonal blocks of both sides take one
    `_ratio_steps`; a non-finite direction anywhere is a _NumericalProblem."""
    tx = ts = np.inf
    diag = []
    for cb, x, dx, s, ds in zip(compiled, xcones, dX, scones, dS):
        if cb.kind == "psd":
            tx = min(tx, _max_step_psd(x, dx))
            ts = min(ts, _max_step_psd(s, ds))
        elif cb.kind == "diag":
            diag.append((x, dx, s, ds))
        elif not (np.isfinite(dx).all() and np.isfinite(ds).all()):
            raise _NumericalProblem("non-finite direction")
    ap = ad = 1.0
    if diag:
        ap, ad = _ratio_steps(*map(np.concatenate, zip(*diag)), frac)
    return min(ap, frac * tx), min(ad, frac * ts)


def solve(prob: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Run the interior-point iteration on a standard-form problem.

    Returns the final iterate with one of the statuses Optimal,
    MaxIterations, NumericalFailure, or Unbounded; a line search stalled in
    both cones for three consecutive iterations also ends the run with
    MaxIterations.  Its `history` holds one (mu, pres, dres, gap) row per
    iteration started.  A non-finite entry in C, A or b is a ValueError,
    and so is data large enough that the start's <X, S> overflows.  A
    problem whose blocks are all diagonal runs on the dense LP path
    (module docstring).
    """
    cfg = config or SolverConfig()
    if all(blk.kind == "diag" for blk in prob.blocks):
        return _solve_lp(prob, cfg)
    return _solve_blocks(prob, cfg)


def _centering(mu_aff: float, mu: float) -> float:
    """Mehrotra's sigma = (mu_aff / mu)^3, mu_aff floored at 0 and sigma
    clipped to [0, 1]."""
    return min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3)) if mu > 0 else 0.0


def _iterate(cfg: SolverConfig, state, unbounded_obj: float, measure, step,
             blocks) -> SdpSolution:
    """The iteration policy of both solve paths (module docstring), from
    the start `state`.  `measure(state)` gives (pres, dres, gap, pobj, dobj,
    mu, aux), `step(state, mu, aux)` the next state with its primal and
    dual step lengths, and `blocks(state)` the solution's (xblocks, y,
    sblocks).  Each iterate is measured once: its measurement goes with it
    into the best iterate kept and into the solution.  Steps build new
    arrays, so keeping the best state needs no copy."""
    history = []
    best_score, best = np.inf, None
    status, stall, k, reason = MAX_ITERATIONS, 0, 0, ""

    def finish(state, meas, status):
        pres, dres, gap, pobj, dobj = meas[:5]
        return SdpSolution(status, *blocks(state), pobj, dobj, gap, pres, dres,
                           k, history, reason)

    try:
        for k in range(_MAX_ITER):
            meas = measure(state)
            pres, dres, gap, pobj, _, mu, aux = meas
            history.append((mu, pres, dres, gap))
            if gap <= cfg.gap_tol and pres <= cfg.feas_tol and dres <= cfg.feas_tol:
                return finish(state, meas, OPTIMAL)
            if pobj < unbounded_obj:
                return finish(state, meas, UNBOUNDED)
            score = max(pres, dres, gap)
            if score < best_score:
                best_score, best = score, (state, meas)
            nxt, ap, ad = step(state, mu, aux)
            stall = stall + 1 if ap < _STALL_STEP and ad < _STALL_STEP else 0
            if stall >= 3:
                break
            state = nxt
        else:
            k = _MAX_ITER
            meas = measure(state)
    except _NumericalProblem as exc:
        status, reason = NUMERICAL_FAILURE, str(exc)
    if best is not None and best_score < max(meas[:3]):
        state, meas = best
    return finish(state, meas, status)


def _lp_data(prob: SdpProblem):
    """Dense A (m, n) and c of an all-diagonal problem, whose blocks'
    columns follow one another in block order, and where each block but
    the first starts.  Entries at one place add up in entry order."""
    offsets = np.cumsum([0] + [blk.dim for blk in prob.blocks])
    c = np.zeros(int(offsets[-1]))
    for b, mat in prob.objective.items():
        np.add.at(c, mat.row + offsets[b], mat.data)
    A = np.zeros((prob.num_constraints, c.size))
    terms = [(j, b, mat) for j, cons in enumerate(prob.constraints)
             for b, mat in cons.terms.items()]
    if terms:
        np.add.at(A, (np.repeat([j for j, _, _ in terms],
                                [mat.data.size for _, _, mat in terms]),
                      np.concatenate([mat.row + offsets[b] for _, b, mat in terms])),
                  np.concatenate([mat.data for _, _, mat in terms]))
    return A, c, offsets[1:-1]


# A diverging iterate makes dense products warn where the general loop's
# csr kernels stay silent; a non-finite direction still ends the solve as
# NumericalFailure.
@np.errstate(invalid="ignore", over="ignore")
def _solve_lp(prob: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """`_solve_blocks`'s iteration on an all-diagonal problem, with x, s
    and y as vectors and A dense (module docstring)."""
    A, c, cuts = _lp_data(prob)
    m, n = A.shape
    bvec = prob.rhs_vector()
    mu0, unbounded_obj, dscale = _checked_start(prob, n, [c], [A], bvec)
    bscale = 1.0 + np.abs(bvec)

    def measure(state):
        x, y, s = state
        rd = c - s - A.T @ y
        pres = float((np.abs(A @ x - bvec) / bscale).max()) if m else 0.0
        dres = math.sqrt(rd @ rd) / dscale
        pobj = float(c @ x)
        dobj = float(bvec @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        return pres, dres, gap, pobj, dobj, float(x @ s) / n, rd

    def step(state, mu, rd):
        x, y, s = state
        sinv, w = 1.0 / s, x / s
        if m:
            M = (A * w) @ A.T
            factor = _chol_factor_schur((M + M.T) / 2.0)
        a_sinv = A @ sinv
        g_rd = A @ (w * rd)

        def newton(sigma_mu: float, corr):
            rhs = bvec - sigma_mu * a_sinv + g_rd
            if corr is not None:
                rhs += A @ corr
            dy = _potrs(factor, rhs) if m else rhs  # empty
            ds = rd - A.T @ dy
            dx = sigma_mu * sinv - x - w * ds
            return (dx if corr is None else dx - corr), dy, ds

        dxa, _, dsa = newton(0.0, None)
        ap_aff, ad_aff = _ratio_steps(x, dxa, s, dsa, 1.0)
        mu_aff = float((x + ap_aff * dxa) @ (s + ad_aff * dsa)) / n
        dx, dy, ds = newton(_centering(mu_aff, mu) * mu, dxa * dsa * sinv)
        ap, ad = _ratio_steps(x, dx, s, ds, _TAU)
        return (x + ap * dx, y + ad * dy, s + ad * ds), ap, ad

    def blocks(state):
        x, y, s = state
        return np.split(x, cuts), y, np.split(s, cuts)

    state = (np.full(n, mu0), np.zeros(m), np.full(n, mu0))
    return _iterate(cfg, state, unbounded_obj, measure, step, blocks)


def _solve_blocks(prob: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """The iteration over compiled blocks of any kind (module docstring)."""
    m = prob.num_constraints
    compiled = _compile(prob)
    bvec = prob.rhs_vector()
    n_cone = sum(cb.dim for cb in compiled if cb.kind != "free")
    mu0, unbounded_obj, dscale = _checked_start(
        prob, n_cone, [cb.C for cb in compiled], [cb.Avec.data for cb in compiled],
        bvec)
    free = [bi for bi, cb in enumerate(compiled) if cb.kind == "free"]
    if free:
        Bfree = np.hstack([_matvecs(compiled[bi].Avec, np.eye(compiled[bi].dim))
                           for bi in free])
        free_cuts = np.cumsum([compiled[bi].dim for bi in free])[:-1]

    def start(blk):
        # mu_0 I on the cones; a free block and its dual slack start at
        # zero, the slack to stay there, so the residuals read B^T y = c_f
        if blk.kind == "psd":
            return np.eye(blk.dim) * mu0
        return np.full(blk.dim, mu0 if blk.kind == "diag" else 0.0)

    def measure(state):
        xblocks, y, sblocks = state
        rd_blocks = _dual_residuals(compiled, y, sblocks)
        mu = sum(float((xb * sb).sum()) for xb, sb in zip(xblocks, sblocks)) / n_cone
        return (*_residual_triplet(compiled, bvec, dscale, xblocks, y, rd_blocks),
                mu, rd_blocks)

    def step(state, mu, rd_blocks):
        xblocks, y, sblocks = state
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
            BtMiB_factor = _potrf((BtMiB + BtMiB.T) / 2.0)
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
                _add_traces(rhs, compiled, corr)
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
                    dx = dx - corr[bi]
                dxb.append(_sym(cb, dx))
                dsb.append(ds)
            return dxb, dy, dsb

        # predictor: pure Newton step toward complementarity zero
        dxa, _, dsa = newton(0.0, None)
        ap_aff, ad_aff = _steps(compiled, xcones, dxa, scones, dsa, 1.0)
        mu_aff = sum(
            float(((xb + ap_aff * dx) * (sb + ad_aff * ds)).sum())
            for xb, dx, sb, ds in zip(xblocks, dxa, sblocks, dsa)
        ) / n_cone

        # corrector: recentered step with the second-order term
        # dX_aff dS_aff S^{-1}, formed once for the rhs and for dX
        corr = list(map(_mul, compiled, dxa, dsa, sinv))
        dxb, dy, dsb = newton(_centering(mu_aff, mu) * mu, corr)
        ap, ad = _steps(compiled, xcones, dxb, scones, dsb, _TAU)
        xblocks = [_sym(cb, xb + ap * dx)
                   for cb, xb, dx in zip(compiled, xblocks, dxb)]
        sblocks = [_sym(cb, sb + ad * ds)
                   for cb, sb, ds in zip(compiled, sblocks, dsb)]
        return (xblocks, y + ad * dy, sblocks), ap, ad

    state = ([start(blk) for blk in prob.blocks], np.zeros(m),
             [start(blk) for blk in prob.blocks])
    return _iterate(cfg, state, unbounded_obj, measure, step, lambda state: state)
