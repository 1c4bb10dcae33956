"""Semidefinite relaxations of ReLU robustness verification.

The lifted variable is the moment matrix P of v = (1, x_0, ..., x_H), where
x_0 is the input and x_i the post-ReLU activations, so P has dimension
1 + sum(n_i).  Dropping the rank-one requirement leaves the constraints

    unit:       P[1,1] = 1
    relu-pos:   P[x_{i+1}] >= 0
    relu-aff:   P[x_{i+1}] >= W_i P[x_i] + b_i
    relu-comp:  diag(P[x_{i+1} x_{i+1}^T] - W_i P[x_i x_{i+1}^T])
                  - b_i . P[x_{i+1}] = 0
    box:        diag(P[x_i x_i^T]) - (l_i + u_i) . P[x_i] + l_i . u_i <= 0
    psd:        P >= 0

with the box constraints tying each layer to its interval bounds.  The
relaxation variants keep or loosen pieces of this family; every variant's
feasible set contains the base one, so its optimum can only be lower.

The verification objective for a target label t against the predicted
label s is c^T x_H + c_0 with c = (W_out[s,:] - W_out[t,:])^T and
c_0 = b_out[s] - b_out[t]; a positive minimum certifies that the target
never overtakes the prediction on the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bounds import LayerBounds
from .network import Network, predict

__all__ = [
    "Block",
    "Constraint",
    "SdpProblem",
    "VariableLayout",
    "Variant",
    "VARIANT_NAMES",
    "build_relaxation",
    "apply_dscale",
    "unscale_psd_block",
    "to_standard_form",
    "build_strict_feasibility",
    "strict_feasibility_value",
    "lifted_point",
    "objective_value",
    "constraint_violations",
    "write_sdpa",
    "read_sdpa",
]


@dataclass(frozen=True)
class Block:
    """One block of the variable: 'psd', 'diag', or unconstrained 'free'."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("psd", "diag", "free"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be positive")


@dataclass(frozen=True)
class VariableLayout:
    """Index map from (layer, neuron) into the moment matrix.

    Position 0 is the constant-one coordinate; layer i occupies
    offsets[i] .. offsets[i] + sizes[i] - 1.
    """

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("layout needs positive layer sizes")
        offs, pos = [], 1
        for n in self.sizes:
            offs.append(pos)
            pos += n
        object.__setattr__(self, "offsets", tuple(offs))

    @property
    def dim(self) -> int:
        return 1 + sum(self.sizes)

    def index(self, layer: int, j: int) -> int:
        if not 0 <= j < self.sizes[layer]:
            raise IndexError(f"neuron {j} out of range for layer {layer}")
        return self.offsets[layer] + j

    def layer_slice(self, layer: int) -> slice:
        off = self.offsets[layer]
        return slice(off, off + self.sizes[layer])


VARIANT_NAMES = ("base", "eps", "leaky", "bremove", "problem-a")


@dataclass(frozen=True)
class Variant:
    """Which pieces of the constraint family the relaxation keeps.

    base       the full family above
    eps        relu-comp widened to a band of half-width eps
    leaky      relu-pos sloped by alpha, relu-comp one-sided
    bremove    box constraints kept only at the input layer
    problem-a  relu-comp dropped, boxes kept everywhere
    """

    name: str
    eps: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.name not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.name!r}")
        if self.name == "eps" and not self.eps >= 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.name == "leaky" and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @classmethod
    def base(cls) -> "Variant":
        return cls("base")

    @classmethod
    def epsilon(cls, eps: float = 0.01) -> "Variant":
        return cls("eps", eps=eps)

    @classmethod
    def leaky(cls, alpha: float = 0.01) -> "Variant":
        return cls("leaky", alpha=alpha)

    @classmethod
    def bremove(cls) -> "Variant":
        return cls("bremove")

    @classmethod
    def problem_a(cls) -> "Variant":
        return cls("problem-a")

    @classmethod
    def parse(cls, name: str, eps: float = 0.01, alpha: float = 0.01) -> "Variant":
        if name == "eps":
            return cls.epsilon(eps)
        if name == "leaky":
            return cls.leaky(alpha)
        return cls(name)


@dataclass(frozen=True)
class Constraint:
    """tr(A X) (sense) rhs, with per-block coefficient matrices."""

    terms: dict
    rhs: float
    sense: str
    label: str = ""


@dataclass
class SdpProblem:
    """Block-diagonal SDP: minimize sum_b tr(C_b X_b) + obj_offset.

    Treated as immutable once built; transforms return new problems.
    `layout` indexes block 0 by network layer when a relaxation built it;
    `dscale` is the diagonal D of `apply_dscale` once applied, which
    `unscale_psd_block` undoes.  The standard-form and strict-feasibility
    transforms carry both over.
    """

    blocks: tuple[Block, ...]
    objective: dict
    obj_offset: float
    constraints: list
    layout: VariableLayout | None = None
    dscale: np.ndarray | None = None

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def rhs_vector(self) -> np.ndarray:
        return np.array([c.rhs for c in self.constraints])

    def validate(self) -> None:
        """Shape, sense, and symmetry checks; raises ValueError on the first
        violation.  The package never calls it; tests run it on built and
        hand-made problems."""
        for where, terms in [("objective", self.objective)] + [
            (c.label or f"constraint {k}", c.terms)
            for k, c in enumerate(self.constraints)
        ]:
            for bidx, mat in terms.items():
                if not 0 <= bidx < len(self.blocks):
                    raise ValueError(f"{where}: bad block index {bidx}")
                blk = self.blocks[bidx]
                if mat.shape != (blk.dim, blk.dim):
                    raise ValueError(f"{where}: coefficient shape {mat.shape}")
                coo = mat.tocoo()
                if blk.kind == "psd":
                    _check_symmetric(coo, where)
                elif not (coo.row == coo.col).all():
                    raise ValueError(
                        f"{where}: off-diagonal entry in {blk.kind} block"
                    )
        for k, c in enumerate(self.constraints):
            if c.sense not in ("=", "<=", ">="):
                raise ValueError(f"constraint {k}: bad sense {c.sense!r}")
            if not np.isfinite(c.rhs):
                raise ValueError(f"constraint {k}: non-finite rhs")


def _check_symmetric(coo: sp.coo_matrix, where: str) -> None:
    order_fwd = np.lexsort((coo.col, coo.row))
    order_bwd = np.lexsort((coo.row, coo.col))
    same = (
        (coo.row[order_fwd] == coo.col[order_bwd]).all()
        and (coo.col[order_fwd] == coo.row[order_bwd]).all()
    )
    scale = np.abs(coo.data).max() if coo.nnz else 1.0
    if not same or not np.allclose(
        coo.data[order_fwd], coo.data[order_bwd], atol=1e-12 * (1.0 + scale)
    ):
        raise ValueError(f"{where}: coefficient matrix not symmetric")


class _SymAccum:
    """Builds a symmetric coefficient matrix from logical P-entry weights.

    add(p, q, c) contributes c * P[p, q] to the linear functional; off the
    diagonal the weight is split across the (p, q) and (q, p) slots so that
    tr(A P) reproduces it.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, p: int, q: int, coeff: float) -> None:
        if coeff == 0.0:
            return
        if p == q:
            self.rows.append(p)
            self.cols.append(q)
            self.vals.append(coeff)
        else:
            half = coeff / 2.0
            self.rows.extend((p, q))
            self.cols.extend((q, p))
            self.vals.extend((half, half))

    def matrix(self) -> sp.coo_matrix:
        m = sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        )
        m.sum_duplicates()
        return m


def build_relaxation(
    net: Network, bounds: LayerBounds, target: int, variant: Variant
) -> SdpProblem:
    """Assemble the moment relaxation for one target label.

    Constraints are emitted layer-major: the unit pin, then per transition
    the relu families (each family over all neurons in order), then the box
    rows the variant keeps.  The target must differ from the label the net
    predicts at the box center.
    """
    H = net.num_hidden
    if bounds.num_layers != H + 1:
        raise ValueError(
            f"bounds cover {bounds.num_layers - 1} hidden layers, net has {H}"
        )
    for i in range(H + 1):
        if bounds.lower(i).shape[0] != net.layer_sizes[i]:
            raise ValueError(f"bounds at layer {i} do not match network width")
    if not 0 <= target < net.output_dim:
        raise ValueError(f"target {target} out of range for {net.output_dim} labels")
    predicted = predict(net, bounds.center)
    if target == predicted:
        raise ValueError(f"target {target} equals the predicted label")

    layout = VariableLayout(net.layer_sizes)
    dim = layout.dim
    constraints: list[Constraint] = []

    def emit(acc: _SymAccum, rhs: float, sense: str, label: str) -> None:
        constraints.append(Constraint({0: acc.matrix()}, float(rhs), sense, label))

    unit = _SymAccum(dim)
    unit.add(0, 0, 1.0)
    emit(unit, 1.0, "=", "unit")

    for i in range(H):
        W, b = net.weights[i], net.biases[i]
        n_out = W.shape[0]

        def lin_terms(acc: _SymAccum, j: int, scale: float) -> None:
            # scale * (W[j,:] . P[x_i]) gathered into the first row
            for l in range(W.shape[1]):
                acc.add(0, layout.index(i, l), scale * W[j, l])

        if variant.name == "leaky":
            for j in range(n_out):
                acc = _SymAccum(dim)
                acc.add(0, layout.index(i + 1, j), 1.0)
                lin_terms(acc, j, -variant.alpha)
                emit(acc, variant.alpha * b[j], ">=", f"relu-leak[{i}][{j}]")
        else:
            for j in range(n_out):
                acc = _SymAccum(dim)
                acc.add(0, layout.index(i + 1, j), 1.0)
                emit(acc, 0.0, ">=", f"relu-pos[{i}][{j}]")

        for j in range(n_out):
            acc = _SymAccum(dim)
            acc.add(0, layout.index(i + 1, j), 1.0)
            lin_terms(acc, j, -1.0)
            emit(acc, b[j], ">=", f"relu-aff[{i}][{j}]")

        if variant.name != "problem-a":

            def comp_row(j: int) -> _SymAccum:
                acc = _SymAccum(dim)
                out = layout.index(i + 1, j)
                acc.add(out, out, 1.0)
                for l in range(W.shape[1]):
                    acc.add(layout.index(i, l), out, -W[j, l])
                acc.add(0, out, -b[j])
                return acc

            if variant.name == "eps":
                for j in range(n_out):
                    emit(comp_row(j), variant.eps, "<=", f"relu-comp-ub[{i}][{j}]")
                for j in range(n_out):
                    emit(comp_row(j), -variant.eps, ">=", f"relu-comp-lb[{i}][{j}]")
            elif variant.name == "leaky":
                for j in range(n_out):
                    emit(comp_row(j), 0.0, "<=", f"relu-comp-ub[{i}][{j}]")
            else:
                for j in range(n_out):
                    emit(comp_row(j), 0.0, "=", f"relu-comp[{i}][{j}]")

    box_layers = [0] if variant.name == "bremove" else range(H + 1)
    for i in box_layers:
        l, u = bounds.boxes[i]
        for j in range(layout.sizes[i]):
            acc = _SymAccum(dim)
            idx = layout.index(i, j)
            acc.add(idx, idx, 1.0)
            acc.add(0, idx, -(l[j] + u[j]))
            emit(acc, -l[j] * u[j], "<=", f"box[{i}][{j}]")

    c = net.weights[-1][predicted, :] - net.weights[-1][target, :]
    c0 = float(net.biases[-1][predicted] - net.biases[-1][target])
    obj = _SymAccum(dim)
    for j in range(layout.sizes[H]):
        obj.add(0, layout.index(H, j), c[j])
    return SdpProblem(
        blocks=(Block("psd", dim),),
        objective={0: obj.matrix()},
        obj_offset=c0,
        constraints=constraints,
        layout=layout,
    )


def apply_dscale(prob: SdpProblem, bounds: LayerBounds) -> SdpProblem:
    """Conjugate every coefficient matrix by a diagonal scaling D.

    D carries 1 at the constant coordinate, the input upper-bound
    magnitudes (floored at 1e-6) on the input block, and the hidden upper
    bounds elsewhere.  Replacing each matrix M by D M D leaves the optimal
    value unchanged while the variable maps to D^{-1} X D^{-1}, which pulls
    wildly different diagonal scales toward each other.  Hidden entries
    must be strictly positive (prune first).
    """
    if prob.layout is None:
        raise ValueError("problem has no variable layout; build it first")
    if prob.dscale is not None:
        raise ValueError("diagonal scaling already applied")
    layout = prob.layout
    d = np.ones(layout.dim)
    l0, u0 = bounds.boxes[0]
    d[layout.layer_slice(0)] = np.maximum(np.abs(u0), 1e-6)
    for i in range(1, bounds.num_layers):
        u = bounds.upper(i)
        if (u <= 0.0).any():
            raise ValueError(
                f"layer {i} has a non-positive upper bound; prune inactive neurons"
            )
        d[layout.layer_slice(i)] = u

    def scale_terms(terms: dict) -> dict:
        out = {}
        for bidx, mat in terms.items():
            if bidx != 0:
                out[bidx] = mat
                continue
            coo = mat.tocoo()
            out[bidx] = sp.coo_matrix(
                (coo.data * d[coo.row] * d[coo.col], (coo.row, coo.col)),
                shape=coo.shape,
            )
        return out

    return SdpProblem(
        blocks=prob.blocks,
        objective=scale_terms(prob.objective),
        obj_offset=prob.obj_offset,
        constraints=[
            Constraint(scale_terms(c.terms), c.rhs, c.sense, c.label)
            for c in prob.constraints
        ],
        layout=prob.layout,
        dscale=d,
    )


def unscale_psd_block(prob: SdpProblem, X: np.ndarray) -> np.ndarray:
    """Map a solution block of a scaled problem to original coordinates."""
    if prob.dscale is None:
        return X
    return X * np.outer(prob.dscale, prob.dscale)


def to_standard_form(prob: SdpProblem) -> SdpProblem:
    """Turn inequalities into equalities with one shared slack block.

    Each inequality receives a nonnegative slack living in a single
    diagonal block appended after the existing blocks; constraint order is
    preserved and slack slots follow it.  A problem with no inequalities
    is already in standard form and comes back as the same object.
    """
    n_ineq = sum(1 for c in prob.constraints if c.sense != "=")
    if n_ineq == 0:
        return prob
    slack_block = len(prob.blocks)
    constraints = []
    slot = 0
    for c in prob.constraints:
        if c.sense == "=":
            constraints.append(c)
            continue
        sign = 1.0 if c.sense == "<=" else -1.0
        terms = dict(c.terms)
        terms[slack_block] = sp.coo_matrix(
            ([sign], ([slot], [slot])), shape=(n_ineq, n_ineq)
        )
        constraints.append(Constraint(terms, c.rhs, "=", c.label))
        slot += 1
    return SdpProblem(
        blocks=prob.blocks + (Block("diag", n_ineq),),
        objective=dict(prob.objective),
        obj_offset=prob.obj_offset,
        constraints=constraints,
        layout=prob.layout,
        dscale=prob.dscale,
    )


def build_strict_feasibility(prob: SdpProblem) -> SdpProblem:
    """Inscribed-ball problem: how far does the feasible slice reach inside?

    For the standard-form problem {tr(A_j X) = b_j, X >= 0} the returned
    problem maximizes lambda subject to tr(A_j (X + lambda I)) = b_j with
    X >= 0; its optimal value is positive exactly when the original problem
    is strictly feasible, and measures the radius of the identity-direction
    ball the constraints admit.  lambda lives in a trailing free block (it
    can be negative), and the identity shift applies only to the psd blocks
    of the original variable, never to slack blocks.  The original
    objective is discarded; we minimize -lambda, so the optimal value is
    -(lambda*).
    """
    if any(c.sense != "=" for c in prob.constraints):
        raise ValueError("strict-feasibility transform needs standard form")
    shifted = [i for i, blk in enumerate(prob.blocks) if blk.kind == "psd"]
    if not shifted:
        raise ValueError("no psd block to shift")
    lam_block = len(prob.blocks)
    constraints = []
    for c in prob.constraints:
        t = 0.0
        for bidx in shifted:
            mat = c.terms.get(bidx)
            if mat is not None:
                coo = mat.tocoo()
                on_diag = coo.row == coo.col
                t += float(coo.data[on_diag].sum())
        terms = dict(c.terms)
        if t != 0.0:
            terms[lam_block] = sp.coo_matrix(([t], ([0], [0])), shape=(1, 1))
        constraints.append(Constraint(terms, c.rhs, "=", c.label))
    objective = {lam_block: sp.coo_matrix(([-1.0], ([0], [0])), shape=(1, 1))}
    return SdpProblem(
        blocks=prob.blocks + (Block("free", 1),),
        objective=objective,
        obj_offset=0.0,
        constraints=constraints,
        layout=prob.layout,
        dscale=prob.dscale,
    )


def strict_feasibility_value(solution) -> float:
    """lambda* recovered from a solved strict-feasibility problem."""
    return -solution.primal_obj


def lifted_point(layout: VariableLayout, acts: list[np.ndarray]) -> np.ndarray:
    """Rank-one moment matrix of a concrete activation trace."""
    if tuple(len(a) for a in acts) != layout.sizes:
        raise ValueError("activation trace does not match layout")
    v = np.concatenate([[1.0]] + [np.asarray(a, dtype=float) for a in acts])
    return np.outer(v, v)


def _term_value(mat, xb) -> float:
    coo = mat.tocoo()
    if xb.ndim == 1:
        return float(coo.data @ xb[coo.row])
    return float(coo.data @ xb[coo.row, coo.col])


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


def write_sdpa(prob: SdpProblem, path: str) -> None:
    """Serialize a standard-form problem in the sparse SDPA text format.

    Layout: constraint count, block count, block dimensions (diagonal
    blocks negative), the right-hand side, then one line per upper-triangle
    entry as `<constraint> <block> <i> <j> <value>` with 1-based indices;
    constraint 0 holds the objective.  An external solver maximizing
    tr(F_0 Y) over the file recovers the negated minimum.
    """
    if any(c.sense != "=" for c in prob.constraints):
        raise ValueError("SDPA export needs standard form (equalities only)")
    if any(b.kind == "free" for b in prob.blocks):
        raise ValueError("SDPA format cannot express free blocks")
    lines = [
        f"{prob.num_constraints}",
        f"{len(prob.blocks)}",
        " ".join(
            str(b.dim if b.kind == "psd" else -b.dim) for b in prob.blocks
        ),
        " ".join(_fmt(c.rhs) for c in prob.constraints),
    ]
    entries = []

    def collect(cons_no: int, terms: dict) -> None:
        for bidx in sorted(terms):
            coo = terms[bidx].tocoo()
            coo.sum_duplicates()
            upper = coo.row <= coo.col
            rows, cols, vals = coo.row[upper], coo.col[upper], coo.data[upper]
            order = np.lexsort((cols, rows))
            for r, cc, v in zip(rows[order], cols[order], vals[order]):
                if v != 0.0:
                    entries.append((cons_no, bidx + 1, int(r) + 1, int(cc) + 1, v))

    collect(0, prob.objective)
    for k, c in enumerate(prob.constraints):
        collect(k + 1, c.terms)
    for cons_no, blk, i, j, v in entries:
        lines.append(f"{cons_no} {blk} {i} {j} {_fmt(v)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    return repr(float(v))


def read_sdpa(path: str) -> SdpProblem:
    """Parse a sparse SDPA file written by write_sdpa (round-trip checks)."""
    with open(path) as fh:
        tokens_lines = [ln.split() for ln in fh if ln.strip() and ln[0] not in "*\""]
    m = int(tokens_lines[0][0])
    nblocks = int(tokens_lines[1][0])
    dims = [int(t) for t in tokens_lines[2][:nblocks]]
    blocks = tuple(
        Block("psd" if d > 0 else "diag", abs(d)) for d in dims
    )
    rhs = [float(t) for t in tokens_lines[3][:m]]
    obj_entries: dict[int, list] = {}
    cons_entries: list[dict[int, list]] = [dict() for _ in range(m)]
    for toks in tokens_lines[4:]:
        cons_no, blk, i, j, v = (
            int(toks[0]),
            int(toks[1]) - 1,
            int(toks[2]) - 1,
            int(toks[3]) - 1,
            float(toks[4]),
        )
        sink = obj_entries if cons_no == 0 else cons_entries[cons_no - 1]
        triplets = sink.setdefault(blk, [])
        triplets.append((i, j, v))
        if i != j:
            triplets.append((j, i, v))

    def build(entry_map: dict[int, list]) -> dict:
        out = {}
        for bidx, trip in entry_map.items():
            rows = [t[0] for t in trip]
            cols = [t[1] for t in trip]
            vals = [t[2] for t in trip]
            d = blocks[bidx].dim
            out[bidx] = sp.coo_matrix((vals, (rows, cols)), shape=(d, d))
        return out

    return SdpProblem(
        blocks=blocks,
        objective=build(obj_entries),
        obj_offset=0.0,
        constraints=[
            Constraint(build(cons_entries[k]), rhs[k], "=", f"row[{k}]")
            for k in range(m)
        ],
    )
