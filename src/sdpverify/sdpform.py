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

Every row is a hub row A = sym(e_r g^T), so tr(A P) = g . P[r] reads one
row of P.  The unit pin, relu-pos (relu-leak under `leaky`), relu-aff
and the objective hub at r = 0, the constant coordinate, with g carrying
the affine weights.  A relu-comp row hubs at its own neuron r = x_{i+1,j}
with g = e_r - W_i[j, :] on x_i - b_i[j] e_0, and a box row at its own
coordinate r = x_{i,j} with g = e_r - (l + u)_j e_0.  The builder lays
each family out as one block of hub indices and coefficient rows and
turns all rows into their terms in one vectorized pass.

With `dscale` the builder writes the same relaxation in the coordinates
P' = D^{-1} P D^{-1}, where D = diag(d) is `dscale_diagonal(bounds)`:
every coefficient matrix M becomes D M D, each entry (r, c) multiplied
by d_r d_c in that pass.  The optimal value is unchanged, a solution
maps back as P = D P' D, and the diagonal scales of the layers are
pulled toward each other.

The verification objective for a target label t against the predicted
label s is c^T x_H + c_0 with c = (W_out[s,:] - W_out[t,:])^T and
c_0 = b_out[s] - b_out[t]; a positive minimum certifies that the target
never overtakes the prediction on the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import LayerBounds
from .network import Network, predict

__all__ = [
    "Block",
    "Coo",
    "Constraint",
    "SdpProblem",
    "VariableLayout",
    "Variant",
    "VARIANT_NAMES",
    "check_instance",
    "build_relaxation",
    "dscale_diagonal",
    "to_standard_form",
    "build_strict_feasibility",
    "strict_feasibility_value",
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

    `eps` and `alpha` default to 1/100 each, and the CLI's `--eps` and
    `--alpha` and `run_compare` take these defaults.  Only the variant of
    the same name reads `eps` or `alpha`.
    """

    name: str
    eps: float = 0.01
    alpha: float = 0.01

    def __post_init__(self):
        if self.name not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.name!r}")
        if self.name == "eps" and not self.eps >= 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.name == "leaky" and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @classmethod
    def base(cls) -> "Variant":
        """`Variant("base")`; `perfbench/run.py` and `perfbench/workloads.py`
        call it."""
        return cls("base")


class Coo(NamedTuple):
    """One block's coefficient matrix as coordinate entries.  `Coo.of`
    stores them as scipy's `sum_duplicates` leaves a coo matrix: sorted by
    (row, col), repeated positions summed in entry order, explicit zeros
    kept.  Every term the package builds has that form, and the solver
    compiles a term's entries in the order it holds them.  Built field by
    field, a Coo may hold any order and repeat a position: it solves
    correctly, its repeats added up, but not bit for bit as its `Coo.of`
    form does."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, row, col, data, shape) -> "Coo":
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        if not row.ndim == 1 or not row.shape == col.shape == data.shape:
            raise ValueError("row, col and data must be 1-d and equally long")
        if row.size > 1:
            order = np.lexsort((col, row))
            row, col, data = row[order], col[order], data[order]
            first = np.ones(row.size, dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
            if not first.all():
                data = np.add.reduceat(data, np.flatnonzero(first))
                row, col = row[first], col[first]
        # rows are sorted now, so their ends bound them
        if row.size and not (0 <= row[0] and row[-1] < shape[0]
                             and 0 <= col.min() and col.max() < shape[1]):
            raise ValueError(f"entry index out of range for shape {shape}")
        return cls(row, col, data, tuple(shape))

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        """Dense matrix; duplicates add up in entry order, as in scipy."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.row, self.col), self.data)
        return out


@dataclass(frozen=True)
class Constraint:
    """tr(A X) (sense) rhs; `terms` maps block index to the block's A as a
    `Coo`, and blocks the constraint does not touch are left out."""

    terms: dict
    rhs: float
    sense: str
    label: str = ""


@dataclass
class SdpProblem:
    """Block-diagonal SDP: minimize sum_b tr(C_b X_b) + obj_offset.

    `objective` maps block index to C_b as a `Coo`, like
    `Constraint.terms`.  Treated as immutable once built; transforms
    return new problems.
    """

    blocks: tuple[Block, ...]
    objective: dict
    obj_offset: float
    constraints: list

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def rhs_vector(self) -> np.ndarray:
        return np.array([c.rhs for c in self.constraints])


def _hub_terms(rows, dim: int, d=None) -> list:
    """One `Coo` per hub row A = sym(e_r g^T), for which tr(A P) = g . P[r],
    or D A D with D = diag(d) when `d` is given.

    `rows` lists blocks of rows as (hub, cols, coefs): row k of a block has
    hub r = hub[k] and g[cols[k]] = coefs[k], zero elsewhere.  Weights equal
    to 0.0 are dropped; g_r stays on the diagonal and every other g_c is
    halved into (r, c) and (c, r).  A row names each coordinate at most
    once, so one sort by (row number, row, col) leaves every term as
    `Coo.of` would, with nothing to sum.
    """
    hubs = np.concatenate([hub for hub, _, _ in rows])
    widths = np.concatenate([np.full(hub.size, cols.shape[1]) for hub, cols, _ in rows])
    con = np.repeat(np.arange(hubs.size), widths)
    col = np.concatenate([cols.ravel() for _, cols, _ in rows])
    g = np.concatenate([coefs.ravel() for _, _, coefs in rows])
    keep = g != 0.0
    con, col, g = con[keep], col[keep], g[keep]
    hub = hubs[con]
    off = col != hub
    g = np.where(off, g / 2.0, g)
    con, g = np.concatenate([con, con[off]]), np.concatenate([g, g[off]])
    row, col = np.concatenate([hub, col[off]]), np.concatenate([col, hub[off]])
    order = np.lexsort((col, row, con))
    con, row, col, g = con[order], row[order], col[order], g[order]
    if d is not None:
        g = g * d[row] * d[col]
    ends = np.searchsorted(con, np.arange(hubs.size + 1)).tolist()
    return [Coo(row[a:b], col[a:b], g[a:b], (dim, dim))
            for a, b in zip(ends, ends[1:])]


def check_instance(net: Network, bounds: LayerBounds, target: int) -> int:
    """Check that `bounds` box every layer of `net` and that `target` is a
    label other than the one `net` predicts at the box center; return the
    predicted label."""
    if bounds.num_layers != net.num_hidden + 1:
        raise ValueError(
            f"bounds cover {bounds.num_layers - 1} hidden layers, "
            f"net has {net.num_hidden}"
        )
    for i, n in enumerate(net.layer_sizes):
        if bounds.lower(i).shape != (n,):
            raise ValueError(f"bounds at layer {i} do not match network width")
    if not 0 <= target < net.output_dim:
        raise ValueError(f"target {target} out of range for {net.output_dim} labels")
    predicted = predict(net, bounds.center)
    if target == predicted:
        raise ValueError(f"target {target} equals the predicted label")
    return predicted


def build_relaxation(
    net: Network, bounds: LayerBounds, target: int, variant: Variant,
    dscale: bool = False,
) -> SdpProblem:
    """Assemble the moment relaxation for one target label.

    Constraints are emitted layer-major: the unit pin, then per transition
    the relu families (each family over all neurons in order), then the box
    rows the variant keeps.  The target must differ from the label the net
    predicts at the box center, and a box whose l * u overflows is a
    ValueError.  With `dscale` every coefficient matrix is conjugated by
    the diagonal of `dscale_diagonal(bounds)` (module docstring), whose
    own check runs after these; a solution's psd block X maps back to the
    unscaled problem as X * outer(d, d).
    """
    H = net.num_hidden
    predicted = check_instance(net, bounds, target)
    layout = VariableLayout(net.layer_sizes)
    coord = np.arange(layout.dim)
    # (hub, cols, coefs) per family of rows, (rhs, sense, label) per row
    rows, heads = [(coord[:1], coord[:1, None], np.ones((1, 1)))], [(1.0, "=", "unit")]

    def family(name, hub, cols, coefs, rhs, sense):
        rows.append((hub, cols, coefs))
        heads.extend((r, sense, f"{name}[{j}]")
                     for j, r in enumerate(np.broadcast_to(rhs, hub.shape).tolist()))

    for i in range(H):
        W, b = net.weights[i], net.biases[i]
        out = coord[layout.layer_slice(i + 1), None]
        lin = np.hstack([out, np.broadcast_to(coord[layout.layer_slice(i)], W.shape)])
        at0, ones = np.zeros(len(b), dtype=np.int64), np.ones((len(b), 1))
        if variant.name == "leaky":
            family(f"relu-leak[{i}]", at0, lin, np.hstack([ones, -variant.alpha * W]),
                   variant.alpha * b, ">=")
        else:
            family(f"relu-pos[{i}]", at0, out, ones, 0.0, ">=")
        family(f"relu-aff[{i}]", at0, lin, np.hstack([ones, -W]), b, ">=")

        if variant.name != "problem-a":
            comp = (out[:, 0], np.hstack([lin, at0[:, None]]),
                    np.hstack([ones, -W, -b[:, None]]))
            if variant.name == "eps":
                family(f"relu-comp-ub[{i}]", *comp, variant.eps, "<=")
                family(f"relu-comp-lb[{i}]", *comp, -variant.eps, ">=")
            elif variant.name == "leaky":
                family(f"relu-comp-ub[{i}]", *comp, 0.0, "<=")
            else:
                family(f"relu-comp[{i}]", *comp, 0.0, "=")

    for i in [0] if variant.name == "bremove" else range(H + 1):
        l, u = bounds.boxes[i]
        with np.errstate(over="ignore"):
            lu = -l * u
        if not np.isfinite(lu).all():
            raise ValueError(f"box of layer {i} is too wide: l * u overflows")
        hub = coord[layout.layer_slice(i)]
        family(f"box[{i}]", hub, np.stack([hub, np.zeros_like(hub)], axis=1),
               np.stack([np.ones(hub.size), -(l + u)], axis=1), lu, "<=")

    c = net.weights[-1][predicted, :] - net.weights[-1][target, :]
    c0 = float(net.biases[-1][predicted] - net.biases[-1][target])
    *terms, objective = _hub_terms(
        rows + [(coord[:1], coord[None, layout.layer_slice(H)], c[None, :])],
        layout.dim, dscale_diagonal(bounds) if dscale else None,
    )
    return SdpProblem(
        blocks=(Block("psd", layout.dim),),
        objective={0: objective},
        obj_offset=c0,
        constraints=[Constraint({0: t}, *head) for t, head in zip(terms, heads)],
    )


def dscale_diagonal(bounds: LayerBounds) -> np.ndarray:
    """The diagonal d of the scaling D, one entry per moment coordinate.

    d is 1 at the constant coordinate, the input upper-bound magnitudes
    (floored at 1e-6) on the input block, and the hidden upper bounds
    elsewhere, which must be strictly positive (prune first).
    """
    d = [np.ones(1), np.maximum(np.abs(bounds.upper(0)), 1e-6)]
    for i in range(1, bounds.num_layers):
        u = bounds.upper(i)
        if (u <= 0.0).any():
            raise ValueError(
                f"layer {i} has a non-positive upper bound; prune inactive neurons"
            )
        d.append(u)
    return np.concatenate(d)


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
        terms[slack_block] = Coo.of([slot], [slot], [sign], (n_ineq, n_ineq))
        constraints.append(Constraint(terms, c.rhs, "=", c.label))
        slot += 1
    return SdpProblem(
        blocks=prob.blocks + (Block("diag", n_ineq),),
        objective=dict(prob.objective),
        obj_offset=prob.obj_offset,
        constraints=constraints,
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
        # tr(A_j) over the shifted blocks, summed block after block
        t = sum(float(mat.data[mat.row == mat.col].sum())
                for mat in map(c.terms.get, shifted) if mat is not None)
        terms = dict(c.terms)
        if t != 0.0:
            terms[lam_block] = Coo.of([0], [0], [t], (1, 1))
        constraints.append(Constraint(terms, c.rhs, "=", c.label))
    objective = {lam_block: Coo.of([0], [0], [-1.0], (1, 1))}
    return SdpProblem(
        blocks=prob.blocks + (Block("free", 1),),
        objective=objective,
        obj_offset=0.0,
        constraints=constraints,
    )


def strict_feasibility_value(solution) -> float:
    """lambda* recovered from a solved strict-feasibility problem."""
    return -solution.primal_obj
