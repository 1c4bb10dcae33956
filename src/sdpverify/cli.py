"""Command-line surface: verify, diagnose, sweep, compare, gen-fixtures.

Every subcommand runs the same pipeline skeleton: load a network, build
the input box, push interval bounds through the layers, prune provably
inactive neurons, then hand the instance to whichever analysis was asked
for: the margin SDP (`gamma`, read off in `_margin` only) or the
inscribed-ball SDP (`lambda*`, `_radius`), serially, on the standard form
that `_relaxation` builds.  Margin solves stop at gap 1e-6 and residuals
1e-7, inscribed-ball solves at 1e-8: the stopping rule decides what a
verdict means, so it is fixed, not an option.  Exit codes encode the
verification verdict so scripts can branch on them: 0 Robust,
1 Undetermined, 2 SolverFailed, 3 usage error.

Set the environment variable IPV_LOG to `1` (stderr) or to a file path
to print each margin and radius solve's iterations when the solve returns.

BLAS runs one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS says otherwise: which solves converge, and how fast on a
busy machine, depends on the thread count, and OpenBLAS reads it when
numpy first loads, so it is set before that.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .network import (  # noqa: E402
    Network,
    EmptyLayerError,
    forward,
    load,
    predict,
    prune_inactive,
    save,
    w_scale,
)
from .bounds import LayerBounds, input_box, propagate  # noqa: E402
from .sdpform import (  # noqa: E402
    VARIANT_NAMES,
    Variant,
    build_relaxation,
    build_strict_feasibility,
    dscale_diagonal,
    strict_feasibility_value,
    to_standard_form,
)
from . import solver as _solver  # noqa: E402
from .analysis import (  # noqa: E402
    BoundReport,
    SolveSummary,
    SweepRow,
    TargetResult,
    VerificationReport,
    format_csv,
    format_sweep_csv,
    min_eig_bound,
    min_eigenvalue,
    trace_bounds,
    verdict,
)
from .oracle import exact_gamma  # noqa: E402

__all__ = [
    "UsageError",
    "PreparedInstance",
    "SweepSpec",
    "random_instance",
    "prepare_instance",
    "run_verify",
    "run_diagnose",
    "run_sweep",
    "run_compare",
    "generate_fixtures",
    "main",
    "console_main",
]

EXIT_BY_VERDICT = {"Robust": 0, "Undetermined": 1, "SolverFailed": 2}

_VERIFY_CSV_COLUMNS = ("target", "variant", "gamma", "status", "iterations",
                       "gap", "lambda_min", "runtime_ms", "reason")
_COMPARE_CSV_COLUMNS = ("target", "gamma_star", "variant", "gamma", "exact_gap",
                        "status", "iterations", "gap", "reason")


# `run_compare`'s 1e-6 soundness slack and perfbench's reference
# tolerances assume these stopping rules.
_MARGIN_CONFIG = _solver.SolverConfig()
_RADIUS_CONFIG = _solver.SolverConfig(1e-8, 1e-8)  # gap, residuals


class UsageError(ValueError):
    """Bad invocation; maps to exit code 3."""


def random_instance(depth, width, seed=0):
    """Deterministic fixture: `depth` affine layers, `width` wide, 2 in, 2 out.

    Weights are normal with 1/sqrt(fan-in) scale, biases uniform in
    [-0.1, 0.1].  Every hidden layer draws from its own stream keyed by
    (seed, layer index), and the probe input and output layer from
    depth-free streams, so the depth-(d+1) fixture for a seed extends
    the depth-d one: depth comparisons probe nested prefixes instead of
    freshly resampled networks.
    """
    depth = int(depth)
    if depth < 2:
        raise ValueError("depth must be at least 2 affine layers")
    if width < 1:
        raise ValueError("width must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sizes = [2] + [width] * (depth - 1) + [2]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if i == depth - 1:
            rng = np.random.default_rng([seed, 7, width, 2, 2])
        else:
            rng = np.random.default_rng([seed, 101 + i, width, 2])
        weights.append(rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    center = 0.5 * np.random.default_rng([seed, 3, 2]).normal(size=2)
    return Network(weights=weights, biases=biases), center


@dataclass
class PreparedInstance:
    """A network and box after the shared preprocessing pipeline."""

    net: Network
    bounds: LayerBounds
    predicted: int
    pruned_neurons: int


def prepare_instance(net, center, rho, *, wscale=False, prune=True):
    center = np.asarray(center, dtype=float)
    if center.shape != (net.input_dim,):
        raise UsageError(
            f"input has {center.size} entries, network expects {net.input_dim}"
        )
    if not rho > 0:
        raise UsageError("rho must be positive")
    if wscale:
        net, _ = w_scale(net)
    lo, hi = input_box(center, rho)
    lb = propagate(net, lo, hi)
    pruned = 0
    if prune:
        try:
            net, report = prune_inactive(net, lb)
        except EmptyLayerError as exc:
            raise UsageError(
                f"network is constant on this box ({exc}); nothing to verify"
            ) from exc
        lb = report.bounds
        pruned = len(report.removed)
    return PreparedInstance(net, lb, predict(net, center), pruned)


def _competitors(prep, targets):
    if prep.net.output_dim < 2:
        raise UsageError("network has a single output label; nothing to target")
    if targets is None:
        return [t for t in range(prep.net.output_dim) if t != prep.predicted]
    out = []
    for t in targets:
        t = int(t)
        if not 0 <= t < prep.net.output_dim:
            raise UsageError(f"target {t} out of range")
        if t == prep.predicted:
            raise UsageError(f"target {t} is the predicted label")
        out.append(t)
    return out


def _relaxation(prep, target, variant, dscale=False):
    """The standard form of the relaxation against `target`."""
    return to_standard_form(build_relaxation(prep.net, prep.bounds, target,
                                             variant, dscale=dscale))


def _log(sol):
    """Print `sol.history` as IPV_LOG lines: `1`/`true`/`yes`/`stderr` to
    stderr, any other non-empty value appended to that file."""
    dest = os.environ.get("IPV_LOG", "").strip()
    if not dest:
        return
    text = "".join("iter=%d mu=%.6e pres=%.6e dres=%.6e gap=%.6e\n" % (k, *row)
                   for k, row in enumerate(sol.history))
    if sol.reason:
        text += f"reason={sol.reason}\n"
    if dest.lower() in ("1", "true", "yes", "stderr"):
        sys.stderr.write(text)
    else:
        with open(dest, "a") as fh:
            fh.write(text)


def _margin(std):
    """Solve the margin SDP; returns `(gamma, sol)`."""
    sol = _solver.solve(std, _MARGIN_CONFIG)
    _log(sol)
    return sol.primal_obj + std.obj_offset, sol


def _radius(std):
    """Solve the inscribed-ball SDP of `std`; returns `(lambda_star, sol)`."""
    sol = _solver.solve(build_strict_feasibility(std), _RADIUS_CONFIG)
    _log(sol)
    return strict_feasibility_value(sol), sol


def run_verify(net, center, rho, variant, *, targets=None, dscale=False,
               wscale=False, prune=True):
    """Solve the relaxation for each competitor label and fold a verdict."""
    prep = prepare_instance(net, center, rho, wscale=wscale, prune=prune)
    results = []
    for t in _competitors(prep, targets):
        std = _relaxation(prep, t, variant, dscale)
        t0 = time.perf_counter()
        gamma, sol = _margin(std)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        X = sol.xblocks[0]
        if dscale:
            d = dscale_diagonal(prep.bounds)
            X = X * np.outer(d, d)
        results.append(TargetResult.of(sol, target=t, gamma=gamma,
                                       lambda_min=min_eigenvalue(X),
                                       runtime_ms=elapsed_ms))
    return VerificationReport(
        verdict=verdict(results),
        predicted=prep.predicted,
        rho=float(rho),
        variant=variant.name,
        targets=results,
        pruned_neurons=prep.pruned_neurons,
        layer_sizes=list(prep.net.layer_sizes) + [prep.net.output_dim],
        dscale=dscale,
        wscale=wscale,
    )


def run_diagnose(net, center, rho, variant, *, dscale=False, wscale=False,
                 prune=True):
    """Measure the largest ball inscribed in the variant's feasible set.

    The verification objective is irrelevant here, so any competitor
    label serves to build the constraint system.
    """
    prep = prepare_instance(net, center, rho, wscale=wscale, prune=prune)
    target = _competitors(prep, None)[0]
    std = _relaxation(prep, target, variant, dscale)
    lambda_star, sol = _radius(std)
    center = np.asarray(center, dtype=float)
    return BoundReport.of(
        sol,
        variant=variant.name,
        lambda_star=lambda_star,
        min_eig_bound=min_eig_bound(prep.net, center, rho),
        trace_bounds=list(trace_bounds(prep.net, center, rho)),
        pruned_neurons=prep.pruned_neurons,
        layer_sizes=list(prep.net.layer_sizes) + [prep.net.output_dim],
    )


@dataclass
class SweepSpec:
    """Grid of depth/seed cells for the vanishing-interior sweep."""

    depths: list
    seeds: list
    width: int = 8
    rho: float = 0.1
    variants: list = field(default_factory=lambda: list(VARIANT_NAMES))

    def __post_init__(self):
        if not self.depths or not self.seeds or not self.variants:
            raise ValueError("depths, seeds, and variants must be non-empty")
        if self.width < 1:
            raise ValueError("width must be at least 1")
        for name in self.variants:
            Variant(name)


def run_sweep(spec: SweepSpec, *, clock=time.perf_counter):
    """One row per (depth, seed, variant): ball radius plus margin solve.

    Each (depth, seed) cell draws its fixture from `random_instance` and
    targets the highest-logit competitor (ties to the lower label).  Each
    variant is built once; the radius solve and then the margin solve run
    on the same standard form.  A row's `runtime_ms` covers the build and
    both solves, `radius_ms` and `margin_ms` each solve alone.  A row's
    `solution` is the margin solve's final iterate on that standard form,
    so `solution.xblocks[0]` is the moment matrix of the relaxation.  Rows
    come out in (depth, seed, variant) order.  Every fixture is drawn, and
    so checked, before the first solve.
    """
    variants = [Variant(name) for name in spec.variants]
    cells = [(depth, seed, *random_instance(depth, spec.width, seed=seed))
             for depth in spec.depths for seed in spec.seeds]
    rows = []
    for depth, seed, net, center in cells:
        prep = prepare_instance(net, center, spec.rho, prune=True)
        bound = min_eig_bound(prep.net, center, spec.rho)
        logits = forward(prep.net, center)
        target = max(_competitors(prep, None), key=lambda t: (logits[t], -t))
        for variant in variants:
            t0 = clock()
            std = _relaxation(prep, target, variant)
            t1 = clock()
            lambda_star, radius = _radius(std)
            t2 = clock()
            gamma, sol = _margin(std)
            t3 = clock()
            rows.append(SweepRow.of(
                sol, seed=seed, L=depth, variant=variant.name, target=target,
                gamma=gamma, lambda_star=lambda_star,
                radius=SolveSummary.of(radius), min_eig_bound=bound,
                runtime_ms=(t3 - t0) * 1e3, radius_ms=(t2 - t1) * 1e3,
                margin_ms=(t3 - t2) * 1e3, solution=sol,
            ))
    return rows


def run_compare(net, center, rho, *, targets=None, eps=Variant.eps,
                alpha=Variant.alpha):
    """Exact margin next to every variant's relaxed margin, per target."""
    prep = prepare_instance(net, center, rho, prune=True)
    out = {"predicted": prep.predicted, "rho": float(rho), "targets": []}
    for t in _competitors(prep, targets):
        gamma_star = exact_gamma(prep.net, prep.bounds, t)
        entry = {"target": t, "gamma_star": gamma_star, "variants": {}}
        for name in VARIANT_NAMES:
            variant = Variant(name, eps=eps, alpha=alpha)
            gamma, sol = _margin(_relaxation(prep, t, variant))
            if sol.status == _solver.OPTIMAL and gamma > gamma_star + 1e-6:
                raise RuntimeError(
                    f"relaxed margin {gamma} exceeds exact margin {gamma_star} "
                    f"for variant {name}: relaxation unsound"
                )
            entry["variants"][name] = {"gamma": gamma, "exact_gap": gamma_star - gamma,
                                       **asdict(SolveSummary.of(sol))}
        out["targets"].append(entry)
    return out


def generate_fixtures(out_dir, depths, seeds, width=8):
    """Write deterministic fixture networks plus a manifest describing them.

    Every fixture is drawn, and so checked, before the first file is written.
    """
    cells = [(depth, seed, *random_instance(depth, width, seed))
             for depth in depths for seed in seeds]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for depth, seed, net, center in cells:
        name = f"net_L{depth}_w{width}_s{seed}.json"
        save(net, out / name)
        entries.append({"depth": int(depth), "seed": int(seed), "path": name,
                        "center": [float(v) for v in center]})
    manifest = {
        "input_dim": 2,
        "output_dim": 2,
        "width": int(width),
        "entries": entries,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


# ---------------------------------------------------------------------------
# argument parsing and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _as_vector(data, source):
    """A decoded JSON value as a float vector; it must be a flat list."""
    try:
        vec = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{source}: not a flat list of numbers ({exc})") from exc
    if vec.ndim != 1:
        raise UsageError(f"{source}: not a flat list of numbers (shape {vec.shape})")
    return vec


def _parse_vector(text):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return _as_vector(json.load(fh), text[1:])
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"cannot parse input vector {text!r}") from exc


def _load_net_and_center(net_path, input_text):
    """A plain network file plus a vector, or a manifest plus an index."""
    try:
        with open(net_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read network file {net_path}: {exc}") from exc
    if isinstance(data, dict) and "entries" in data:
        if input_text is None:
            raise UsageError("a fixture manifest needs --input with an entry index")
        try:
            idx = int(input_text)
        except ValueError:
            raise UsageError("with a fixture manifest, --input must be an integer index")
        entries = data["entries"]
        if not isinstance(entries, list):
            raise UsageError(f"'entries' must be a list, not {type(entries).__name__}")
        if not 0 <= idx < len(entries):
            raise UsageError(f"manifest index {idx} out of range (0..{len(entries) - 1})")
        entry = entries[idx]
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and "center" in entry):
            raise UsageError(f"manifest entry {idx} needs a 'path' string and a 'center'")
        net = load(Path(net_path).parent / entry["path"])
        return net, _as_vector(entry["center"], f"manifest entry {idx} center")
    if input_text is None:
        raise UsageError("--input is required")
    try:
        int(input_text)
    except ValueError:
        pass
    else:
        raise UsageError("an index input needs a fixture manifest, not a network file")
    return load(net_path), _parse_vector(input_text)


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


def _add_instance_flags(p):
    p.add_argument("--net", required=True, help="network JSON file or fixture manifest")
    p.add_argument("--input", help="comma floats, @file.json, or manifest entry index")
    p.add_argument("--rho", type=float, required=True, help="input box half-width")


def _add_prepare_flags(p):
    """verify and diagnose; compare always prunes and never rescales."""
    p.add_argument("--wscale", action="store_true",
                   help="normalize hidden-layer row norms before verifying")
    p.add_argument("--no-prune", action="store_true",
                   help="keep provably inactive neurons (demonstrates vanishing)")


def _add_eps_alpha_flags(p):
    p.add_argument("--eps", type=float, default=Variant.eps,
                   help="complementarity band half-width for the eps variant")
    p.add_argument("--alpha", type=float, default=Variant.alpha,
                   help="negative-side slope for the leaky variant")


def _add_variant_flags(p):
    p.add_argument("--variant", choices=VARIANT_NAMES, default="base")
    _add_eps_alpha_flags(p)
    p.add_argument("--dscale", action="store_true",
                   help="build the relaxation conjugated by the interval upper bounds")


def _add_output_flags(p):
    p.add_argument("--out", help="write the report here instead of stdout")


def _add_per_target_flags(p):
    """verify and compare report one row per competitor label."""
    p.add_argument("--target", type=int,
                   help="single competitor label (default: every one)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser():
    parser = _Parser(prog="sdpverify",
                     description="Robustness verification of small feed-forward "
                                 "networks by semidefinite relaxation.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify label robustness on an input box")
    _add_instance_flags(pv)
    _add_prepare_flags(pv)
    _add_variant_flags(pv)
    _add_output_flags(pv)
    _add_per_target_flags(pv)

    pd = sub.add_parser("diagnose", help="measure strict feasibility of the relaxation")
    _add_instance_flags(pd)
    _add_prepare_flags(pd)
    _add_variant_flags(pd)
    _add_output_flags(pd)

    ps = sub.add_parser("sweep", help="depth sweep over random fixture networks")
    ps.add_argument("--depths", required=True, help="comma list of affine layer counts")
    ps.add_argument("--seed", action="append", required=True,
                    help="fixture seed; repeat or pass a comma list")
    ps.add_argument("--width", type=int, default=8)
    ps.add_argument("--rho", type=float, default=0.1)
    ps.add_argument("--variants", default=",".join(VARIANT_NAMES),
                    help="comma list of relaxation variants")
    ps.add_argument("--out", help="CSV output path (default stdout)")

    pc = sub.add_parser("compare", help="exact margins next to each variant's bound")
    _add_instance_flags(pc)
    _add_eps_alpha_flags(pc)
    _add_output_flags(pc)
    _add_per_target_flags(pc)

    pg = sub.add_parser("gen-fixtures", help="write deterministic fixture networks")
    pg.add_argument("--out", required=True, help="output directory")
    pg.add_argument("--depths", required=True, help="comma list of affine layer counts")
    pg.add_argument("--seed", action="append", required=True)
    pg.add_argument("--width", type=int, default=8)
    return parser


def _emit(text, out):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _seeds_from(args):
    seeds = []
    for chunk in args.seed:
        seeds.extend(_parse_int_list(chunk))
    return seeds


def _dispatch(args):
    if args.command == "verify":
        net, center = _load_net_and_center(args.net, args.input)
        variant = Variant(args.variant, eps=args.eps, alpha=args.alpha)
        targets = None if args.target is None else [args.target]
        report = run_verify(
            net, center, args.rho, variant,
            targets=targets, dscale=args.dscale, wscale=args.wscale,
            prune=not args.no_prune,
        )
        if args.format == "json":
            _emit(report.to_json(), args.out)
        else:
            _emit(format_csv(_VERIFY_CSV_COLUMNS, (
                {**vars(t), "variant": report.variant} for t in report.targets
            )), args.out)
        return EXIT_BY_VERDICT[report.verdict]

    if args.command == "diagnose":
        net, center = _load_net_and_center(args.net, args.input)
        variant = Variant(args.variant, eps=args.eps, alpha=args.alpha)
        report = run_diagnose(
            net, center, args.rho, variant,
            dscale=args.dscale, wscale=args.wscale,
            prune=not args.no_prune,
        )
        _emit(report.to_json(), args.out)
        return 0 if report.status == _solver.OPTIMAL else 2

    if args.command == "sweep":
        spec = SweepSpec(
            depths=_parse_int_list(args.depths),
            seeds=_seeds_from(args),
            width=args.width,
            rho=args.rho,
            variants=[v.strip() for v in args.variants.split(",") if v.strip()],
        )
        _emit(format_sweep_csv(run_sweep(spec)), args.out)
        return 0

    if args.command == "compare":
        net, center = _load_net_and_center(args.net, args.input)
        targets = None if args.target is None else [args.target]
        result = run_compare(
            net, center, args.rho,
            targets=targets, eps=args.eps, alpha=args.alpha,
        )
        if args.format == "json":
            _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
        else:
            _emit(format_csv(_COMPARE_CSV_COLUMNS, (
                {**entry, "variant": name, **cell}
                for entry in result["targets"]
                for name, cell in entry["variants"].items()
            )), args.out)
        return 0

    if args.command == "gen-fixtures":
        manifest = generate_fixtures(
            args.out, _parse_int_list(args.depths), _seeds_from(args), args.width
        )
        sys.stdout.write(f"{manifest}\n")
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _dispatch(parser.parse_args(argv))
    except (ValueError, OSError) as exc:  # UsageError and JSON errors too
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
