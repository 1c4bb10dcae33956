"""Command-line surface: verify, diagnose, sweep, compare, gen-fixtures.

Every subcommand runs the same pipeline skeleton: load a network, build
the input box, push interval bounds through the layers, prune provably
inactive neurons, then hand the instance to whichever analysis was asked
for: the margin SDP (`gamma`, read off in `_margin` only) or the
inscribed-ball SDP (`lambda*`, `_radius`), serially, on the standard form
that `_relaxation` builds.  Exit codes encode the verification verdict
so scripts can branch on them: 0 Robust, 1 Undetermined, 2 SolverFailed,
3 usage error.

Set the environment variable IPV_LOG to `1` (stderr) or to a file path
to capture one solver trace line per interior-point iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import (
    Network,
    EmptyLayerError,
    forward,
    load,
    predict,
    prune_inactive,
    save,
    w_scale,
)
from .bounds import LayerBounds, input_box, propagate
from .sdpform import (
    VARIANT_NAMES,
    Variant,
    apply_dscale,
    build_relaxation,
    build_strict_feasibility,
    strict_feasibility_value,
    to_standard_form,
    unscale_psd_block,
)
from . import solver as _solver
from .analysis import (
    BoundReport,
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
from .oracle import exact_gamma

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
                       "gap", "lambda_min", "runtime_ms")
_COMPARE_CSV_COLUMNS = ("target", "gamma_star", "variant", "gamma", "gap",
                        "status")


class UsageError(ValueError):
    """Bad invocation; maps to exit code 3."""


def random_instance(depth, width, input_dim=2, output_dim=2, seed=0):
    """Deterministic fixture: `depth` affine layers of `width` neurons.

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
    sizes = [input_dim] + [width] * (depth - 1) + [output_dim]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if i == depth - 1:
            rng = np.random.default_rng([seed, 7, width, input_dim, output_dim])
        else:
            rng = np.random.default_rng([seed, 101 + i, width, input_dim])
        weights.append(rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    center_rng = np.random.default_rng([seed, 3, input_dim])
    center = 0.5 * center_rng.normal(size=input_dim)
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


def _config(gap_tol, default=1e-6):
    gap = default if gap_tol is None else float(gap_tol)
    return _solver.SolverConfig(gap_tol=gap, feas_tol=min(1e-7, gap))


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
    """`(prob, std)`: the relaxation against `target` and its standard form."""
    prob = build_relaxation(prep.net, prep.bounds, target, variant)
    if dscale:
        prob = apply_dscale(prob, prep.bounds)
    return prob, to_standard_form(prob)


def _margin(prob, std, gap_tol, trace):
    """Solve the margin SDP; returns `(gamma, sol)`."""
    sol = _solver.solve(std, _config(gap_tol), trace)
    return sol.primal_obj + prob.obj_offset, sol


def _radius(std, gap_tol, trace):
    """Solve the inscribed-ball SDP of `std`; returns `(lambda_star, sol)`."""
    sol = _solver.solve(
        build_strict_feasibility(std), _config(gap_tol, default=1e-8), trace
    )
    return strict_feasibility_value(sol), sol


def run_verify(net, center, rho, variant, *, targets=None, dscale=False,
               wscale=False, prune=True, gap_tol=None, trace=None):
    """Solve the relaxation for each competitor label and fold a verdict."""
    prep = prepare_instance(net, center, rho, wscale=wscale, prune=prune)
    results = []
    for t in _competitors(prep, targets):
        prob, std = _relaxation(prep, t, variant, dscale)
        t0 = time.perf_counter()
        gamma, sol = _margin(prob, std, gap_tol, trace)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        X = unscale_psd_block(std, sol.xblocks[0])
        results.append(
            TargetResult(
                target=t,
                gamma=gamma,
                status=sol.status,
                iterations=sol.iterations,
                gap=sol.gap,
                lambda_min=min_eigenvalue(X),
                runtime_ms=elapsed_ms,
            )
        )
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
                 prune=True, gap_tol=None, trace=None):
    """Measure the largest ball inscribed in the variant's feasible set.

    The verification objective is irrelevant here, so any competitor
    label serves to build the constraint system.
    """
    prep = prepare_instance(net, center, rho, wscale=wscale, prune=prune)
    target = _competitors(prep, None)[0]
    _, std = _relaxation(prep, target, variant, dscale)
    lambda_star, sol = _radius(std, gap_tol, trace)
    center = np.asarray(center, dtype=float)
    return BoundReport(
        variant=variant.name,
        lambda_star=lambda_star,
        status=sol.status,
        gap=sol.gap,
        iterations=sol.iterations,
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
            Variant.parse(name)


def run_sweep(spec: SweepSpec, *, clock=time.perf_counter, trace=None):
    """One row per (depth, seed, variant): ball radius plus margin solve.

    Each (depth, seed) cell draws its fixture from `random_instance` and
    targets the highest-logit competitor (ties to the lower label).  Each
    variant is built once; the radius solve and then the margin solve run
    on the same standard form.  A row's `runtime_ms` covers the build and
    both solves, `radius_ms` and `margin_ms` each solve alone.  A row's
    `solution` is the margin solve's final iterate on that standard form,
    so `solution.xblocks[0]` is the moment matrix of the relaxation.  Rows
    come out in (depth, seed, variant) order.
    """
    rows = []
    for depth in spec.depths:
        for seed in spec.seeds:
            net, center = random_instance(depth, spec.width, seed=seed)
            prep = prepare_instance(net, center, spec.rho, prune=True)
            bound = min_eig_bound(prep.net, center, spec.rho)
            logits = forward(prep.net, center)
            target = max(_competitors(prep, None), key=lambda t: (logits[t], -t))
            for name in spec.variants:
                t0 = clock()
                prob, std = _relaxation(prep, target, Variant.parse(name))
                t1 = clock()
                lambda_star, radius = _radius(std, None, trace)
                t2 = clock()
                gamma, sol = _margin(prob, std, None, trace)
                t3 = clock()
                rows.append(
                    SweepRow(
                        seed=seed,
                        L=depth,
                        variant=name,
                        target=target,
                        gamma=gamma,
                        status=sol.status,
                        iterations=sol.iterations,
                        gap=sol.gap,
                        lambda_star=lambda_star,
                        radius_status=radius.status,
                        radius_iterations=radius.iterations,
                        min_eig_bound=bound,
                        runtime_ms=(t3 - t0) * 1e3,
                        radius_ms=(t2 - t1) * 1e3,
                        margin_ms=(t3 - t2) * 1e3,
                        solution=sol,
                    )
                )
    return rows


def run_compare(net, center, rho, *, targets=None, variants=VARIANT_NAMES,
                eps=0.01, alpha=0.01, gap_tol=None, trace=None):
    """Exact margin next to every variant's relaxed margin, per target."""
    prep = prepare_instance(net, center, rho, prune=True)
    out = {"predicted": prep.predicted, "rho": float(rho), "targets": []}
    for t in _competitors(prep, targets):
        gamma_star = exact_gamma(prep.net, prep.bounds, t)
        entry = {"target": t, "gamma_star": gamma_star, "variants": {}}
        for name in variants:
            variant = Variant.parse(name, eps=eps, alpha=alpha)
            gamma, sol = _margin(*_relaxation(prep, t, variant), gap_tol, trace)
            if sol.status == _solver.OPTIMAL and gamma > gamma_star + 1e-6:
                raise RuntimeError(
                    f"relaxed margin {gamma} exceeds exact margin {gamma_star} "
                    f"for variant {name}: relaxation unsound"
                )
            entry["variants"][name] = {
                "gamma": gamma,
                "gap": gamma_star - gamma,
                "status": sol.status,
            }
        out["targets"].append(entry)
    return out


def generate_fixtures(out_dir, depths, seeds, width=8, input_dim=2,
                      output_dim=2):
    """Write deterministic fixture networks plus a manifest describing them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for depth in depths:
        for seed in seeds:
            net, center = random_instance(depth, width, input_dim, output_dim, seed)
            name = f"net_L{depth}_w{width}_s{seed}.json"
            save(net, out / name)
            entries.append(
                {
                    "depth": int(depth),
                    "seed": int(seed),
                    "path": name,
                    "center": [float(v) for v in center],
                }
            )
    manifest = {
        "input_dim": int(input_dim),
        "output_dim": int(output_dim),
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
    p.add_argument("--wscale", action="store_true",
                   help="normalize hidden-layer row norms before verifying")
    p.add_argument("--no-prune", action="store_true",
                   help="keep provably inactive neurons (demonstrates vanishing)")


def _add_variant_flags(p):
    p.add_argument("--variant", choices=VARIANT_NAMES, default="base")
    p.add_argument("--eps", type=float, default=0.01,
                   help="complementarity band half-width for the eps variant")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="negative-side slope for the leaky variant")
    p.add_argument("--dscale", action="store_true",
                   help="rescale constraint rows by interval magnitudes")


def _add_output_flags(p, formats=("json", "csv")):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--gap-tol", type=float, dest="gap_tol",
                   help="relative duality-gap tolerance for the solver")


def build_parser():
    parser = _Parser(prog="sdpverify",
                     description="Robustness verification of small feed-forward "
                                 "networks by semidefinite relaxation.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify label robustness on an input box")
    _add_instance_flags(pv)
    _add_variant_flags(pv)
    _add_output_flags(pv)
    grp = pv.add_mutually_exclusive_group()
    grp.add_argument("--target", type=int, help="single competitor label")
    grp.add_argument("--all-targets", action="store_true",
                     help="verify against every competitor label (default)")

    pd = sub.add_parser("diagnose", help="measure strict feasibility of the relaxation")
    _add_instance_flags(pd)
    _add_variant_flags(pd)
    _add_output_flags(pd, formats=("json",))

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
    _add_output_flags(pc)
    pc.add_argument("--eps", type=float, default=0.01)
    pc.add_argument("--alpha", type=float, default=0.01)
    grp = pc.add_mutually_exclusive_group()
    grp.add_argument("--target", type=int)
    grp.add_argument("--all-targets", action="store_true")

    pg = sub.add_parser("gen-fixtures", help="write deterministic fixture networks")
    pg.add_argument("--out", required=True, help="output directory")
    pg.add_argument("--depths", required=True, help="comma list of affine layer counts")
    pg.add_argument("--seed", action="append", required=True)
    pg.add_argument("--width", type=int, default=8)
    return parser


def _open_trace():
    value = os.environ.get("IPV_LOG", "").strip()
    if not value:
        return None, None
    if value.lower() in ("1", "true", "yes", "stderr"):
        return sys.stderr, None
    fh = open(value, "a")
    return fh, fh


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


def _dispatch(args, trace):
    if args.command == "verify":
        net, center = _load_net_and_center(args.net, args.input)
        variant = Variant.parse(args.variant, eps=args.eps, alpha=args.alpha)
        targets = None if args.target is None else [args.target]
        report = run_verify(
            net, center, args.rho, variant,
            targets=targets, dscale=args.dscale, wscale=args.wscale,
            prune=not args.no_prune, gap_tol=args.gap_tol, trace=trace,
        )
        if args.format == "json":
            _emit(report.to_json(), args.out)
        else:
            _emit(format_csv(_VERIFY_CSV_COLUMNS, (
                (r.target, report.variant, r.gamma, r.status, r.iterations,
                 r.gap, r.lambda_min, r.runtime_ms) for r in report.targets
            )), args.out)
        return EXIT_BY_VERDICT[report.verdict]

    if args.command == "diagnose":
        net, center = _load_net_and_center(args.net, args.input)
        variant = Variant.parse(args.variant, eps=args.eps, alpha=args.alpha)
        report = run_diagnose(
            net, center, args.rho, variant,
            dscale=args.dscale, wscale=args.wscale,
            prune=not args.no_prune, gap_tol=args.gap_tol, trace=trace,
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
        _emit(format_sweep_csv(run_sweep(spec, trace=trace)), args.out)
        return 0

    if args.command == "compare":
        net, center = _load_net_and_center(args.net, args.input)
        targets = None if args.target is None else [args.target]
        result = run_compare(
            net, center, args.rho,
            targets=targets, eps=args.eps, alpha=args.alpha,
            gap_tol=args.gap_tol, trace=trace,
        )
        if args.format == "json":
            _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
        else:
            _emit(format_csv(_COMPARE_CSV_COLUMNS, (
                (entry["target"], entry["gamma_star"], name, cell["gamma"],
                 cell["gap"], cell["status"])
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
    parser = build_parser()
    trace, closer = None, None
    try:
        try:
            args = parser.parse_args(argv)
            trace, closer = _open_trace()
            return _dispatch(args, trace)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if closer is not None:
            closer.close()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
