"""Command-line surface: pipelines, exit codes, CSV shapes, fixtures."""

import filecmp
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import coo, make_net
from sdpverify.analysis import (
    SWEEP_CSV_COLUMNS,
    SolveSummary,
    format_sweep_csv,
    min_eigenvalue,
)
from sdpverify.cli import (
    SweepSpec,
    UsageError,
    generate_fixtures,
    main,
    prepare_instance,
    random_instance,
    run_compare,
    run_diagnose,
    run_sweep,
    run_verify,
)
from sdpverify import cli
from sdpverify.network import Network, load, save
from sdpverify.sdpform import (
    VARIANT_NAMES, Block, Constraint, SdpProblem, Variant, check_instance,
)
from sdpverify.solver import SolverConfig, solve

TRACE_LINE = re.compile(r"^iter=\d+ mu=\S+ pres=\S+ dres=\S+ gap=\S+$")


def _tiny():
    return Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.0]), np.array([0.0, 0.0])),
    )


def _fragile():
    # logit 1 is a constant 0.5 while logit 0 dips to 0.2 on the box
    return Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.5]), np.array([0.0, 0.5])),
    )


def _save(net, tmp_path, name="net.json"):
    path = tmp_path / name
    save(net, path)
    return str(path)


def test_random_instance_is_deterministic():
    a, ca = random_instance(3, 4, seed=5)
    b, cb = random_instance(3, 4, seed=5)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)
    assert np.array_equal(ca, cb)
    c, _ = random_instance(3, 4, seed=6)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_random_instance_nests_across_depth():
    """Deeper fixtures extend shallower ones instead of resampling them."""
    shallow, c4 = random_instance(4, 8, seed=3)
    deep, c6 = random_instance(6, 8, seed=3)
    assert np.array_equal(c4, c6)
    for i in range(3):  # all hidden layers of the depth-4 net
        assert np.array_equal(shallow.weights[i], deep.weights[i])
        assert np.array_equal(shallow.biases[i], deep.biases[i])
    # the output layer is depth-independent as well
    assert np.array_equal(shallow.weights[-1], deep.weights[-1])
    assert np.array_equal(shallow.biases[-1], deep.biases[-1])


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(1, 4)
    with pytest.raises(ValueError):
        random_instance(2, 0)


def test_prepare_instance_errors():
    net = _tiny()
    with pytest.raises(UsageError):
        prepare_instance(net, [1.0], 0.0)
    with pytest.raises(UsageError):
        prepare_instance(net, [1.0, 2.0], 0.5)
    dead = Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([-100.0]), np.array([0.0, 0.0])),
    )
    with pytest.raises(UsageError, match="constant"):
        prepare_instance(dead, [0.0], 0.5)


def test_verify_robust_tiny():
    rep = run_verify(_tiny(), [1.0], 0.5, Variant.base())
    assert rep.verdict == "Robust"
    assert rep.predicted == 0
    assert len(rep.targets) == 1
    t = rep.targets[0]
    assert t.status == "Optimal"
    assert abs(t.gamma - 0.5) <= 1e-5
    assert t.lambda_min >= -1e-7
    assert rep.layer_sizes == [1, 1, 2]
    json.loads(rep.to_json())


def test_verify_undetermined_on_reachable_target():
    rep = run_verify(_fragile(), [0.2], 0.5, Variant.base())
    assert rep.verdict == "Undetermined"
    assert rep.targets[0].gamma == pytest.approx(-0.3, abs=1e-5)


def test_diagnose_tiny():
    rep = run_diagnose(_tiny(), [1.0], 0.5, Variant.base())
    assert rep.status == "Optimal"
    assert abs(rep.lambda_star - 1.0 / 24.0) <= 1e-7
    assert rep.min_eig_bound == pytest.approx(3.25, abs=1e-12)
    assert rep.trace_bounds == pytest.approx([2.25, 3.25], abs=1e-12)
    assert rep.pruned_neurons == 0
    assert rep.layer_sizes == [1, 1, 2]


def test_diagnose_dead_neuron_before_and_after_pruning():
    net = Network(
        (np.array([[1.0], [1.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
        (np.array([0.0, -100.0]), np.array([0.0, 0.0])),
    )
    raw = run_diagnose(net, [1.0], 0.5, Variant.base(), prune=False)
    assert raw.lambda_star <= 1e-7
    pruned = run_diagnose(net, [1.0], 0.5, Variant.base(), prune=True)
    assert pruned.pruned_neurons == 1
    assert pruned.lambda_star >= 1e-6


def test_main_exit_codes(tmp_path, capsys):
    robust = _save(_tiny(), tmp_path, "robust.json")
    assert main(["verify", "--net", robust, "--input", "1.0", "--rho", "0.5"]) == 0
    fragile = _save(_fragile(), tmp_path, "fragile.json")
    assert main(["verify", "--net", fragile, "--input", "0.2", "--rho", "0.5"]) == 1
    assert main(["verify", "--net", robust, "--input", "1.0", "--rho", "0"]) == 3
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert main(["verify", "--net", missing, "--input", "1.0", "--rho", "0.5"]) == 3
    assert main(["nonsense"]) == 3


def _capture(monkeypatch, name):
    """Record every result `cli.<name>` returns while `main` runs."""
    seen, real = [], getattr(cli, name)

    def wrapped(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, wrapped)
    return seen


def test_verify_csv_output(tmp_path, capsys, monkeypatch):
    reports = _capture(monkeypatch, "run_verify")
    robust = _save(_tiny(), tmp_path)
    code = main(["verify", "--net", robust, "--input", "1.0", "--rho", "0.5",
                 "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == ("target,variant,gamma,status,iterations,gap,lambda_min,"
                        "runtime_ms,reason")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "base" and fields[3] == "Optimal"
    # every number prints as .10g, exactly
    (rep,) = reports
    assert text == lines[0] + "\n" + "".join(
        f"{r.target},{rep.variant},{r.gamma:.10g},{r.status},{r.iterations},"
        f"{r.gap:.10g},{r.lambda_min:.10g},{r.runtime_ms:.10g},{r.reason}\n"
        for r in rep.targets
    )


def test_verify_target_flag(tmp_path, capsys):
    path = _save(_tiny(), tmp_path)
    assert main(["verify", "--net", path, "--input", "1.0", "--rho", "0.5",
                 "--target", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [t["target"] for t in report["targets"]] == [1]


def _tie():
    # both logits are 0.0 at x = 0.1; the midpoint of the box [-0.2, 0.4]
    # lies an ulp above 0.1, where logit 0 dips below 0 and label 1 wins
    return Network(
        (np.array([[1.0]]), np.array([[-1.0], [0.0]])),
        (np.array([0.0]), np.array([0.1, 0.0])),
    )


@pytest.mark.parametrize("command", ["verify", "diagnose", "compare"])
def test_predicted_label_is_read_at_the_box_midpoint(tmp_path, capsys, command):
    """The CLI predicts where the relaxations and the oracle do, at the box
    midpoint, so a tie at the given input is no usage error."""
    prep = prepare_instance(_tie(), [0.1], 0.3)
    assert prep.predicted == check_instance(prep.net, prep.bounds,
                                            1 - prep.predicted)
    path = _save(_tie(), tmp_path)
    assert main([command, "--net", path, "--input", "0.1", "--rho", "0.3"]) != 3
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "compare"])
@pytest.mark.parametrize("target, message", [
    ("2", "target 2 out of range for 2 labels"),
    ("-1", "target -1 out of range for 2 labels"),
    ("0", "target 0 equals the predicted label"),
], ids=["above", "negative", "predicted"])
def test_bad_target_fails_before_any_solve(tmp_path, monkeypatch, capsys,
                                           command, target, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the target was checked")

    monkeypatch.setattr(cli._solver, "solve", no_solve)
    path = _save(_tiny(), tmp_path)
    assert main([command, "--net", path, "--input", "1.0", "--rho", "0.5",
                 "--target", target]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_solver_trace_to_file(tmp_path, monkeypatch):
    """IPV_LOG prints each solve's `history`, one formatted row per line."""
    log = tmp_path / "trace.log"
    monkeypatch.setenv("IPV_LOG", str(log))
    sols = []
    real = cli._solver.solve

    def record(prob, config=None):
        sols.append(real(prob, config))
        return sols[-1]

    monkeypatch.setattr(cli._solver, "solve", record)
    path = _save(_tiny(), tmp_path)
    assert main(["verify", "--net", path, "--input", "1.0", "--rho", "0.5"]) == 0
    [sol] = sols
    assert sol.status == "Optimal"
    assert len(sol.history) == sol.iterations + 1
    assert log.read_text().splitlines() == [
        f"iter={k} mu={mu:.6e} pres={pres:.6e} dres={dres:.6e} gap={gap:.6e}"
        for k, (mu, pres, dres, gap) in enumerate(sol.history)
    ]


def test_solver_trace_ends_with_the_failure_reason(tmp_path, monkeypatch):
    """A NumericalFailure solve's IPV_LOG rows end with the reason it
    failed; a solve that ends otherwise prints its rows alone."""
    log = tmp_path / "trace.log"
    monkeypatch.setenv("IPV_LOG", str(log))
    infeasible = SdpProblem(
        blocks=(Block("diag", 2), Block("diag", 1)),
        objective={0: coo(np.diag([1.0, 2.0]))},
        obj_offset=0.0,
        constraints=[Constraint({0: coo(np.eye(2))}, -1.0, "=", "sum")])
    sol = solve(infeasible)
    assert (sol.status, sol.reason) == ("NumericalFailure", "non-finite direction")
    cli._log(sol)
    lines = log.read_text().splitlines()
    assert len(lines) == len(sol.history) + 1
    assert all(TRACE_LINE.match(line) for line in lines[:-1])
    assert lines[-1] == "reason=non-finite direction"


def test_solver_trace_to_missing_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IPV_LOG", str(tmp_path / "missing" / "trace.log"))
    path = _save(_tiny(), tmp_path)
    assert main(["verify", "--net", path, "--input", "1.0", "--rho", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_solver_trace_to_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IPV_LOG", "1")
    path = _save(_tiny(), tmp_path)
    assert main(["verify", "--net", path, "--input", "1.0", "--rho", "0.5"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("iter=0 mu=")
    for line in lines:
        assert TRACE_LINE.match(line), line


def test_sweep_row_census():
    spec = SweepSpec(depths=[2, 4, 6], seeds=[0, 1, 2], variants=["base", "bremove"])
    rows = run_sweep(spec)
    assert len(rows) == 18
    # rows come back in (depth, seed, variant) order
    key = [(r.L, r.seed, r.variant) for r in rows]
    assert key == sorted(key, key=lambda k: (k[0], k[1], ("base", "bremove").index(k[2])))
    assert all(r.status == "Optimal" for r in rows)


def test_sweep_rows_match_verify_and_diagnose(tmp_path, monkeypatch):
    """One pipeline, one answer: a sweep row carries the exact gamma of
    `run_verify` and the exact lambda* of `run_diagnose` on its cell, and
    its `solution` is that margin solve."""
    variants = ["base", "bremove", "problem-a"]
    log = tmp_path / "trace.log"
    monkeypatch.setenv("IPV_LOG", str(log))
    rows = run_sweep(SweepSpec(depths=[4], seeds=[0], width=8, variants=variants))
    monkeypatch.delenv("IPV_LOG")
    assert [r.variant for r in rows] == variants
    net, center = random_instance(4, 8, seed=0)
    for row in rows:
        variant = Variant(row.variant)
        rep = run_verify(net, center, 0.1, variant, targets=[row.target])
        assert row.gamma == rep.targets[0].gamma
        assert row.solution.status == row.status
        assert row.solution.gap == row.gap
        assert row.solution.iterations == row.iterations == rep.targets[0].iterations
        assert min_eigenvalue(row.solution.xblocks[0]) == rep.targets[0].lambda_min
        # with two output labels diagnose builds against the same target
        diag = run_diagnose(net, center, 0.1, variant)
        assert row.lambda_star == diag.lambda_star
        assert row.radius == SolveSummary(diag.status, diag.iterations, diag.gap,
                                          diag.reason)
    starts = [line for line in log.read_text().splitlines()
              if line.startswith("iter=0 ")]
    assert len(starts) == 2 * len(rows)


def test_sweep_deterministic_with_injected_clock():
    def fake_clock():
        counter = itertools.count()
        return lambda: next(counter) * 1e-3

    spec = dict(depths=[2, 3], seeds=[0, 1], variants=["base", "bremove"])
    one = run_sweep(SweepSpec(**spec), clock=fake_clock())
    two = run_sweep(SweepSpec(**spec), clock=fake_clock())
    assert format_sweep_csv(one) == format_sweep_csv(two)
    # every number prints as .10g, exactly
    assert format_sweep_csv(one) == ",".join(SWEEP_CSV_COLUMNS) + "\n" + "".join(
        f"{r.seed},{r.L},{r.variant},{r.target},{r.gamma:.10g},{r.status},"
        f"{r.iterations},{r.gap:.10g},{r.lambda_star:.10g},{r.radius.status},"
        f"{r.radius.iterations},{r.min_eig_bound:.10g},{r.runtime_ms:.10g},"
        f"{r.radius_ms:.10g},{r.margin_ms:.10g},{r.reason},{r.radius.reason}\n"
        for r in one
    )
    # four clock reads per row, 1 ms apart: build, radius solve, margin solve
    assert [(r.runtime_ms, r.radius_ms, r.margin_ms) for r in one] == [
        pytest.approx((3.0, 1.0, 1.0))
    ] * len(one)


def test_sweep_cli_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--depths", "2", "--seed", "0,1", "--width", "8",
                 "--variants", "base", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == len(SWEEP_CSV_COLUMNS)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(depths=[], seeds=[0])
    with pytest.raises(ValueError):
        SweepSpec(depths=[2], seeds=[0], variants=["nope"])
    with pytest.raises(ValueError):
        SweepSpec(depths=[2], seeds=[0], width=0)


def test_compare_tiny_is_tight():
    res = run_compare(_tiny(), [1.0], 0.5)
    entry = res["targets"][0]
    assert entry["gamma_star"] == pytest.approx(0.5, abs=1e-9)
    base_gap = entry["variants"]["base"]["exact_gap"]
    for name, cell in entry["variants"].items():
        assert cell["status"] == "Optimal"
        # every relaxation is sound and exact on this all-active box
        assert cell["exact_gap"] >= -1e-6
        assert abs(cell["exact_gap"]) <= 1e-6
        assert cell["exact_gap"] >= base_gap - 1e-6
        # the solve's own fields, as every other command reports them
        assert cell["iterations"] > 0
        assert 0.0 <= cell["gap"] <= SolverConfig().gap_tol
    json.dumps(res)


def test_compare_cli_csv(tmp_path, capsys, monkeypatch):
    results = _capture(monkeypatch, "run_compare")
    path = _save(_tiny(), tmp_path)
    code = main(["compare", "--net", path, "--input", "1.0", "--rho", "0.5",
                 "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == ("target,gamma_star,variant,gamma,exact_gap,status,"
                        "iterations,gap,reason")
    assert len(lines) == 1 + len(VARIANT_NAMES)  # one row per variant
    (res,) = results
    assert text == lines[0] + "\n" + "".join(
        f"{e['target']},{e['gamma_star']:.10g},{name},"
        f"{c['gamma']:.10g},{c['exact_gap']:.10g},{c['status']},"
        f"{c['iterations']},{c['gap']:.10g},{c['reason']}\n"
        for e in res["targets"] for name, c in e["variants"].items()
    )


def test_variant_defaults_are_the_cli_defaults(tmp_path, monkeypatch):
    """`Variant(name)` is what the CLI and `run_compare` build when no
    `--eps` or `--alpha` is given."""
    assert Variant("eps") == Variant("eps", eps=0.01)
    assert Variant("leaky").alpha == 0.01
    built, real = [], cli.build_relaxation

    def wrapped(net, bounds, target, variant, dscale=False):
        built.append(variant)
        return real(net, bounds, target, variant, dscale)

    monkeypatch.setattr(cli, "build_relaxation", wrapped)
    path = _save(_tiny(), tmp_path)
    for name in ("eps", "leaky"):
        built.clear()
        assert main(["verify", "--net", path, "--input", "1.0", "--rho", "0.5",
                     "--variant", name]) == 0
        assert built == [Variant(name)]
    built.clear()
    run_compare(_tiny(), [1.0], 0.5)
    assert built == [Variant(name) for name in VARIANT_NAMES]


def test_flags_that_set_nothing_are_gone(tmp_path, capsys):
    path = _save(_tiny(), tmp_path)
    inst = ["--net", path, "--input", "1.0", "--rho", "0.5"]
    for argv in (["verify", *inst, "--all-targets"],
                 ["compare", *inst, "--all-targets"],
                 ["compare", *inst, "--no-prune"],
                 ["compare", *inst, "--wscale"],
                 ["diagnose", *inst, "--format", "json"],
                 ["verify", *inst, "--gap-tol", "0.1"],
                 ["diagnose", *inst, "--gap-tol", "0.1"],
                 ["compare", *inst, "--gap-tol", "0.1"]):
        assert main(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_variant_name_is_usage_error(tmp_path, capsys):
    """The name that built bremove's rows a second time is not a variant."""
    path = _save(_tiny(), tmp_path)
    for argv in (["verify", "--net", path, "--input", "1.0", "--rho", "0.5",
                  "--variant"],
                 ["sweep", "--depths", "2", "--seed", "0", "--variants"]):
        assert main(argv + ["problem-b"]) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_fixture_generation_round_trip(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    m1 = generate_fixtures(first, [2, 3], [0, 1], width=3)
    m2 = generate_fixtures(second, [2, 3], [0, 1], width=3)
    names = sorted(p.name for p in first.iterdir())
    assert names == [
        "manifest.json",
        "net_L2_w3_s0.json", "net_L2_w3_s1.json",
        "net_L3_w3_s0.json", "net_L3_w3_s1.json",
    ]
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False)
    manifest = json.loads(m1.read_text())
    assert len(manifest["entries"]) == 4
    for entry in manifest["entries"]:
        net = load(first / entry["path"])
        assert net.input_dim == len(entry["center"])


def test_manifest_drives_verify(tmp_path, capsys):
    generate_fixtures(tmp_path, [2], [0], width=3)
    manifest = str(tmp_path / "manifest.json")
    code = main(["verify", "--net", manifest, "--input", "0", "--rho", "0.1"])
    assert code in (0, 1)
    capsys.readouterr()
    # manifests need an index, plain nets reject one
    assert main(["verify", "--net", manifest, "--rho", "0.1"]) == 3
    assert main(["verify", "--net", manifest, "--input", "9", "--rho", "0.1"]) == 3
    plain = str(tmp_path / "net_L2_w3_s0.json")
    assert main(["verify", "--net", plain, "--input", "0", "--rho", "0.1"]) == 3


@pytest.mark.parametrize("rho, message", [
    ("inf", "rho must be finite, got inf"),
    ("1e200", "box of layer 0 is too wide: l * u overflows"),
    ("1e150", "problem data too large: the start's <X, S> = n mu_0^2 "
              "overflows at mu_0 = 1e+302"),
])
def test_overflowing_rho_is_named(tmp_path, capsys, rho, message):
    """A box too wide for float arithmetic is exit 3 with its own cause and
    no numpy warning: an infinite rho would make every bound NaN and prune
    every neuron, at 1e200 the input box rows' -l*u overflow to inf, and at
    1e150 the data is finite but the solver's start mu_0 I is not.  Warnings
    are raised as errors, since pytest catches them before stderr."""
    generate_fixtures(tmp_path, [2], [0])
    manifest = str(tmp_path / "manifest.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--net", manifest, "--input", "0", "--rho", rho])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_too_wide_box_is_one_error_line(capsys):
    """The sweep reaches `trace_bounds` before the relaxation build, whose
    box check names the cause; the caps overflow to inf without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--depths", "2", "--seed", "0", "--rho", "1e300",
                     "--variants", "base"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: box of layer 0 is too wide: l * u overflows\n")


@pytest.mark.parametrize("command", ["sweep", "gen-fixtures"])
@pytest.mark.parametrize("grid, message", [
    (["--depths", "2,1", "--seed", "0"], "depth must be at least 2 affine layers"),
    (["--depths", "2", "--seed", "0,-1"], "seed must be non-negative, got -1"),
], ids=["depth", "seed"])
def test_bad_cell_fails_before_any_work(tmp_path, monkeypatch, capsys, command,
                                        grid, message):
    """A bad (depth, seed) cell late in the grid is exit 3 before the first
    solve and before any file is written."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before every cell was checked")

    monkeypatch.setattr(cli._solver, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    out = ["--out", "fixtures"] if command == "gen-fixtures" else []
    assert main([command, *grid, *out]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("net, given, message", [
    ("net.json", {"a": 1}, "flat list"),
    ("net.json", [[0.1, 0.2]], "shape (1, 2)"),
    ("given.json", {"entries": [{"path": "net.json"}]}, "'center'"),
    ("given.json", {"entries": [{"center": [0.1, 0.2]}]}, "'path'"),
    ("given.json", {"entries": 5}, "must be a list"),
], ids=["object-input", "nested-input", "no-center", "no-path", "entries-int"])
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, net,
                                        given, message):
    """A malformed input vector or manifest is exit 3, never a traceback."""
    monkeypatch.chdir(tmp_path)
    _save(random_instance(2, 3)[0], tmp_path)  # input_dim 2
    (tmp_path / "given.json").write_text(json.dumps(given))
    # a plain network reads the vector from the file, a manifest takes an index
    given_input = "@given.json" if net == "net.json" else "0"
    assert main(["verify", "--net", net, "--input", given_input, "--rho", "0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_gen_fixtures_cli(tmp_path, capsys):
    out = tmp_path / "fixtures"
    code = main(["gen-fixtures", "--out", str(out), "--depths", "2",
                 "--seed", "0", "--width", "3"])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert "manifest.json" in capsys.readouterr().out


def test_module_entry_point_runs_without_warning(tmp_path):
    """`python -m sdpverify.cli` must not find `cli` imported already."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "fixtures"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sdpverify.cli",
         "gen-fixtures", "--out", str(out), "--depths", "2", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert str(out / "manifest.json") in proc.stdout


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, seen", [
    ({}, "1,1,1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2,1,1"),
])
def test_cli_import_defaults_blas_to_one_thread(given, seen):
    """Importing the command line sets each unset BLAS thread count to one
    before numpy loads; a count the caller set stays."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import os\nimport sdpverify.cli\n"
            f"print(','.join(os.environ[v] for v in {_THREAD_VARS!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**env, **given}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [seen]


def test_no_prune_flag(tmp_path, capsys):
    net = Network(
        (np.array([[1.0], [1.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
        (np.array([0.0, -100.0]), np.array([0.0, 0.0])),
    )
    path = _save(net, tmp_path)
    assert main(["diagnose", "--net", path, "--input", "1.0", "--rho", "0.5",
                 "--no-prune"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda_star"] <= 1e-7
    assert report["pruned_neurons"] == 0
