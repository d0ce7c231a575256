"""Public surface: package exports, CLI exit codes and the document schema version.

These are stable across releases; a change here must be listed in CHANGES.md.
"""

import copy
import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import povmcascade
from povmcascade import cli, optics, povm, qmath, synthesis, verify


def test_package_exports():
    assert povmcascade.__all__ == [
        "CascadePlan",
        "DensityMatrix",
        "EkertParams",
        "KrausSet",
        "ModeLabel",
        "ModuleSettings",
        "OpticalNetwork",
        "OutcomeRecord",
        "PhotonState",
        "PovmSet",
        "VerificationReport",
        "build_cascade_network",
        "density_matrix",
        "ekert_alpha_prime",
        "ekert_povm",
        "exit_amplitudes",
        "kraus_from_povm",
        "outcome_probabilities",
        "propagate",
        "random_povm",
        "reconstruct_kraus",
        "synthesize_cascade",
        "trine_povm",
        "validate_povm",
        "verify_density",
        "verify_plan",
    ]
    for name in povmcascade.__all__:
        assert hasattr(povmcascade, name), name


def test_cli_exit_codes_and_schema_version():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DOMAIN) == (0, 1, 2)
    assert cli.SCHEMA_VERSION == "1"


def test_module_exports():
    assert synthesis.__all__ == [
        "DomainError",
        "ModuleSettings",
        "CascadePlan",
        "synthesize_cascade",
        "reconstruct_kraus",
        "ekert_alpha_prime",
    ]
    assert qmath.__all__ == [
        "DEFAULT_TOL",
        "NotHermitian",
        "NotPsd",
        "Svd2",
        "as_matrix2",
        "dagger",
        "max_abs",
        "identity2",
        "rotation",
        "eig_hermitian2",
        "sqrt_psd",
        "svd2",
        "aligning_unitary",
    ]
    assert optics.__all__ == [
        "UnknownMode",
        "ModeLabel",
        "PhotonState",
        "PolarizingBeamsplitter",
        "Rotator",
        "PhaseShifter",
        "ModeUnitary",
        "OpticalElement",
        "OpticalNetwork",
        "ExitAmplitude",
        "propagate",
        "transfer_matrices",
        "exit_amplitudes",
        "build_cascade_network",
    ]
    assert verify.__all__ == [
        "TOLERANCES",
        "CheckResult",
        "VerificationReport",
        "random_pure_state",
        "random_povm",
        "random_rank_one_povm",
        "verify_plan",
        "simulate_density",
        "verify_density",
    ]
    assert povm.__all__ == [
        "IncompleteSum",
        "NotUnitary",
        "PovmSet",
        "KrausSet",
        "DensityMatrix",
        "OutcomeRecord",
        "validate_povm",
        "validate_kraus",
        "kraus_from_povm",
        "density_matrix",
        "outcome_probabilities",
        "validation_residuals",
    ]
    for module in (synthesis, qmath, optics, verify, povm):
        for name in module.__all__:
            assert hasattr(module, name), name


def test_no_tolerance_parameters():
    # every check runs at qmath.DEFAULT_TOL; a looser knob would let a
    # validator accept what the synthesizer then rejects
    for module in (qmath, povm):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert "tol" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"


def test_povm_set_takes_only_its_elements():
    # the roots a PovmSet keeps are private state, not a constructor knob
    assert list(inspect.signature(povm.PovmSet).parameters) == ["elements"]


ARRAY_HOLDERS = {
    "PovmSet": lambda: verify.random_povm(3, 1),
    "KrausSet": lambda: povm.kraus_from_povm(verify.random_povm(3, 1)),
    "DensityMatrix": lambda: povm.density_matrix(qmath.identity2() / 2.0),
    "ModuleSettings": lambda: synthesis.ModuleSettings(theta=0.1, phi=0.2),
    "CascadePlan": lambda: synthesis.CascadePlan((synthesis.ModuleSettings(theta=0.1, phi=0.2),), qmath.identity2()),
    "ModeUnitary": lambda: optics.ModeUnitary(optics.ModeLabel(0, "in"), qmath.identity2()),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    # a field-wise == over numpy arrays would raise "truth value ... is ambiguous"
    first = ARRAY_HOLDERS[name]()
    same = first
    assert (first == same) is True
    assert (first == copy.deepcopy(first)) is False
    assert (first != ARRAY_HOLDERS[name]()) is True
    assert len({first, same, copy.deepcopy(first)}) == 2


def test_distribution_metadata_matches_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "povmcascade"
    assert project["version"] == povmcascade.__version__


def test_traced_names_resolve(monkeypatch):
    # the benchmark tracer wraps these public functions by name; a rename here
    # would break its --trace 1 and --self-check runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(f"povmcascade.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def _tool(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)


def test_logical_line_counter(monkeypatch, capsys, tmp_path):
    # tools/lloc.py is the LOC figure the ROADMAP quotes: code lines only
    lloc = _tool(monkeypatch, "lloc")
    source = '''"""Module docstring,
over two lines."""

# a comment
import math  # trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.hypot(
            x,
            len(text),
        )
'''
    assert lloc.logical_lines(source) == 9
    # its own usage on --help, and one line for a path that is not there
    assert lloc.main(["--help"]) == 0
    assert capsys.readouterr() == (lloc.__doc__.strip() + "\n", "")
    missing = str(tmp_path / "no_such.py")
    assert lloc.main([missing]) == 1
    assert capsys.readouterr() == ("", f"lloc.py: no such file or directory: {missing}\n")


def test_identity_tool_compares_a_tree_with_itself(monkeypatch, capsys):
    # tools/identity.py is the byte-identity gate between two source trees; at
    # a small corpus it must run and find a tree identical to itself
    identity = _tool(monkeypatch, "identity")
    src = str(Path(__file__).resolve().parent.parent / "src")
    assert identity.main(["--compare", src, src, "--max-n", "6", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    families, counts = lines[: len(identity.FAMILIES)], lines[len(identity.FAMILIES) :]
    assert [line.split()[0] for line in families] == list(identity.FAMILIES)
    assert all(" identical (" in line for line in families)
    assert "povms      identical (20 items)" in families and "cli        identical (53 items)" in families
    assert "propagate  identical (58 items)" in families
    # then each tree's two count lines over the same tiny corpus: the plans a
    # one-ulp input change moves, and the boundary outcomes with both repros
    assert [line.split()[0] for line in counts] == ["one-ulp", "boundary"] * 2
    assert counts[:2] == counts[2:]
    assert counts[0] == f"one-ulp    5 final and 0 exit unitaries of 10 rank-one plans move by > 1e-06  {src}"
    assert counts[1].startswith("boundary   0 rejected, 0 not compiling, 5 failing verify_plan of 20 inputs; repros ")
    assert "n = 2: failing: probability 1.786e-09" in counts[1]
    assert "n = 3: not compiling: IncompleteSum" in counts[1] and "n = 80: not compiling: IncompleteSum" in counts[1]


def test_identity_tool_names_the_items_that_differ(monkeypatch):
    identity = _tool(monkeypatch, "identity")
    items = {"a": "0" * 64, "b": "1" * 64}
    old = {family: {"digest": "f" * 64, "items": dict(items)} for family in identity.FAMILIES}
    new = copy.deepcopy(old)
    new["plans"] = {"digest": "e" * 64, "items": {"a": "0" * 64, "b": "2" * 64, "c": "3" * 64}}
    lines = identity.compare(old, new)
    assert lines[1] == "plans      DIFFERS in 2 of 3 items, first: ['b', 'c']"
    assert all("identical (2 items)" in line for i, line in enumerate(lines) if i != 1)


def test_ab_timer_prints_one_line_per_layer(monkeypatch, capsys):
    # tools/abtime.py gives the per-layer before/after of a perf change; at a
    # tiny pool it must load a tree twice and print its table, whatever the timings
    abtime = _tool(monkeypatch, "abtime")
    src = str(Path(__file__).resolve().parent.parent / "src")
    tiny = ["--reps", "2", "--pool", "2", "--sizes", "3", "4"]
    path = list(sys.path)
    try:
        assert abtime.main([src, src, *tiny]) == 0
        simulate = capsys.readouterr().out.splitlines()
        assert abtime.main([src, src, "--workload", "synthesize", *tiny]) == 0
        synthesize = capsys.readouterr().out.splitlines()
        assert abtime.main([src, src, "--workload", "compile", *tiny]) == 0
        compile_ = capsys.readouterr().out.splitlines()
    finally:
        for name in [name for name in sys.modules if name.startswith("povmcascade_")]:
            del sys.modules[name]
    # each tree's bench/workloads.py binds povmcascade only while it runs: a
    # leaked entry would make every later test import the wrong tree
    assert sys.modules["povmcascade"] is povmcascade
    assert sys.path == path
    # the header line says how the fresh interpreters treat bytecode
    settled = "; invocations compile from source, no bytecode cache read or written"
    for (title, header, *rows), wanted, layers in (
        (simulate, f"pool of 2 plans, n = 3..4, 2 repetitions{settled}", (*abtime.LAYERS["simulate"], "invocation")),
        (synthesize, f"pool of 2 documents, n = 3..4, 2 repetitions{settled}", ("main", "invocation")),
        (
            compile_,
            f"pool of 2 POVMs, n = 3..4, 2 repetitions{settled}",
            ("validate", "kraus", "synthesize", "reconstruct", "op", "invocation"),
        ),
    ):
        assert title == wanted
        assert header.split() == ["layer", "old", "ms", "new", "ms", "new/old", "wins", "old", "gc0", "new", "gc0"]
        assert [row.split()[0] for row in rows] == list(layers)
        for row in rows:
            layer, old_ms, new_ms, ratio, wins, *young = row.split()
            assert float(old_ms) > 0 and float(new_ms) > 0 and float(ratio) > 0
            assert re.fullmatch(r"[012]/2", wins)
            # collections are counted in process; a fresh interpreter's are not
            assert young == ["-", "-"] if layer == "invocation" else all(float(count) >= 0 for count in young)


def test_trajectory_recorder_summarizes_runs_per_workload_and_metric(monkeypatch):
    # tools/trajectory.py reduces the untraced runs to median, min and max per
    # workload and metric, and keeps the traced run's metrics as they are
    trajectory = _tool(monkeypatch, "trajectory")
    spec = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "ops_per_s"}, {"name": "setup_s"}]}
    runs = [
        {"seed": seed, "metrics": {"w.ops_per_s": {"value": ops}, "w.setup_s": {"value": 0.5}}}
        for seed, ops in ((1, 30.0), (2, 10.0), (3, 20.0))
    ]
    traced = {"correct": True, "metrics": {"n3.layer.us_per_call": {"value": 7.0, "unit": "us"}}}
    document = trajectory.record(runs, traced, spec)
    assert document["end_to_end"] == {
        "w": {"ops_per_s": {"median": 20.0, "min": 10.0, "max": 30.0}, "setup_s": {"median": 0.5, "min": 0.5, "max": 0.5}}
    }
    assert document["per_layer"] == {"n3.layer.us_per_call": 7.0}
    assert document["traced_correct"] is True and document["runs"] is runs


def test_trajectory_recorder_stops_on_an_incorrect_run(monkeypatch):
    # a run whose result line says correct: false is no point on the trajectory
    trajectory = _tool(monkeypatch, "trajectory")
    stdout = '# machine: {"cpu": "x"}\n{"correct": false, "metrics": {}}\n'
    done = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
    monkeypatch.setattr(trajectory.subprocess, "run", lambda *args, **kwargs: done)
    with pytest.raises(RuntimeError, match="reports correct: false"):
        trajectory.bench("tree", ["--seed", "1"], "pycache")


def test_trajectory_check_reads_bounds_as_benchmark_json_states_them(monkeypatch, capsys, tmp_path):
    # --check on two checked-in files passes; a doctored child whose every run
    # sits just beyond a bound fails on that row alone, and one just inside passes
    trajectory = _tool(monkeypatch, "trajectory")
    root = Path(__file__).resolve().parent.parent
    parent_path, child_path = (str(root / f"BENCH_pr{n}.json") for n in (24, 25))
    assert trajectory.main(["--check", parent_path, child_path]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["compile"], ["synthesize"], ["simulate"])]
    assert len(rows) == 15 and all(" ".join(row[9:]) == "within bound" for row in rows)
    assert out.splitlines()[-1] == "0 regressions beyond a bound"
    assert "failed inputs: parent 16/3840, child 16/3840" in out
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    def doctored(key, factor, failed=0):
        document = json.loads(Path(child_path).read_text(encoding="utf-8"))
        median = statistics.median(run["metrics"][key]["value"] for run in parent["runs"])
        for run in document["runs"]:
            run["metrics"][key]["value"] = median * factor
            run["failed"] += failed
        path = tmp_path / f"BENCH_{key}_{factor}_{failed}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    cases = [
        ("simulate.ops_per_s", 1 - bounds["ops_per_s"] * 1.01, 1),
        ("simulate.ops_per_s", 1 - bounds["ops_per_s"] * 0.99, 0),
        ("compile.peak_rss_mb", 1 + bounds["peak_rss_mb"] * 1.01, 1),
        ("compile.peak_rss_mb", 1 + bounds["peak_rss_mb"] * 0.99, 0),
        ("synthesize.op_p90_ms", 0.5, 0),
    ]
    for key, factor, code in cases:
        assert trajectory.main(["--check", parent_path, doctored(key, factor)]) == code, (key, factor)
        workload, metric = key.split(".")
        row = next(line for line in capsys.readouterr().out.splitlines() if line.split()[:2] == [workload, metric])
        verdict = "WORSE beyond bound" if code else "better beyond bound" if factor == 0.5 else "within bound"
        assert row.endswith(verdict) and row.split()[5] == ("0/10" if factor != 0.5 else "10/10"), row
    # one more failed input on the child's side is a regression even with every metric in bounds
    assert trajectory.main(["--check", parent_path, doctored("simulate.setup_s", 1.0, failed=1)]) == 1
    assert "failed inputs: parent 16/3840, child 26/3840  MORE FAILED" in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        trajectory.main(["--check", parent_path, child_path, "--tree", "a", "tree", "commit"])
    assert info.value.code == 2


def test_bench_files_hold_the_benchmarks_metric_names():
    # each BENCH_<label>.json at the repository root (tools/trajectory.py) holds,
    # per workload, exactly the end-to-end metrics BENCHMARK.json declares, and
    # exactly its per-layer metrics from the traced run
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in spec["workloads"]]
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        document = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == f"BENCH_{document['label']}.json"
        assert list(document["end_to_end"]) == workloads, path.name
        for workload, metrics in document["end_to_end"].items():
            assert set(metrics) == end_to_end, (path.name, workload)
            assert all(list(value) == ["median", "min", "max"] for value in metrics.values()), (path.name, workload)
        assert set(document["per_layer"]) == per_layer, path.name
        assert [run["seed"] for run in document["runs"]] == document["seeds"], path.name
        assert all(run["correct"] for run in document["runs"]) and document["traced_correct"], path.name
        for run in document["runs"]:
            assert set(run["metrics"]) == {f"{w}.{m}" for w in workloads for m in end_to_end}, (path.name, run["seed"])
        assert isinstance(document["bytecode_cached"], bool) and document["commit"] and document["machine"]


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--reps", "0"], "--reps must be at least 1"),
        (["--sizes", "1", "4"], "--sizes needs 2 <= LO <= HI"),
        (["--sizes", "9", "4"], "--sizes needs 2 <= LO <= HI"),
        (["--pool", "3"], "--pool must be a power of two"),
    ],
    ids=["reps-0", "sizes-1-4", "sizes-9-4", "pool-3"],
)
def test_ab_timer_rejects_bad_arguments_before_loading_a_tree(monkeypatch, capsys, bad, message):
    # the trees do not exist: an argument that got past the parser would fail on loading them
    abtime = _tool(monkeypatch, "abtime")
    with pytest.raises(SystemExit) as info:
        abtime.main(["no/such/old", "no/such/new", *bad])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {message}")
