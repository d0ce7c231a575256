"""Command-line interface: exit codes, document round trips, and output."""

import argparse
import contextlib
import io
import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade import cli
from povmcascade.cli import (
    _write_json,
    build_parser,
    main,
    matrix_from_json,
    matrix_to_json,
    parse_plan_document,
    parse_povm_document,
    plan_document,
)
from povmcascade.demos import trine_povm
from povmcascade.povm import IncompleteSum, kraus_from_povm, validate_kraus, validate_povm
from povmcascade.qmath import NotHermitian, NotPsd, max_abs
from povmcascade.synthesis import reconstruct_kraus, synthesize_cascade
from povmcascade.verify import random_povm

R3 = math.sqrt(3.0)


def povm_document(elements, exit_unitaries=None, labels=None) -> dict:
    """A POVM document of the README's schema, optionally with exit unitaries and labels."""
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "elements": [matrix_to_json(np.asarray(e, dtype=complex)) for e in elements],
    }
    if exit_unitaries is not None:
        doc["exit_unitaries"] = [matrix_to_json(np.asarray(u, dtype=complex)) for u in exit_unitaries]
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def trine_document():
    povm, _, _ = trine_povm()
    return povm_document(povm.elements)


def write_json(path, payload):
    # a string "@<literal>" is written as the bare JSON literal, e.g. NaN or 1e400
    path.write_text(re.sub(r'"@([^"]*)"', r"\1", json.dumps(payload)))
    return str(path)


def edited(document, keys, value):
    """A copy of a JSON document with the entry at the key path replaced."""
    document = json.loads(json.dumps(document))
    *parents, last = keys
    target = document
    for key in parents:
        target = target[key]
    target[last] = value
    return document


HUGE = 10**400  # a JSON integer too large for a double
TRINE_PLAN = plan_document(trine_povm()[2])
RHO = matrix_to_json(np.eye(2) / 2.0)
# case -> (argv, document written to {doc}, innermost location)
SCHEMA_ERRORS = {
    "elements-not-a-list": (["validate", "{doc}"], {"schema_version": "1", "elements": "nope"}, "elements"),
    "element-rows": (["validate", "{doc}"], {"schema_version": "1", "elements": [[[1, 2]], [[3, 4]]]}, "elements[0]"),
    "schema-version": (["validate", "{doc}"], {"schema_version": "9", "elements": []}, "schema_version"),
    **{
        f"overflow-element-{command}": (
            [command, "{doc}", *extra],
            edited(trine_document(), ("elements", 1, 0, 1, 0), HUGE),
            "elements[1][0][1]",
        )
        for command, extra in (("validate", []), ("synthesize", ["-o", "{out}"]), ("verify", []))
    },
    "overflow-plan-matrix": (
        ["simulate", "{doc}", "--pure", "1,0,0,0"],
        edited(TRINE_PLAN, ("modules", 0, "pre_unitary", 1, 0, 1), HUGE),
        "modules[0].pre_unitary[1][0]",
    ),
    "overflow-angle": (["simulate", "{doc}", "--pure", "1,0,0,0"], edited(TRINE_PLAN, ("modules", 1, "theta"), HUGE), "modules[1].theta"),
    "overflow-density": (["simulate", "{plan}", "--density", "{doc}"], edited(RHO, (0, 0, 0), HUGE), "density matrix[0][0]"),
    "string-angle": (["simulate", "{doc}", "--pure", "1,0,0,0"], edited(TRINE_PLAN, ("modules", 0, "theta"), "0.5"), "modules[0].theta"),
    "boolean-entry": (["validate", "{doc}"], edited(trine_document(), ("elements", 0, 1, 1), [True, 0]), "elements[0][1][1]"),
    "short-entry-pair": (
        ["simulate", "{doc}", "--pure", "1,0,0,0"],
        edited(TRINE_PLAN, ("modules", 0, "exit_unitary", 1, 1), [1.0]),
        "modules[0].exit_unitary[1][1]",
    ),
    # the JSON reader turns these literals into non-finite floats
    **{
        f"{site}-{literal}": (argv, edited(document, keys, f"@{literal}"), location)
        for literal in ("NaN", "Infinity", "1e400")
        for site, argv, document, keys, location in (
            ("element", ["validate", "{doc}"], trine_document(), ("elements", 1, 0, 1, 0), "elements[1][0][1]"),
            (
                "plan-matrix",
                ["simulate", "{doc}", "--pure", "1,0,0,0"],
                TRINE_PLAN,
                ("modules", 0, "pre_unitary", 1, 0, 1),
                "modules[0].pre_unitary[1][0]",
            ),
            ("angle", ["simulate", "{doc}", "--pure", "1,0,0,0"], TRINE_PLAN, ("modules", 1, "theta"), "modules[1].theta"),
            ("density", ["simulate", "{plan}", "--density", "{doc}"], RHO, (0, 0, 0), "density matrix[0][0]"),
        )
    },
}
TRINE_MODULE = TRINE_PLAN["modules"][0]
# case -> (argv, document written to {doc}, the message after "input error: ")
READER_ERRORS = {
    "element-row-entries": (["validate", "{doc}"], edited(trine_document(), ("elements", 0, 1), [[0, 0]]), "elements[0][1]: expected 2 entries"),
    "povm-not-an-object": (["validate", "{doc}"], [trine_document()], "POVM document must be a JSON object"),
    "plan-not-an-object": (["simulate", "{doc}", "--pure", "1,0,0,0"], [TRINE_PLAN], "plan document must be a JSON object"),
    "modules-empty": (["simulate", "{doc}", "--pure", "1,0,0,0"], edited(TRINE_PLAN, ("modules",), []), "modules: expected a non-empty list"),
    "module-not-an-object": (
        ["simulate", "{doc}", "--pure", "1,0,0,0"],
        edited(TRINE_PLAN, ("modules", 0), [TRINE_MODULE]),
        "modules[0]: expected an object",
    ),
    "module-without-pre-unitary": (
        ["simulate", "{doc}", "--pure", "1,0,0,0"],
        edited(TRINE_PLAN, ("modules", 0), {key: value for key, value in TRINE_MODULE.items() if key != "pre_unitary"}),
        "modules[0]: needs pre_unitary and exit_unitary",
    ),
    "plan-without-final-exit-unitary": (
        ["verify", "{povm}", "--plan", "{doc}"],
        {key: value for key, value in TRINE_PLAN.items() if key != "final_exit_unitary"},
        "final_exit_unitary: missing",
    ),
}


@pytest.fixture
def trine_file(tmp_path):
    return write_json(tmp_path / "trine.json", trine_document())


@pytest.fixture
def hv_plan_file(tmp_path):
    plan = synthesize_cascade(validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    return write_json(tmp_path / "hv_plan.json", plan_document(plan))


class TestDocuments:
    def test_matrix_round_trip_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            restored = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))), "m")
            assert np.array_equal(restored, m)

    def test_plan_round_trip_is_exact(self):
        plan = synthesize_cascade(kraus_from_povm(random_povm(4, 11)))
        doc = json.loads(json.dumps(plan_document(plan)))
        restored = parse_plan_document(doc)
        assert len(restored.modules) == len(plan.modules)
        for a, b in zip(restored.modules, plan.modules):
            assert a.theta == b.theta and a.phi == b.phi
            assert a.zeta == b.zeta and a.xi == b.xi
            assert np.array_equal(a.pre_unitary, b.pre_unitary)
            assert np.array_equal(a.exit_unitary, b.exit_unitary)
        assert np.array_equal(restored.final_exit_unitary, plan.final_exit_unitary)

    def test_povm_document_round_trip(self):
        povm, _, _ = trine_povm()
        doc = json.loads(json.dumps(povm_document(povm.elements, labels=["a", "b", "c"])))
        elements, units, labels = parse_povm_document(doc)
        assert units is None
        assert labels == ["a", "b", "c"]
        for restored, original in zip(elements, povm.elements):
            assert np.array_equal(restored, original)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("exit_unitaries", [matrix_to_json(np.eye(2))] * 2, "exit_unitaries: expected 3 matrices, got 2"),
            ("exit_unitaries", [matrix_to_json(np.eye(2))] * 4, "exit_unitaries: expected 3 matrices, got 4"),
            ("labels", ["a", "b"], "labels: expected 3 strings, got 2"),
            ("labels", [], "labels: expected 3 strings, got 0"),
            ("exit_unitaries", {"0": matrix_to_json(np.eye(2))}, "exit_unitaries: expected a list of matrices"),
            ("labels", "abc", "labels: expected a list of strings"),
            ("labels", ["a", "b", 3], "labels: expected a list of strings"),
            # the entries' type is checked before the list's length
            ("labels", ["a", 2], "labels: expected a list of strings"),
        ],
        ids=[
            "exit_unitaries-short",
            "exit_unitaries-long",
            "labels-short",
            "labels-empty",
            "exit_unitaries-not-a-list",
            "labels-not-a-list",
            "labels-not-strings",
            "labels-short-not-strings",
        ],
    )
    def test_per_element_lists_have_one_entry_per_element(self, tmp_path, capsys, field, value, message):
        path = write_json(tmp_path / "doc.json", edited(trine_document(), (field,), value))
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("case", list(SCHEMA_ERRORS))
    def test_schema_errors_have_context(self, tmp_path, capsys, case):
        # every malformed document is an input error (exit 1) that names the
        # innermost location once, never a traceback or a doubled prefix
        argv, document, location = SCHEMA_ERRORS[case]
        files = {
            "{doc}": write_json(tmp_path / "doc.json", document),
            "{plan}": write_json(tmp_path / "plan.json", plan_document(trine_povm()[2])),
            "{out}": str(tmp_path / "out.json"),
        }
        assert main([files.get(arg, arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {location}: ")
        assert err.count(location) == 1

    @pytest.mark.parametrize("case", list(READER_ERRORS))
    def test_reader_errors_are_one_exact_line(self, tmp_path, capsys, case):
        argv, document, message = READER_ERRORS[case]
        files = {"{doc}": write_json(tmp_path / "doc.json", document), "{povm}": write_json(tmp_path / "povm.json", trine_document())}
        assert main([files.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")


class TestValidateCommand:
    def test_valid_povm(self, trine_file, capsys):
        assert main(["validate", trine_file]) == 0
        out = capsys.readouterr().out
        assert "POVM valid" in out
        assert "completeness residual" in out

    def test_incomplete_povm(self, tmp_path, capsys):
        doc = povm_document([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["validate", path]) == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "1.000e-01" in out

    @pytest.mark.parametrize(
        "elements, error",
        [
            ([np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([[0.5, -0.1], [0.0, 0.5]])], NotHermitian),
            ([np.diag([1.0, 0.5]), np.diag([0.0, 0.5]), np.diag([0.0, -1e-3])], NotPsd),
            ([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])], IncompleteSum),
        ],
    )
    def test_invalid_line_is_validate_povms_error(self, tmp_path, capsys, elements, error):
        path = write_json(tmp_path / "bad.json", povm_document(elements))
        with pytest.raises(error) as raised:
            validate_povm(elements)
        assert main(["validate", path]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"INVALID: {raised.value}"
        assert len(lines) == len(elements) + 2

    def test_huge_hermitian_element_is_incomplete(self, tmp_path, capsys):
        # PSD but 1e308 times too large: the completeness line names the fault
        path = write_json(tmp_path / "huge.json", povm_document([1e308 * np.eye(2), np.eye(2)]))
        assert main(["validate", path]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "element 1: hermiticity residual 0.000e+00, min eigenvalue +1.000e+308",
            "element 2: hermiticity residual 0.000e+00, min eigenvalue +1.000e+00",
            "completeness residual: 1.000e+308",
            "INVALID: sum of elements deviates from identity by 1.000e+308",
        ]
        assert err == ""

    def test_eigenvalue_beyond_the_double_range_warns_nothing(self, tmp_path, capsys):
        # the top eigenvalue 2e308 overflows; the report and verdict stand, stderr stays empty
        path = write_json(tmp_path / "huge.json", povm_document([1e308 * np.ones((2, 2)), np.eye(2)]))
        assert main(["validate", path]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "element 1: hermiticity residual 0.000e+00, min eigenvalue +0.000e+00",
            "element 2: hermiticity residual 0.000e+00, min eigenvalue +1.000e+00",
            "completeness residual: 1.000e+308",
            "INVALID: sum of elements deviates from identity by 1.000e+308",
        ]
        assert err == ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/povm.json"]) == 1

    def test_usage_error(self, capsys):
        assert main(["validate"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_trine_synthesis(self, trine_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "synthesize",
                trine_file,
                "-o",
                str(plan_path),
                "--trials",
                "25",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.61548" in out  # arccos(sqrt(2/3))
        assert "verification: PASS" in out
        plan = parse_plan_document(json.loads(plan_path.read_text()))
        assert plan.n == 3
        report = json.loads(report_path.read_text())
        assert report["seed"] == 42
        assert all(entry["pass"] for entry in report["checks"])

    def test_random_five_outcome_document(self, tmp_path, capsys):
        povm = random_povm(5, 21)
        path = write_json(tmp_path / "random.json", povm_document(povm.elements))
        assert main(["synthesize", path, "-o", str(tmp_path / "plan.json"), "--trials", "10"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_document_exit_unitaries_reach_the_plan(self, tmp_path, capsys):
        povm, _, _ = trine_povm()
        gauges = [
            np.eye(2),
            0.5 * np.array([[1.0, -R3], [R3, 1.0]]),
            0.5 * np.array([[1.0, R3], [-R3, 1.0]]),
        ]
        path = write_json(
            tmp_path / "gauged.json", povm_document(povm.elements, exit_unitaries=gauges)
        )
        plan_path = tmp_path / "plan.json"
        assert main(["synthesize", path, "-o", str(plan_path), "--trials", "10"]) == 0
        capsys.readouterr()
        plan = parse_plan_document(json.loads(plan_path.read_text()))
        wanted = kraus_from_povm(povm, gauges)
        produced = reconstruct_kraus(plan)
        assert max(max_abs(a - b) for a, b in zip(produced, wanted)) <= 1e-8

    def test_non_unitary_exit_gauge_rejected(self, tmp_path, capsys):
        povm, _, _ = trine_povm()
        gauges = [np.eye(2), np.eye(2), 2.0 * np.eye(2)]
        path = write_json(
            tmp_path / "bad_gauge.json", povm_document(povm.elements, exit_unitaries=gauges)
        )
        assert main(["synthesize", path, "-o", str(tmp_path / "plan.json")]) == 2


    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_exit_unitary_whose_residual_overflows_is_not_unitary(self, command, tmp_path, capsys):
        huge = [[1.3e154 + 1.3e154j, 1e154], [0, 1]]
        path = write_json(tmp_path / "huge.json", povm_document(trine_povm()[0].elements, [huge, np.eye(2), np.eye(2)]))
        argv = [command, path] + (["-o", str(tmp_path / "plan.json")] if command == "synthesize" else [])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: exit unitary 1 is not unitary\n")


class TestSimulateCommand:
    def test_trine_pure_horizontal(self, trine_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["synthesize", trine_file, "-o", str(plan_path), "--trials", "5"])
        capsys.readouterr()
        assert main(["simulate", str(plan_path), "--pure", "1,0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "0.666666666667" in out
        assert "0.166666666667" in out

    def test_projective_vertical(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "0,0,1,0"]) == 0
        out = capsys.readouterr().out
        probs = {}
        for line in out.splitlines():
            if line.startswith("exit E"):
                probs[line.split(":")[0]] = float(line.split("probability")[1].split(",")[0])
        assert probs["exit E1"] == pytest.approx(0.0, abs=1e-12)
        assert probs["exit E2"] == pytest.approx(1.0, abs=1e-12)

    def test_density_maximally_mixed(self, trine_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["synthesize", trine_file, "-o", str(plan_path), "--trials", "5"])
        capsys.readouterr()
        rho_path = write_json(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2.0))
        assert main(["simulate", str(plan_path), "--density", str(rho_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("0.333333333333") == 3

    def test_density_rank_one_matches_pure(self, trine_file, tmp_path, capsys):
        # a pure state as a density matrix is rank one; T rho T^dag on each
        # exit must give the same probabilities as propagating the state
        plan_path = tmp_path / "plan.json"
        main(["synthesize", trine_file, "-o", str(plan_path), "--trials", "5"])
        psi = np.array([0.6, 0.8j])
        rho_path = write_json(tmp_path / "rho.json", matrix_to_json(np.outer(psi, psi.conj())))
        capsys.readouterr()

        def probabilities(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return [float(line.split("probability")[1].split(",")[0]) for line in lines if line.startswith("exit E")]

        pure = probabilities(["simulate", str(plan_path), "--pure", "0.6,0,0,0.8"])
        mixed = probabilities(["simulate", str(plan_path), "--density", rho_path])
        assert len(pure) == len(mixed) == 3
        assert mixed == pytest.approx(pure, abs=1e-12)

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("modules", 0, "pre_unitary"), "modules[0]: pre_unitary is not unitary"),
            (("final_exit_unitary",), "final_exit_unitary is not unitary"),
        ],
        ids=["pre_unitary", "final_exit_unitary"],
    )
    def test_non_unitary_plan_matrix_is_input_error(self, tmp_path, capsys, keys, message):
        doubled = matrix_to_json(2.0 * np.eye(2))
        path = write_json(tmp_path / "plan.json", edited(TRINE_PLAN, keys, doubled))
        assert main(["simulate", path, "--pure", "1,0,0,0"]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_pre_unitary_whose_residual_overflows_is_input_error(self, tmp_path, capsys):
        huge = matrix_to_json(np.array([[1.3e154 + 1.3e154j, 1e154], [0, 1]]))
        path = write_json(tmp_path / "plan.json", edited(TRINE_PLAN, ("modules", 0, "pre_unitary"), huge))
        assert main(["simulate", path, "--pure", "1,0,0,0"]) == 1
        assert capsys.readouterr() == ("", "input error: modules[0]: pre_unitary is not unitary\n")

    def test_norm_deviation_warns(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "2,0,0,0"]) == 0
        assert "normalizing" in capsys.readouterr().err

    def test_zero_state_rejected(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "0,0,0,0"]) == 2

    @pytest.mark.parametrize(
        "extreme, plain",
        [("1e200,0,1e200,0", "1,0,1,0"), ("1e-200,0,0,0", "1,0,0,0"), ("5e-324,0,0,0", "1,0,0,0")],
    )
    def test_extreme_scale_state_normalizes_exactly(self, tmp_path, capsys, extreme, plain):
        # squaring the components would overflow or underflow; dividing by
        # the largest one first recovers the plain state exactly
        plan_path = write_json(tmp_path / "trine_plan.json", plan_document(trine_povm()[2]))
        printed = []
        for spec in (plain, extreme):
            assert main(["simulate", plan_path, "--pure", spec]) == 0
            printed.append(capsys.readouterr().out)
        assert "exit E3: probability" in printed[0]
        assert printed[1] == printed[0]

    def test_bad_state_spec(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "1,0,0"]) == 1
        assert main(["simulate", hv_plan_file, "--pure", "a,b,c,d"]) == 1
        for spec in ("nan,0,1,0", "1,inf,0,0", "1,0,-inf,0"):
            capsys.readouterr()
            assert main(["simulate", hv_plan_file, "--pure", spec]) == 1
            assert "must be finite" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_with_internal_synthesis(self, trine_file, capsys):
        assert main(["verify", trine_file, "--trials", "20", "--seed", "5"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_verify_against_plan_file(self, trine_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["synthesize", trine_file, "-o", str(plan_path), "--trials", "5"])
        capsys.readouterr()
        assert main(["verify", trine_file, "--plan", str(plan_path), "--trials", "20"]) == 0

    def test_verify_mismatched_plan_fails(self, trine_file, tmp_path, capsys):
        other = kraus_from_povm(random_povm(3, 5))
        path = write_json(tmp_path / "other_plan.json", plan_document(synthesize_cascade(other)))
        assert main(["verify", trine_file, "--plan", path, "--trials", "5"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_verify_outcome_count_mismatch_is_domain_error(self, trine_file, hv_plan_file, capsys):
        assert main(["verify", trine_file, "--plan", hv_plan_file, "--trials", "5"]) == 2
        assert "outcomes" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("option", "value", "minimum"),
    [("--trials", "0", 1), ("--trials", "-5", 1), ("--seed", "-1", 0), ("--trials", "abc", None), ("--seed", "x", None)],
)
@pytest.mark.parametrize("command", ["synthesize", "verify", "demo"])
def test_integer_option_below_its_minimum_is_usage_error(command, option, value, minimum, trine_file, tmp_path, capsys):
    # the parser rejects it before any work: a negative seed would otherwise
    # reach numpy's generator and come back as a domain failure; a value that
    # is not an integer (minimum None) has no minimum to be below
    plan_path = tmp_path / "plan.json"
    argv = {
        "synthesize": ["synthesize", trine_file, "-o", str(plan_path)],
        "verify": ["verify", trine_file],
        "demo": ["demo", "trine"],
    }[command]
    assert main(argv + [option, value]) == 1
    reason = f"invalid int value: {value!r}" if minimum is None else f"must be at least {minimum}, got {value}"
    assert capsys.readouterr() == ("", f"usage error: argument {option}: {reason}\n")
    assert not plan_path.exists()


@pytest.mark.parametrize("target", ["-o", "--report"])
def test_unwritable_output_is_input_error(target, trine_file, tmp_path, capsys):
    paths = {"-o": str(tmp_path / "plan.json"), "--report": str(tmp_path / "report.json")}
    missing = paths[target] = str(tmp_path / "missing" / "out.json")
    with pytest.raises(OSError) as reason:
        open(missing, "w")
    assert main(["synthesize", trine_file, "-o", paths["-o"], "--report", paths["--report"], "--trials", "5"]) == 1
    out, err = capsys.readouterr()
    assert err == f"input error: cannot write {missing}: {reason.value}\n"
    # the plan is written before the first line is printed, the report after the verification lines
    assert out.endswith("verification: PASS (5 trial states, seed 42)\n") if target == "--report" else out == ""


class TestDemoCommand:
    def test_trine_demo(self, capsys):
        assert main(["demo", "trine", "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "F1:" in out and "F3:" in out
        assert "verification: PASS" in out

    def test_ekert_demo(self, capsys):
        assert main(["demo", "ekert", "--alpha", "0", "--beta", "45", "--trials", "25"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_ekert_demo_rejects_right_angle(self, capsys):
        assert main(["demo", "ekert", "--alpha", "0", "--beta", "90"]) == 2
        assert "error" in capsys.readouterr().err

    def test_ekert_demo_rejects_infinite_angle(self, capsys):
        assert main(["demo", "ekert", "--alpha", "inf"]) == 2
        assert "valid region" in capsys.readouterr().err

    def test_unknown_demo_name(self, capsys):
        assert main(["demo", "octahedron"]) == 1


JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1.7e308])
JSON_SCALARS = JSON_FLOATS | st.integers() | st.booleans() | st.none() | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("writer") / "out.json")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=JSON_VALUES)
def test_document_writer_is_json_dump_with_indent_2(json_path, payload):
    # the one-pass writer keeps json.dump(indent=2)'s bytes: NaN and Infinity,
    # -0.0, repr-exact floats, ASCII escapes and empty containers
    _write_json(json_path, payload)
    with open(json_path, "rb") as fh:
        assert fh.read() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def test_document_writer_refuses_what_json_refuses(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json(str(tmp_path / "out.json"), {"a": [1j]})


def test_document_writer_takes_only_str_keys(tmp_path):
    # json.dump would write the key 1 as "1"; plans and reports have only
    # str keys, and the writer refuses any other
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "out.json"), {"a": {1: 2.0}})


# help, usage errors and ordinary runs, with and without a command in front
PARSER_RUNS = [
    ["-h"],
    *([command, "-h"] for command in ("validate", "synthesize", "simulate", "verify", "demo")),
    [],
    ["synth"],
    ["synthesize", "{trine}"],
    ["synthesize", "{trine}", "-o", "{plan}", "--trials", "0"],
    ["simulate", "{plan}", "--pure", "1,0,0,0", "--density", "{rho}"],
    ["validate", "{trine}", "--bogus"],
    ["-x", "synthesize"],
    ["validate", "{trine}"],
    ["synthesize", "{trine}", "-o", "{plan}", "--trials", "5"],
    ["simulate", "{plan}", "--pure", "1,0,0,0"],
    ["demo", "ekert", "--beta", "30", "--trials", "5"],
]


def _run(argv):
    """(exit code or SystemExit, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("k", range(len(PARSER_RUNS)), ids=[" ".join(argv) for argv in PARSER_RUNS])
def test_the_shared_parser_answers_as_a_fresh_one(k, trine_file, tmp_path, monkeypatch):
    # main builds the `povm` parser once per process; after every run of the
    # list, in order, each run answers as it does on a parser built for it alone
    def run(argv):
        files = {"trine": trine_file, "plan": write_json(tmp_path / "plan.json", TRINE_PLAN), "rho": write_json(tmp_path / "rho.json", RHO)}
        return _run([arg.format(**files) for arg in argv])

    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")  # the shared parser is built at another width than it prints at
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    for argv in PARSER_RUNS:
        run(argv)
    shared = run(PARSER_RUNS[k])
    assert build_parser.cache_info().misses == 1
    build_parser.cache_clear()
    assert run(PARSER_RUNS[k]) == shared


def test_the_shared_parser_parses_alike_in_every_thread():
    # the one parser is shared between threads too, which holds because
    # parse_args never changes it: each thread's results are the serial ones
    argvs = [[arg.format(trine="trine.json", plan="plan.json", rho="rho.json") for arg in argv] for argv in PARSER_RUNS if "-h" not in argv]

    def parse(argv):
        try:
            return build_parser().parse_args(argv)
        except cli._UsageError as exc:
            return str(exc)

    serial = [parse(argv) for argv in argvs]
    assert [type(result) for result in serial] == [str] * 7 + [argparse.Namespace] * 4
    results = {}
    start = threading.Barrier(4, timeout=60)

    def work(worker):
        order = list(range(len(argvs)))
        start.wait()
        for rep in range(20):
            # each thread walks the argvs from its own starting point
            for k in order[3 * worker :] + order[: 3 * worker]:
                results[worker, rep, k] = parse(argvs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * 20 * len(argvs)
    assert all(result == serial[k] for (_, _, k), result in results.items())


def test_main_reads_the_console_scripts_argv(monkeypatch, capsys):
    # the installed `povm` calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["povm", "demo", "trine", "--trials", "5"])
    assert main() == 0
    assert capsys.readouterr() == (_run(["demo", "trine", "--trials", "5"])[1], "")
    monkeypatch.setattr(sys, "argv", ["povm"])
    assert main() == 1
    assert capsys.readouterr().err == "usage error: the following arguments are required: command\n"
