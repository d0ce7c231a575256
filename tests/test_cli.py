"""Command-line interface: exit codes, document round trips, and output."""

import json
import math

import numpy as np
import pytest

from povmcascade.cli import (
    main,
    matrix_from_json,
    matrix_to_json,
    parse_plan_document,
    parse_povm_document,
    plan_document,
    povm_document,
)
from povmcascade.demos import trine_povm
from povmcascade.povm import IncompleteSum, NotHermitian, NotPsd, kraus_from_povm, validate_kraus, validate_povm
from povmcascade.qmath import max_abs
from povmcascade.synthesis import reconstruct_kraus, synthesize_cascade
from povmcascade.verify import random_povm

R3 = math.sqrt(3.0)


def trine_document():
    povm, _, _ = trine_povm()
    return povm_document(povm.elements)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_schema_errors_have_context(self):
        from povmcascade.cli import DocumentError

        with pytest.raises(DocumentError, match="elements"):
            parse_povm_document({"schema_version": "1", "elements": "nope"})
        with pytest.raises(DocumentError, match=r"elements\[0\]"):
            parse_povm_document({"schema_version": "1", "elements": [[[1, 2]], [[3, 4]]]})
        with pytest.raises(DocumentError, match="schema_version"):
            parse_povm_document({"schema_version": "9", "elements": []})


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

    def test_norm_deviation_warns(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "2,0,0,0"]) == 0
        assert "normalizing" in capsys.readouterr().err

    def test_zero_state_rejected(self, hv_plan_file, capsys):
        assert main(["simulate", hv_plan_file, "--pure", "0,0,0,0"]) == 2

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


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("command", ["synthesize", "verify", "demo"])
def test_trials_below_one_is_usage_error(command, trials, trine_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    argv = {
        "synthesize": ["synthesize", trine_file, "-o", str(plan_path)],
        "verify": ["verify", trine_file],
        "demo": ["demo", "trine"],
    }[command]
    assert main(argv + ["--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err and "--trials" in captured.err
    assert "verification" not in captured.out
    assert not plan_path.exists()


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

    def test_unknown_demo_name(self, capsys):
        assert main(["demo", "octahedron"]) == 1
