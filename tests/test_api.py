"""Public surface: package exports, CLI exit codes and the document schema version.

These are stable across releases; a change here must be listed in CHANGES.md.
"""

import inspect

import povmcascade
from povmcascade import cli, povm, qmath, synthesis


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
        "Svd2",
        "VerificationReport",
        "build_cascade_network",
        "build_module_network",
        "density_matrix",
        "eig_hermitian2",
        "ekert_alpha_prime",
        "ekert_povm",
        "exit_amplitudes",
        "kraus_from_povm",
        "outcome_probabilities",
        "propagate",
        "random_povm",
        "reconstruct_kraus",
        "sqrt_psd",
        "svd2",
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
        "SynthesisStep",
        "synthesize_cascade",
        "synthesis_steps",
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
        "phase_fixed",
        "is_unitary",
        "hermitian_residuals",
        "eig_hermitian2",
        "sqrt_psd",
        "svd2",
        "aligning_unitary",
    ]
    for module in (synthesis, qmath):
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
