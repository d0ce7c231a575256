"""Compile polarization-qubit POVMs into linear-optics cascade settings,
simulate the resulting beamsplitter network element by element, and verify
the simulation against the analytic measurement oracle."""

from .demos import EkertParams, ekert_povm, trine_povm
from .optics import (
    ModeLabel,
    OpticalNetwork,
    PhotonState,
    build_cascade_network,
    exit_amplitudes,
    propagate,
)
from .povm import (
    DensityMatrix,
    KrausSet,
    OutcomeRecord,
    PovmSet,
    density_matrix,
    kraus_from_povm,
    outcome_probabilities,
    validate_povm,
)
from .synthesis import (
    CascadePlan,
    ModuleSettings,
    ekert_alpha_prime,
    reconstruct_kraus,
    synthesize_cascade,
)
from .verify import VerificationReport, random_povm, verify_density, verify_plan

__version__ = "0.1.0"

__all__ = [
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
