"""Command-line front end.

Subcommands: validate, synthesize, simulate, verify, demo.  Exit codes are
stable across commands: 0 success/valid, 1 usage or parse error, 2 domain
failure (invalid POVM, failed verification, out-of-domain parameters).

File formats are JSON with complex numbers as [re, im] pairs; see the
README for the POVM-document and plan-document schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import demos
from .optics import PhotonState, build_cascade_network, exit_amplitudes, propagate
from .povm import _check_residuals, density_matrix, kraus_from_povm, validate_povm, validation_residuals
from .synthesis import CascadePlan, DomainError, ModuleSettings, synthesize_cascade
from .verify import simulate_density, verify_plan

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

SCHEMA_VERSION = "1"

#: simulate --pure warns when the state's norm is off 1 by more than this
NORM_WARNING = 1e-6


class DocumentError(ValueError):
    """Malformed input file (schema or JSON problems), with field context."""


# ----------------------------------------------------------------------
# document encoding/decoding


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_json(complex(m[r, c])) for c in range(2)] for r in range(2)]


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 2:
        raise DocumentError(f"{where}: expected 2 rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != 2:
            raise DocumentError(f"{where}[{r}]: expected 2 entries")
        entries = []
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise DocumentError(f"{where}[{r}][{c}]: expected an [re, im] pair of numbers")
            entries.append(complex(entry[0], entry[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def povm_document(elements, exit_unitaries=None, labels=None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "elements": [matrix_to_json(np.asarray(e, dtype=complex)) for e in elements],
    }
    if exit_unitaries is not None:
        doc["exit_unitaries"] = [matrix_to_json(np.asarray(u, dtype=complex)) for u in exit_unitaries]
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def parse_povm_document(doc) -> tuple[list[np.ndarray], list[np.ndarray] | None, list[str] | None]:
    if not isinstance(doc, dict):
        raise DocumentError("POVM document must be a JSON object")
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise DocumentError(f"schema_version: expected {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}")
    raw = doc.get("elements")
    if not isinstance(raw, list) or len(raw) < 2:
        raise DocumentError("elements: expected a list of at least 2 matrices")
    elements = [matrix_from_json(m, f"elements[{i}]") for i, m in enumerate(raw)]
    exit_unitaries = None
    if "exit_unitaries" in doc:
        raw_units = doc["exit_unitaries"]
        if not isinstance(raw_units, list):
            raise DocumentError("exit_unitaries: expected a list of matrices")
        exit_unitaries = [matrix_from_json(m, f"exit_unitaries[{i}]") for i, m in enumerate(raw_units)]
    labels = None
    if "labels" in doc:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, list) or not all(isinstance(s, str) for s in raw_labels):
            raise DocumentError("labels: expected a list of strings")
        labels = list(raw_labels)
    return elements, exit_unitaries, labels


def plan_document(plan: CascadePlan) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "modules": [
            {
                "theta": module.theta,
                "phi": module.phi,
                "zeta": module.zeta,
                "xi": module.xi,
                "pre_unitary": matrix_to_json(module.pre_unitary),
                "exit_unitary": matrix_to_json(module.exit_unitary),
            }
            for module in plan.modules
        ],
        "final_exit_unitary": matrix_to_json(plan.final_exit_unitary),
    }


def parse_plan_document(doc) -> CascadePlan:
    if not isinstance(doc, dict):
        raise DocumentError("plan document must be a JSON object")
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise DocumentError(f"schema_version: expected {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}")
    raw_modules = doc.get("modules")
    if not isinstance(raw_modules, list) or not raw_modules:
        raise DocumentError("modules: expected a non-empty list")
    modules = []
    for i, raw in enumerate(raw_modules):
        where = f"modules[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        try:
            angles = {key: float(raw[key]) for key in ("theta", "phi", "zeta", "xi")}
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"{where}: needs numeric theta, phi, zeta, xi ({exc})") from None
        if "pre_unitary" not in raw or "exit_unitary" not in raw:
            raise DocumentError(f"{where}: needs pre_unitary and exit_unitary")
        try:
            modules.append(
                ModuleSettings(
                    pre_unitary=matrix_from_json(raw["pre_unitary"], f"{where}.pre_unitary"),
                    exit_unitary=matrix_from_json(raw["exit_unitary"], f"{where}.exit_unitary"),
                    **angles,
                )
            )
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    if "final_exit_unitary" not in doc:
        raise DocumentError("final_exit_unitary: missing")
    final = matrix_from_json(doc["final_exit_unitary"], "final_exit_unitary")
    try:
        return CascadePlan(tuple(modules), final)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# printing helpers


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _fmt_matrix(m: np.ndarray, indent: str = "    ") -> str:
    rows = [
        indent + "[" + ", ".join(_fmt_complex(complex(m[r, c])) for c in range(2)) + "]"
        for r in range(2)
    ]
    return "\n".join(rows)


def _print_settings(plan: CascadePlan) -> None:
    print(f"cascade plan: {plan.n} outcomes, {len(plan.modules)} modules")
    for j, module in enumerate(plan.modules, start=1):
        theta_deg = math.degrees(module.theta)
        phi_deg = math.degrees(module.phi)
        print(
            f"module {j}: theta {module.theta:.5f} rad ({theta_deg:.3f} deg), "
            f"phi {module.phi:.5f} rad ({phi_deg:.3f} deg), "
            f"zeta {module.zeta:.5f} rad, xi {module.xi:.5f} rad"
        )
        print("  pre-unitary:")
        print(_fmt_matrix(module.pre_unitary))
        print("  exit unitary:")
        print(_fmt_matrix(module.exit_unitary))
    print("final exit unitary:")
    print(_fmt_matrix(plan.final_exit_unitary))


def _verify_and_report(kraus, plan: CascadePlan, args, show_roundtrip: bool = False) -> int:
    """Run verify_plan with the command's --trials/--seed, print the report
    (led by its f_roundtrip residual as a summary line if show_roundtrip),
    write it to --report if given, and map the verdict to an exit code."""
    report = verify_plan(kraus, plan, trial_states=args.trials, seed=args.seed)
    if show_roundtrip:
        print(f"settings reproduce the operators to {report.check('f_roundtrip').max_residual:.3e}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"  {check.name}: {status} (max residual {check.max_residual:.3e}, "
            f"tolerance {check.tolerance:.1e})"
        )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verification: {verdict} ({report.case_count} trial states, seed {report.seed})")
    if args.report:
        _write_json(args.report, report.to_dict())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _print_exits(records) -> None:
    total = 0.0
    for record in records:
        total += record.probability
        if record.polarization is None:
            print(f"exit E{record.index}: probability {record.probability:.12g}")
        else:
            a, b = record.polarization
            print(
                f"exit E{record.index}: probability {record.probability:.12g}, "
                f"polarization [{_fmt_complex(complex(a))}, {_fmt_complex(complex(b))}]"
            )
    print(f"total probability: {total:.12g}")


# ----------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    doc = _load_json(args.input)
    elements, _, labels = parse_povm_document(doc)
    per_element, completeness = validation_residuals(elements)
    for i, (herm, min_eig) in enumerate(per_element):
        name = labels[i] if labels and i < len(labels) else f"element {i + 1}"
        print(f"{name}: hermiticity residual {herm:.3e}, min eigenvalue {min_eig:+.3e}")
    print(f"completeness residual: {completeness:.3e}")
    try:
        _check_residuals(per_element, completeness)
    except ValueError as exc:
        print(f"INVALID: {exc}")
        return EXIT_DOMAIN
    print("POVM valid")
    return EXIT_OK


def _load_kraus(path: str):
    """Kraus set of a POVM document: validated elements, exit unitaries applied."""
    elements, exit_unitaries, _ = parse_povm_document(_load_json(path))
    return kraus_from_povm(validate_povm(elements), exit_unitaries)


def _cmd_synthesize(args) -> int:
    kraus = _load_kraus(args.input)
    plan = synthesize_cascade(kraus)
    _write_json(args.output, plan_document(plan))
    print(f"plan written to {args.output}")
    _print_settings(plan)
    return _verify_and_report(kraus, plan, args)


def _parse_pure(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise DocumentError("--pure expects four comma-separated numbers: a_re,a_im,b_re,b_im")
    try:
        a_re, a_im, b_re, b_im = (float(p) for p in parts)
    except ValueError:
        raise DocumentError(f"--pure: could not parse numbers from {text!r}") from None
    if not all(map(math.isfinite, (a_re, a_im, b_re, b_im))):
        raise DocumentError(f"--pure: components must be finite, got {text!r}")
    vec = np.array([complex(a_re, a_im), complex(b_re, b_im)])
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DomainError("--pure: state has zero norm")
    if not abs(norm - 1.0) <= NORM_WARNING:
        print(f"warning: input state norm {norm:.9g} deviates from 1; normalizing", file=sys.stderr)
    return vec / norm


def _cmd_simulate(args) -> int:
    plan = parse_plan_document(_load_json(args.plan))
    if args.pure is not None:
        psi = _parse_pure(args.pure)
        network = build_cascade_network(plan)
        out = propagate(PhotonState.pure(network.input, psi), network)
        _print_exits(exit_amplitudes(out, network))
        return EXIT_OK
    rho = density_matrix(matrix_from_json(_load_json(args.density), "density matrix"))
    records = simulate_density(plan, rho)
    for record in records:
        print(f"exit E{record.index}: probability {record.probability:.12g}")
        if record.post_state is not None:
            print("  conditional state:")
            print(_fmt_matrix(record.post_state.rho, indent="    "))
    print(f"total probability: {float(np.sum([r.probability for r in records])):.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    kraus = _load_kraus(args.input)
    if args.plan is not None:
        plan = parse_plan_document(_load_json(args.plan))
    else:
        plan = synthesize_cascade(kraus)
    return _verify_and_report(kraus, plan, args)


def _cmd_demo(args) -> int:
    if args.name == "trine":
        povm, kraus, plan = demos.trine_povm()
    else:
        params = demos.EkertParams(math.radians(args.alpha), math.radians(args.beta))
        povm, plan = demos.ekert_povm(params)
        kraus = kraus_from_povm(povm)
    print(f"{args.name} measurement operators:")
    for i, element in enumerate(povm, start=1):
        print(f"F{i}:")
        print(_fmt_matrix(element))
    _print_settings(plan)
    return _verify_and_report(kraus, plan, args, show_roundtrip=True)


# ----------------------------------------------------------------------
# parser plumbing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise _UsageError(message)


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_verification_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=_trial_count, default=100, help="verification trial states (>= 1)")
    parser.add_argument("--seed", type=int, default=42, help="verification seed")
    parser.add_argument("--report", help="write the verification report (JSON) here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="povm",
        description="Compile polarization POVMs into beamsplitter-cascade settings and simulate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a POVM document")
    p_validate.add_argument("input", help="POVM document (JSON)")

    p_synth = sub.add_parser("synthesize", help="compile a POVM document into a plan")
    p_synth.add_argument("input", help="POVM document (JSON)")
    p_synth.add_argument("-o", "--output", required=True, help="plan document to write")
    _add_verification_options(p_synth)

    p_sim = sub.add_parser("simulate", help="propagate a state through a plan")
    p_sim.add_argument("plan", help="plan document (JSON)")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--pure", help="pure state as a_re,a_im,b_re,b_im")
    group.add_argument("--density", help="density-matrix file (JSON 2x2 matrix)")

    p_verify = sub.add_parser("verify", help="verify a plan against a POVM document")
    p_verify.add_argument("input", help="POVM document (JSON)")
    p_verify.add_argument("--plan", help="plan document (default: synthesize internally)")
    _add_verification_options(p_verify)

    p_demo = sub.add_parser("demo", help="run a built-in example")
    p_demo.add_argument("name", choices=("trine", "ekert"))
    p_demo.add_argument("--alpha", type=float, default=0.0, help="ekert: first polarization (degrees)")
    p_demo.add_argument("--beta", type=float, default=45.0, help="ekert: second polarization (degrees)")
    _add_verification_options(p_demo)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
