"""Command-line front end.

Subcommands: validate, synthesize, simulate, verify, demo.  Exit codes are
stable across commands: 0 success/valid, 1 usage or parse error, 2 domain
failure (invalid POVM, failed verification, out-of-domain parameters).

File formats are JSON with complex numbers as [re, im] pairs; see the
README for the POVM-document and plan-document schemas.  Plans and reports
are written as ``json.dump(doc, fh, indent=2)`` writes them, plus a final
newline, and written at once: a plan is filled into one fixed module
template per module, between a fixed head and a tail that holds its final
exit unitary; a report (or any other str-keyed document) is built by one
recursive pass of ``_json_text``.  The settings table is likewise one
format per module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial

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

_DOUBLE_MAX = sys.float_info.max

#: json.dumps's string encoder at its default ensure_ascii=True
_json_string = json.encoder.encode_basestring_ascii


class DocumentError(ValueError):
    """Malformed input file (schema or JSON problems), with field context, or
    a file that cannot be read or written."""


# ----------------------------------------------------------------------
# document encoding/decoding


def matrix_to_json(m) -> list:
    """A 2x2 matrix, as rows or as an array, in [re, im] pairs."""
    return [[[(z := complex(m[r][c])).real, z.imag] for c in range(2)] for r in range(2)]


def _number(x) -> float | None:
    """The one number rule of both documents: a JSON int or float (so not a
    bool or a string) that converts to a finite float; None for anything else,
    including the NaN, Infinity and out-of-range decimals (1e400) that the
    JSON reader turns into non-finite floats."""
    # bool is a subclass of int, not int; the bounds fail on NaN and reject an
    # int too large for a double before float() would overflow on it
    if type(x) in (int, float) and -_DOUBLE_MAX <= x <= _DOUBLE_MAX:
        return float(x)
    return None


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 2:
        raise DocumentError(f"{where}: expected 2 rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != 2:
            raise DocumentError(f"{where}[{r}]: expected 2 entries")
        entries = []
        for c, entry in enumerate(row):
            if isinstance(entry, list) and len(entry) == 2:
                real, imag = _number(entry[0]), _number(entry[1])
                if real is not None and imag is not None:
                    entries.append(complex(real, imag))
                    continue
            raise DocumentError(f"{where}[{r}][{c}]: expected an [re, im] pair of finite numbers")
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _check_header(doc, kind: str) -> None:
    """Both documents are JSON objects with this module's schema_version."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise DocumentError(f"schema_version: expected {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}")


def parse_povm_document(doc) -> tuple[list[np.ndarray], list[np.ndarray] | None, list[str] | None]:
    _check_header(doc, "POVM")
    raw = doc.get("elements")
    if not isinstance(raw, list) or len(raw) < 2:
        raise DocumentError("elements: expected a list of at least 2 matrices")
    elements = [matrix_from_json(m, f"elements[{i}]") for i, m in enumerate(raw)]
    exit_unitaries = _per_element(doc, "exit_unitaries", len(elements), "matrices", object)
    if exit_unitaries is not None:
        exit_unitaries = [matrix_from_json(m, f"exit_unitaries[{i}]") for i, m in enumerate(exit_unitaries)]
    labels = _per_element(doc, "labels", len(elements), "strings", str)
    return elements, exit_unitaries, labels


def _per_element(doc: dict, key: str, count: int, noun: str, accepts: type) -> list | None:
    """A copy of the optional list doc[key] of count entries, each an instance
    of accepts, or None when the key is absent; the list and its entries'
    type are checked before its length."""
    if key not in doc:
        return None
    raw = doc[key]
    if not isinstance(raw, list) or not all(isinstance(entry, accepts) for entry in raw):
        raise DocumentError(f"{key}: expected a list of {noun}")
    if len(raw) != count:
        raise DocumentError(f"{key}: expected {count} {noun}, got {len(raw)}")
    return list(raw)


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
    _check_header(doc, "plan")
    raw_modules = doc.get("modules")
    if not isinstance(raw_modules, list) or not raw_modules:
        raise DocumentError("modules: expected a non-empty list")
    modules = []
    for i, raw in enumerate(raw_modules):
        where = f"modules[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        angles = {key: _number(raw.get(key)) for key in ("theta", "phi", "zeta", "xi")}
        for key, value in angles.items():
            if value is None:
                raise DocumentError(f"{where}.{key}: expected a finite number")
        if "pre_unitary" not in raw or "exit_unitary" not in raw:
            raise DocumentError(f"{where}: needs pre_unitary and exit_unitary")
        pre = matrix_from_json(raw["pre_unitary"], f"{where}.pre_unitary")
        exit_u = matrix_from_json(raw["exit_unitary"], f"{where}.exit_unitary")
        try:
            modules.append(ModuleSettings(pre_unitary=pre, exit_unitary=exit_u, **angles))
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


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, for str-keyed documents,
    joined in one recursive pass: with an indent the stdlib runs its
    pure-Python generator encoder, chunk by chunk."""
    if isinstance(obj, float) and obj - obj == 0.0:  # finite: json writes its repr
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_json_text(item, inner) for item in obj]
    elif isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_json_string(key)}: {_json_text(value, inner)}" for key, value in obj.items()]
    else:  # any other value is one token, and json's own text for it takes no indent
        return json.dumps(obj)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _pairs(m) -> tuple:
    """A 2x2 matrix given as rows, row by row as [re, im] pairs, flat."""
    (a, b), (c, d) = m
    return a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag


def _slots(skeleton, indent: str) -> str:
    """_json_text(skeleton, indent) with each None a %r slot: filled with
    finite floats, it is json's text for them."""
    return _json_text(skeleton, indent).replace("null", "%r")


_MATRIX_SKELETON = [[[None, None]] * 2] * 2
#: a plan's module, at its indent in the modules list: theta, phi, zeta, xi,
#: then pre_unitary's and exit_unitary's pairs
_MODULE_TEMPLATE = _slots(
    {
        "theta": None,
        "phi": None,
        "zeta": None,
        "xi": None,
        "pre_unitary": _MATRIX_SKELETON,
        "exit_unitary": _MATRIX_SKELETON,
    },
    "\n    ",
)
#: the plan document around its modules; the tail holds final_exit_unitary's pairs
_PLAN_HEAD, _PLAN_TAIL = _slots(
    {"schema_version": SCHEMA_VERSION, "modules": [None], "final_exit_unitary": _MATRIX_SKELETON}, "\n"
).split("%r", 1)


def _plan_text(plan: CascadePlan) -> str:
    """_json_text(plan_document(plan)), filled into the module template once
    per module.  The constructors of ModuleSettings and CascadePlan hold every
    angle as a finite float and every unitary entry as a finite complex, so %r
    writes float.__repr__, as json does."""
    # one % over the whole plan, not one per module: CPython 3.11 keeps up to
    # 2,000 freed 20-tuples, a module's own argument tuple, in a free list it
    # never takes from, 0.35 MiB for the life of the process
    values = []
    for m in plan.modules:
        values += (m.theta, m.phi, m.zeta, m.xi)
        values += _pairs(m.pre_unitary)
        values += _pairs(m.exit_unitary)
    values += _pairs(plan.final_exit_unitary)
    return (_PLAN_HEAD + ",\n    ".join([_MODULE_TEMPLATE] * len(plan.modules)) + _PLAN_TAIL) % tuple(values)


def _write_text(path: str, text: str) -> None:
    """Write text and a final newline to path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, _json_text(payload))


# ----------------------------------------------------------------------
# printing helpers


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


#: a 2x2 matrix as two printed rows, filled with _pairs
_MATRIX_FORMAT = "    [{:+.6f}{:+.6f}j, {:+.6f}{:+.6f}j]\n    [{:+.6f}{:+.6f}j, {:+.6f}{:+.6f}j]"
#: one module of the settings table: its number, theta and phi in radians and
#: degrees, zeta, xi, then the pairs of its pre-unitary and exit unitary
_SETTINGS_FORMAT = (
    "module {}: theta {:.5f} rad ({:.3f} deg), phi {:.5f} rad ({:.3f} deg), zeta {:.5f} rad, xi {:.5f} rad\n"
    f"  pre-unitary:\n{_MATRIX_FORMAT}\n  exit unitary:\n{_MATRIX_FORMAT}"
)


def _fmt_matrix(m) -> str:
    return _MATRIX_FORMAT.format(*_pairs(m))


def _print_settings(plan: CascadePlan) -> None:
    lines = [f"cascade plan: {plan.n} outcomes, {len(plan.modules)} modules"]
    for j, m in enumerate(plan.modules, start=1):
        lines.append(
            _SETTINGS_FORMAT.format(
                j, m.theta, math.degrees(m.theta), m.phi, math.degrees(m.phi), m.zeta, m.xi,
                *_pairs(m.pre_unitary), *_pairs(m.exit_unitary),
            )
        )
    lines += ["final exit unitary:", _fmt_matrix(plan.final_exit_unitary)]
    print("\n".join(lines))


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
    """One line per exit record, with a pure state's conditional polarization
    on it or a density matrix's conditional state below it, then the total
    probability: the running sum of the records'."""
    running = 0.0
    for record in records:
        running += record.probability
        line = f"exit E{record.index}: probability {record.probability:.12g}"
        polarization = getattr(record, "polarization", None)
        if polarization is not None:
            a, b = polarization
            line += f", polarization [{_fmt_complex(complex(a))}, {_fmt_complex(complex(b))}]"
        print(line)
        post_state = getattr(record, "post_state", None)
        if post_state is not None:
            print("  conditional state:")
            print(_fmt_matrix(post_state.rho))
    print(f"total probability: {running:.12g}")


# ----------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    doc = _load_json(args.input)
    elements, _, labels = parse_povm_document(doc)
    per_element, completeness = validation_residuals(elements)
    for i, (herm, min_eig) in enumerate(per_element):
        name = labels[i] if labels else f"element {i + 1}"
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
    _write_text(args.output, _plan_text(plan))
    print(f"plan written to {args.output}")
    _print_settings(plan)
    return _verify_and_report(kraus, plan, args)


def _parse_pure(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise DocumentError("--pure expects four comma-separated numbers: a_re,a_im,b_re,b_im")
    try:
        x = [float(p) for p in parts]
    except ValueError:
        raise DocumentError(f"--pure: could not parse numbers from {text!r}") from None
    if not all(map(math.isfinite, x)):
        raise DocumentError(f"--pure: components must be finite, got {text!r}")
    # divide by the largest component in Python floats first: squaring the raw
    # components overflows or underflows at extreme scales, and numpy would
    # divide by multiplying with a reciprocal that is inf for a subnormal scale
    scale = max(map(abs, x))
    if scale == 0.0:
        raise DomainError("--pure: state has zero norm")
    x = [v / scale for v in x]
    length = math.hypot(*x)
    norm = scale * length
    if not abs(norm - 1.0) <= NORM_WARNING:
        print(f"warning: input state norm {norm:.9g} deviates from 1; normalizing", file=sys.stderr)
    return np.array([complex(x[0], x[1]), complex(x[2], x[3])]) / length


def _cmd_simulate(args) -> int:
    plan = parse_plan_document(_load_json(args.plan))
    if args.pure is not None:
        psi = _parse_pure(args.pure)
        network = build_cascade_network(plan)
        out = propagate(PhotonState.pure(network.input, psi), network)
        _print_exits(exit_amplitudes(out, network))
        return EXIT_OK
    rho = density_matrix(matrix_from_json(_load_json(args.density), "density matrix"))
    _print_exits(simulate_density(plan, rho))
    return EXIT_OK


def _cmd_verify(args) -> int:
    kraus = _load_kraus(args.input)
    plan = synthesize_cascade(kraus) if args.plan is None else parse_plan_document(_load_json(args.plan))
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


def _int_at_least(minimum: int, text: str) -> int:
    """The integer options' argparse type, bound to a minimum with partial."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `povm` parser, built once per process: parse_args leaves it as it
    was, so every call of main shares it.  Each subcommand's parser carries
    the function that runs it as its ``run`` default."""
    parser = _Parser(
        prog="povm",
        description="Compile polarization POVMs into beamsplitter-cascade settings and simulate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser("validate", help="check a POVM document")
    validate.set_defaults(run=_cmd_validate)
    validate.add_argument("input", help="POVM document (JSON)")
    synthesize = sub.add_parser("synthesize", help="compile a POVM document into a plan")
    synthesize.set_defaults(run=_cmd_synthesize)
    synthesize.add_argument("input", help="POVM document (JSON)")
    synthesize.add_argument("-o", "--output", required=True, help="plan document to write")
    simulate = sub.add_parser("simulate", help="propagate a state through a plan")
    simulate.set_defaults(run=_cmd_simulate)
    simulate.add_argument("plan", help="plan document (JSON)")
    group = simulate.add_mutually_exclusive_group(required=True)
    group.add_argument("--pure", help="pure state as a_re,a_im,b_re,b_im")
    group.add_argument("--density", help="density-matrix file (JSON 2x2 matrix)")
    verify = sub.add_parser("verify", help="verify a plan against a POVM document")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("input", help="POVM document (JSON)")
    verify.add_argument("--plan", help="plan document (default: synthesize internally)")
    demo = sub.add_parser("demo", help="run a built-in example")
    demo.set_defaults(run=_cmd_demo)
    demo.add_argument("name", choices=("trine", "ekert"))
    demo.add_argument("--alpha", type=float, default=0.0, help="ekert: first polarization (degrees)")
    demo.add_argument("--beta", type=float, default=45.0, help="ekert: second polarization (degrees)")
    for checked in (synthesize, verify, demo):  # each one's last options: the verification's
        checked.add_argument("--trials", type=partial(_int_at_least, 1), default=100, help="verification trial states (>= 1)")
        checked.add_argument("--seed", type=partial(_int_at_least, 0), default=42, help="verification seed")
        checked.add_argument("--report", help="write the verification report (JSON) here")
    return parser


def main(argv=None) -> int:
    try:  # argv None: parse_args reads sys.argv[1:] itself
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
