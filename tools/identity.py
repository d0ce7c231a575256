"""Fingerprint what a source tree's program produces, to compare two trees bit for bit.

For one tree it prints one SHA-256 per artifact family:

    povms      the elements and kraus_from_povm's operators of every corpus POVM
    plans      every plan's angles and unitary entries, and reconstruct_kraus's operators
    transfer   transfer_matrices of every plan's network: keys, their order and the map bytes
    propagate  propagate's amplitudes and exit_amplitudes for a seeded pure state,
               for |H>, |V> and i|V> through the trine and ekert demo plans, and
               for signed-zero pairs on a one-mode network
    reports    verify_plan(...).to_dict() and verify_density(...).to_dict()
    cli        stdout, stderr, exit code (or SystemExit) and written files of the
               CLI on a fixed document set (trine with labels, n = 2, n = 12 with
               exit unitaries, rank-one n = 24, n = 80, a non-PSD document, a NaN
               pure state, demo trine and demo ekert), its reader errors on
               malformed documents (exit_unitaries and labels of the wrong
               kind, a document that is not an object read as a POVM and as
               a plan, an empty modules list, a plan without its
               final_exit_unitary), and its help and usage errors at COLUMNS=80

The corpus is random_povm and random_rank_one_povm at n = 2..MAX_N outcomes and
seeds 0..SEEDS-1 (790 POVMs at the defaults).  An error raised on an input is
fingerprinted as its type and message.  Each tree runs in its own interpreter
with only that tree's package on the path; the CLI documents are drawn here,
not by the tree, so both trees read the same bytes.

Next to the fingerprints each tree prints two counts over its own corpus.
They are diagnostics and never change the exit code:

    one-ulp    rank-one plans whose final_exit_unitary, and separately any
               exit_unitary, moves by more than 1e-6 when every element is
               scaled by (1 + 2^-52): a gauge that round-off would set
    boundary   corpus POVMs with F_1 scaled by 1 + 0.9 DEFAULT_TOL / max|F_1|
               that validation rejects, that validate but do not compile, and
               that compile but fail verify_plan (default trials and seed);
               then the outcome of two known repros of a valid POVM that
               fails verification (n = 2) or does not compile (n = 3, 80)

    python tools/identity.py src                        # fingerprints of one tree
    python tools/identity.py --compare OLD/src NEW/src  # exit 1 if a family differs
    python tools/identity.py --max-n 6 --seeds 2 src    # a small corpus
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FAMILIES = ("povms", "plans", "transfer", "propagate", "reports", "cli")


def _digest(items: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for label, data in items:
        h.update(label.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _array_bytes(m) -> bytes:
    return np.asarray(m, dtype=complex).tobytes()


def _error(exc: Exception) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def _corpus(max_n: int, seeds: int, records: dict) -> None:
    """Fill records[family] with (label, bytes) pairs over the random corpus."""
    from povmcascade import optics, povm, synthesis, verify

    for family in ("random_povm", "random_rank_one_povm"):
        make = getattr(verify, family)
        for n in range(2, max_n + 1):
            for seed in range(seeds):
                label = f"{family}/n={n}/seed={seed}"
                elements = make(n, seed)
                try:
                    kraus = povm.kraus_from_povm(elements)
                    records["povms"].append((label, _array_bytes(elements.elements) + _array_bytes(kraus.operators)))
                    plan = synthesis.synthesize_cascade(kraus)
                except ValueError as exc:
                    records["povms"].append((label, _error(exc)))
                    continue
                settings = [
                    np.array([m.theta, m.phi, m.zeta, m.xi]).tobytes()
                    + _array_bytes(m.pre_unitary)
                    + _array_bytes(m.exit_unitary)
                    for m in plan.modules
                ]
                rebuilt = synthesis.reconstruct_kraus(plan)
                records["plans"].append(
                    (label, b"".join(settings) + _array_bytes(plan.final_exit_unitary) + _array_bytes(rebuilt.operators))
                )
                network = optics.build_cascade_network(plan)
                transfer = optics.transfer_matrices(network)
                records["transfer"].append(
                    (label, repr(list(transfer)).encode() + b"".join(_array_bytes(t) for t in transfer.values()))
                )
                rng = np.random.default_rng([seed, n])
                psi = verify.random_pure_state(rng)
                records["propagate"].append((label, _propagation(optics, network, psi)))
                draws = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                rho = draws @ draws.conj().T
                rho = povm.density_matrix(rho / np.trace(rho).real)
                reports = [verify.verify_plan(kraus, plan, trial_states=20, seed=seed), verify.verify_density(rho, kraus, plan)]
                records["reports"].append((label, json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()))


def _propagation(optics, network, psi) -> bytes:
    """propagate's amplitudes and exit_amplitudes' records of psi, as their reprs."""
    out = optics.propagate(optics.PhotonState.pure(network.input, psi), network)
    exits = optics.exit_amplitudes(out, network)
    return (
        repr(list(out.amplitudes.items())).encode()
        + repr([(e.index, e.probability, None if e.polarization is None else e.polarization.tolist()) for e in exits]).encode()
    )


def _zero_parts(records: dict) -> None:
    """Exits with exactly zero parts: the demo plans on |H>, |V> and i|V> (the
    trine's read (0.5-0j)), and signed-zero pairs read straight off a one-mode
    network.  Only the pairs can show a change of exit_amplitudes'
    normalization that flips the sign of a zero: a plan's walk sums the zeros
    it leaves to +0.0, where numpy's division and a plain product agree."""
    from povmcascade import demos, optics

    _, _, trine = demos.trine_povm()
    _, ekert = demos.ekert_povm(demos.EkertParams(0.0, np.pi / 4))
    for name, plan in (("trine", trine), ("ekert", ekert)):
        network = optics.build_cascade_network(plan)
        for state, psi in (("H", [1, 0]), ("V", [0, 1]), ("iV", [0, 1j])):
            records["propagate"].append((f"demo/{name}/{state}", _propagation(optics, network, psi)))
    mode = optics.ModeLabel(0, "in")
    bare = optics.OpticalNetwork((), (mode,), mode)
    parts = (0.0, -0.0, 0.3, -0.7)
    for h in (complex(a, b) for a in parts for b in parts):
        for v in (complex(-0.0, 0.8), complex(0.6, -0.0)):
            records["propagate"].append((f"bare/{h!r},{v!r}", _propagation(optics, bare, [h, v])))


def _pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _document(elements, exit_unitaries=None, labels=None) -> dict:
    doc = {"schema_version": "1", "elements": [_pairs(f) for f in elements]}
    if exit_unitaries is not None:
        doc["exit_unitaries"] = [_pairs(u) for u in exit_unitaries]
    if labels is not None:
        doc["labels"] = labels
    return doc


def _sandwich(rng, n: int, rank_one: bool) -> list:
    """n random PSD matrices sandwiched by the inverse square root of their sum."""
    if rank_one:
        vecs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        raw = np.einsum("ni,nj->nij", vecs, vecs.conj())
    else:
        a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        raw = a @ a.conj().transpose(0, 2, 1)
    lam, basis = np.linalg.eigh(raw.sum(axis=0))
    inv_sqrt = basis @ np.diag(lam**-0.5) @ basis.conj().T
    out = inv_sqrt @ raw @ inv_sqrt
    return list(0.5 * (out + out.conj().transpose(0, 2, 1)))


def _unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


def _cli_documents() -> dict[str, dict]:
    rng = np.random.default_rng(20260101)
    r3 = 3.0**0.5
    trine = [
        np.array([[2 / 3, 0], [0, 0]], dtype=complex),
        np.array([[1, r3], [r3, 3]], dtype=complex) / 6,
        np.array([[1, -r3], [-r3, 3]], dtype=complex) / 6,
    ]
    twelve = _sandwich(rng, 12, False)
    return {
        "trine": _document(trine, labels=["H", "trine+", "trine-"]),
        "n2": _document(_sandwich(rng, 2, False)),
        "n12_exits": _document(twelve, exit_unitaries=[_unitary(rng) for _ in twelve]),
        "rank_one_n24": _document(_sandwich(rng, 24, True)),
        "n80": _document(_sandwich(rng, 80, False)),
        "not_psd": _document([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]),
    }


def _cli(records: dict) -> None:
    """Fill records["cli"] with one entry per command run in a scratch directory."""
    from povmcascade import cli

    documents = _cli_documents()
    runs = [["demo", "trine"], ["demo", "ekert", "--alpha", "10", "--beta", "70"]]
    for name in documents:
        doc, plan = f"{name}.json", f"{name}.plan.json"
        runs += [
            ["validate", doc],
            ["synthesize", doc, "-o", plan, "--report", f"{name}.report.json"],
            ["verify", doc, "--plan", plan, "--trials", "7", "--seed", "3"],
            ["simulate", plan, "--pure", "0.6,0,0,0.8"],
            ["simulate", plan, "--density", "rho.json"],
        ]
    runs.append(["simulate", "trine.plan.json", "--pure", "nan,0,1,0"])
    # help and usage errors: the parser's own output, the --trials checks and
    # the --pure/--density group, with and without a command in front
    runs += [["-h"]] + [[command, "-h"] for command in ("validate", "synthesize", "simulate", "verify", "demo")]
    runs += [
        [],
        ["synth"],
        ["synthesize", "trine.json"],
        ["synthesize", "trine.json", "-o", "usage.plan.json", "--trials", "0"],
        ["synthesize", "trine.json", "-o", "usage.plan.json", "--trials", "abc"],
        ["simulate", "trine.plan.json", "--pure", "1,0,0,0", "--density", "rho.json"],
        ["validate", "trine.json", "--bogus"],
        ["-x", "synthesize"],
    ]
    documents["rho"] = [[[0.7, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]]
    # documents the readers turn away, one message each
    module = {"theta": 0.5, "phi": 1.0, "zeta": 0.0, "xi": 0.0, "pre_unitary": _pairs(np.eye(2)), "exit_unitary": _pairs(np.eye(2))}
    documents |= {
        "bad_exits": {**documents["n2"], "exit_unitaries": {"0": _pairs(np.eye(2))}},
        "bad_labels": {**documents["n2"], "labels": ["E1", 2]},
        "not_an_object": [documents["n2"]],
        "no_modules": {"schema_version": "1", "modules": [], "final_exit_unitary": _pairs(np.eye(2))},
        "no_final": {"schema_version": "1", "modules": [module]},
    }
    runs += [
        ["validate", "bad_exits.json"],
        ["validate", "bad_labels.json"],
        ["validate", "not_an_object.json"],
        ["simulate", "not_an_object.json", "--pure", "1,0,0,0"],
        ["simulate", "no_modules.json", "--pure", "1,0,0,0"],
        ["verify", "n2.json", "--plan", "no_final.json"],
    ]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, document in documents.items():
                Path(f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
            for argv in runs:
                before = set(os.listdir("."))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse's help exits
                        code = f"SystemExit({exc.code!r})"
                written = sorted(set(os.listdir(".")) - before)
                files = b"".join(name.encode() + b"\0" + Path(name).read_bytes() for name in written)
                records["cli"].append((" ".join(argv), f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode() + files))
        finally:
            os.chdir(cwd)


#: a plan entry that moves by more than this under a one-ulp change of the input counts as moved
MOVE = 1e-6


def _pipeline(povm, synthesis, verify, elements) -> str:
    """Where elements stop on validate -> compile -> verify_plan: "rejected: ",
    "not compiling: " (each with the error) or "failing: " (with the failed
    checks and their residuals), else "verified"."""
    try:
        povm_set = povm.validate_povm(elements)
    except ValueError as exc:
        return f"rejected: {_error(exc).decode()}"
    try:
        kraus = povm.kraus_from_povm(povm_set)
        plan = synthesis.synthesize_cascade(kraus)
    except ValueError as exc:
        return f"not compiling: {_error(exc).decode()}"
    failed = [f"{c.name} {c.max_residual:.3e}" for c in verify.verify_plan(kraus, plan).checks if not c.passed]
    return f"failing: {', '.join(failed)}" if failed else "verified"


def _repros(n: int) -> list:
    """The two known boundary repros: a valid POVM whose plan fails verify_plan
    (n = 2), and n - 1 copies of diag(1/(n-1), -9e-10) plus the complement,
    valid but not compiling."""
    if n == 2:
        return [0.001 * np.eye(2), 0.999 * np.eye(2) + 9e-10 * np.ones((2, 2))]
    return [np.diag([1 / (n - 1), -9e-10])] * (n - 1) + [np.diag([0.0, 1 + (n - 1) * 9e-10])]


def counts(max_n: int, seeds: int) -> dict:
    """The one-ulp and boundary counts of the importable package over the corpus."""
    from povmcascade import povm, qmath, synthesis, verify

    moves = {"plans": 0, "final": 0, "exit": 0}
    for n in range(2, max_n + 1):
        for seed in range(seeds):
            elements = verify.random_rank_one_povm(n, seed).elements
            old, new = (
                synthesis.synthesize_cascade(povm.kraus_from_povm(povm.validate_povm([f * scale for f in elements])))
                for scale in (1.0, 1.0 + 2.0**-52)
            )
            moves["plans"] += 1
            moves["final"] += qmath.max_abs(np.subtract(old.final_exit_unitary, new.final_exit_unitary)) > MOVE
            moves["exit"] += any(
                qmath.max_abs(np.subtract(a.exit_unitary, b.exit_unitary)) > MOVE for a, b in zip(old.modules, new.modules)
            )
    boundary = dict.fromkeys(("rejected", "not compiling", "failing", "verified"), 0)
    for family in ("random_povm", "random_rank_one_povm"):
        for n in range(2, max_n + 1):
            for seed in range(seeds):
                first, *rest = getattr(verify, family)(n, seed).elements
                first = first * (1.0 + 0.9 * qmath.DEFAULT_TOL / qmath.max_abs(first))
                boundary[_pipeline(povm, synthesis, verify, [first, *rest]).split(":")[0]] += 1
    repros = {f"n = {n}": _pipeline(povm, synthesis, verify, _repros(n)) for n in (2, 3, 80)}
    return {"one-ulp": moves, "boundary": boundary, "repros": repros}


def count_lines(result: dict, tree: str) -> list[str]:
    """The two count lines of one tree's counts()."""
    moves, boundary = result["one-ulp"], result["boundary"]
    repros = "; ".join(f"{n}: {outcome}" for n, outcome in result["repros"].items())
    return [
        f"one-ulp    {moves['final']} final and {moves['exit']} exit unitaries of {moves['plans']} rank-one plans"
        f" move by > {MOVE:g}  {tree}",
        f"boundary   {boundary['rejected']} rejected, {boundary['not compiling']} not compiling,"
        f" {boundary['failing']} failing verify_plan of {sum(boundary.values())} inputs; repros {repros}  {tree}",
    ]


def fingerprint(max_n: int, seeds: int) -> dict:
    """{family: {"digest": sha256, "items": {label: sha256}}} for the importable package."""
    records: dict[str, list] = {family: [] for family in FAMILIES}
    _corpus(max_n, seeds, records)
    _zero_parts(records)
    _cli(records)
    return {
        family: {
            "digest": _digest(items),
            "items": {label: hashlib.sha256(data).hexdigest() for label, data in items},
        }
        for family, items in records.items()
    }


def run_tree(src: str, max_n: int, seeds: int) -> dict:
    """fingerprint() in a fresh interpreter that imports the package from src."""
    # COLUMNS: argparse wraps the CLI's help to the terminal's width
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    argv = [sys.executable, os.path.abspath(__file__), "--json", "--max-n", str(max_n), "--seeds", str(seeds), src]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"fingerprinting {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(old: dict, new: dict) -> list[str]:
    """One line per family: identical, or the first items that differ."""
    lines = []
    for family in FAMILIES:
        a, b = old[family], new[family]
        if a["digest"] == b["digest"]:
            lines.append(f"{family:<10} identical ({len(a['items'])} items)")
            continue
        labels = list(dict.fromkeys([*a["items"], *b["items"]]))
        differ = [label for label in labels if a["items"].get(label) != b["items"].get(label)]
        lines.append(f"{family:<10} DIFFERS in {len(differ)} of {len(labels)} items, first: {differ[:3]}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", help="source directories holding the povmcascade package")
    parser.add_argument("--compare", action="store_true", help="compare exactly two trees")
    parser.add_argument("--max-n", type=int, default=80, help="largest outcome count of the corpus")
    parser.add_argument("--seeds", type=int, default=5, help="seeds per family and outcome count")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.json:  # the child run of run_tree: the package is already on the path
        json.dump(dict(fingerprint(args.max_n, args.seeds), counts=counts(args.max_n, args.seeds)), sys.stdout)
        return 0
    if args.compare:
        if len(args.trees) != 2:
            parser.error("--compare takes exactly two trees")
        old, new = (run_tree(tree, args.max_n, args.seeds) for tree in args.trees)
        lines = compare(old, new)
        print("\n".join(lines + count_lines(old["counts"], args.trees[0]) + count_lines(new["counts"], args.trees[1])))
        return 0 if all("identical" in line for line in lines) else 1
    for tree in args.trees:
        result = run_tree(tree, args.max_n, args.seeds)
        for family in FAMILIES:
            print(f"{result[family]['digest']}  {family:<10} {len(result[family]['items']):5d} items  {tree}")
        print("\n".join(count_lines(result["counts"], tree)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
