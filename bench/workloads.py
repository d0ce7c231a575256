"""The three workloads: seeded inputs, one op each, and the oracle check of its output.

Ops call the program through module attributes (``povm.validate_povm``,
``optics.propagate`` ...) so that the tracer's wrappers see them.  Each
workload cycles through a pool of inputs drawn once in set-up; outcome
numbers are stratified over a log-uniform range (see
``oracle.stratified_sizes``), so the mix, and with it the op-latency
quantiles, hardly moves with the seed; the seed draws the matrices, which
inputs are rank-one or near-rank-deficient, and the trial states.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import numpy as np

import oracle
from povmcascade import cli, optics, povm, synthesis, verify


def _draw(rng, count, lo, hi, mix):
    sizes = oracle.stratified_sizes(count, lo, hi)
    families = oracle.family_sequence(rng, count, mix)
    return [oracle.FAMILIES[f](rng, n) for f, n in zip(families, sizes)]


class Compile:
    """validate_povm -> kraus_from_povm -> synthesize_cascade -> reconstruct_kraus."""

    name = "compile"
    why = (
        "batch compile, no photon simulation: stresses povm, qmath and synthesis, never optics "
        "or verify; a quarter rank-one and 1/16 near-rank-deficient inputs drive the snap/cutoff branches"
    )
    pool = 256
    sizes = (3, 80)
    mix = {"full_rank": 11, "rank_one": 4, "near_deficient": 1}

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.elements = _draw(rng, self.pool, *self.sizes, self.mix)
        self.inputs = [list(f) for f in self.elements]
        self.kraus_ref = [oracle.sqrt_psd(f) for f in self.elements]

    def outcomes(self, i: int) -> int:
        return len(self.elements[i % self.pool])

    def prepare(self, i: int):
        return i % self.pool

    def op(self, k: int):
        kraus = povm.kraus_from_povm(povm.validate_povm(self.inputs[k]))
        plan = synthesis.synthesize_cascade(kraus)
        return kraus, plan, synthesis.reconstruct_kraus(plan)

    def check(self, k: int, out) -> list[str]:
        kraus, plan, rebuilt = out
        elements = self.elements[k]
        wanted = np.array(kraus.operators)
        realized = oracle.realized_operators(*oracle.stage_settings(plan))
        return (
            oracle.check_operators(wanted, self.kraus_ref[k], elements, "kraus_from_povm")
            + oracle.check_operators(realized, wanted, elements, "plan")
            + oracle.check_operators(np.array(rebuilt.operators), realized, elements, "reconstruct_kraus")
        )

    def corrupted_rejected(self, k: int, out) -> bool:
        kraus, plan, _ = out
        plan = corrupt_plan(plan, self.elements[k])
        return bool(self.check(k, (kraus, plan, synthesis.reconstruct_kraus(plan))))


class Synthesize:
    """`povm synthesize in.json -o plan.json --report r.json`, in-process through cli.main."""

    name = "synthesize"
    why = (
        "the command users run: JSON in, settings table, plan and report out, with the default "
        "100-trial verify_plan, which is mostly optics.propagate"
    )
    pool = 64
    sizes = (3, 24)
    mix = {"full_rank": 3, "rank_one": 1}

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.elements = _draw(rng, self.pool, *self.sizes, self.mix)
        self.kraus_ref = [oracle.sqrt_psd(f) for f in self.elements]
        os.makedirs(workdir, exist_ok=True)
        self.docs = []
        for k, f in enumerate(self.elements):
            path = os.path.join(workdir, f"povm_{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(oracle.povm_document(f), fh)
            self.docs.append(path)
        self.plan_path = os.path.join(workdir, "plan.json")
        self.report_path = os.path.join(workdir, "report.json")

    def outcomes(self, i: int) -> int:
        return len(self.elements[i % self.pool])

    def prepare(self, i: int):
        for path in (self.plan_path, self.report_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return i % self.pool

    def op(self, k: int):
        argv = ["synthesize", self.docs[k], "-o", self.plan_path, "--report", self.report_path]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def _plan_doc(self):
        with open(self.plan_path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, k: int, code, doc=None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = doc or self._plan_doc()
            realized = oracle.realized_operators(*oracle.document_settings(doc))
            with open(self.report_path, encoding="utf-8") as fh:
                if not json.load(fh).get("checks"):
                    return ["report without checks"]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        return oracle.check_operators(realized, self.kraus_ref[k], self.elements[k], "plan")

    def corrupted_rejected(self, k: int, code) -> bool:
        doc = self._plan_doc()
        stages, _ = oracle.document_settings(doc)
        stages, j = oracle.perturb_exit(stages, self.elements[k])
        doc["modules"][j]["exit_unitary"] = oracle.matrix_to_pairs(stages[j][5])
        return bool(self.check(k, code, doc))


class Simulate:
    """build_cascade_network, one pure state through propagate + exit_amplitudes,
    one mixed state through verify_density, on plans compiled in set-up."""

    name = "simulate"
    why = (
        "deep networks (up to ~1250 elements) built per op and used for only three states: "
        "optics the other way round from synthesize, where build cost is not amortized"
    )
    pool = 64
    sizes = (10, 80)
    mix = {"full_rank": 3, "rank_one": 1}

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.elements = _draw(rng, self.pool, *self.sizes, self.mix)
        self.kraus = []
        self.plans = []
        for f in self.elements:
            kraus = povm.kraus_from_povm(povm.validate_povm(list(f)))
            self.kraus.append(kraus)
            self.plans.append(synthesis.synthesize_cascade(kraus))
        self.kraus_arr = [np.array(k.operators) for k in self.kraus]
        self.seed = seed

    def outcomes(self, i: int) -> int:
        return len(self.elements[i % self.pool])

    def prepare(self, i: int, plan=None):
        k = i % self.pool
        # the trial states belong to the input, so every op on input k is the same op
        states = np.random.default_rng([self.seed, 4, k])
        psi = oracle.random_pure_state(states)
        rho = oracle.random_density(states)
        rank = int(np.sum(np.linalg.eigvalsh(rho) > 1e-12))
        return k, plan or self.plans[k], psi, povm.density_matrix(rho), rank

    def op(self, args):
        k, plan, psi, rho, _ = args
        network = optics.build_cascade_network(plan)
        out = optics.propagate(optics.PhotonState.pure(network.input, psi), network)
        return optics.exit_amplitudes(out, network), verify.verify_density(rho, self.kraus[k], plan)

    def check(self, args, out) -> list[str]:
        k, _, psi, _, rank = args
        records, report = out
        return oracle.check_pure_exits(
            records, psi, self.kraus_arr[k], self.elements[k]
        ) + oracle.check_density_report(report, rank)

    def corrupted_rejected(self, args, out) -> bool:
        k = args[0]
        bad = self.prepare(k, corrupt_plan(self.plans[k], self.elements[k]))
        return bool(self.check(bad, self.op(bad)))


def corrupt_plan(plan, elements):
    """The plan with one exit unitary perturbed (see oracle.perturb_exit)."""
    stages, _ = oracle.stage_settings(plan)
    stages, j = oracle.perturb_exit(stages, elements)
    modules = list(plan.modules)
    modules[j] = dataclasses.replace(modules[j], exit_unitary=stages[j][5])
    return synthesis.CascadePlan(tuple(modules), plan.final_exit_unitary)


WORKLOADS = {w.name: w for w in (Compile, Synthesize, Simulate)}
