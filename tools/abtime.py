"""Time two source trees against each other, interleaved in one interpreter.

Each tree is imported under a package name of its own, so both run in one
process on the same machine state.  Each repetition times every layer over
the whole pool for both trees; which tree goes first alternates from one
repetition to the next.  Per layer it prints the median over repetitions
of each tree's pool total, the ratio new/old of the two medians, in how
many repetitions the new tree was the faster, and each tree's median count
of young-generation (generation 0) garbage collections per pool pass, read
through gc.callbacks: a layer's time moves with the collections that its
own and earlier allocations set off, so a gain is explained by counts.
The pools are the benchmark's own at its default seed, drawn with the
benchmark's generator (bench/oracle.py): POVMs of the full-rank and
rank-one families (three to one) at outcome counts spread log-uniformly
over [LO, HI].

--workload simulate (the default; LO..HI = 10..80): one pure state and one
density matrix per POVM.  Each tree validates and compiles the drawn POVMs
itself.  The layers:

    build              build_cascade_network(plan)
    external_inputs    network.external_inputs() on a fresh network
    propagate          propagate(pure state, network)
    transfer_matrices  transfer_matrices(network)
    exit_amplitudes    exit_amplitudes(propagated state, network)
    verify_density     verify_density(rho, kraus, plan)
    op                 the benchmark's op: build, propagate and exit_amplitudes
                       of the pure state, then verify_density
    invocation         one build_cascade_network and propagate at n = HI per
                       fresh interpreter, --reps of them per tree, trees
                       alternated: the two calls timed after the imports and
                       the plan's compilation, so every module layout is made
                       cold; the median of one run each, and in how many pairs
                       of runs the new tree won

--workload synthesize (LO..HI = 3..24): one POVM document per POVM, written
once to a temporary directory.  The rows:

    main               the benchmark's op: cli.main(["synthesize", doc, "-o",
                       plan, "--report", report]), output to a string buffer
    invocation         one such run per fresh interpreter, --reps of them per
                       tree, trees alternated: cli.main timed after its import,
                       with stdout to the null device; the median of one run
                       each, and in how many pairs of runs the new tree won

    python tools/abtime.py OLD/src NEW/src                  # 21 repetitions, 64 plans
    python tools/abtime.py --reps 5 --pool 8 OLD/src NEW/src
    python tools/abtime.py --workload synthesize OLD/src NEW/src
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: the benchmark's default seed and the family mix of both workloads (bench/run.py, bench/workloads.py)
SEED = 1
MIX = {"full_rank": 3, "rank_one": 1}
LAYERS = ("build", "external_inputs", "propagate", "transfer_matrices", "exit_amplitudes", "verify_density", "op")
#: outcome counts per workload, as bench/workloads.py draws them
SIZES = {"simulate": (10, 80), "synthesize": (3, 24)}

#: one `povm synthesize` in a fresh interpreter: prints its seconds from after the import, exits with its code
_SYNTHESIZE = """
import sys, time
from povmcascade import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""

#: one cold build and propagate in a fresh interpreter, on the POVM and state saved at argv[1]:
#: prints the seconds of the two calls, with the plan compiled before the clock starts
_BUILD = """
import sys, time
import numpy as np
from povmcascade import optics, povm, synthesis
saved = np.load(sys.argv[1])
plan = synthesis.synthesize_cascade(povm.kraus_from_povm(povm.validate_povm(list(saved["elements"]))))
start = time.perf_counter()
network = optics.build_cascade_network(plan)
optics.propagate(optics.PhotonState.pure(network.input, saved["psi"]), network)
print(time.perf_counter() - start, file=sys.stderr)
"""


def load_tree(src: str, name: str):
    """The povmcascade package under src, imported as the package `name`."""
    init = Path(src).resolve() / "povmcascade" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}") for module in ("cli", "optics", "povm", "synthesis", "verify")}


def load_oracle():
    """The benchmark's input generator, bench/oracle.py, which imports no tree."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def draw_elements(oracle, stream: int, count: int, lo: int, hi: int) -> list[np.ndarray]:
    """The POVMs of a workload's pool: bench/workloads._draw on default_rng([SEED, stream])."""
    rng = np.random.default_rng([SEED, stream])
    families = oracle.family_sequence(rng, count, MIX)
    return [oracle.FAMILIES[f](rng, n) for f, n in zip(families, oracle.stratified_sizes(count, lo, hi))]


def draw_pool(count: int, lo: int, hi: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(POVM elements, pure state, density matrix) per plan, as the simulate workload draws them."""
    oracle = load_oracle()
    elements = draw_elements(oracle, 3, count, lo, hi)
    pool = []
    for k, f in enumerate(elements):
        states = np.random.default_rng([SEED, 4, k])
        pool.append((f, oracle.random_pure_state(states), oracle.random_density(states)))
    return pool


def time_calls(calls) -> tuple[float, int]:
    """Seconds of the calls in turn, and the young-generation collections they set off."""
    young = []

    def seen(phase, info):
        if phase == "start" and info["generation"] == 0:
            young.append(None)

    gc.collect()
    gc.callbacks.append(seen)
    try:
        start = time.perf_counter()
        for call in calls:
            call()
        return time.perf_counter() - start, len(young)
    finally:
        gc.callbacks.remove(seen)


class Side:
    """One tree's compiled pool and its layer timers."""

    def __init__(self, tree: dict, pool: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        self.optics, self.verify = tree["optics"], tree["verify"]
        povm, synthesis = tree["povm"], tree["synthesis"]
        self.inputs = []
        for f, psi, rho in pool:
            kraus = povm.kraus_from_povm(povm.validate_povm(list(f)))
            self.inputs.append((kraus, synthesis.synthesize_cascade(kraus), psi, povm.density_matrix(rho)))

    def time_layers(self) -> dict[str, tuple[float, int]]:
        """Seconds and young collections per layer over the whole pool."""
        optics, verify = self.optics, self.verify
        plans = [plan for _, plan, _, _ in self.inputs]
        times = {}
        built = []
        times["build"] = time_calls([lambda plan=plan: built.append(optics.build_cascade_network(plan)) for plan in plans])
        networks = [optics.OpticalNetwork(n.elements, n.exits, n.input, n.dark_ports) for n in built]
        times["external_inputs"] = time_calls([network.external_inputs for network in networks])
        states = [optics.PhotonState.pure(n.input, psi) for n, (_, _, psi, _) in zip(networks, self.inputs)]
        outs = []
        times["propagate"] = time_calls(
            [lambda s=s, n=n: outs.append(optics.propagate(s, n)) for s, n in zip(states, networks)]
        )
        times["transfer_matrices"] = time_calls([lambda n=n: optics.transfer_matrices(n) for n in networks])
        times["exit_amplitudes"] = time_calls([lambda o=o, n=n: optics.exit_amplitudes(o, n) for o, n in zip(outs, networks)])
        times["verify_density"] = time_calls([lambda a=a: verify.verify_density(a[3], a[0], a[1]) for a in self.inputs])

        def op(kraus, plan, psi, rho):
            network = optics.build_cascade_network(plan)
            out = optics.propagate(optics.PhotonState.pure(network.input, psi), network)
            return optics.exit_amplitudes(out, network), verify.verify_density(rho, kraus, plan)

        times["op"] = time_calls([lambda a=a: op(*a) for a in self.inputs])
        return times


def synthesize_pool(count: int, lo: int, hi: int, workdir: str) -> tuple[list[list[str]], list[int]]:
    """The synthesize workload's op arguments and outcome counts: its POVM documents,
    written once to workdir as bench/workloads.Synthesize writes them."""
    oracle = load_oracle()
    elements = draw_elements(oracle, 2, count, lo, hi)
    plan, report = os.path.join(workdir, "plan.json"), os.path.join(workdir, "report.json")
    argvs = []
    for k, f in enumerate(elements):
        doc = os.path.join(workdir, f"povm_{k}.json")
        Path(doc).write_text(json.dumps(oracle.povm_document(f)), encoding="utf-8")
        argvs.append(["synthesize", doc, "-o", plan, "--report", report])
    return argvs, [len(f) for f in elements]


class MainSide:
    """One tree's cli.main on the synthesize pool."""

    def __init__(self, tree: dict, argvs: list[list[str]]):
        self.main, self.argvs = tree["cli"].main, argvs

    def time_layers(self) -> dict[str, tuple[float, int]]:
        """Seconds and young collections of cli.main over the whole pool; raises if a run fails."""
        sink, codes = io.StringIO(), []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main = time_calls([lambda argv=argv: codes.append(self.main(argv)) for argv in self.argvs])
        if any(codes):
            raise RuntimeError(f"cli.main failed on the pool:\n{sink.getvalue()}")
        return {"main": main}


def invocation(script: str, src: str, argv: list[str], workdir: str) -> float:
    """The seconds that script prints last, run with argv in a fresh interpreter that imports the tree at src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed under {src}:\n{done.stderr}")
    return float(done.stderr.split()[-1])


def measure_invocations(script: str, srcs: tuple[str, str], argvs: list[list[str]], reps: int, workdir: str):
    """Old and new (seconds, None) of `reps` fresh invocations each, on argvs in turn; the first tree alternates."""
    times = ([], [])
    for rep in range(reps):
        argv = argvs[rep % len(argvs)]
        for slot in (0, 1) if rep % 2 == 0 else (1, 0):
            times[slot].append((invocation(script, srcs[slot], argv, workdir), None))
    return times


def measure(old, new, reps: int, layers: tuple[str, ...]) -> dict[str, tuple[list, list]]:
    """Per layer, the old and new (seconds, young collections) of each repetition; the first side alternates."""
    runs = {layer: ([], []) for layer in layers}
    for rep in range(reps):
        order = [(0, old), (1, new)] if rep % 2 == 0 else [(1, new), (0, old)]
        for slot, side in order:
            times = side.time_layers()
            for layer in layers:
                runs[layer][slot].append(times[layer])
    return runs


def report(runs: dict[str, tuple[list, list]]) -> list[str]:
    lines = [f"{'layer':<18} {'old ms':>10} {'new ms':>10} {'new/old':>8} {'wins':>7} {'old gc0':>8} {'new gc0':>8}"]
    for layer, (old, new) in runs.items():
        old_ms, new_ms = (1e3 * statistics.median(seconds for seconds, _ in side) for side in (old, new))
        wins = sum(b < a for (a, _), (b, _) in zip(old, new))
        young = [statistics.median(count for _, count in side) if side[0][1] is not None else "-" for side in (old, new)]
        lines.append(
            f"{layer:<18} {old_ms:10.3f} {new_ms:10.3f} {new_ms / old_ms:8.3f} {f'{wins}/{len(old)}':>7}"
            f" {young[0]:>8} {young[1]:>8}"
        )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source directory holding the baseline povmcascade package")
    parser.add_argument("new", help="source directory holding the changed povmcascade package")
    parser.add_argument("--workload", choices=tuple(SIZES), default="simulate", help="the benchmark pool to time")
    parser.add_argument("--reps", type=int, default=21, help="repetitions, alternating which tree goes first")
    parser.add_argument("--pool", type=int, default=64, help="plans in the pool, a power of two")
    parser.add_argument("--sizes", type=int, nargs=2, metavar=("LO", "HI"), help="outcome counts (default: the workload's)")
    args = parser.parse_args(argv)
    sizes = args.sizes or SIZES[args.workload]
    srcs = (args.old, args.new)
    trees = (load_tree(args.old, "povmcascade_old"), load_tree(args.new, "povmcascade_new"))
    with tempfile.TemporaryDirectory() as workdir:
        if args.workload == "simulate":
            pool = draw_pool(args.pool, *sizes)
            old, new = (Side(tree, pool) for tree in trees)
            counts, what = [len(f) for f, _, _ in pool], "plans"
            runs = measure(old, new, args.reps, LAYERS)
            ((f, psi, _),) = draw_pool(1, sizes[1], sizes[1])
            saved = os.path.join(workdir, "cold.npz")
            np.savez(saved, elements=f, psi=psi)
            runs["invocation"] = measure_invocations(_BUILD, srcs, [[saved]], args.reps, workdir)
        else:
            argvs, counts = synthesize_pool(args.pool, *sizes, workdir)
            old, new = (MainSide(tree, argvs) for tree in trees)
            what = "documents"
            runs = measure(old, new, args.reps, ("main",))
            runs["invocation"] = measure_invocations(_SYNTHESIZE, srcs, argvs, args.reps, workdir)
    print(f"pool of {args.pool} {what}, n = {min(counts)}..{max(counts)}, {args.reps} repetitions")
    print("\n".join(report(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
