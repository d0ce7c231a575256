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
The pools and ops are bench/workloads.py's own Simulate, Synthesize and
Compile at the benchmark's default seed: that file runs once per tree,
bound to it, and --pool and --sizes set its workload's pool (by default
the workload's own: 64, 64 and 256) and outcome counts LO..HI.

Every invocation row's fresh interpreter runs as tools/trajectory.py runs
its own: with PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX at an empty
directory, so no bytecode cache is read or written and every module it
imports, inside the timed call too, compiles from source; the header line
says so.

--workload simulate (the default; LO..HI = 10..80).  The layers, over the
instance's plans, Kraus sets and prepared inputs:

    build              build_cascade_network(plan)
    external_inputs    network.external_inputs() on the built networks, as the
                       op's first walk pays it: a walk over the elements for a
                       network that does not carry its vacuum ports, a cached
                       read for one whose build supplied them
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

--workload synthesize (LO..HI = 3..24).  The rows:

    main               the benchmark's op: cli.main(["synthesize", doc, "-o",
                       plan, "--report", report]), output to a string buffer
    invocation         one such run per fresh interpreter, --reps of them per
                       tree, trees alternated: cli.main timed after its import,
                       with stdout to the null device; the median of one run
                       each, and in how many pairs of runs the new tree won

--workload compile (LO..HI = 3..80).  The layers, over the instance's POVM
inputs, each fed the outputs of the layer before:

    validate           povm.validate_povm(elements)
    kraus              povm.kraus_from_povm(povm set)
    synthesize         synthesize_cascade(Kraus set)
    reconstruct        reconstruct_kraus(plan)
    op                 the benchmark's op: all four in turn on one input
    invocation         one compile (the four layers) at n = HI per fresh
                       interpreter, --reps of them per tree, trees alternated:
                       timed after the imports; the median of one run each,
                       and in how many pairs of runs the new tree won

    python tools/abtime.py OLD/src NEW/src                  # 21 repetitions, 64 plans
    python tools/abtime.py --reps 5 --pool 8 OLD/src NEW/src
    python tools/abtime.py --workload synthesize OLD/src NEW/src
    python tools/abtime.py --workload compile OLD/src NEW/src    # 256 POVMs
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: the benchmark's default seed (bench/run.py) and the directory of its workloads
SEED = 1
BENCH = Path(__file__).resolve().parent.parent / "bench"
#: the in-process rows of each workload
LAYERS = {
    "simulate": ("build", "external_inputs", "propagate", "transfer_matrices", "exit_amplitudes", "verify_density", "op"),
    "synthesize": ("main",),
    "compile": ("validate", "kraus", "synthesize", "reconstruct", "op"),
}

#: how the invocation rows' fresh interpreters treat bytecode, stated in the header line
BYTECODE = "invocations compile from source, no bytecode cache read or written"

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

#: one cold compile in a fresh interpreter, of the POVM saved at argv[1]: prints the seconds of its four calls
_COMPILE = """
import sys, time
import numpy as np
from povmcascade import povm, synthesis
elements = list(np.load(sys.argv[1])["elements"])
start = time.perf_counter()
synthesis.reconstruct_kraus(synthesis.synthesize_cascade(povm.kraus_from_povm(povm.validate_povm(elements))))
print(time.perf_counter() - start, file=sys.stderr)
"""


def load_workloads(src: str, name: str):
    """bench/workloads.py bound to the povmcascade package under src, which is
    imported as the package `name`: while the file runs, sys.modules["povmcascade"]
    is that package and bench/ leads sys.path (for `import oracle`); both are
    restored after."""
    init = Path(src).resolve() / "povmcascade" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "optics", "povm", "synthesis", "verify"):
        importlib.import_module(f"{name}.{module}")
    spec = importlib.util.spec_from_file_location(f"{name}_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    saved, path = sys.modules.get("povmcascade"), list(sys.path)
    sys.modules["povmcascade"] = package
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path[:] = path
        del sys.modules["povmcascade"]
        if saved is not None:
            sys.modules["povmcascade"] = saved
    return workloads


def instance(workloads, workload: str, pool: int, sizes: tuple[int, int], workdir: str):
    """The workload's class of bench/workloads.py with `pool` inputs at outcome counts `sizes`, set up at SEED."""
    base = workloads.WORKLOADS[workload]
    return type(base.__name__, (base,), {"pool": pool, "sizes": sizes})(SEED, workdir)


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
    """One tree's workload instance, its prepared op inputs and its layer timers."""

    def __init__(self, workloads, workload):
        self.optics, self.verify, self.workload = workloads.optics, workloads.verify, workload
        self.povm, self.synthesis = workloads.povm, workloads.synthesis
        self.inputs = [workload.prepare(k) for k in range(workload.pool)]

    def time_layers(self) -> dict[str, tuple[float, int]]:
        """Seconds and young collections per layer over the whole pool: for synthesize,
        the op's cli.main alone, which raises if a run fails; for compile, time_compile's."""
        optics, verify, workload = self.optics, self.verify, self.workload
        if workload.name == "synthesize":
            codes = []
            main = time_calls([lambda k=k: codes.append(workload.op(k)) for k in self.inputs])
            if any(codes):
                raise RuntimeError(f"cli.main failed on {[workload.docs[k] for k, c in zip(self.inputs, codes) if c]}")
            return {"main": main}
        if workload.name == "compile":
            return self.time_compile()
        times = {}
        built = []
        times["build"] = time_calls([lambda p=p: built.append(optics.build_cascade_network(p)) for p in workload.plans])
        times["external_inputs"] = time_calls([network.external_inputs for network in built])
        states = [optics.PhotonState.pure(n.input, a[2]) for n, a in zip(built, self.inputs)]
        outs = []
        times["propagate"] = time_calls(
            [lambda s=s, n=n: outs.append(optics.propagate(s, n)) for s, n in zip(states, built)]
        )
        times["transfer_matrices"] = time_calls([lambda n=n: optics.transfer_matrices(n) for n in built])
        times["exit_amplitudes"] = time_calls([lambda o=o, n=n: optics.exit_amplitudes(o, n) for o, n in zip(outs, built)])
        times["verify_density"] = time_calls(
            [lambda a=a: verify.verify_density(a[3], workload.kraus[a[0]], a[1]) for a in self.inputs]
        )
        times["op"] = time_calls([lambda a=a: workload.op(a) for a in self.inputs])
        return times

    def time_compile(self) -> dict[str, tuple[float, int]]:
        """Seconds and young collections per layer of the compile op over the whole pool,
        each layer run on what the one before returned."""
        povm, synthesis, workload = self.povm, self.synthesis, self.workload
        times, sets, kraus, plans = {}, [], [], []
        times["validate"] = time_calls([lambda k=k: sets.append(povm.validate_povm(workload.inputs[k])) for k in self.inputs])
        times["kraus"] = time_calls([lambda s=s: kraus.append(povm.kraus_from_povm(s)) for s in sets])
        times["synthesize"] = time_calls([lambda k=k: plans.append(synthesis.synthesize_cascade(k)) for k in kraus])
        times["reconstruct"] = time_calls([lambda p=p: synthesis.reconstruct_kraus(p) for p in plans])
        times["op"] = time_calls([lambda k=k: workload.op(k) for k in self.inputs])
        return times


def invocation(script: str, src: str, argv: list[str], workdir: str) -> float:
    """The seconds that script prints last, run with argv in a fresh interpreter that imports the tree at src,
    with bytecode settled as BYTECODE says."""
    pycache = os.path.join(workdir, "pycache")  # stays empty: nothing is written to it
    os.makedirs(pycache, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
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
    parser.add_argument("--workload", choices=tuple(LAYERS), default="simulate", help="the benchmark pool to time")
    parser.add_argument("--reps", type=int, default=21, help="repetitions, alternating which tree goes first")
    parser.add_argument("--pool", type=int, help="inputs in the pool, a power of two (default: the workload's)")
    parser.add_argument("--sizes", type=int, nargs=2, metavar=("LO", "HI"), help="outcome counts (default: the workload's)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.pool is not None and (args.pool < 1 or args.pool & (args.pool - 1)):
        parser.error("--pool must be a power of two")
    if args.sizes and not 2 <= args.sizes[0] <= args.sizes[1]:
        parser.error("--sizes needs 2 <= LO <= HI")
    srcs = (args.old, args.new)
    trees = (load_workloads(args.old, "povmcascade_old"), load_workloads(args.new, "povmcascade_new"))
    base = trees[0].WORKLOADS[args.workload]
    pool, sizes = args.pool or base.pool, args.sizes or base.sizes
    with tempfile.TemporaryDirectory() as workdir:
        old, new = (Side(tree, instance(tree, args.workload, pool, sizes, workdir)) for tree in trees)
        counts = [len(f) for f in old.workload.elements]
        runs = measure(old, new, args.reps, LAYERS[args.workload])
        if args.workload == "synthesize":
            what = "documents"
            paths = ["-o", old.workload.plan_path, "--report", old.workload.report_path]
            argvs = [["synthesize", doc, *paths] for doc in old.workload.docs]
            runs["invocation"] = measure_invocations(_SYNTHESIZE, srcs, argvs, args.reps, workdir)
        else:
            simulate = args.workload == "simulate"
            what, script = ("plans", _BUILD) if simulate else ("POVMs", _COMPILE)
            cold = instance(trees[0], args.workload, 1, (sizes[1], sizes[1]), workdir)
            saved = os.path.join(workdir, "cold.npz")
            np.savez(saved, elements=cold.elements[0], **({"psi": cold.prepare(0)[2]} if simulate else {}))
            runs["invocation"] = measure_invocations(script, srcs, [[saved]], args.reps, workdir)
    print(f"pool of {pool} {what}, n = {min(counts)}..{max(counts)}, {args.reps} repetitions; {BYTECODE}")
    print("\n".join(report(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
