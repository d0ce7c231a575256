"""Time the simulate pipeline of two source trees layer by layer, interleaved in one interpreter.

Each tree is imported under a package name of its own, so both run in one
process on the same machine state.  The pool is the benchmark's simulate
pool at the benchmark's default seed, drawn with the benchmark's own
generator (bench/oracle.py): POVMs of the full-rank and rank-one families
(three to one) at outcome counts spread log-uniformly over [LO, HI], and
one pure state and one density matrix per POVM.  Each tree validates and
compiles the drawn POVMs itself.  Each repetition times every layer over
the whole pool for both trees; which tree goes first alternates from one
repetition to the next.  Per layer it prints the median over repetitions
of each tree's pool total, the ratio new/old of the two medians, and in
how many repetitions the new tree was the faster.  The layers:

    build              build_cascade_network(plan)
    external_inputs    network.external_inputs() on a fresh network
    propagate          propagate(pure state, network)
    transfer_matrices  transfer_matrices(network)
    exit_amplitudes    exit_amplitudes(propagated state, network)
    verify_density     verify_density(rho, kraus, plan)
    op                 the benchmark's op: build, propagate and exit_amplitudes
                       of the pure state, then verify_density

    python tools/abtime.py OLD/src NEW/src                  # 21 repetitions, 64 plans
    python tools/abtime.py --reps 5 --pool 8 OLD/src NEW/src
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: the simulate workload's default seed and family mix (bench/run.py, bench/workloads.py)
SEED = 1
MIX = {"full_rank": 3, "rank_one": 1}
LAYERS = ("build", "external_inputs", "propagate", "transfer_matrices", "exit_amplitudes", "verify_density", "op")


def load_tree(src: str, name: str):
    """The povmcascade package under src, imported as the package `name`."""
    init = Path(src).resolve() / "povmcascade" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}") for module in ("optics", "povm", "synthesis", "verify")}


def load_oracle():
    """The benchmark's input generator, bench/oracle.py, which imports no tree."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def draw_pool(count: int, lo: int, hi: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(POVM elements, pure state, density matrix) per plan, as the simulate workload draws them."""
    oracle = load_oracle()
    rng = np.random.default_rng([SEED, 3])
    families = oracle.family_sequence(rng, count, MIX)
    elements = [oracle.FAMILIES[f](rng, n) for f, n in zip(families, oracle.stratified_sizes(count, lo, hi))]
    pool = []
    for k, f in enumerate(elements):
        states = np.random.default_rng([SEED, 4, k])
        pool.append((f, oracle.random_pure_state(states), oracle.random_density(states)))
    return pool


class Side:
    """One tree's compiled pool and its layer timers."""

    def __init__(self, tree: dict, pool: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        self.optics, self.verify = tree["optics"], tree["verify"]
        povm, synthesis = tree["povm"], tree["synthesis"]
        self.inputs = []
        for f, psi, rho in pool:
            kraus = povm.kraus_from_povm(povm.validate_povm(list(f)))
            self.inputs.append((kraus, synthesis.synthesize_cascade(kraus), psi, povm.density_matrix(rho)))

    def time_layers(self) -> dict[str, float]:
        """Seconds per layer over the whole pool."""
        optics, verify = self.optics, self.verify
        plans = [plan for _, plan, _, _ in self.inputs]
        times = {}

        def timed(layer, calls):
            gc.collect()
            start = time.perf_counter()
            for call in calls:
                call()
            times[layer] = time.perf_counter() - start

        built = []
        timed("build", [lambda plan=plan: built.append(optics.build_cascade_network(plan)) for plan in plans])
        networks = [optics.OpticalNetwork(n.elements, n.exits, n.input, n.dark_ports) for n in built]
        timed("external_inputs", [network.external_inputs for network in networks])
        states = [optics.PhotonState.pure(n.input, psi) for n, (_, _, psi, _) in zip(networks, self.inputs)]
        outs = []
        timed("propagate", [lambda s=s, n=n: outs.append(optics.propagate(s, n)) for s, n in zip(states, networks)])
        timed("transfer_matrices", [lambda n=n: optics.transfer_matrices(n) for n in networks])
        timed("exit_amplitudes", [lambda o=o, n=n: optics.exit_amplitudes(o, n) for o, n in zip(outs, networks)])
        timed("verify_density", [lambda a=a: verify.verify_density(a[3], a[0], a[1]) for a in self.inputs])

        def op(kraus, plan, psi, rho):
            network = optics.build_cascade_network(plan)
            out = optics.propagate(optics.PhotonState.pure(network.input, psi), network)
            return optics.exit_amplitudes(out, network), verify.verify_density(rho, kraus, plan)

        timed("op", [lambda a=a: op(*a) for a in self.inputs])
        return times


def measure(old: Side, new: Side, reps: int) -> dict[str, tuple[list[float], list[float]]]:
    """Per layer, the old and new pool totals of each repetition; the first side alternates."""
    runs = {layer: ([], []) for layer in LAYERS}
    for rep in range(reps):
        order = [(0, old), (1, new)] if rep % 2 == 0 else [(1, new), (0, old)]
        for slot, side in order:
            for layer, seconds in side.time_layers().items():
                runs[layer][slot].append(seconds)
    return runs


def report(runs: dict[str, tuple[list[float], list[float]]]) -> list[str]:
    lines = [f"{'layer':<18} {'old ms':>10} {'new ms':>10} {'new/old':>8} {'wins':>7}"]
    for layer in LAYERS:
        old, new = runs[layer]
        old_ms, new_ms = 1e3 * statistics.median(old), 1e3 * statistics.median(new)
        wins = sum(b < a for a, b in zip(old, new))
        lines.append(f"{layer:<18} {old_ms:10.3f} {new_ms:10.3f} {new_ms / old_ms:8.3f} {f'{wins}/{len(old)}':>7}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source directory holding the baseline povmcascade package")
    parser.add_argument("new", help="source directory holding the changed povmcascade package")
    parser.add_argument("--reps", type=int, default=21, help="repetitions, alternating which tree goes first")
    parser.add_argument("--pool", type=int, default=64, help="plans in the pool, a power of two")
    parser.add_argument("--sizes", type=int, nargs=2, default=(10, 80), metavar=("LO", "HI"), help="outcome counts")
    args = parser.parse_args(argv)
    pool = draw_pool(args.pool, *args.sizes)
    trees = (load_tree(args.old, "povmcascade_old"), load_tree(args.new, "povmcascade_new"))
    old, new = (Side(tree, pool) for tree in trees)
    sizes = [len(f) for f, _, _ in pool]
    print(f"pool of {args.pool} plans, n = {min(sizes)}..{max(sizes)}, {args.reps} repetitions")
    print("\n".join(report(measure(old, new, args.reps))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
