"""Record a tree's benchmark results as BENCH_<label>.json: the perf trajectory on disk.

For each (label, tree, commit) given, the tree's own bench/run.py runs
``--workload all --trace 0`` once per seed of SEEDS and ``--workload all
--trace 1`` once, at the first seed, each in a fresh interpreter started at
the tree's root and for as long as that bench/run.py runs by default.  With
more than one tree the runs are interleaved: seed by seed, every tree runs once,
and the tree that goes first rotates from one seed to the next, so slow
drift of the machine falls on all trees alike.  Each tree's file holds:

    end_to_end   per workload, each end-to-end metric's median, min and max
                 over the seeds
    per_layer    the traced run's per-layer metrics, the probe rows at
                 n = 3, 6, 20 and 80 (``n3.`` ... ``n80.``) among them
    runs         every untraced run: seed, wall seconds, the run's machine
                 line, correct / attempted / failed and its metrics
    commit, machine, seeds, trace_seed, interleaved_with, bytecode

A run whose result line says ``correct: false`` stops the recorder with an
error before any file is written: throughput of a tree that failed its own
oracle is no point on the trajectory.

Bytecode is settled one way for every file: no tree's bytecode cache is read
or written (PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX at an empty
directory), so each fresh interpreter compiles the package from source and
``setup_s`` moves with source bytes, docstrings and comments included.

With --check PARENT CHILD it records nothing: it reads two such files and
prints, per workload and end-to-end metric of BENCHMARK.json, both medians
over the seeds, their ratio CHILD/PARENT, the seed-paired runs CHILD wins
(ties count for neither), the parent's interquartile range, whether the
medians differ by more than that range, and where the change stands against
the metric's bound (a fraction of the parent's median); then the failed and
attempted inputs of all runs on each side, and the traced per-layer rows
side by side.  It exits 1 when a median is worse than the parent's beyond
its bound or a larger share of inputs failed, and 0 otherwise.

    python tools/trajectory.py --tree LABEL TREE COMMIT [--tree ...] [--out DIR]
    python tools/trajectory.py --tree old ../parent 874d21e --tree new . "874d21e + working tree"
    python tools/trajectory.py --check BENCH_pr24.json BENCH_pr25.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: seeds of the untraced runs, the first also of the traced run: ten pairs per
#: compared tree, enough for a 9-of-10 win count
SEEDS = tuple(range(1, 11))
#: how the recorded runs treat bytecode, stated in every file
BYTECODE = "not cached: PYTHONDONTWRITEBYTECODE=1 and an empty PYTHONPYCACHEPREFIX, so every import compiles from source"


def bench(tree: str, args: list[str], pycache: str) -> tuple[dict, dict, float]:
    """Run the tree's bench/run.py with args at the tree's root: its result line,
    its machine line and its wall seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", *args],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py {' '.join(args)} failed in {tree}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("# machine:"))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench/run.py {' '.join(args)} in {tree} reports correct: false:\n{lines[-1]}")
    return result, machine, wall


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def record(runs: list[dict], traced: dict, spec: dict) -> dict:
    """One tree's file: its untraced runs summarized per workload and metric, and the traced run's metrics."""
    end_to_end = {}
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end[workload] = {
            metric["name"]: spread([run["metrics"][f"{workload}.{metric['name']}"]["value"] for run in runs])
            for metric in spec["end_to_end"]
        }
    per_layer = {name: value["value"] for name, value in traced["metrics"].items()}
    return {"end_to_end": end_to_end, "per_layer": per_layer, "traced_correct": traced["correct"], "runs": runs}


def check(parent: dict, child: dict, spec: dict) -> int:
    """Print CHILD's end-to-end metrics against PARENT's and the traced layers side
    by side; 1 if a median is worse beyond its bound or more inputs failed."""
    regressions = 0
    print(f"{'workload':<11}{'metric':<12}{'parent':>11}{'child':>11}{'ratio':>7}{'wins':>7}"
          f"{'parent IQR':>11}{'>IQR':>6}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            old, new = ({run["seed"]: run["metrics"][key]["value"] for run in side["runs"]} for side in (parent, child))
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (new[seed] - value) > 0 for seed, value in old.items() if seed in new)
            pairs = sum(seed in new for seed in old)
            old_median, new_median = statistics.median(old.values()), statistics.median(new.values())
            q1, _, q3 = statistics.quantiles(old.values(), n=4)
            gain = sign * (new_median - old_median) / old_median  # > 0: the child is better
            verdict = "within bound" if abs(gain) <= metric["bound"] else "better beyond bound" if gain > 0 else "WORSE beyond bound"
            regressions += gain < -metric["bound"]
            print(f"{workload:<11}{metric['name']:<12}{old_median:>11.4g}{new_median:>11.4g}{new_median / old_median:>7.3f}"
                  f"{f'{wins}/{pairs}':>7}{q3 - q1:>11.4g}{'yes' if abs(new_median - old_median) > q3 - q1 else 'no':>6}"
                  f"{metric['bound']:>7g}  {verdict}")
    (old_failed, old_attempted), (new_failed, new_attempted) = (
        (sum(run["failed"] for run in side["runs"]), sum(run["attempted"] for run in side["runs"])) for side in (parent, child)
    )
    more_failed = new_failed * old_attempted > old_failed * new_attempted
    regressions += more_failed
    print(f"failed inputs: parent {old_failed}/{old_attempted}, child {new_failed}/{new_attempted}"
          f"{'  MORE FAILED' if more_failed else ''}")
    print(f"\n{'traced layer':<56}{'parent':>12}{'child':>12}{'ratio':>8}")
    for name in (metric["name"] for metric in spec["per_layer"]):
        old, new = parent["per_layer"].get(name), child["per_layer"].get(name)
        ratio = f"{new / old:.3f}" if old and new is not None else "-"
        print(f"{name:<56}{'-' if old is None else f'{old:.4g}':>12}{'-' if new is None else f'{new:.4g}':>12}{ratio:>8}")
    print(f"{regressions} regression{'' if regressions == 1 else 's'} beyond a bound")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", nargs=3, action="append", metavar=("LABEL", "TREE", "COMMIT"),
                        help="a label, a tree holding bench/ and src/, and the commit it was taken from")
    parser.add_argument("--out", default=str(ROOT), help="directory the BENCH_<label>.json files go to")
    parser.add_argument("--check", nargs=2, metavar=("PARENT", "CHILD"),
                        help="compare two BENCH_<label>.json files instead of recording; exit 1 on a regression beyond a bound")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.check:
        if args.tree:
            parser.error("--check records nothing: give it no --tree")
        return check(*(json.loads(Path(path).read_text(encoding="utf-8")) for path in args.check), spec)
    if not args.tree:
        parser.error("give --tree LABEL TREE COMMIT at least once, or --check PARENT CHILD")
    labels = [label for label, _, _ in args.tree]
    if len(set(labels)) != len(labels):
        parser.error("labels must differ")
    for _, tree, _ in args.tree:
        if not (Path(tree) / "bench" / "run.py").is_file():
            parser.error(f"{tree} holds no bench/run.py")
    runs = {label: [] for label in labels}
    machines = {}
    with tempfile.TemporaryDirectory() as pycache:
        for i, seed in enumerate(SEEDS):
            order = args.tree[i % len(args.tree):] + args.tree[: i % len(args.tree)]
            for label, tree, _ in order:
                line, machine, wall = bench(tree, ["--seed", str(seed)], pycache)
                machines.setdefault(label, machine)
                runs[label].append({"seed": seed, "wall_s": round(wall, 2), "machine": machine, **line})
                print(f"{label} seed {seed}: {wall:.1f} s", file=sys.stderr)
        traced = {}
        for label, tree, _ in args.tree:
            traced[label] = bench(tree, ["--seed", str(SEEDS[0]), "--trace", "1"], pycache)[0]
    for label, tree, commit in args.tree:
        document = {
            "label": label,
            "commit": commit,
            "machine": machines[label],
            "seeds": list(SEEDS),
            "trace_seed": SEEDS[0],
            "interleaved_with": [other for other in labels if other != label],
            "bytecode_cached": False,
            "bytecode": BYTECODE,
            **record(runs[label], traced[label], spec),
        }
        path = Path(args.out) / f"BENCH_{label}.json"
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
