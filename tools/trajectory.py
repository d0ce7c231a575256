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

    python tools/trajectory.py --tree LABEL TREE COMMIT [--tree ...] [--out DIR]
    python tools/trajectory.py --tree old ../parent 874d21e --tree new . "874d21e + working tree"
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", nargs=3, action="append", required=True, metavar=("LABEL", "TREE", "COMMIT"),
                        help="a label, a tree holding bench/ and src/, and the commit it was taken from")
    parser.add_argument("--out", default=str(ROOT), help="directory the BENCH_<label>.json files go to")
    args = parser.parse_args(argv)
    labels = [label for label, _, _ in args.tree]
    if len(set(labels)) != len(labels):
        parser.error("labels must differ")
    for _, tree, _ in args.tree:
        if not (Path(tree) / "bench" / "run.py").is_file():
            parser.error(f"{tree} holds no bench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
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
