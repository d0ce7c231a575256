#!/usr/bin/env python3
"""povmcascade benchmark: closed-loop, single-client workloads with an oracle.

    python3 bench/run.py --workload compile --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` one workload (or ``all`` of them, one after another in this
process) runs untraced and the end-to-end metrics are printed.  With
``--trace 1`` every workload runs in op pairs, untraced then traced, followed
by three probe ops at each of n = 3, 6, 20, 80 outcomes, and the per-layer
metrics are printed; the spans go to ``.bench_out/``.  The last line of
standard output is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md for what each metric means
and which metric each layer should move.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; must be set before numpy is first imported (speed, workloads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import SpeedGauge, Timeline

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: p90 needs at least ten samples beyond it
MIN_OPS = 100
#: a run stops after this long even if MIN_OPS has not been reached
MAX_LOOP_S = 120.0
SETUP_REPS = 7
PROBE_SIZES = (3, 6, 20, 80)
PROBE_REPS = 3
#: the traced run cycles through this many inputs of each workload's pool (a
#: stratified prefix, see workloads.py), every one of them at least once
TRACE_POOL = {"compile": 64, "synthesize": 16, "simulate": 32}
PROBE_LAYERS = (
    "povm.validate_povm",
    "povm.kraus_from_povm",
    "synthesis.synthesize_cascade",
    "synthesis.reconstruct_kraus",
    "optics.build_cascade_network",
    "optics.propagate",
    "optics.exit_amplitudes",
    "verify.verify_density",
    "verify.verify_plan",
    "cli.main",
)
#: per-layer metrics of each workload's traced ops: layer -> stats
LAYER_METRICS = {
    "compile": {
        "qmath": ("calls_per_outcome", "self_ms"),
        "povm.validate_povm": ("calls", "self_ms", "us_per_call"),
        "povm.kraus_from_povm": ("calls", "self_ms", "us_per_call"),
        "synthesis.synthesize_cascade": ("calls", "self_ms", "us_per_call", "us_per_outcome"),
        "synthesis.reconstruct_kraus": ("calls", "self_ms", "us_per_call"),
    },
    "synthesize": {
        "qmath": ("calls_per_outcome", "self_ms"),
        "synthesis.synthesize_cascade": ("self_ms",),
        "cli.main": ("calls", "self_ms", "us_per_call"),
        "verify.verify_plan": ("calls", "self_ms", "us_per_call"),
        "optics.build_cascade_network": ("self_ms",),
        "optics.propagate": ("calls", "self_ms", "us_per_call", "elements", "ns_per_element"),
    },
    "simulate": {
        "qmath": ("self_ms",),
        "optics.build_cascade_network": ("calls", "self_ms", "us_per_call"),
        "optics.propagate": (
            "calls",
            "self_ms",
            "us_per_call",
            "elements",
            "ns_per_element.n_le_20",
            "ns_per_element.n_gt_20",
        ),
        "optics.exit_amplitudes": ("calls", "self_ms", "us_per_call"),
        "verify.verify_density": ("calls", "self_ms", "us_per_call"),
    },
}
UNITS = {
    "calls": "count",
    "calls_per_outcome": "count",
    "elements": "count",
    "traced_ops": "count",
    "self_ms": "ms",
    "us_per_call": "us",
    "us_per_outcome": "us",
    "ns_per_element": "ns",
    "tracing_overhead_pct": "%",
    "unaccounted_pct": "%",
}


def import_program():
    """Import povmcascade from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import povmcascade
    except ImportError as exc:
        sys.exit(f"bench: cannot import povmcascade from {SRC}: {exc}")
    if not Path(povmcascade.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: povmcascade resolved to {povmcascade.__file__}, not under {SRC}")
    return povmcascade


def machine_info() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def import_seconds(gauge) -> float:
    """Median time (s, reference speed) of `import povmcascade` in a fresh interpreter."""
    code = "import time; t = time.perf_counter_ns(); import povmcascade; print(time.perf_counter_ns() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    line = Timeline(gauge)
    values = []
    for _ in range(SETUP_REPS):
        done = line.run(
            subprocess.run,
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(int(done.stdout) * line.factor(len(values)) / 1e9)
    return statistics.median(values)


def set_up(cls, seed: int, workdir: str, reps: int, gauge):
    """Build the workload reps times; return the last instance and the median
    build time (s, reference speed)."""
    line = Timeline(gauge)
    for _ in range(reps):
        workload = line.run(cls, seed, workdir)
    return workload, statistics.median(line.scaled()) / 1e9


def attempt(workload, args):
    """One op; a program exception is its result (and makes the op a failure)."""
    try:
        return workload.op(args)
    except Exception as exc:  # noqa: BLE001 - any program error is a failed op, counted below
        return exc


def reason_key(reason: str) -> str:
    """A failure reason without its measured value, for counting."""

    def numeric(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True

    return " ".join(t for t in reason.split() if not numeric(t))


class Tally:
    """Verdicts per distinct input, op counts, failure reasons and the
    corrupted-plan sentinel.

    ``attempted`` and ``failed`` count distinct inputs, not ops: an input
    fails if any op on it failed.  A run visits every input of its pool at
    least once and the program is deterministic, so both follow from the
    seed alone, while the number of ops depends on the machine's speed.
    """

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.verdicts: dict = {}
        self.reasons: Counter = Counter()
        self.sentinel: bool | None = None

    def record(self, key, workload, args, out) -> None:
        """Judge one op on input `key`; after the first passing op, check that
        the oracle rejects the same output with a corrupted plan."""
        self.ops += 1
        reasons = [f"raised {type(out).__name__}"] if isinstance(out, Exception) else workload.check(args, out)
        self.verdicts[key] = self.verdicts.get(key, True) and not reasons
        if reasons:
            self.failed_ops += 1
            self.reasons.update(reason_key(r) for r in reasons)
        elif self.sentinel is None:
            self.sentinel = workload.corrupted_rejected(args, out)

    def merge(self, other: "Tally") -> None:
        self.ops += other.ops
        self.failed_ops += other.failed_ops
        for key, passed in other.verdicts.items():
            self.verdicts[key] = self.verdicts.get(key, True) and passed
        self.reasons.update(other.reasons)
        self.sentinel = other.sentinel if self.sentinel is None else self.sentinel and other.sentinel

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(not passed for passed in self.verdicts.values())

    @property
    def correct(self) -> bool:
        """The oracle rejected a deliberately corrupted plan in this run, so its passes mean something."""
        return bool(self.sentinel)

    def summary(self) -> str:
        def rate(a, b):
            return a / b if b else 0.0

        why = ", ".join(f"{k} x{v}" for k, v in self.reasons.most_common())
        sentinel = {None: "not run (no passing op)", True: "rejected", False: "ACCEPTED"}[self.sentinel]
        return (
            f"error_rate     {rate(self.failed_ops, self.ops):.6f}  ({self.failed_ops}/{self.ops} ops failed"
            f"{': ' + why if why else ''})\n"
            f"inputs failed  {rate(self.failed, self.attempted):.6f}  ({self.failed}/{self.attempted} distinct inputs)\n"
            f"corrupted plan {sentinel}"
        )


# ----------------------------------------------------------------------
# untraced end-to-end run


def timed_loop(workload, seconds: float, tally: Tally, gauge) -> Timeline:
    """Closed loop: the next op starts when the previous one has been checked.
    It cycles through the whole input pool at least once."""
    line = Timeline(gauge)
    least = max(MIN_OPS, workload.pool)
    gc.collect()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < MAX_LOOP_S and (time.perf_counter() - start < seconds or i < least):
        args = workload.prepare(i)
        tally.record((workload.name, i % workload.pool), workload, args, line.run(attempt, workload, args))
        i += 1
    return line


def end_to_end(name: str, seed: int, seconds: float, workdir: str, import_s: float, gauge):
    from workloads import WORKLOADS

    workload, build_s = set_up(WORKLOADS[name], seed, workdir, SETUP_REPS, gauge)
    tally = Tally()
    line = timed_loop(workload, seconds, tally, gauge)
    completed = tally.ops - tally.failed_ops
    metrics, raw = {}, {}
    for table, times in ((metrics, line.scaled()), (raw, line.raw)):
        lat_ms = [x / 1e6 for x in times]
        table["ops_per_s"] = (completed / (sum(times) / 1e9), "1/s")
        table["op_p50_ms"] = (statistics.median(lat_ms), "ms")
        table["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms")
    metrics["setup_s"] = (import_s + build_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    p90 = metrics["op_p90_ms"][0] * 1e6
    beyond = sum(x > p90 for x in line.scaled())
    print(f"# workload {name}: {workload.why}")
    print(f"# setup: import {import_s:.4f} s + inputs {build_s:.4f} s (medians of {SETUP_REPS})")
    print(f"# speed: reference kernel median {statistics.median(line.kernels) / 1e6:.4f} ms (reference 1 ms)")
    notes = {
        "ops_per_s": f"{completed} completed ops / op time",
        "op_p90_ms": f"{len(line.raw)} samples, {beyond} beyond p90",
    }
    print(f"{'metric':<14} {'value':<14} {'unit':<5} {'unscaled':<14}")
    for key, (value, unit) in metrics.items():
        unscaled = f"{raw[key][0]:<14.6g}" if key in raw else f"{'':<14}"
        print(f"{key:<14} {value:<14.6g} {unit:<5} {unscaled} {notes.get(key, '')}")
    print(tally.summary())
    return tally, metrics


# ----------------------------------------------------------------------
# traced run


def probe_op(F, doc_path, workdir, psi, rho):
    """The whole pipeline once at a fixed size, for the per-size rows."""
    from povmcascade import cli, optics, povm, synthesis, verify

    kraus = povm.kraus_from_povm(povm.validate_povm(list(F)))
    plan = synthesis.synthesize_cascade(kraus)
    synthesis.reconstruct_kraus(plan)
    network = optics.build_cascade_network(plan)
    out = optics.propagate(optics.PhotonState.pure(network.input, psi), network)
    optics.exit_amplitudes(out, network)
    verify.verify_density(povm.density_matrix(rho), kraus, plan)
    sink = io.StringIO()
    argv = ["synthesize", doc_path, "-o", os.path.join(workdir, "probe_plan.json")]
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv + ["--report", os.path.join(workdir, "probe_report.json")])


def layer_stat(agg: dict, layer: str, stat: str, ops: int, outcomes: int) -> float:
    def div(a, b):
        return a / b if b else 0.0

    if layer == "qmath":
        rows = [row for name, row in agg.items() if name.startswith("qmath.")]
        if stat == "calls_per_outcome":
            return div(sum(r["calls"] for r in rows), outcomes)
        return div(sum(r["self_ns"] for r in rows), ops) / 1e6
    row = agg.get(layer, {})
    get = row.get
    if stat == "calls":
        return float(get("calls", 0))
    if stat == "self_ms":
        return div(get("self_ns", 0), ops) / 1e6
    if stat == "us_per_call":
        return div(get("incl_ns", 0), get("calls", 0)) / 1e3
    if stat == "us_per_outcome":
        return div(get("incl_ns", 0), get("size", 0)) / 1e3
    if stat == "elements":
        return div(get("size", 0), get("calls", 0))
    if stat == "ns_per_element":
        return div(get("self_ns", 0), get("size", 0))
    depth = stat.split(".", 1)[1]
    return div(get(f"{depth}.self_ns", 0), get(f"{depth}.size", 0))


def traced(seed: int, seconds: float, workdir: str, package, gauge):
    import numpy as np

    from oracle import full_rank_povm, povm_document, random_density, random_pure_state
    from spans import ROOT_SPAN, Tracer
    from workloads import WORKLOADS

    tracer = Tracer(package)
    tally = Tally()
    metrics = {}
    rows = []
    budget = min(seconds, MAX_LOOP_S) / len(WORKLOADS)
    for name, cls in WORKLOADS.items():
        workload, _ = set_up(cls, seed, os.path.join(workdir, name), 1, gauge)
        own = Tally()
        line = Timeline(gauge)
        scales, outcomes = {}, 0
        gc.collect()
        start = time.perf_counter()
        i = 0
        pool = min(workload.pool, TRACE_POOL[name])
        while time.perf_counter() - start < budget or i < pool:
            k = i % pool
            args = workload.prepare(k)
            own.record((name, k), workload, args, line.run(attempt, workload, args))
            args = workload.prepare(k)
            op_id = len(tracer.ops)
            own.record((name, k), workload, args, line.run(tracer.run, op_id, attempt, workload, args))
            scales[op_id] = line.factor(len(line.raw) - 1)
            outcomes += workload.outcomes(k)
            i += 1
        tally.merge(own)
        agg = tracer.aggregate(scales)
        times = line.scaled()
        root = agg[ROOT_SPAN]
        prefix = f"{name}."
        metrics[prefix + "bench.tracing_overhead_pct"] = 100.0 * (sum(times[1::2]) / sum(times[::2]) - 1.0)
        metrics[prefix + "bench.unaccounted_pct"] = 100.0 * root["self_ns"] / root["incl_ns"]
        metrics[prefix + "bench.traced_ops"] = float(i)
        for layer, stats in LAYER_METRICS[name].items():
            for stat in stats:
                metrics[f"{prefix}{layer}.{stat}"] = layer_stat(agg, layer, stat, i, outcomes)
        for layer, row in sorted(agg.items()):
            rows.append((name, layer, int(row["calls"]), row["self_ns"] / i / 1e6, row["incl_ns"] / row["calls"] / 1e3))

    for n in PROBE_SIZES:
        rng = np.random.default_rng([seed, 5, n])
        F = full_rank_povm(rng, n)
        doc_path = os.path.join(workdir, f"probe_{n}.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(povm_document(F), fh)
        line = Timeline(gauge)
        per_rep = []
        for rep in range(PROBE_REPS):
            op_id = len(tracer.ops)
            code = line.run(tracer.run, op_id, probe_op, F, doc_path, workdir, random_pure_state(rng), random_density(rng))
            tally.ops += 1
            tally.verdicts[("probe", n)] = tally.verdicts.get(("probe", n), True) and code == 0
            if code != 0:
                tally.failed_ops += 1
                tally.reasons[f"probe n={n} exit code"] += 1
            per_rep.append((op_id, rep))
        per_rep = [tracer.aggregate({op_id: line.factor(rep)}) for op_id, rep in per_rep]
        for layer in PROBE_LAYERS:
            value = statistics.median(layer_stat(agg, layer, "us_per_call", 1, n) for agg in per_rep)
            metrics[f"n{n}.{layer}.us_per_call"] = value
            rows.append((f"n={n}", layer, int(per_rep[0].get(layer, {}).get("calls", 0)), None, value))

    print("# times at reference speed (see bench/speed.py); self ms per traced op, inclusive us per call")
    print(f"{'scope':<11} {'layer':<30} {'calls':>7} {'self ms/op':>11} {'us/call':>11}")
    for scope, layer, calls, self_ms, per_call in rows:
        self_txt = f"{self_ms:11.4f}" if self_ms is not None else f"{'':>11}"
        print(f"{scope:<11} {layer:<30} {calls:>7} {self_txt} {per_call:11.2f}")
    for name in WORKLOADS:
        print(
            f"{name}: {metrics[name + '.bench.traced_ops']:.0f} traced ops, tracing overhead "
            f"{metrics[name + '.bench.tracing_overhead_pct']:.2f}%, unaccounted "
            f"{metrics[name + '.bench.unaccounted_pct']:.2f}% of op time"
        )
    print(tally.summary())
    path = OUT / f"spans-seed{seed}-{os.getpid()}.json"
    tracer.write(str(path), {"seed": seed, "seconds": seconds, "machine": machine_info()})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return tally, {name: (value, metric_unit(name)) for name, value in metrics.items()}


def metric_unit(name: str) -> str:
    parts = name.split(".")
    return next(UNITS[p] for p in reversed(parts) if p in UNITS)


# ----------------------------------------------------------------------


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    package = import_program()
    from workloads import WORKLOADS

    print(f"# povmcascade benchmark: workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"# machine: {json.dumps(machine_info())}")
    workdir = str(OUT / f"work-{os.getpid()}")
    try:
        gauge = SpeedGauge()
        if trace:
            return traced(seed, seconds, workdir, package, gauge)
        import_s = import_seconds(gauge)
        names = list(WORKLOADS) if workload == "all" else [workload]
        total, metrics = Tally(), {}
        for name in names:
            tally, found = end_to_end(name, seed, seconds, workdir, import_s, gauge)
            total.merge(tally)
            prefix = f"{name}." if workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
        return total, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_check() -> int:
    """Tiny runs of every mode: each metric in BENCHMARK.json is printed with its unit,
    and each workload's oracle rejects a plan with one perturbed exit unitary."""
    import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for cls in workloads.WORKLOADS.values():
        cls.pool = 16
        cls.sizes = (cls.sizes[0], min(cls.sizes[1], cls.sizes[0] + 12))
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        for name in spec["workloads"]:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                tally, metrics = run(name["name"], 1, 0.3, trace)
            line = json.loads(result_line(tally, metrics))
            print(f"{name['name']} trace={int(trace)}: attempted {tally.attempted}, failed {tally.failed}, "
                  f"corrupted plan {'rejected' if tally.sentinel else 'NOT rejected'}, {len(metrics)} metrics")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            if printed != expected:
                problems.append(f"{name['name']} trace={int(trace)}: printed {sorted(set(printed) ^ set(expected))} differ")
            if not line["correct"]:
                problems.append(f"{name['name']} trace={int(trace)}: corrupted plan not rejected")
            if line["attempted"] < 1:
                problems.append(f"{name['name']} trace={int(trace)}: no op attempted")
            if trace:
                break  # the traced run covers every workload
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("compile", "synthesize", "simulate", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    tally, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
