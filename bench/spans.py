"""In-memory span tracer that wraps the program's public functions from outside.

Every binding of a traced function is replaced: the attribute in its defining
module and each module that imported it by name (``verify.propagate``,
``cli.verify_plan``, ``synthesis.svd2`` ...), so calls are caught wherever
callers bind them.  Spans are plain lists ``[name_id, start_ns, end_ns,
parent, op_id, size]`` kept in memory and written out once at the end.  A
layer's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

#: traced functions per defining module; sizers map call arguments to a work size
TRACED = {
    "qmath": ("eig_hermitian2", "svd2", "sqrt_psd", "aligning_unitary"),
    "povm": ("validate_povm", "kraus_from_povm"),
    "synthesis": ("synthesize_cascade", "reconstruct_kraus"),
    "optics": ("build_cascade_network", "propagate", "exit_amplitudes"),
    "verify": ("verify_plan", "verify_density"),
    "cli": ("main",),
}
SIZERS = {
    "synthesis.synthesize_cascade": lambda kraus, *a, **k: len(kraus),
    "optics.propagate": lambda state, network, *a, **k: len(network.elements),
}
ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self, package):
        self.names: list[str] = [ROOT_SPAN]
        self.spans: list[list] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        modules = {name: getattr(package, name) for name in TRACED}
        binders = [package, *modules.values(), package.demos]
        self._patches = []  # (module, attribute, original, wrapper)
        for mod_name, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for binder in binders:
                    for attr, value in vars(binder).items():
                        if value is original:
                            self._patches.append((binder, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        sizer = SIZERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name_id, clock(), 0, stack[-1], self._op, sizer(*args, **kwargs) if sizer else 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def run(self, op_id: int, fn, *args):
        """Call fn(*args) with every wrapper installed, under a root span for op_id."""
        self._op = op_id
        self.ops.append(op_id)
        root = [0, 0, 0, -1, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        for binder, attr, _, wrapper in self._patches:
            setattr(binder, attr, wrapper)
        try:
            root[1] = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                root[2] = time.perf_counter_ns()
        finally:
            for binder, attr, original, _ in self._patches:
                setattr(binder, attr, original)
            self._stack.pop()

    def self_times(self) -> list[int]:
        """Self time (ns) of every span: duration minus its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def aggregate(self, scales: dict[int, float]) -> dict[str, dict]:
        """Per span name over the ops in scales (op id -> time scale factor): calls,
        scaled self and inclusive ns, summed size, and propagate self time split
        by network depth (n <= 20 vs n > 20 outcomes)."""
        selfs = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for (name_id, start, end, _, op, size), own in zip(self.spans, selfs):
            scale = scales.get(op)
            if scale is None:
                continue
            name = self.names[name_id]
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += own * scale
            row["incl_ns"] += (end - start) * scale
            row["size"] += size
            if name == "optics.propagate":
                depth = "n_le_20" if (size - 1) // 16 + 1 <= 20 else "n_gt_20"
                row[f"{depth}.self_ns"] += own * scale
                row[f"{depth}.size"] += size
        return out

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "size"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
