"""Outside-in tracer: spans around the calls into mpdec's public functions.

The program is not instrumented. Instead each traced function is replaced,
at every module attribute that is bound to it, by a wrapper that records a
span. Replacing every binding matters because ``decomposer``, ``hom``,
``intervals`` and ``generators`` import functions by name
(``from .fields import rank``), while ``minimize`` and
``summand_signature`` import theirs inside the function body, which reads
the ``fields`` module attribute at call time.

A span is (name, start, end, parent span index, operation id, info). Spans
stay in memory and are written as JSONL by ``write_jsonl``. A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np


def _cells(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    return {"cells": int(shape[0] * shape[1]) if len(shape) == 2 else 0}


def _nonempty_pairs(args, kwargs, result):
    return {"useful": bool(result)}


def _nonempty_reps(args, kwargs, result):
    return {"useful": bool(result.representatives)}


def _solved(args, kwargs, result):
    return {"useful": result is not None}


def _batches(args, kwargs, result):
    return {"batches": len(result)}


def _minimize_info(args, kwargs, result):
    rep = result[1]
    return {"deleted_columns": rep["deleted_columns"],
            "cancelled_pairs": len(rep["cancelled_pairs"])}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


# (module, function, span name, info extractor or None)
TRACED = [
    ("sccio", "parse_scc2020", "sccio.parse", _bytes_in),
    ("sccio", "write_scc2020", "sccio.write", _bytes_out),
    ("generators", "gen_intervals", "setup.generate", None),
    ("generators", "gen_grid", "setup.generate", None),
    ("decomposer", "decompose", "decomposer.decompose", None),
    ("decomposer", "summand_signature", "decomposer.summand_signature", None),
    ("grading", "minimize", "grading.minimize", _minimize_info),
    ("grading", "sort_and_batch", "grading.sort_and_batch", _batches),
    ("fields", "column_echelon", "fields.column_echelon", _cells),
    ("fields", "solve", "fields.solve", None),
    ("fields", "kernel_basis", "fields.kernel_basis", None),
    ("fields", "rank", "fields.rank", None),
    ("fields", "invert", "fields.invert", None),
    ("hom", "hom_pairs", "hom.hom_pairs", _nonempty_pairs),
    ("hom", "alpha_quotient", "hom.alpha_quotient", _nonempty_reps),
    ("hom", "cokernel_at", "hom.cokernel_at", None),
    ("hom", "induced_at_alpha", "hom.induced_at_alpha", None),
    ("blockreduce", "solve_clear", "blockreduce.solve_clear", _solved),
    ("blockreduce", "apply_hom_pair", "blockreduce.apply_hom_pair", None),
    ("blockreduce", "apply_col_combo", "blockreduce.apply_col_combo", None),
    ("intervals", "check_interval", "intervals.check_interval", None),
    ("intervals", "dim_at", "intervals.dim_at", None),
    ("intervals", "interval_alpha_hom", "intervals.interval_alpha_hom", None),
]
# generate_dec is a generator: one span per next(), see _wrap_generator
GENERATOR = ("subspaces", "generate_dec", "subspaces.generate_dec")


class Tracer:
    """Records spans while ``active``; ``op`` labels the spans recorded."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.op = None
        self.t0 = time.perf_counter()
        self._patched = []

    def _open(self):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _wrap(self, fn, name, info):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, parent = tracer._open()
            op = tracer.op
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, op, None)
            if info is not None:
                tracer.spans[idx] = (name, start, end, parent, op,
                                     info(args, kwargs, result))
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                return it
            idx, parent = tracer._open()
            now = time.perf_counter()
            tracer.stack.pop()
            tracer.spans[idx] = (name, now, now, parent, tracer.op, {"call": True})
            return tracer._timed_next(it, name + ".next")

        return wrapper

    def _timed_next(self, it, name):
        while True:
            idx, parent = self._open()
            op = self.op
            done = True
            start = time.perf_counter()
            try:
                item = next(it)
                done = False
            except StopIteration:
                pass
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, op,
                                   {"yielded": not done})
            if done:
                return
            yield item

    def install(self):
        """Replace every binding of the traced functions in mpdec."""
        targets = {}
        for mod, attr, name, info in TRACED:
            fn = getattr(sys.modules[f"mpdec.{mod}"], attr)
            targets[id(fn)] = (fn, self._wrap(fn, name, info))
        mod, attr, name = GENERATOR
        fn = getattr(sys.modules[f"mpdec.{mod}"], attr)
        targets[id(fn)] = (fn, self._wrap_generator(fn, name))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mpdec" or key.startswith("mpdec.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:  # opened when a timeout struck
                    continue
                name, start, end, parent, op, info = span
                rec = {"name": name, "start": round(start - self.t0, 7),
                       "end": round(end - self.t0, 7), "parent": parent,
                       "op": op}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def summarize(spans):
    """Per-name totals over spans: calls, total_s, self_s and info sums.

    Only spans whose operation id is an integer (timed operations and the
    certificate checks that belong to them) are counted; set-up spans carry
    the id "setup".
    """
    child = defaultdict(float)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    agg = defaultdict(lambda: defaultdict(float))
    for idx, span in enumerate(spans):
        if span is None or not isinstance(span[4], int):
            continue
        name, start, end, parent, op, info = span
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child[idx]
        for key, val in (info or {}).items():
            a[key] += val
    return agg


def setup_seconds(spans):
    return sum(s[2] - s[1] for s in spans
               if s is not None and s[4] == "setup" and s[0] == "setup.generate")
