"""mpdec benchmark: seeded workloads run as a closed loop, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the operations of ``workloads.WORKLOADS[NAME]`` back to back
in this single-threaded process: each operation starts when the previous
one and its checks have finished. It decomposes every instance of the
seeded pool once, then keeps cycling through the pool until S seconds have
passed. The program is imported from ``src/`` next to this directory.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``solve_s``: wall time to run the pool's operations once (the sum over
  distinct operations of the median of their repeats);
* ``setup_s``: imports plus the median set-up time of one instance
  (generation and scc2020 serialization);
* ``peak_rss_mb``: peak resident memory of this process.

The run record also holds ``op_s``, the median of the same per-operation
medians. It is not in BENCHMARK.json: on grid-enum it follows which
instances a seed draws more than the run-to-run bound allows.

``--trace 1`` runs the first half of the pool exactly once without tracing
and once with the outside-in tracer of ``tracer.py``, and prints the
per-layer metrics; the counts are a function of the seed alone. Half the
pool keeps a traced run well inside its time limit on a slow host. The
untraced pass is also split by field (``field.f2_solve_s``,
``field.f3_solve_s``). Spans go to ``.perfbench/trace-NAME-seedN.jsonl``.

Checks are untimed. Where the workload names a reference strategy, its
summand multiset is computed once per instance, on the instance's first
check.

Each run also writes ``.perfbench/run-NAME-seedN-traceT.json``: host
information, the seed, every operation's wall and CPU time and report
counters and timings, and the metrics above plus op_s_max, verify_s and
fail_ratio, which ``report.py`` tabulates. The last line of standard
output is the JSON result object.
"""

from __future__ import annotations

import os

# one thread for every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Subspace enumeration is exponential in the batch width, so a rare
# instance runs for hours. An operation still running after OP_LIMIT_S is
# stopped and counted as failed, and no operation runs past RUN_LIMIT_S
# after start, so every run ends in bounded time.
OP_LIMIT_S = 40.0
RUN_LIMIT_S = 150.0


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import mpdec from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mpdec
        import mpdec.generators  # noqa: F401  (loads every module to trace)
    except ImportError as ex:
        sys.exit(f"error: cannot import mpdec from {src}: {ex}")
    if not Path(mpdec.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: mpdec was imported from {mpdec.__file__}, not {src}")


def host_info():
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads_env": {v: os.environ[v] for v in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def _alarm(signum, frame):
    raise TimeoutError("operation exceeded its time limit")


def run_one(wl, inst, strategy, reference, tracer, op_id, limit):
    """Run, time and check one operation; returns (OpResult, signatures)."""
    from workloads import OpResult, check, operation, reference_signatures

    res = OpResult(inst.index, inst.q, strategy, 0.0)
    if tracer is not None:
        tracer.op, tracer.active = op_id, True
    # start every operation from a collected heap, as a fresh process would
    gc.collect()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report, texts, payload = operation(inst, strategy)
    except Exception as ex:  # a failing operation is counted, not fatal
        res.errors.append(f"{type(ex).__name__}: {ex}")
        return res, None
    finally:
        res.op_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
    res.counters = dict(report.counters)
    res.timings = dict(report.timings)
    res.interval_decomposable = report.interval_decomposable
    res.summands = report.num_summands
    try:
        if wl.dense_verify:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            ok = report.verify()
            res.verify_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if not ok:
                res.errors.append("DecompositionReport.verify() is False")
        if reference is False:
            res.errors.append("no exhaustive result to compare against")
            reference = None
        if wl.reference is not None and inst.reference is None:
            inst.reference = reference_signatures(inst, wl.reference)
        errors, sigs = check(inst, texts, payload, reference)
        res.errors += errors
    except Exception as ex:  # a check that cannot run is a failure
        res.errors.append(f"check raised {type(ex).__name__}: {ex}")
        sigs = None
    finally:
        if tracer is not None:
            tracer.active = False
    return res, sigs


def closed_loop(wl, instances, seconds, deadline, tracer=None):
    """One pass over the pool, then more instances until `seconds` passed.

    No operation starts or runs past `deadline` (a perf_counter value);
    operations cut off by it count as failed.
    """
    results = []
    start = time.perf_counter()
    n = 0
    while n < len(instances) or time.perf_counter() - start < seconds:
        inst = instances[n % len(instances)]
        reference = None
        for k, strategy in enumerate(wl.strategies):
            limit = min(OP_LIMIT_S, deadline - time.perf_counter())
            if limit <= 0:
                print(f"run time limit reached after {len(results)} operations")
                return results
            res, sigs = run_one(wl, inst, strategy, reference, tracer,
                                len(results), limit)
            results.append(res)
            if k == 0:
                reference = sigs if sigs is not None else False
        n += 1
        if seconds <= 0 and n >= len(instances):
            break
    return results


def _median_per_operation(results):
    by_op: dict = {}
    for r in results:
        by_op.setdefault((r.instance, r.strategy), []).append(r.op_s)
    return [statistics.median(v) for v in by_op.values()]


def workload_metrics(wl, results, import_s, instances):
    """All end-to-end metrics of one run (stored in the run record)."""
    per_op = _median_per_operation(results)
    failed = sum(1 for r in results if r.errors)
    verify = [r.verify_s for r in results if r.verify_s is not None]
    return {
        "op_s": statistics.median(per_op),
        "solve_s": sum(per_op),
        "op_s_max": max(r.op_s for r in results),
        "verify_s": sum(verify) if wl.dense_verify else None,
        "fail_ratio": failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + statistics.median(i.setup_s for i in instances),
    }


def per_layer_metrics(spans, untraced, traced):
    from tracer import setup_seconds, summarize

    agg = summarize(spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0.0

    def ratio(name, key):
        calls = get(name, "calls")
        return get(name, key) / calls if calls else 0.0

    ok = [r for r in untraced if r.counters]
    out = {}
    for key in ("hom_computations", "sweep_ops", "merges",
                "subspace_iterations"):
        out[f"decomposer.{key}"] = sum(r.counters.get(key, 0) for r in ok)
    for key in ("k_max", "kappa_max"):
        out[f"decomposer.{key}"] = max((r.counters.get(key, 0) for r in ok),
                                       default=0)
    out["decomposer.interval_fallback_ops"] = sum(
        1 for r in ok if r.interval_decomposable is False)
    for phase in ("minimize", "reduce", "signatures"):
        out[f"phase.{phase}_s"] = sum(r.timings.get(phase, 0.0) for r in ok)
    out["decomposer.self_s"] = get("decomposer.decompose", "self_s")
    for name in ("decomposer.summand_signature", "fields.solve",
                 "fields.kernel_basis", "fields.rank", "fields.invert",
                 "blockreduce.apply_hom_pair", "blockreduce.apply_col_combo"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["grading.minimize.total_s"] = get("grading.minimize", "total_s")
    out["grading.minimize.self_s"] = get("grading.minimize", "self_s")
    out["grading.minimize.deleted_columns"] = get("grading.minimize", "deleted_columns")
    out["grading.minimize.cancelled_pairs"] = get("grading.minimize", "cancelled_pairs")
    out["grading.sort_and_batch.batches"] = get("grading.sort_and_batch", "batches")
    ce = "fields.column_echelon"
    out[f"{ce}.calls"] = get(ce, "calls")
    out[f"{ce}.self_s"] = get(ce, "self_s")
    out[f"{ce}.cells"] = get(ce, "cells")
    out[f"{ce}.cells_per_call"] = ratio(ce, "cells")
    for name in ("hom.hom_pairs", "hom.alpha_quotient"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.total_s"] = get(name, "total_s")
        out[f"{name}.nonzero_ratio"] = ratio(name, "useful")
    for name in ("hom.cokernel_at", "hom.induced_at_alpha",
                 "intervals.check_interval", "intervals.dim_at",
                 "intervals.interval_alpha_hom"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.total_s"] = get(name, "total_s")
    sc = "blockreduce.solve_clear"
    out[f"{sc}.calls"] = get(sc, "calls")
    out[f"{sc}.total_s"] = get(sc, "total_s")
    out[f"{sc}.self_s"] = get(sc, "self_s")
    out[f"{sc}.success_ratio"] = ratio(sc, "useful")
    out["subspaces.generate_dec.calls"] = get("subspaces.generate_dec", "calls")
    out["subspaces.generate_dec.pairs_yielded"] = get("subspaces.generate_dec.next", "yielded")
    out["subspaces.generate_dec.self_s"] = get("subspaces.generate_dec.next", "self_s")
    out["sccio.parse.total_s"] = get("sccio.parse", "total_s")
    out["sccio.write.total_s"] = get("sccio.write", "total_s")
    out["sccio.bytes_in"] = get("sccio.parse", "bytes")
    out["sccio.bytes_out"] = get("sccio.write", "bytes")
    out["setup.generate_s"] = setup_seconds(spans)
    out["trace.overhead_ratio"] = (sum(r.op_s for r in traced)
                                   / sum(r.op_s for r in untraced))
    # the untraced pass split by field, so that an F_2-only change can be
    # seen to leave the F_3 instances alone
    for q in (2, 3):
        out[f"field.f{q}_solve_s"] = sum(r.op_s for r in untraced if r.q == q)
    return out


def main(argv=None):
    t0 = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    import_program()
    from workloads import WORKLOADS, make_instances

    import_s = time.perf_counter() - t0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op, tracer.active = "setup", True
    instances = make_instances(args.workload, args.seed)
    if tracer is None:
        results = closed_loop(wl, instances, args.seconds, deadline)
        metrics = workload_metrics(wl, results, import_s, instances)
        out = {k: {"value": metrics[k], "unit": u}
               for k, u in metric_units("end_to_end").items()}
    else:
        tracer.active = False
        tracer.uninstall()
        sample = instances[:max(1, len(instances) // 2)]
        untraced = closed_loop(wl, sample, 0, deadline)
        tracer.install()
        traced = closed_loop(wl, sample, 0, deadline, tracer)
        tracer.uninstall()
        results = untraced + traced
        metrics = workload_metrics(wl, results, import_s, instances)
        layer = per_layer_metrics(tracer.spans, untraced, traced)
        out = {k: {"value": layer[k], "unit": u}
               for k, u in metric_units("per_layer").items()}
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    failed = sum(1 for r in results if r.errors)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host_info(),
        "instances": [{"index": i.index, "seed": i.seed, "q": i.q,
                       "bytes": len(i.text), "setup_s": i.setup_s}
                      for i in instances],
        "metrics": metrics, "operations": [vars(r) for r in results],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for r in results:
        if r.errors:
            print(f"FAILED instance {r.instance} (F_{r.q}, {r.strategy}): "
                  f"{'; '.join(r.errors)}")
    for key, val in metrics.items():
        shown = "not run" if val is None else f"{val:.6g}"
        print(f"{args.workload} {key} {shown}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
