"""Tests of the benchmark's own checker and tracer.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpdec  # noqa: E402
from mpdec import FieldConfig  # noqa: E402
from mpdec.generators import gen_grid, gen_intervals  # noqa: E402

import run  # noqa: E402
from certcheck import certificate_errors, multiset_errors  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, check, operation  # noqa: E402


def _instance(m, truth=None):
    return Instance(0, 0, m.field.q, mpdec.write_scc2020(m), truth, 0.0)


def _decomposed(q=2):
    m, _ = gen_grid(40, 40, 3, 0.1, 5, field=FieldConfig(q))
    inst = _instance(m)
    report, texts, payload = operation(inst, "exhaustive")
    return inst, report, texts, payload


def _cert_args(report):
    tp = mpdec.TransformPair(report.matrix.num_rows, report.matrix.num_cols,
                             report.matrix.field)
    tp.q_rows = [dict(r) for r in report.transform.q_rows]
    tp.pinv_rows = [dict(r) for r in report.transform.pinv_rows]
    return (report.minimized_input, report.matrix, tp, report.block_rows,
            report.block_cols)


def _bump(rows, i, k, q):
    v = (rows[i].get(k, 0) + 1) % q
    if v:
        rows[i][k] = v
    else:
        rows[i].pop(k, None)


def test_accepts_real_certificate_over_f2_and_f3():
    for q in (2, 3):
        inst, report, texts, payload = _decomposed(q)
        assert report.verify()
        assert certificate_errors(*_cert_args(report)) == []
        assert check(inst, texts, payload)[0] == []


def test_rejects_single_tampered_q_entry():
    for q in (2, 3):
        _, report, _, _ = _decomposed(q)
        args = _cert_args(report)
        m_min, tp = args[0], args[2]
        # a generator that occurs in some relation: changing column j of Q
        # changes Q . M_min
        j = next(i for col in m_min.columns for i in col)
        _bump(tp.q_rows, j, j, q)
        assert certificate_errors(*args)


def test_rejects_single_tampered_pinv_entry():
    for q in (2, 3):
        _, report, _, _ = _decomposed(q)
        args = _cert_args(report)
        tp = args[2]
        # every column of a minimal presentation is nonzero
        _bump(tp.pinv_rows, 0, 0, q)
        assert certificate_errors(*args)


def test_rejects_off_diagonal_tamper_that_keeps_q_graded_and_invertible():
    _, report, _, _ = _decomposed(2)
    args = _cert_args(report)
    m_min, tp = args[0], args[2]
    degs = m_min.row_degrees
    used = {i for col in m_min.columns for i in col}
    i, j = next((i, j) for j in used for i in range(len(degs))
                if i != j and mpdec.leq(degs[i], degs[j]) and degs[i] != degs[j])
    _bump(tp.q_rows, i, j, 2)
    assert tp.check_graded(m_min.row_degrees, m_min.col_degrees)
    assert any("identity" in e for e in certificate_errors(*args))


def test_rejects_tampered_payload_and_broken_blocks():
    inst, report, texts, payload = _decomposed(2)
    cert = json.loads(payload)
    row = cert["pinv_rows"][0]
    row[0][1] = 0 if row[0][1] == 1 else 1
    cert["pinv_rows"][0] = [e for e in row if e[1]]
    assert check(inst, texts, json.dumps(cert))[0]
    args = list(_cert_args(report))
    args[3] = [list(r) for r in report.block_rows]
    args[3][0] = args[3][0][1:] if len(args[3][0]) > 1 else []
    assert certificate_errors(*args)


def test_rejects_multiset_that_lost_a_summand():
    m, truth = gen_intervals(12, 3)
    inst = _instance(m, truth)
    report, texts, payload = operation(inst, "interval_auto")
    errors, sigs = check(inst, texts, payload)
    assert errors == []
    assert sorted(sigs) == sorted(report.signatures)
    assert multiset_errors(truth[1:], truth, "ground truth")
    # the program's summands lost one of the ground truth's
    inst.truth = truth + [truth[0]]
    assert check(inst, texts, payload)[0]
    inst.truth = None
    inst.reference = truth + [truth[0]]
    assert check(inst, texts, payload)[0]
    assert check(inst, texts, payload, reference=truth[1:])[0]


def test_signatures_come_from_the_summand_texts():
    m, truth = gen_intervals(12, 3)
    inst = _instance(m, truth)
    report, texts, payload = operation(inst, "interval_auto")
    # a summand text that no longer matches its block is caught, and the
    # report's own signature list is not consulted
    report.signatures = []
    assert check(inst, texts, payload)[0] == []
    bad = texts[:]
    bad[0] = texts[1] if texts[1] != texts[0] else texts[-1]
    errors, sigs = check(inst, bad, payload)
    assert errors and sigs is None


def test_tracer_reaches_every_binding_and_restores_it():
    originals = (mpdec.decomposer.hom_pairs, mpdec.fields.rank,
                 mpdec.decompose, mpdec.decomposer.generate_dec)
    m, _ = gen_grid(40, 40, 3, 0.1, 5)
    inst = _instance(m)
    tracer = Tracer()
    tracer.install()
    assert mpdec.decomposer.hom_pairs is not originals[0]
    tracer.op, tracer.active = 0, True
    report, _, _ = operation(inst, "exhaustive")
    tracer.active = False
    tracer.uninstall()
    assert (mpdec.decomposer.hom_pairs, mpdec.fields.rank, mpdec.decompose,
            mpdec.decomposer.generate_dec) == originals
    agg = summarize(tracer.spans)
    assert agg["decomposer.decompose"]["calls"] == 1
    assert agg["hom.hom_pairs"]["calls"] == report.counters["hom_computations"]
    # summand_signature imports rank inside the function body
    assert agg["decomposer.summand_signature"]["calls"] == report.num_summands
    sig = {i for i, s in enumerate(tracer.spans)
           if s[0] == "decomposer.summand_signature"}
    assert any(s[0] == "fields.rank" and s[3] in sig for s in tracer.spans)
    # generate_dec is a generator, timed per next()
    assert report.counters["subspace_iterations"] > 0
    assert agg["subspaces.generate_dec"]["calls"] > 0
    assert agg["subspaces.generate_dec.next"]["yielded"] >= report.counters["subspace_iterations"]
    decompose = agg["decomposer.decompose"]
    assert 0 <= decompose["self_s"] <= decompose["total_s"]


def test_runs_yield_every_metric_of_benchmark_json():
    m, _ = gen_grid(40, 40, 3, 0.1, 5)
    instances = [_instance(m)]
    wl = Workload(1, ("exhaustive",), True, reference="exhaustive")
    deadline = time.perf_counter() + 60
    untraced = run.closed_loop(wl, instances, 0, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.closed_loop(wl, instances, 0, deadline, tracer)
    finally:
        tracer.uninstall()
    assert not any(r.errors for r in untraced + traced)
    assert instances[0].reference is not None
    e2e = run.workload_metrics(wl, untraced, 0.0, instances)
    layer = run.per_layer_metrics(tracer.spans, untraced, traced)
    assert set(run.metric_units("end_to_end")) <= set(e2e)
    assert set(run.metric_units("per_layer")) <= set(layer)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
