"""Workload definitions: seeded instances, one operation, and its checks.

An operation is one decomposition as a user runs it: parse the instance's
scc2020 text, ``decompose`` it with the default toggles, and serialize every
summand plus the certificate payload that ``mpdec decompose -o`` writes
(built in memory; nothing is written to disk). The checks run after the
operation and are not part of its time.

The program only ever sees the generated scc2020 text. Instance seeds are
drawn from the benchmark seed, so the same seed gives the same instances.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

# called through the package so that the tracer's wrappers are seen
import mpdec
from mpdec import FieldConfig, TransformPair, generators
from mpdec.cli import CERT_SCHEMA, _sparse_rows

from certcheck import certificate_errors, multiset_errors


@dataclass(frozen=True)
class Workload:
    """An instance family, its pool size and the strategies run on it.

    Each instance in the pool is decomposed once per strategy per pass; with
    two strategies the second one is checked against the first one's summand
    multiset. ``reference`` names a strategy whose summand multiset, computed
    once per instance and untimed, every operation is checked against.
    ``dense_verify`` also runs the program's own
    ``DecompositionReport.verify`` (untimed, reported as verify_s).
    """

    pool: int
    strategies: tuple
    dense_verify: bool
    reference: str | None = None


WORKLOADS = {
    # One large incidence component: the pre-pass Hom storm and many tiny
    # fields eliminations do the work, minimize about a tenth of it.
    "intervals-mixed": Workload(12, ("interval_auto",), True),
    # k=1 batches and single-generator summands: signatures, interval
    # checks and the per-batch overhead of decompose dominate; Hom and subspace
    # enumeration are bypassed. The dense verifier (n x n int64 transforms,
    # an O(n^3) elimination) does not fit here; exhaustive, which enumerates
    # nothing at k=1, gives the reference multiset.
    "grid-sparse": Workload(6, ("aida",), False, reference="exhaustive"),
    # 40 relations on a 6x6 grid, exhaustive only, odd instances over F_3:
    # relation degrees collide (batches mostly of k=2..5, rarely 7 or 8),
    # so instances run subspace enumeration and solve_clear. About one
    # relation per grid point keeps wide batches rare, so enumeration stays
    # out of its exponential tail (a whole Dec_3(7) has about 10^6 pairs).
    "grid-enum": Workload(128, ("exhaustive",), True),
    # Colliding relation degrees on a 4x4 grid: batches of k=7..16; odd
    # instances are over F_3. aida is checked against exhaustive. Not in
    # BENCHMARK.json: aida's known defects fail most aida operations, and
    # exhaustive's enumeration can run past the operation limit on F_3
    # instances (2 of 30 sampled took over 10 s), while the workloads there
    # must run without failures. report.py runs it.
    "grid-batched": Workload(16, ("exhaustive", "aida"), True),
}


@dataclass
class Instance:
    index: int
    seed: int
    q: int
    text: str
    truth: list | None
    setup_s: float
    reference: list | None = None


def _instance_seeds(name: str, seed: int, count: int):
    rng = random.Random(f"{name}:{seed}")
    return [rng.getrandbits(48) for _ in range(count)]


def _generate(name: str, index: int, inst_seed: int):
    if name == "intervals-mixed":
        m, truth = generators.gen_intervals(300, inst_seed, mixed=True)
        return m, truth
    if name == "grid-sparse":
        n = 3000
        m, _ = generators.gen_grid(n, n, 10 ** 6, 0.5 / n, inst_seed)
        return m, None
    q = 2 if index % 2 == 0 else 3
    if name == "grid-enum":
        m, _ = generators.gen_grid(60, 40, 6, 0.1, inst_seed,
                                   field=FieldConfig(q))
        return m, None
    if name == "grid-batched":
        m, _ = generators.gen_grid(150, 150, 4, 0.05, inst_seed,
                                   field=FieldConfig(q))
        return m, None
    raise ValueError(f"unknown workload {name!r}")


def make_instances(name: str, seed: int):
    """Generate and serialize the workload's pool; each is timed as set-up."""
    out = []
    for index, inst_seed in enumerate(
            _instance_seeds(name, seed, WORKLOADS[name].pool)):
        t0 = time.perf_counter()
        m, truth = _generate(name, index, inst_seed)
        text = mpdec.write_scc2020(m)
        out.append(Instance(index, inst_seed, m.field.q, text, truth,
                            time.perf_counter() - t0))
    return out


def certificate_payload(report, names) -> str:
    """The certificate.json text ``mpdec decompose -o`` writes."""
    cert = {
        "schema": CERT_SCHEMA,
        "field": report.matrix.field.q,
        "minimized": mpdec.write_scc2020(report.minimized_input),
        "matrix": mpdec.write_scc2020(report.matrix),
        "q_rows": _sparse_rows(report.transform.q_rows),
        "pinv_rows": _sparse_rows(report.transform.pinv_rows),
        "blocks": [
            {"rows": list(rows), "cols": list(cols), "summand": name}
            for rows, cols, name in zip(
                report.block_rows, report.block_cols, names)
        ],
    }
    return json.dumps(cert, indent=1)


def operation(inst: Instance, strategy: str):
    """One timed operation; returns (report, summand texts, payload)."""
    m = mpdec.parse_scc2020(inst.text, FieldConfig(inst.q))
    report = mpdec.decompose(m, strategy=strategy)
    texts = [mpdec.write_scc2020(s) for s in report.summands]
    names = [f"summand_{i:03d}.scc2020" for i in range(len(texts))]
    return report, texts, certificate_payload(report, names)


@dataclass
class OpResult:
    instance: int
    q: int
    strategy: str
    op_s: float
    cpu_s: float = 0.0
    errors: list = field(default_factory=list)
    verify_s: float | None = None
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    interval_decomposable: object = None
    summands: int = 0


def reference_signatures(inst: Instance, strategy: str):
    """Summand signatures of ``strategy`` on the instance (untimed)."""
    m = mpdec.parse_scc2020(inst.text, FieldConfig(inst.q))
    return mpdec.decompose(m, strategy=strategy).signatures


def check(inst: Instance, texts, payload, reference=None):
    """Check one operation's outputs as a user receives them.

    The certificate is decoded from the payload, with both matrices parsed
    back from its scc2020 texts. The summand signatures are computed from
    the summand texts, and their multiset is compared with the instance's
    ground truth or reference, and with ``reference`` (the first strategy's
    multiset on this instance) when given.

    Returns:
        (errors, signatures): a list of problems, empty if correct, and the
        signatures of the summands, None if the summands do not match their
        blocks.
    """
    fq = FieldConfig(inst.q)
    cert = json.loads(payload)
    m_min = mpdec.parse_scc2020(cert["minimized"], fq)
    m_final = mpdec.parse_scc2020(cert["matrix"], fq)
    tp = TransformPair(m_min.num_rows, m_min.num_cols, fq)
    tp.q_rows = [dict(row) for row in cert["q_rows"]]
    tp.pinv_rows = [dict(row) for row in cert["pinv_rows"]]
    rows = [b["rows"] for b in cert["blocks"]]
    cols = [b["cols"] for b in cert["blocks"]]
    errors = certificate_errors(m_min, m_final, tp, rows, cols)
    if len(texts) != len(rows):
        errors.append("summand count differs from the block count")
        return errors, None
    sigs = []
    for b, text in enumerate(texts):
        summand = mpdec.parse_scc2020(text, fq)
        if not summand.equal(m_final.submatrix(rows[b], cols[b])):
            errors.append(f"summand {b} differs from its block")
            return errors, None
        sigs.append(mpdec.decomposer.summand_signature(summand))
    if inst.truth is not None:
        errors += multiset_errors(sigs, inst.truth, "ground truth")
    if inst.reference is not None:
        errors += multiset_errors(sigs, inst.reference, "the reference")
    if reference is not None:
        errors += multiset_errors(sigs, reference, "exhaustive")
    return errors, sigs
