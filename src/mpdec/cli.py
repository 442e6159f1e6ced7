"""Command-line surface: decompose, verify, bench, generate, enum-dec, hom.

Exit-code contract: 0 success, 1 verification mismatch, 2 input or parse
error, 3 internal invariant failure. JSON report and certificate schemas
are versioned strings checked on read.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import click

from .certificate import certificate_errors
from .decomposer import DecompositionError, decompose
from .fields import FieldConfig
from .generators import gen_grid, gen_intervals, gen_random_er
from .grading import GradedMatrix, TransformPair, minimize
from .hom import alpha_quotient, hom_space
from .sccio import SccParseError, parse_scc2020, write_scc2020
from .subspaces import dec_count

REPORT_SCHEMA = "mpdec-report/1"
CERT_SCHEMA = "mpdec-certificate/1"

EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_STRATEGY_NAMES = {
    "exhaustive": "exhaustive",
    "aida": "aida",
    "interval-auto": "interval_auto",
}


def _signature_digest(sig) -> str:
    return hashlib.sha256(repr(sig).encode()).hexdigest()[:16]


def _peak_memory_bytes() -> int:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _input_error(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_INPUT)


def _field_config(q: int) -> FieldConfig:
    try:
        return FieldConfig(q)
    except ValueError as ex:
        _input_error(str(ex))


def _read_matrix(path: str, q: int) -> GradedMatrix:
    try:
        text = Path(path).read_text()
    except OSError as ex:
        _input_error(f"cannot read {path}: {ex}")
    try:
        return parse_scc2020(text, FieldConfig(q))
    except (SccParseError, ValueError) as ex:
        _input_error(f"{path}: {ex}")


def _sparse_rows(rows) -> list:
    return [sorted((int(k), int(v)) for k, v in row.items()) for row in rows]


def _report_json(report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "num_summands": report.num_summands,
        "signature_digests": sorted(
            _signature_digest(s) for s in report.signatures
        ),
        "interval_flags": list(report.interval_flags),
        "interval_decomposable": report.interval_decomposable,
        "strategy": report.strategy,
        "k_max": report.k_max,
        "subspace_iterations": report.counters.get("subspace_iterations", 0),
        "counters": dict(report.counters),
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
        "peak_memory_bytes": _peak_memory_bytes(),
        "warnings": list(report.warnings),
    }


def _write_artifacts(report, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, summand in enumerate(report.summands):
        name = f"summand_{i:03d}.scc2020"
        (outdir / name).write_text(write_scc2020(summand))
        names.append(name)
    cert = {
        "schema": CERT_SCHEMA,
        "field": report.matrix.field.q,
        "minimized": write_scc2020(report.minimized_input),
        "matrix": write_scc2020(report.matrix),
        "q_rows": _sparse_rows(report.transform.q_rows),
        "pinv_rows": _sparse_rows(report.transform.pinv_rows),
        "blocks": [
            {"rows": list(rows), "cols": list(cols), "summand": name}
            for rows, cols, name in zip(
                report.block_rows, report.block_cols, names
            )
        ],
    }
    (outdir / "certificate.json").write_text(json.dumps(cert, indent=1))


@click.group()
def main():
    """Decomposition of finitely presented multiparameter persistence
    modules over prime fields."""


@main.command("decompose")
@click.argument("input_path", type=click.Path())
@click.option("--field", type=int, default=2, show_default=True,
              help="Prime field order q.")
@click.option("--strategy",
              type=click.Choice(sorted(_STRATEGY_NAMES)),
              default="exhaustive", show_default=True,
              help="Accepted for compatibility: every name runs the same "
                   "path.")
@click.option("--no-sweep", is_flag=True,
              help="Disable pre-clearing sweeps against low columns.")
@click.option("--no-homset", is_flag=True,
              help="Use full Hom bases instead of Hom^alpha representatives.")
@click.option("--verify", "do_verify", is_flag=True,
              help="Run the certificate check before reporting.")
@click.option("--stats", "stats_path", type=click.Path(),
              help="Write the JSON report here instead of stdout.")
@click.option("--output-dir", "-o", type=click.Path(),
              help="Write per-summand scc2020 files and certificate.json.")
def cmd_decompose(input_path, field, strategy, no_sweep, no_homset,
                  do_verify, stats_path, output_dir):
    """Decompose an scc2020 presentation into indecomposable summands."""
    m = _read_matrix(input_path, field)
    try:
        report = decompose(
            m,
            strategy=_STRATEGY_NAMES[strategy],
            use_sweep=not no_sweep,
            use_homset=not no_homset,
            verify=do_verify,
        )
    except DecompositionError as ex:
        click.echo(f"internal error: {ex}", err=True)
        sys.exit(EXIT_INTERNAL)
    if output_dir:
        _write_artifacts(report, Path(output_dir))
    payload = json.dumps(_report_json(report), indent=1)
    if stats_path:
        Path(stats_path).write_text(payload + "\n")
        click.echo(f"{report.num_summands} summand(s); report at {stats_path}")
    else:
        click.echo(payload)


def _fail_verify(msg: str):
    click.echo(f"verify: FAIL: {msg}", err=True)
    sys.exit(EXIT_VERIFY)


def _check_indices(cert_path, what, index_lists, size):
    """Exit 2 unless every index is an int in [0, size); Python indexing
    would wrap negative ones silently."""
    for indices in index_lists:
        for i in indices:
            if type(i) is not int or not 0 <= i < size:
                _input_error(f"{cert_path}: {what}: index {i!r} outside "
                             f"[0, {size})")


def _check_scalars(cert_path, what, table, q):
    """Exit 2 unless every scalar of a sparse transform is an int in
    [0, q), the form certificates are written in: anything else is malformed
    input, not a failed check, and a float would enter the arithmetic."""
    for row in table:
        for i, v in row.items():
            if type(v) is not int or not 0 <= v < q:
                _input_error(f"{cert_path}: {what}: scalar {v!r} at index "
                             f"{i!r} is not an integer in [0, {q})")


@main.command("verify")
@click.argument("original", type=click.Path())
@click.argument("artifact_dir", type=click.Path())
@click.option("--field", type=int, default=2, show_default=True)
def cmd_verify(original, artifact_dir, field):
    """Check decompose artifacts against the original presentation.

    Rechecks the certificate sparsely (mpdec.certificate) and compares
    each block with its summand file.
    """
    m_in = _read_matrix(original, field)
    cert_path = Path(artifact_dir) / "certificate.json"
    try:
        cert = json.loads(cert_path.read_text())
    except (OSError, json.JSONDecodeError) as ex:
        _input_error(f"{cert_path}: {ex}")
    if not isinstance(cert, dict) or cert.get("schema") != CERT_SCHEMA:
        _input_error("unknown certificate schema")
    if "field" not in cert:
        _input_error(f"{cert_path}: no 'field' entry")
    if type(cert["field"]) is not int:
        _input_error(f"{cert_path}: 'field' entry {cert['field']!r} is not "
                     "an integer")
    if cert["field"] != field:
        _fail_verify(f"field mismatch: certificate has F_{cert['field']}")
    fq = FieldConfig(field)
    q = fq.q
    try:
        m_min = parse_scc2020(cert["minimized"], fq)
        m_final = parse_scc2020(cert["matrix"], fq)
        q_rows = [{k: v for k, v in row} for row in cert["q_rows"]]
        pinv_rows = [{k: v for k, v in row} for row in cert["pinv_rows"]]
        blocks = [(list(b["rows"]), list(b["cols"]), b["summand"])
                  for b in cert["blocks"]]
    except (KeyError, TypeError, ValueError, SccParseError) as ex:
        _input_error(f"{cert_path}: malformed certificate: {ex!r}")
    n_rows, n_cols = m_min.num_rows, m_min.num_cols
    if (m_final.num_rows, m_final.num_cols) != (n_rows, n_cols):
        _input_error(f"{cert_path}: final matrix is {m_final.num_rows}x"
                     f"{m_final.num_cols}, minimized input {n_rows}x{n_cols}")
    for what, table, size in (("q_rows", q_rows, n_rows),
                              ("pinv_rows", pinv_rows, n_cols)):
        if len(table) != size:
            _input_error(f"{cert_path}: {what} has {len(table)} rows, "
                         f"expected {size}")
        _check_indices(cert_path, what, table, size)
        _check_scalars(cert_path, what, table, q)
    for rows, cols, name in blocks:
        if type(name) is not str:
            _input_error(f"{cert_path}: block summand name {name!r} is not "
                         "a string")
        _check_indices(cert_path, f"block {name} rows", [rows], n_rows)
        _check_indices(cert_path, f"block {name} cols", [cols], n_cols)

    own_min, _ = minimize(m_in)
    if not own_min.equal(m_min):
        _fail_verify("certificate minimized input does not match original")

    tp = TransformPair(n_rows, n_cols, fq)
    tp.q_rows, tp.pinv_rows = q_rows, pinv_rows
    errors = certificate_errors(m_min, m_final, tp, [b[0] for b in blocks],
                                [b[1] for b in blocks])
    if errors:
        _fail_verify(errors[0])

    for rows, cols, name in blocks:
        summand_path = Path(artifact_dir) / name
        try:
            summand = parse_scc2020(summand_path.read_text(), fq)
        except OSError as ex:
            _input_error(f"cannot read summand {summand_path}: {ex}")
        except SccParseError as ex:
            _input_error(f"{summand_path}: {ex}")
        sub = m_final.submatrix(rows, cols)
        if not sub.equal(summand):
            for j in range(sub.num_cols):
                if sub.columns[j] != summand.columns[j]:
                    _fail_verify(f"summand {name} differs in column {j}")
            _fail_verify(f"summand {name} differs in degrees")
    click.echo("verify: OK")


def _check_num(kind, num):
    """Exit 2 unless there is a generator to draw relations over; an empty
    sum of intervals is fine."""
    if num < 1 and kind != "intervals":
        _input_error(f"--num must be >= 1 for --kind {kind}")


def _generate_instance(kind, num, rels, prob, grid_size, seed, fq):
    if kind == "intervals":
        m, sigs = gen_intervals(num, seed=seed, field=fq)
        return m, sigs, None
    if kind == "random-er":
        return gen_random_er(num, rels, prob, seed=seed, field=fq), None, None
    m, k_max = gen_grid(num, rels, grid_size, prob, seed=seed, field=fq)
    return m, None, k_max


@main.command("generate")
@click.option("--kind", type=click.Choice(["intervals", "random-er", "grid"]),
              required=True)
@click.option("-n", "--num", type=click.IntRange(min=0), default=10,
              show_default=True,
              help="Summand count (intervals) or generator count (>= 1).")
@click.option("--rels", type=click.IntRange(min=0), default=10,
              show_default=True, help="Relation count (random-er, grid).")
@click.option("-p", "--prob", type=click.FloatRange(0, 1), default=0.3,
              show_default=True,
              help="Per-generator inclusion probability.")
@click.option("--grid-size", type=click.IntRange(min=1), default=10,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--field", type=int, default=2, show_default=True)
@click.option("--output", "-o", type=click.Path(), required=True)
def cmd_generate(kind, num, rels, prob, grid_size, seed, field, output):
    """Generate a random presentation; intervals get a ground-truth sidecar."""
    fq = _field_config(field)
    _check_num(kind, num)
    m, sigs, k_max = _generate_instance(
        kind, num, rels, prob, grid_size, seed, fq
    )
    Path(output).write_text(write_scc2020(m))
    if sigs is not None:
        sidecar = {
            "schema": "mpdec-ground-truth/1",
            "seed": seed,
            "num_summands": len(sigs),
            "signature_digests": sorted(_signature_digest(s) for s in sigs),
        }
        Path(output + ".truth.json").write_text(json.dumps(sidecar, indent=1))
    note = f", k_max {k_max}" if k_max is not None else ""
    click.echo(
        f"wrote {output}: {m.num_rows} generator(s), "
        f"{m.num_cols} relation(s){note}"
    )


_BENCH_CONFIGS = [
    ("vanilla", {"use_sweep": False, "use_homset": False}),
    ("+sweep", {"use_sweep": True, "use_homset": False}),
    ("+homset", {"use_sweep": True, "use_homset": True}),
]


@main.command("bench")
@click.option("--kind", type=click.Choice(["intervals", "random-er", "grid"]),
              default="intervals", show_default=True)
@click.option("-n", "--num", type=click.IntRange(min=0), default=50,
              show_default=True)
@click.option("--rels", type=click.IntRange(min=0), default=50,
              show_default=True)
@click.option("-p", "--prob", type=click.FloatRange(0, 1), default=0.3,
              show_default=True)
@click.option("--grid-size", type=click.IntRange(min=1), default=10,
              show_default=True)
@click.option("--instances", type=int, default=3, show_default=True)
@click.option("--repeats", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--field", type=int, default=2, show_default=True)
@click.option("--strategy",
              type=click.Choice(sorted(_STRATEGY_NAMES)),
              default="exhaustive", show_default=True,
              help="Accepted for compatibility: every name runs the same "
                   "path.")
@click.option("--stats", "stats_path", type=click.Path())
def cmd_bench(kind, num, rels, prob, grid_size, instances, repeats, seed,
              field, strategy, stats_path):
    """Time the optimization toggles on generated instances.

    Columns are the ablation configurations (no sweep/no homset, sweep
    only, both); the summand multiset is checked to be identical across
    configurations.
    """
    fq = _field_config(field)
    _check_num(kind, num)
    strat = _STRATEGY_NAMES[strategy]
    rows = []
    for idx in range(instances):
        m, _, _ = _generate_instance(
            kind, num, rels, prob, grid_size, seed + idx, fq
        )
        row = {"instance": idx, "gens": m.num_rows, "rels": m.num_cols}
        sigs = None
        for name, flags in _BENCH_CONFIGS:
            elapsed = 0.0
            for _ in range(repeats):
                t0 = time.perf_counter()
                report = decompose(m.copy(), strategy=strat, **flags)
                elapsed += time.perf_counter() - t0
            row[name] = elapsed / repeats
            cur = report.signature_multiset()
            if sigs is None:
                sigs = cur
                row["summands"] = report.num_summands
            elif cur != sigs:
                click.echo("internal error: ablation changed the result",
                           err=True)
                sys.exit(EXIT_INTERNAL)
        rows.append(row)

    header = ["instance", "gens", "rels", "summands"] + [
        n for n, _ in _BENCH_CONFIGS
    ]
    click.echo("  ".join(f"{h:>9}" for h in header))
    for row in rows:
        cells = [str(row[h]) if isinstance(row[h], int) else f"{row[h]:.4f}"
                 for h in header]
        click.echo("  ".join(f"{c:>9}" for c in cells))
    if stats_path:
        payload = {
            "schema": "mpdec-bench/1",
            "kind": kind,
            "strategy": strategy,
            "field": field,
            "repeats": repeats,
            "rows": rows,
        }
        Path(stats_path).write_text(json.dumps(payload, indent=1) + "\n")


@main.command("enum-dec")
@click.argument("k", type=int)
@click.option("--field", type=int, default=2, show_default=True)
def cmd_enum_dec(k, field):
    """Count the subspace decomposition pairs of F_q^k."""
    if k < 1:
        _input_error("k must be >= 1")
    _field_config(field)
    click.echo(str(dec_count(k, field)))


@main.command("hom")
@click.argument("src_path", type=click.Path())
@click.argument("tgt_path", type=click.Path())
@click.option("--field", type=int, default=2, show_default=True)
@click.option("--alpha", type=str, default=None,
              help="Comma-separated degree; also report dim Hom^alpha.")
def cmd_hom(src_path, tgt_path, field, alpha):
    """Dimension of Hom between two presented modules (source first)."""
    src = _read_matrix(src_path, field)
    tgt = _read_matrix(tgt_path, field)
    dims = {m.dim for m in (src, tgt) if m.dim}
    if len(dims) > 1:
        _input_error("the presentations have different parameter counts")
    hom = hom_space(src, tgt)
    click.echo(f"dim Hom = {hom.dim}")
    if alpha is not None:
        try:
            point = tuple(int(t) for t in alpha.split(","))
        except ValueError:
            _input_error(f"bad degree {alpha!r}")
        if dims and len(point) not in dims:
            _input_error(
                f"degree {alpha!r} has {len(point)} coordinate(s), the "
                f"presentations have {dims.pop()} parameter(s)"
            )
        local = alpha_quotient(hom.pairs, src, tgt, point)
        click.echo(f"dim Hom^alpha = {local.dim}")


if __name__ == "__main__":
    main()
