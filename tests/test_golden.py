"""Golden output: one SHA-256 over a fixed decomposition corpus.

The digest covers, per input and in order, every summand text and the
certificate payload exactly as `mpdec decompose -o` writes them
(cli._write_artifacts), followed by the summand signatures. A refactor of
the batch path that claims byte-identical outputs must leave it unchanged;
a change that means to alter outputs updates GOLDEN and says why.
"""

import hashlib

import fixtures
from mpdec.cli import _write_artifacts
from mpdec.decomposer import decompose
from mpdec.fields import FieldConfig
from mpdec.generators import gen_grid, gen_intervals

GOLDEN = "349171bdd18c0cc54e3100be3668f43941adfc6fddfa247f7dcd71658eecf115"


def _corpus():
    out = [
        fixtures.join_pair_matrix(),
        fixtures.antidiagonal_batch_matrix(),
        fixtures.chain_digraph_matrix(),
        *fixtures.chain_blocks(),
        *fixtures.staircase_pair()[:2],
        fixtures.clearing_fixture()[0],
        fixtures.equal_rows_split_matrix(),
        fixtures.obstruction_matrix(),
    ]
    for seed in range(16):
        fq = FieldConfig(2 if seed % 2 == 0 else 3)
        out.append(gen_grid(60, 40, 6, 0.1, seed, field=fq)[0])
    for seed in range(2):
        out.append(gen_intervals(60, seed, mixed=True)[0])
    return out


def test_golden_digest(tmp_path):
    h = hashlib.sha256()
    for n, m in enumerate(_corpus()):
        report = decompose(m)
        outdir = tmp_path / str(n)
        _write_artifacts(report, outdir)
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        h.update(repr(report.signatures).encode())
    assert h.hexdigest() == GOLDEN
