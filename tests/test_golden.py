"""Golden output: a SHA-256 over a fixed decomposition corpus, one per
setting of the ablation toggles use_sweep and use_homset, and one over
minimize's outputs on raw generator inputs.

The digest covers, per input and in order, every summand text and the
certificate payload exactly as `mpdec decompose -o` writes them
(cli._write_artifacts), followed by the summand signatures. A refactor of
the batch path that claims byte-identical outputs must leave them
unchanged; a change that means to alter outputs updates GOLDEN or
ABLATION_GOLDEN and says why.
"""

import hashlib

import pytest

import fixtures
from mpdec import generators
from mpdec.cli import _write_artifacts
from mpdec.decomposer import decompose
from mpdec.fields import FieldConfig
from mpdec.generators import gen_grid, gen_intervals
from mpdec.grading import minimize
from mpdec.sccio import write_scc2020

GOLDEN = "349171bdd18c0cc54e3100be3668f43941adfc6fddfa247f7dcd71658eecf115"

# the same digest under the paper's ablation toggles (use_sweep, use_homset);
# the default (True, True) is GOLDEN
ABLATION_GOLDEN = {
    (True, False):
        "a92ae911c4e2dea70c5836b241f7e42829bff8988585ebe7f4257530d2b21259",
    (False, True):
        "e8b9261ee8d5cfc0901c46278f0236f10925bb29c6662e41f618dc9c39f1bab0",
    (False, False):
        "1e04333a797758052c9c451c252f9673a26e329e274843cbc6b69469f09f54aa",
}

# minimize on the raw inputs of gen_grid and gen_random_er (_raw_inputs)
MINIMIZE_GOLDEN = (
    "27e7a652fa6e0ce01c5205c79e996a117813b8c50935a593ea9cef31bde31040")


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


def _digest(tmp_path, **toggles):
    h = hashlib.sha256()
    for n, m in enumerate(_corpus()):
        report = decompose(m, **toggles)
        outdir = tmp_path / str(n)
        _write_artifacts(report, outdir)
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        h.update(repr(report.signatures).encode())
    return h.hexdigest()


def test_golden_digest(tmp_path):
    assert _digest(tmp_path) == GOLDEN


@pytest.mark.parametrize("use_sweep, use_homset", sorted(ABLATION_GOLDEN))
def test_ablation_digest(tmp_path, use_sweep, use_homset):
    assert _digest(tmp_path, use_sweep=use_sweep, use_homset=use_homset) \
        == ABLATION_GOLDEN[use_sweep, use_homset]


def _raw_inputs(monkeypatch):
    """The 200 presentations that gen_grid and gen_random_er assemble for
    seeds 0..99 (even seeds over F_2, odd over F_3), before minimizing."""
    raw = []

    def capture(m):
        raw.append(m.copy())
        return minimize(m)

    monkeypatch.setattr(generators, "minimize", capture)
    for seed in range(100):
        fq = FieldConfig(2 if seed % 2 == 0 else 3)
        generators.gen_grid(12, 24, 4, 0.3, seed, field=fq)
        generators.gen_random_er(10, 16, 0.4, seed, field=fq)
    return raw


def test_minimize_digest(monkeypatch):
    """Which of two equal-degree redundant columns minimize deletes
    follows the iteration order of its set of dependent columns; the
    generators' instances depend on that choice."""
    raw = _raw_inputs(monkeypatch)
    assert len(raw) == 200
    h = hashlib.sha256()
    deleted = 0
    for m in raw:
        out, report = minimize(m)
        deleted += report["deleted_columns"]
        h.update(write_scc2020(out).encode())
        h.update(repr(report).encode())
    assert deleted > 1000
    assert h.hexdigest() == MINIMIZE_GOLDEN
