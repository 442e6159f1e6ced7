"""Command-line interface: commands, schemas, and exit codes."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from fixtures import chain_digraph_matrix, clearing_fixture, staircase_pair
from mpdec.cli import main
from mpdec.grading import GradedMatrix
from mpdec.sccio import write_scc2020


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.scc2020"
    path.write_text(write_scc2020(chain_digraph_matrix()))
    return str(path)


class TestDecompose:
    def test_report_on_stdout(self, runner, chain_file):
        result = runner.invoke(main, ["decompose", chain_file])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["schema"] == "mpdec-report/1"
        assert report["num_summands"] == 2

    def test_empty_input(self, runner, tmp_path):
        path = tmp_path / "empty.scc2020"
        path.write_text("scc2020\n2\n0 0\n")
        result = runner.invoke(main, ["decompose", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["num_summands"] == 0

    def test_parse_error_exit_code(self, runner, tmp_path):
        path = tmp_path / "bad.scc2020"
        path.write_text("not a header\n")
        result = runner.invoke(main, ["decompose", str(path)])
        assert result.exit_code == 2

    def test_missing_file_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, ["decompose", str(tmp_path / "nope")])
        assert result.exit_code == 2

    def test_strategy_and_flags(self, runner, chain_file):
        result = runner.invoke(main, [
            "decompose", chain_file, "--strategy", "interval-auto",
            "--no-sweep", "--no-homset", "--verify",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["num_summands"] == 2
        assert report["interval_decomposable"] == all(
            report["interval_flags"])

    def test_stats_file(self, runner, chain_file, tmp_path):
        stats = tmp_path / "report.json"
        result = runner.invoke(main, [
            "decompose", chain_file, "--stats", str(stats),
        ])
        assert result.exit_code == 0
        assert json.loads(stats.read_text())["schema"] == "mpdec-report/1"


class TestVerify:
    def _artifacts(self, runner, tmp_path, matrix):
        src = tmp_path / "input.scc2020"
        src.write_text(write_scc2020(matrix))
        outdir = tmp_path / "artifacts"
        result = runner.invoke(main, [
            "decompose", str(src), "-o", str(outdir),
        ])
        assert result.exit_code == 0
        return str(src), outdir

    def test_round_trip_ok(self, runner, tmp_path):
        src, outdir = self._artifacts(runner, tmp_path, chain_digraph_matrix())
        result = runner.invoke(main, ["verify", src, str(outdir)])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_tampered_summand_fails(self, runner, tmp_path):
        src, outdir = self._artifacts(runner, tmp_path, clearing_fixture()[0])
        cert = json.loads((outdir / "certificate.json").read_text())
        victim = outdir / cert["blocks"][0]["summand"]
        text = victim.read_text()
        lines = text.splitlines()
        # flip the entry list of the first relation line
        for i, line in enumerate(lines):
            if ";" in line and line.split(";")[1].strip():
                head, entries = line.split(";")
                first = entries.split()[0]
                rest = entries.split()[1:]
                lines[i] = head + "; " + " ".join(rest) if rest else head + ";"
                break
        victim.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["verify", src, str(outdir)])
        assert result.exit_code == 1
        assert "column" in result.output or "differs" in result.output

    def test_cross_input_certificate_fails(self, runner, tmp_path):
        src, outdir = self._artifacts(runner, tmp_path, chain_digraph_matrix())
        other = tmp_path / "other.scc2020"
        other.write_text(write_scc2020(clearing_fixture()[0]))
        result = runner.invoke(main, ["verify", str(other), str(outdir)])
        assert result.exit_code == 1

    def test_missing_certificate(self, runner, tmp_path, chain_file):
        result = runner.invoke(main, ["verify", chain_file, str(tmp_path)])
        assert result.exit_code == 2

    def test_certificate_without_field(self, runner, tmp_path):
        src, outdir = self._artifacts(runner, tmp_path, chain_digraph_matrix())
        cert_path = outdir / "certificate.json"
        cert = json.loads(cert_path.read_text())
        del cert["field"]
        cert_path.write_text(json.dumps(cert))
        result = runner.invoke(main, ["verify", src, str(outdir)])
        assert result.exit_code == 2
        assert "field" in result.output

    def test_missing_summand_file(self, runner, tmp_path):
        src, outdir = self._artifacts(runner, tmp_path, chain_digraph_matrix())
        cert = json.loads((outdir / "certificate.json").read_text())
        (outdir / cert["blocks"][0]["summand"]).unlink()
        result = runner.invoke(main, ["verify", src, str(outdir)])
        assert result.exit_code == 2
        assert "cannot read summand" in result.output

    def _tampered(self, runner, tmp_path, tamper):
        src, outdir = self._artifacts(runner, tmp_path, chain_digraph_matrix())
        cert_path = outdir / "certificate.json"
        cert = json.loads(cert_path.read_text())
        tamper(cert)
        cert_path.write_text(json.dumps(cert))
        return runner.invoke(main, ["verify", src, str(outdir)])

    # the chain fixture minimizes to 4 generators and 4 relations
    @pytest.mark.parametrize("tamper", [
        lambda c: c["q_rows"][0].append([4, 1]),
        lambda c: c["q_rows"][1].append([-1, 1]),
        lambda c: c["pinv_rows"][0].append([4, 1]),
        lambda c: c["pinv_rows"][2].append([-2, 1]),
        lambda c: c["blocks"][0]["rows"].append(4),
        lambda c: c["blocks"][0]["rows"].append(-1),
        lambda c: c["blocks"][0]["cols"].append(9),
        lambda c: c["blocks"][0]["cols"].append(-4),
    ], ids=["q_rows_high", "q_rows_negative", "pinv_rows_high",
            "pinv_rows_negative", "block_rows_high", "block_rows_negative",
            "block_cols_high", "block_cols_negative"])
    def test_index_out_of_range(self, runner, tmp_path, tamper):
        result = self._tampered(runner, tmp_path, tamper)
        assert result.exit_code == 2
        assert "outside [0, 4)" in result.output

    @pytest.mark.parametrize("table", ["q_rows", "pinv_rows"])
    def test_transform_length_mismatch(self, runner, tmp_path, table):
        result = self._tampered(runner, tmp_path, lambda c: c[table].pop())
        assert result.exit_code == 2
        assert f"{table} has 3 rows, expected 4" in result.output

    def test_final_matrix_shape_mismatch(self, runner, tmp_path):
        def tamper(cert):
            cert["matrix"] = write_scc2020(GradedMatrix([(0, 0)], []))
        result = self._tampered(runner, tmp_path, tamper)
        assert result.exit_code == 2
        assert "final matrix is 1x0" in result.output


class TestGenerate:
    def test_intervals_with_sidecar(self, runner, tmp_path):
        out = tmp_path / "inst.scc2020"
        result = runner.invoke(main, [
            "generate", "--kind", "intervals", "-n", "8", "--seed", "3",
            "-o", str(out),
        ])
        assert result.exit_code == 0
        truth = json.loads(Path(str(out) + ".truth.json").read_text())
        assert truth["schema"] == "mpdec-ground-truth/1"
        assert truth["num_summands"] == 8
        dec = runner.invoke(main, ["decompose", str(out)])
        report = json.loads(dec.output)
        assert report["num_summands"] == 8
        assert sorted(report["signature_digests"]) == truth["signature_digests"]

    def test_random_er(self, runner, tmp_path):
        out = tmp_path / "er.scc2020"
        result = runner.invoke(main, [
            "generate", "--kind", "random-er", "-n", "6", "--rels", "5",
            "-p", "0.4", "--seed", "1", "-o", str(out),
        ])
        assert result.exit_code == 0
        assert out.exists()

    def test_composite_field_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "generate", "--kind", "intervals", "-n", "2", "--field", "4",
            "-o", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2


class TestEnumDec:
    def test_counts(self, runner):
        for k, expected in [(1, "1"), (2, "2"), (3, "7"), (4, "43")]:
            result = runner.invoke(main, ["enum-dec", str(k)])
            assert result.exit_code == 0
            assert result.output.strip() == expected

    def test_rejects_zero(self, runner):
        assert runner.invoke(main, ["enum-dec", "0"]).exit_code == 2


class TestHom:
    def test_staircase_dimensions(self, runner, tmp_path):
        x, y, alpha = staircase_pair()
        xp, yp = tmp_path / "x.scc2020", tmp_path / "y.scc2020"
        xp.write_text(write_scc2020(x))
        yp.write_text(write_scc2020(y))
        result = runner.invoke(main, [
            "hom", str(xp), str(yp), "--alpha", ",".join(map(str, alpha)),
        ])
        assert result.exit_code == 0
        assert "dim Hom = 2" in result.output
        assert "dim Hom^alpha = 1" in result.output

    def test_bad_alpha(self, runner, tmp_path):
        x, y, _ = staircase_pair()
        xp, yp = tmp_path / "x.scc2020", tmp_path / "y.scc2020"
        xp.write_text(write_scc2020(x))
        yp.write_text(write_scc2020(y))
        result = runner.invoke(main, ["hom", str(xp), str(yp),
                                      "--alpha", "one,two"])
        assert result.exit_code == 2

    def test_alpha_of_wrong_dimension(self, runner, tmp_path):
        x, y, _ = staircase_pair()
        xp, yp = tmp_path / "x.scc2020", tmp_path / "y.scc2020"
        xp.write_text(write_scc2020(x))
        yp.write_text(write_scc2020(y))
        result = runner.invoke(main, ["hom", str(xp), str(yp),
                                      "--alpha", "1,2,3"])
        assert result.exit_code == 2
        assert "coordinate" in result.output

    def test_parameter_count_mismatch(self, runner, tmp_path):
        x, _, _ = staircase_pair()
        xp, zp = tmp_path / "x.scc2020", tmp_path / "z.scc2020"
        xp.write_text(write_scc2020(x))
        zp.write_text(write_scc2020(GradedMatrix([(0, 0, 0)], [])))
        result = runner.invoke(main, ["hom", str(xp), str(zp)])
        assert result.exit_code == 2
        assert "parameter counts" in result.output


class TestBench:
    def test_table_and_json(self, runner, tmp_path):
        stats = tmp_path / "bench.json"
        result = runner.invoke(main, [
            "bench", "--kind", "intervals", "-n", "10", "--instances", "2",
            "--stats", str(stats),
        ])
        assert result.exit_code == 0
        assert "vanilla" in result.output
        payload = json.loads(stats.read_text())
        assert payload["schema"] == "mpdec-bench/1"
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert row["summands"] == 10
