import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strreg
from strreg.cli import _build_parser, main
from strreg.text import GenSpec, gen_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_bytes(b"abaababaaba")
    return str(path)


class TestPeriodCommand:
    def test_cds_method(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "period", fig1_file, "--method", "cds")
        assert (code, out) == (0, "5\n")

    def test_classical_on_unary(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_bytes(b"aaaa")
        code, out, _ = run_cli(capsys, "period", str(path), "--method", "classical")
        assert (code, out) == (0, "1\n")

    def test_all_methods_agree(self, capsys, fig1_file):
        outs = {
            run_cli(capsys, "period", fig1_file, "--method", m)[1]
            for m in ("classical", "cds", "naive")
        }
        assert outs == {"5\n"}

    def test_prefix_flag(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "period", fig1_file, "--prefix", "3")
        assert (code, out) == (0, "2\n")  # "aba" has border "a"


class TestCoverCommand:
    def test_cds_method(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "cover", fig1_file, "--method", "cds")
        assert (code, out) == (0, "3\n")

    def test_superprimitive_marker(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"abcd")
        code, out, _ = run_cli(capsys, "cover", str(path))
        assert (code, out) == (0, "4\nsuperprimitive\n")


class TestBordersCommand:
    def test_chain(self, capsys, fig1_file):
        for method in ("classical", "cds"):
            code, out, _ = run_cli(capsys, "borders", fig1_file, "--method", method)
            assert (code, out) == (0, "6 3 1\n")

    def test_empty_chain_prints_empty_line(self, capsys, tmp_path):
        path = tmp_path / "abc.txt"
        path.write_bytes(b"abc")
        code, out, _ = run_cli(capsys, "borders", str(path))
        assert (code, out) == (0, "\n")


class TestSampleCommand:
    def test_golden_json(self, capsys, tmp_path):
        path = tmp_path / "dna.txt"
        path.write_bytes(b"agaacgcagtata")
        code, out, _ = run_cli(capsys, "sample", str(path))
        assert code == 0
        assert out.strip() == '{"m":13,"pivot":"a","m_bar":5,"k":0,"ratio":0.3846}'

    def test_lone_pivot_json(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"a")
        code, out, _ = run_cli(capsys, "sample", str(path))
        assert out.strip() == '{"m":1,"pivot":"a","m_bar":0,"k":0,"ratio":0.0}'
        obj = json.loads(out)
        assert list(obj) == ["m", "pivot", "m_bar", "k", "ratio"]


class TestGenCommand:
    def test_writes_unary(self, capsys, tmp_path):
        out_path = tmp_path / "gen.bin"
        code, _, _ = run_cli(capsys, "gen", "--alphabet", "1", "--length", "4",
                             "--seed", "3", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == b"aaaa"

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for p in (a, b):
            run_cli(capsys, "gen", "--alphabet", "4", "--length", "100",
                    "--seed", "9", "--out", str(p))
        assert a.read_bytes() == b.read_bytes()

    def test_forced_period_bound(self, capsys, tmp_path):
        from strreg.classical import naive_period

        path = tmp_path / "p.bin"
        run_cli(capsys, "gen", "--alphabet", "2", "--length", "100",
                "--seed", "21", "--period", "7", "--out", str(path))
        assert naive_period(path.read_bytes()) <= 7

    def test_invalid_spec(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--alphabet", "0", "--length", "4",
                               "--seed", "3", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "alphabet_size" in err


class TestBenchCommand:
    def test_json_report_written(self, capsys, tmp_path):
        data_path = tmp_path / "data.bin"
        data_path.write_bytes(gen_text(GenSpec(4, 2048, seed=5)))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "bench", str(data_path), "--sizes", "256,2048",
                               "--runs", "2", "--out", str(out_path))
        assert code == 0
        assert "bench:" in out
        obj = json.loads(out_path.read_text())
        assert set(obj) == {"input", "sizes", "runs", "entries", "speedups", "sampling"}
        assert len(obj["entries"]) == 8

    def test_csv_report_written(self, capsys, tmp_path):
        data_path = tmp_path / "data.bin"
        data_path.write_bytes(gen_text(GenSpec(4, 1024, seed=5)))
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "bench", str(data_path), "--sizes", "256",
                             "--runs", "1", "--tasks", "period",
                             "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "task,size,method,mean_ns,median_ns,stddev_ns"
        assert len(lines) == 3

    def test_size_larger_than_file_fails(self, capsys, tmp_path):
        data_path = tmp_path / "small.bin"
        data_path.write_bytes(b"abcabc")
        code, _, err = run_cli(capsys, "bench", str(data_path), "--sizes", "999",
                               "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "999" in err

    def test_bad_sizes_string(self, capsys, tmp_path):
        data_path = tmp_path / "d.bin"
        data_path.write_bytes(b"abcabc")
        code, _, err = run_cli(capsys, "bench", str(data_path), "--sizes", "4,x",
                               "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "--sizes" in err

    def test_sizes_naming_no_size(self, capsys, tmp_path):
        data_path = tmp_path / "d.bin"
        data_path.write_bytes(b"abcabc")
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "bench", str(data_path), "--sizes", ",",
                               "--out", str(out_path))
        assert code == 1
        assert "--sizes" in err
        assert not out_path.exists()


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "period", "/nonexistent/file.bin")
        assert code == 1
        assert "file.bin" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        for cmd in ("period", "cover", "borders", "sample"):
            code, _, err = run_cli(capsys, cmd, str(path))
            assert code == 2
            assert "empty" in err

    def test_zero_prefix(self, capsys, fig1_file):
        code, _, _ = run_cli(capsys, "period", fig1_file, "--prefix", "0")
        assert code == 1

    def test_bad_method(self, capsys, fig1_file):
        code, _, _ = run_cli(capsys, "period", fig1_file, "--method", "bogus")
        assert code == 1
        # borders has no naive route: argparse must refuse it before dispatch.
        code, _, _ = run_cli(capsys, "borders", fig1_file, "--method", "naive")
        assert code == 1

    def test_missing_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_parser_built_once(self, capsys, fig1_file):
        _build_parser.cache_clear()
        run_cli(capsys, "period", fig1_file)
        run_cli(capsys, "cover", fig1_file)
        assert _build_parser.cache_info().misses == 1

    def test_subprocess_exit_codes(self, tmp_path):
        # The same table through a real process boundary, in a child that
        # imports the strreg under test, installed or not.
        src = str(Path(strreg.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        ok = tmp_path / "ok.bin"
        ok.write_bytes(b"abab")
        runs = [
            (["period", str(ok)], 0),
            (["period", str(tmp_path / "missing.bin")], 1),
            (["period", str(empty)], 2),
        ]
        for argv, expected in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "strreg.cli", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == expected, (argv, proc.stderr)


class TestDifferentialSmall:
    def test_methods_agree_on_random_files(self, capsys, tmp_path):
        path = tmp_path / "case.bin"
        for idx in range(40):
            sigma = (2, 3, 4, 26)[idx % 4]
            path.write_bytes(gen_text(GenSpec(sigma, 1 + (idx * 13) % 200, seed=idx)))
            periods = {
                run_cli(capsys, "period", str(path), "--method", m)[1]
                for m in ("classical", "cds", "naive")
            }
            covers = {
                run_cli(capsys, "cover", str(path), "--method", m)[1]
                for m in ("classical", "cds", "naive")
            }
            borders = {
                run_cli(capsys, "borders", str(path), "--method", m)[1]
                for m in ("classical", "cds")
            }
            assert len(periods) == 1 and len(covers) == 1 and len(borders) == 1
