import json
import subprocess
import sys

import pytest

from cfcode.cli import main
from cfcode.code_core import CodeParams, materialize
from cfcode.matrix_io import read_matrix
from cfcode.verification import witness_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "params", "5", "3", "2", "2")
        assert code == 0
        assert "N=45" in out and "t=10" in out and "w=24" in out
        assert "rate=0.0738206" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "params", "5", "3", "2", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_rows"] == 45
        assert payload["num_cols"] == 10
        assert payload["column_weight"] == 24
        assert payload["rate"] == pytest.approx(0.0738206, abs=1e-6)

    def test_best_k(self, capsys):
        code, out, _ = run(capsys, "params", "10", "0", "2", "2", "--best-k")
        assert code == 0
        assert "k_star=5" in out and "t_star=252" in out

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "params", "5", "5", "2", "2")
        assert code == 2
        assert "k < n" in err

    def test_degenerate_ell_warns(self, capsys):
        code, out, err = run(capsys, "params", "5", "3", "2", "1")
        assert code == 0
        assert "warning:" in err


@pytest.mark.parametrize("argv", [
    ("entry", "5", "3", "2", "1", "--row-rank", "0", "--col-rank", "0"),
    ("witness", "5", "3", "2", "1", "--neg", "{1,2,3};{1,2,4}", "--pos", "{3,4,5}"),
])
def test_degenerate_ell_warns_once_per_call(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err.count("warning:") == 1


class TestGen:
    def test_writes_expected_file(self, capsys, tmp_path):
        out_file = tmp_path / "x.txt"
        code, out, _ = run(capsys, "gen", "5", "3", "2", "2", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().split("\n")
        assert lines[0] == "cfcode v1"
        assert lines[1] == "45 10"
        assert lines[2] == "# n=5 k=3 s=2 l=2"
        assert lines[3] == "1110110000"
        assert len(lines) == 3 + 45 + 1  # header + comment + rows + final newline split

    def test_round_trips_through_reader(self, capsys, tmp_path):
        out_file = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(out_file))
        matrix, provenance = read_matrix(out_file)
        assert matrix == materialize(CodeParams(5, 3, 2, 2))
        assert provenance == {"n": 5, "k": 3, "s": 2, "ell": 2}

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(a))
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_budget_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "5", "3", "2", "2",
                           "--out", str(tmp_path / "x.txt"), "--max-bits", "10")
        assert code == 3
        assert "budget" in err

    def test_invalid_params_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "4", "3", "2", "3",
                         "--out", str(tmp_path / "x.txt"))
        assert code == 2


class TestVerify:
    @pytest.fixture()
    def generated(self, capsys, tmp_path):
        out_file = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(out_file))
        return out_file

    def test_holds(self, capsys, generated):
        code, out, _ = run(capsys, "verify", str(generated), "--s", "2", "--l", "2")
        assert code == 0
        assert out.startswith("COVER-FREE (2,2)")

    def test_holds_json(self, capsys, generated):
        code, out, _ = run(capsys, "verify", str(generated),
                           "--s", "2", "--l", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["counterexample"] is None

    def test_all_ones_fails(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("cfcode v1\n2 3\n111\n111\n")
        code, out, _ = run(capsys, "verify", str(path), "--s", "1", "--l", "1")
        assert code == 1
        assert "NOT COVER-FREE (1,1)" in out
        assert "neg {1}" in out and "pos {2}" in out

    def test_failure_json_counterexample(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("cfcode v1\n2 3\n111\n111\n")
        code, out, _ = run(capsys, "verify", str(path),
                           "--s", "1", "--l", "1", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["counterexample"] == {"neg": [1], "pos": [2]}

    def test_family_too_large_exit_2(self, capsys, generated):
        code, _, err = run(capsys, "verify", str(generated), "--s", "2", "--l", "9")
        assert code == 2

    def test_malformed_file_exit_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cfcode v1\n2 3\n111\n11\n")
        code, _, err = run(capsys, "verify", str(path), "--s", "1", "--l", "1")
        assert code == 2
        assert "line 4" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "none.txt"),
                         "--s", "1", "--l", "1")
        assert code == 2

    def test_thread_counts_agree(self, capsys, generated):
        code1, out1, _ = run(capsys, "verify", str(generated),
                             "--s", "2", "--l", "2", "--threads", "1")
        code8, out8, _ = run(capsys, "verify", str(generated),
                             "--s", "2", "--l", "2", "--threads", "8")
        assert (code1, out1) == (code8, out8)

    def test_count_witnesses(self, capsys, generated):
        code, out, _ = run(capsys, "verify", str(generated),
                           "--s", "2", "--l", "2", "--count-witnesses")
        assert code == 0
        assert "min witnesses" in out

    def test_count_witnesses_reports_the_minimum(self, capsys, generated):
        matrix, _ = read_matrix(generated)
        counts = list(witness_counts(matrix, 2, 2))
        least = min(c for _, c in counts)
        first = next(q for q, c in counts if c == least)
        code, out, _ = run(capsys, "verify", str(generated), "--s", "2", "--l", "2",
                           "--count-witnesses", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness_count"] == payload["min_witnesses"] == least
        code, out, _ = run(capsys, "verify", str(generated), "--s", "2", "--l", "2",
                           "--count-witnesses")
        assert out.splitlines()[1] == (
            f"min witnesses {least} at neg {{{','.join(map(str, first.neg_cols))}}} "
            f"pos {{{','.join(map(str, first.pos_cols))}}}")


class TestEntry:
    def test_by_label(self, capsys):
        code, out, _ = run(capsys, "entry", "5", "3", "2", "2",
                           "--row", "{1,2},{4,5}", "--col", "{1,2,3}")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_by_rank(self, capsys):
        code, out, _ = run(capsys, "entry", "5", "3", "2", "2",
                           "--row-rank", "0", "--col-rank", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1"
        assert "label={1,2},{1,3}" in lines[1]
        assert "set={1,2,3}" in lines[2]

    def test_zero_entry(self, capsys):
        code, out, _ = run(capsys, "entry", "5", "3", "2", "2",
                           "--row", "{1,4},{2,5}", "--col", "{1,2,3}")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_rank_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "entry", "5", "3", "2", "2",
                           "--row-rank", "45", "--col-rank", "0")
        assert code == 2
        assert "45" in err and "outside" in err

    def test_bad_label_syntax_exit_2(self, capsys):
        code, _, _ = run(capsys, "entry", "5", "3", "2", "2",
                         "--row", "1,2", "--col", "{1,2,3}")
        assert code == 2

    def test_whitespace_tolerant(self, capsys):
        code, out, _ = run(capsys, "entry", "5", "3", "2", "2",
                           "--row", " {1, 2} , {4, 5} ", "--col", "{ 1,2,3 }")
        assert code == 0
        assert out.splitlines()[0] == "1"


class TestWitness:
    def test_two_member_family(self, capsys):
        code, out, _ = run(capsys, "witness", "5", "3", "2", "2",
                           "--neg", "{1,2,3};{1,2,4}", "--pos", "{3,4,5};{1,4,5}")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "{3,4},{1,5}"
        assert lines[1].startswith("rank=")
        assert lines[2].startswith("verified:")

    def test_shared_column_exit_2(self, capsys):
        code, _, _ = run(capsys, "witness", "5", "3", "2", "2",
                         "--neg", "{1,2,3};{1,2,4}", "--pos", "{1,2,3};{1,4,5}")
        assert code == 2

    def test_impossible_family_exit_4(self, capsys):
        code, _, err = run(capsys, "witness", "4", "3", "1", "2",
                           "--neg", "{1,2,3}", "--pos", "{1,2,4};{1,3,4}")
        assert code == 4
        assert "no witness row exists" in err

    def test_shared_member_witness_at_large_n(self, capsys):
        # Both positives' only escaping pair is {2,3}, so no witness gives
        # each positive a member of its own, and the row count C(1770,2)
        # rules out a scan of all labels; a witness still exists.
        neg = [tuple(range(3, 61)), (2,) + tuple(range(4, 61))]
        pos = [(2, 3) + tuple(range(5, 61)), (2, 3, 4) + tuple(range(6, 61))]

        def family(cols):
            return ";".join("{" + ",".join(map(str, c)) + "}" for c in cols)

        code, out, _ = run(capsys, "witness", "60", "58", "2", "2",
                           "--neg", family(neg), "--pos", family(pos))
        assert code == 0
        label = out.splitlines()[0]
        for cols, bit in ((neg, "0"), (pos, "1")):
            for col in cols:
                code, out, _ = run(capsys, "entry", "60", "58", "2", "2",
                                   "--row", label, "--col", family([col]))
                assert code == 0
                assert out.splitlines()[0] == bit

    def test_witness_reusable_as_entry_row(self, capsys):
        code, out, _ = run(capsys, "witness", "5", "3", "2", "2",
                           "--neg", "{1,2,3};{1,2,4}", "--pos", "{3,4,5};{1,4,5}")
        label = out.splitlines()[0]
        code, out, _ = run(capsys, "entry", "5", "3", "2", "2",
                           "--row", label, "--col", "{3,4,5}")
        assert code == 0
        assert out.splitlines()[0] == "1"


class TestModuleInvocation:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfcode", "params", "5", "3", "2", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "N=45" in proc.stdout
