import ast
import contextlib
import hashlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from reference import piped, scan_summary, witness_count, witness_counts

import cfcode
from cfcode.cli import main
from cfcode import cli, code_core, matrix_io
from cfcode.code_core import CodeParams, ParameterWarning, RowLabel, materialize
from cfcode.combinatorics import KSubset
from cfcode.matrix_io import read_matrix


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

    def test_best_k_invalid_s_exit_2(self, capsys):
        code, _, err = run(capsys, "params", "10", "0", "0", "2", "--best-k")
        assert code == 2
        assert "s >= 1" in err

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "params", "5", "5", "2", "2")
        assert code == 2
        assert "k < n" in err

    def test_degenerate_ell_warns(self, capsys):
        code, out, err = run(capsys, "params", "5", "3", "2", "1")
        assert code == 0
        assert "warning:" in err

    def test_estimate_past_float_range(self, capsys):
        # n**(s*l) / (s!**l * l!) is about 3e1269 here, past float range.
        code, out, _ = run(capsys, "params", "1000", "500", "3", "200")
        assert code == 0
        assert "N_estimate=inf" in out.split()
        code, out, _ = run(capsys, "params", "1000", "500", "3", "200", "--json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        payload = json.loads(out, parse_constant=reject)
        assert payload["rows_estimate"] is None
        assert payload["num_cols"] == math.comb(1000, 500)

    def test_label_longer_than_member_count_exit_2(self, capsys, tmp_path):
        # C(4,1) = 4 singletons cannot fill a label of 5, so no row exists.
        code, _, err = run(capsys, "params", "4", "2", "1", "5")
        assert code == 2
        assert "ell <= C(n,s)" in err
        out_file = tmp_path / "x.txt"
        code, _, err = run(capsys, "gen", "4", "2", "1", "5", "--out", str(out_file))
        assert code == 2
        assert "ell <= C(n,s)" in err and not out_file.exists()


@contextlib.contextmanager
def unlimited_int_digits():
    """Let the test itself convert ints of any length to and from strings;
    the CLI runs outside this block, under the interpreter's own limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestExactCountsPastDigitLimit:
    """Counts and ranks past Python's default 4,300-digit conversion limit."""

    def test_params_prints_exact_counts(self, capsys):
        code, out, _ = run(capsys, "params", "20000", "10000", "2", "2")
        assert code == 0
        fields = dict(part.split("=", 1) for part in out.split())
        t = math.comb(20000, 10000)
        with unlimited_int_digits():
            assert len(str(t)) > 6000
            assert fields["t"] == str(t)
        code, out, _ = run(capsys, "params", "20000", "10000", "2", "2", "--json")
        assert code == 0
        with unlimited_int_digits():
            assert json.loads(out)["num_cols"] == t

    def test_entry_takes_a_5000_digit_rank(self, capsys):
        with unlimited_int_digits():
            rank = str(10**4999 + 12345)
        code, out, _ = run(capsys, "entry", "20000", "10000", "2", "2",
                           "--row-rank", "0", "--col-rank", rank)
        assert code == 0
        col_line = out.splitlines()[2]
        assert col_line.startswith(f"col rank={rank} set={{")
        col = col_line.split(" set=", 1)[1]
        code, out, _ = run(capsys, "entry", "20000", "10000", "2", "2",
                           "--row-rank", "0", "--col", col)
        assert code == 0
        assert out.splitlines()[2] == col_line

    def test_limit_is_restored(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert run(capsys, "params", "20000", "10000", "2", "2")[0] == 0
        assert limit() == before


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

    def test_deep_columns_exit_0(self, capsys, tmp_path):
        # k = 999: a column walk recursing once per element would overflow.
        out_file = tmp_path / "deep.txt"
        code, out, _ = run(capsys, "gen", "1000", "999", "1", "1", "--out", str(out_file))
        assert code == 0 and out.endswith("1000x1000\n")
        lines = out_file.read_text().splitlines()
        assert lines[1] == "1000 1000" and len(lines) == 3 + 1000
        # Column j leaves out element 1000 - j, so row i, member {i + 1}, is 0
        # only at column 999 - i.
        assert all(line.count("0") == 1 and line[999 - i] == "0"
                   for i, line in enumerate(lines[3:]))

    def test_narrow_file_written_from_columns(self, capsys, tmp_path, monkeypatch):
        # Files of at most 256 columns are written level by level as text,
        # building no row, column or transpose. Their bytes are pinned to
        # those the column and row writers wrote: (8,6,2,5), deep l at
        # (7,4,2,6), l = 1 with 12,870 members at (16,15,8,1), and l = 2 with
        # 252 members at (10,9,5,2).
        def refuse(*args, **kwargs):
            raise AssertionError("gen built rows, columns or a transpose")

        for module in (code_core, matrix_io):
            # matrix_io imports neither; a later import is refused too.
            for name in ("construction_rows", "construction_columns"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(code_core, "materialize", refuse)
        monkeypatch.setattr(code_core, "_transpose", refuse)
        path = tmp_path / "x.txt"
        for argv, size, digest in (
                (("8", "6", "2", "5"), "98280x28",
                 "09e7868a1af1bb6f800fe068e317509578ab157f5bd3556e6572df053b668448"),
                (("7", "4", "2", "6"), "54264x35",
                 "2e645245ce8f36f178096eb5f25ee458ec11a97d35346ea03cab137257fc162d"),
                (("16", "15", "8", "1"), "12870x16",
                 "ade3c1d36d5b8baf7bd6ee0014c6b7b4582eb60b511e8894390ec180f29b1da2"),
                (("10", "9", "5", "2"), "31626x10",
                 "a65392a9f1ef292c97b5b5ee9a093f4b05a87f8b32b5ba20e2a1c3565fc003ca")):
            code, out, _ = run(capsys, "gen", *argv, "--out", str(path))
            assert code == 0 and out.endswith(f"{size}\n")
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_wide_file_written_without_rows_or_transpose(self, capsys, tmp_path, monkeypatch):
        # Files past 256 columns are written row by row from the member
        # patterns, column 0 on top, with no construction_rows and no
        # transpose. Their bytes are pinned to those the reversing row
        # writer wrote: l = 2 and l = 3 at 462 columns, and l = 999 at 1,000.
        def refuse(*args, **kwargs):
            raise AssertionError("gen built construction rows or a transpose")

        for module in (code_core, matrix_io):
            monkeypatch.setattr(module, "construction_rows", refuse, raising=False)
        monkeypatch.setattr(code_core, "_transpose", refuse)
        path = tmp_path / "x.txt"
        for argv, size, digest in (
                (("11", "5", "2", "2"), "1485x462",
                 "36b7fc82072d0bfc6d7d7a9596399f0655debd6a58b3d853eff8420602d7d067"),
                (("11", "5", "2", "3"), "26235x462",
                 "c26d9028d6b5d7dc858e01ed72d58db43df82458ffae80b8f7be5c90c682bfea"),
                (("1000", "999", "1", "999"), "1000x1000",
                 "b4bef1a5065a6c368e150e14af4167008838a27eb0e06f05730915737d9dc3af")):
            code, out, _ = run(capsys, "gen", *argv, "--out", str(path))
            assert code == 0 and out.endswith(f"{size}\n")
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_writes_through_write_matrix(self, capsys, tmp_path, monkeypatch):
        # gen writes the matrix of its params, no bit built, through
        # write_matrix on both writer sides, so a tracer of that layer sees
        # every file gen writes.
        calls = []
        write = cli.write_matrix

        def record(matrix, path, params=None):
            calls.append((matrix, params))
            write(matrix, path, params)

        monkeypatch.setattr(cli, "write_matrix", record)
        path = tmp_path / "x.txt"
        for argv, digest in (
                (("8", "6", "2", "5"),
                 "09e7868a1af1bb6f800fe068e317509578ab157f5bd3556e6572df053b668448"),
                (("11", "5", "2", "3"),
                 "c26d9028d6b5d7dc858e01ed72d58db43df82458ffae80b8f7be5c90c682bfea")):
            calls.clear()
            code, _, _ = run(capsys, "gen", *argv, "--out", str(path))
            params = CodeParams(*map(int, argv))
            assert code == 0 and len(calls) == 1
            matrix, written = calls[0]
            assert matrix.construction == written == params
            assert matrix._rows is None and matrix._cols is None
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, bound", [(("8", "6", "2", "5"), 5 << 18),
                                             (("12", "11", "6", "2"), 1 << 20)],
                             ids=["8,6,2,5", "12,11,6,2"])
    def test_narrow_file_holds_two_levels(self, capsys, tmp_path, argv, bound):
        # (8,6,2,5) holds its level of 17,550 4-families of 29 bytes, about
        # 0.5 MB; (12,11,6,2) only its 924 member lines of 13 bytes.
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "gen", *argv, "--out", str(tmp_path / "x.txt"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound

    def test_wide_file_streams_rows(self, capsys, tmp_path):
        # (12,6,2,3) is 45,760 rows of 924 columns: about 7.2 MB as a row list.
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "gen", "12", "6", "2", "3", "--out", str(tmp_path / "x.txt"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 << 20

    def test_budget_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "5", "3", "2", "2",
                           "--out", str(tmp_path / "x.txt"), "--max-bits", "10")
        assert code == 3
        assert "budget" in err

    def test_budget_refusal_opens_nothing(self, capsys, tmp_path):
        # The bound is checked before the output is opened: a missing path is
        # not made, and an existing file keeps its bytes.
        old = tmp_path / "old.txt"
        old.write_bytes(b"old bytes\n")
        for path in (tmp_path / "new.txt", old):
            code, _, _ = run(capsys, "gen", "5", "3", "2", "2", "--out", str(path),
                             "--max-bits", "10")
            assert code == 3
        assert not (tmp_path / "new.txt").exists()
        assert old.read_bytes() == b"old bytes\n"

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
        _, least, (neg, pos) = scan_summary(matrix.rows, matrix.num_cols, 2, 2)
        code, out, _ = run(capsys, "verify", str(generated), "--s", "2", "--l", "2",
                           "--count-witnesses", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness_count"] == payload["min_witnesses"] == least
        code, out, _ = run(capsys, "verify", str(generated), "--s", "2", "--l", "2",
                           "--count-witnesses")
        assert out.splitlines()[1] == (
            f"min witnesses {least} at neg {{{','.join(map(str, neg))}}} "
            f"pos {{{','.join(map(str, pos))}}}")


    def test_non_ascii_byte_exit_2_with_line(self, capsys, tmp_path):
        # The byte sits past the first block of 32 KiB of rows.
        lines = ["cfcode v1", "8000 5"] + ["00000"] * 8000
        lines[7001] = "00\xe900"
        path = tmp_path / "bad.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        code, _, err = run(capsys, "verify", str(path), "--s", "1", "--l", "1")
        assert code == 2
        assert err.startswith("error: line 7002: ")

    def test_verifies_without_a_transpose(self, capsys, tmp_path, monkeypatch):
        # The generated file is recognised by its bytes and decided by the
        # escaping count with no bit built (orbit mode); the bare file is read
        # straight into columns (full mode). Neither transposes.
        path = tmp_path / "x.txt"
        run(capsys, "gen", "8", "5", "2", "3", "--out", str(path))
        bare = tmp_path / "bare.txt"
        bare.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                if not line.startswith("#")))

        def refuse(*args):
            raise AssertionError("verify transposed a matrix")

        monkeypatch.setattr(code_core, "_transpose", refuse)
        for file, mode in ((path, "orbit"), (bare, "full")):
            code, out, _ = run(capsys, "verify", str(file), "--s", "2", "--l", "2", "--json")
            assert code == 0
            assert json.loads(out)["mode"] == mode


class TestVerifyMode:
    """Orbit mode runs only on a file equal to the code its provenance header
    names; every other file gets the full walk, with the same report."""

    @staticmethod
    def _verify_json(capsys, path, s, ell):
        code, out, err = run(capsys, "verify", str(path), "--s", str(s), "--l", str(ell),
                             "--count-witnesses", "--json")
        return code, json.loads(out), err

    @staticmethod
    def _lines(path):
        return Path(path).read_text().splitlines(keepends=True)

    def test_many_members_compare_rows_in_little_memory(self, capsys, tmp_path):
        # (16,15,8,1) has 12,870 members but 16 columns: the members' rows
        # alone would be about 10 MB, the matrix's rows about 0.5 MB. A piped
        # file is copied to a temporary file and compared with gen's bytes.
        path = tmp_path / "x.txt"
        run(capsys, "gen", "16", "15", "8", "1", "--out", str(path))
        with pytest.warns(ParameterWarning):
            params = CodeParams(16, 15, 8, 1)
        with piped(path.read_bytes()) as fd_path:
            tracemalloc.start()
            try:
                matrix, _ = read_matrix(fd_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert matrix.construction == params
        assert peak < 4 << 20

    def test_generated_file_runs_in_orbit_mode(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(path))
        code, payload, _ = self._verify_json(capsys, path, 2, 2)
        assert code == 0
        assert payload["mode"] == "orbit" and payload["orbits"] == 2
        # The header's (s, l) need not be the checked (s, l).
        code, payload, _ = self._verify_json(capsys, path, 1, 1)
        assert payload["mode"] == "orbit" and payload["orbits"] == 1

    def test_flipped_bit_runs_in_full_mode(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "1", "--out", str(path))
        matrix, _ = read_matrix(path)
        # Clear one bit of the only witness row of some family.
        neg, pos = next(f for f, c in witness_counts(matrix.rows, matrix.num_cols, 2, 1)
                        if c == 1)
        row = next(i for i, r in enumerate(matrix.rows) if witness_count([r], neg, pos))
        lines = self._lines(path)
        line = lines[3 + row]
        col = pos[0] - 1
        assert line[col] == "1"
        lines[3 + row] = line[:col] + "0" + line[col + 1:]
        path.write_text("".join(lines))
        matrix, provenance = read_matrix(path)
        assert provenance == {"n": 5, "k": 3, "s": 2, "ell": 1}
        first_fail, least, _ = scan_summary(matrix.rows, matrix.num_cols, 2, 1)
        assert first_fail is not None
        code, payload, _ = self._verify_json(capsys, path, 2, 1)
        assert code == 1
        assert payload["mode"] == "full" and payload["orbits"] is None
        assert payload["holds"] is False and payload["min_witnesses"] == least == 0
        assert (tuple(payload["counterexample"]["neg"]),
                tuple(payload["counterexample"]["pos"])) == first_fail

    def test_unmatched_or_missing_header_runs_in_full_mode(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(path))
        lines = self._lines(path)
        bare = tmp_path / "bare.txt"
        bare.write_text("".join(lines[:2] + lines[3:]))
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("".join(lines[:2] + ["# n=6 k=3 s=2 l=2\n"] + lines[3:]))
        reports = {}
        for name in ("x.txt", "bare.txt", "wrong.txt"):
            code, out, _ = run(capsys, "verify", str(tmp_path / name), "--s", "2",
                               "--l", "2", "--count-witnesses")
            reports[name] = code, out
            code, payload, _ = self._verify_json(capsys, tmp_path / name, 2, 2)
            assert payload["mode"] == ("orbit" if name == "x.txt" else "full")
        # The text report is the same in both modes.
        assert reports["x.txt"] == reports["bare.txt"] == reports["wrong.txt"]

    def test_more_orderings_than_families_runs_in_full_mode(self, capsys, tmp_path):
        # s = 8 on 10 columns: 8! = 40320 orderings per key, C(10,8) = 45 families.
        path = tmp_path / "x.txt"
        run(capsys, "gen", "5", "3", "2", "2", "--out", str(path))
        bare = tmp_path / "bare.txt"
        lines = self._lines(path)
        bare.write_text("".join(lines[:2] + lines[3:]))
        start = time.perf_counter()
        code, payload, _ = self._verify_json(capsys, path, 8, 2)
        assert time.perf_counter() - start < 2
        assert payload["mode"] == "full" and payload["orbits"] is None
        assert (code, payload) == self._verify_json(capsys, bare, 8, 2)[:2]
        assert code == 1 and payload["counterexample"] == {"neg": list(range(1, 9)),
                                                           "pos": [9, 10]}

    def test_invalid_header_runs_in_full_mode(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("cfcode v1\n2 3\n# n=4 k=2 s=1 l=5\n011\n101\n")
        code, payload, err = self._verify_json(capsys, path, 1, 1)
        assert code == 1 and payload["mode"] == "full"
        assert err == ""

    @pytest.mark.parametrize("content", [
        # ell + s >= n makes CodeParams compare ell + s with C(n,k).
        "cfcode v1\n1 2\n# n=2000000 k=1000000 s=1 l=2000000\n10\n",
        # n equals the column count, so only C(n,k) itself tells the sizes apart.
        "cfcode v1\n0 2000000\n# n=2000000 k=1000000 s=1 l=1\n",
    ], ids=["params-edge", "column-count"])
    def test_huge_header_binomial_is_never_built(self, capsys, tmp_path, content):
        # C(2000000, 1000000) has about 600,000 digits; building it took tens of seconds.
        path = tmp_path / "x.txt"
        path.write_text(content)
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", str(path), "--s", "1", "--l", "1")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == "NOT COVER-FREE (1,1)\nneg {1}\npos {2}\n"

    @pytest.mark.parametrize("header", ["", "# n=200000 k=199999 s=1 l=1\n"],
                             ids=["bare", "headered"])
    def test_large_s_fails_at_once(self, capsys, tmp_path, header):
        # A negative family's remaining columns take O(t), and s! is built only
        # for a matrix that is the header's construction, so a wide file with
        # a large s fails at its first family.
        path = tmp_path / "x.txt"
        path.write_text(f"cfcode v1\n0 200000\n{header}")
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", str(path), "--s", "100000", "--l", "1")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ("NOT COVER-FREE (100000,1)\n"
                       f"neg {{{','.join(map(str, range(1, 100001)))}}}\npos {{100001}}\n")

    def test_ell_one_header_prints_no_warning(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        _, _, err = run(capsys, "gen", "5", "3", "2", "1", "--out", str(path))
        assert err.count("warning:") == 1
        code, out, err = run(capsys, "verify", str(path), "--s", "2", "--l", "1", "--json")
        assert code == 0 and json.loads(out)["mode"] == "orbit"
        assert "warning:" not in err


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

    @pytest.mark.parametrize("row,col,message", [
        ("{}", "{1,2,3}", "empty set literal"),
        ("{1,x}", "{1,2,3}", "non-integer element in '{1,x}'"),
        ("{1,2}x", "{1,2,3}", "unexpected text outside set literals"),
        (";", "{1,2,3}", "expected set literals"),
        ("{1,2},{4,5}", "{1,2,3};{1,2,4}", "--col takes a single set literal"),
    ])
    def test_parse_errors_exit_2(self, capsys, row, col, message):
        code, _, err = run(capsys, "entry", "5", "3", "2", "2", "--row", row, "--col", col)
        assert code == 2
        assert message in err

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

    def test_label_failing_its_check_exit_4(self, capsys, monkeypatch):
        # {1,2} lies in the negative column {1,2,3}, so the row is 1 there.
        bad = RowLabel((KSubset((1, 2), 5), KSubset((4, 5), 5)))
        monkeypatch.setattr(cli, "witness_row", lambda *args: bad)
        code, out, err = run(capsys, "witness", "5", "3", "2", "2",
                             "--neg", "{1,2,3};{1,2,4}", "--pos", "{3,4,5};{1,4,5}")
        assert code == 4
        assert out == ""
        assert "constructed witness failed entry validation" in err

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

    def test_import_leaves_fractions_out(self):
        # Only a rate past float range needs fractions; params imports it then.
        code = ("import sys, cfcode.cli\n"
                "assert 'fractions' not in sys.modules\n"
                "cfcode.cli.main(['params', '1000', '500', '3', '200'])\n"
                "assert 'fractions' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "rate=0" in proc.stdout.split()


class TestReadme:
    def test_library_example_runs(self):
        # The README's Library code runs as printed and imports only public names.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", library, re.S)
        assert blocks
        for source in blocks:
            tree = ast.parse(source)
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.module == "cfcode"
                        for alias in node.names}
            assert imported and imported <= set(cfcode.__all__)
            exec(compile(tree, "README.md", "exec"), {})
