"""Command line surface: report parameters, generate matrix files, verify
them, query single entries, and construct witness rows.

Exit codes: 0 success (verify: property holds), 1 verify found a
counterexample, 2 invalid parameters or malformed input, 3 matrix larger than
the bit budget (rows x columns), 4 witness search proved no witness exists.
Data and reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import warnings
from typing import Iterator, Sequence

from .combinatorics import KSubset
from .code_core import (
    BudgetError,
    CodeParams,
    MATERIALIZE_BIT_BUDGET,
    ParameterError,
    RowLabel,
    asymptotic_estimates,
    best_k,
    budgeted_dimensions,
    column_from_rank,
    column_rank,
    dimensions,
    entry,
    row_label_from_rank,
    row_rank_from_label,
)
from .matrix_io import provenance_params, read_matrix, write_construction
from .verification import WitnessSearchError, verify_cover_free, witness_row

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NO_WITNESS = 4

_SET_LITERAL = re.compile(r"\{[^{}]*\}")


def _parse_set(text: str, ground: int) -> KSubset:
    body = text[1:-1].strip()
    if not body:
        raise ValueError("empty set literal")
    try:
        values = [int(part) for part in body.split(",")]
    except ValueError:
        raise ValueError(f"non-integer element in {text!r}") from None
    return KSubset.from_elements(values, ground)


def _parse_family(text: str, ground: int) -> list[KSubset]:
    """Parse one or more set literals separated by ',' or ';'."""
    literals = _SET_LITERAL.findall(text)
    leftover = _SET_LITERAL.sub("", text)
    if leftover.replace(";", "").replace(",", "").strip():
        raise ValueError(f"unexpected text outside set literals: {text!r}")
    if not literals:
        raise ValueError(f"expected set literals like {{1,2,3}}, got {text!r}")
    return [_parse_set(lit, ground) for lit in literals]


def _format_positions(cols: Sequence[int]) -> str:
    return "{" + ",".join(str(c) for c in cols) + "}"


def _cmd_params(args: argparse.Namespace) -> int:
    if args.best_k:
        k_star, t_star = best_k(args.n, args.s, args.l)
        params = CodeParams(args.n, k_star, args.s, args.l)
        extra = {"k_star": k_star, "t_star": t_star}
    else:
        params = CodeParams(args.n, args.k, args.s, args.l)
        extra = {}
    dims = dimensions(params)
    rows_estimate = asymptotic_estimates(params.n, params.s, params.ell)
    if args.json:
        payload = {
            "n": params.n, "k": params.k, "s": params.s, "l": params.ell,
            "num_rows": dims.num_rows, "num_cols": dims.num_cols,
            "column_weight": dims.column_weight, "rate": dims.rate,
            # Strict JSON has no Infinity; an estimate past float range is null.
            "rows_estimate": rows_estimate if math.isfinite(rows_estimate) else None,
            **extra,
        }
        print(json.dumps(payload))
    else:
        parts = [f"n={params.n}", f"k={params.k}", f"s={params.s}", f"l={params.ell}",
                 f"N={dims.num_rows}", f"t={dims.num_cols}",
                 f"w={dims.column_weight}", f"rate={dims.rate:.6g}",
                 f"N_estimate={rows_estimate:.6g}"]
        if extra:
            parts.append(f"k_star={extra['k_star']}")
            parts.append(f"t_star={extra['t_star']}")
        print(" ".join(parts))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    params = CodeParams(args.n, args.k, args.s, args.l)
    dims = budgeted_dimensions(params, args.max_bits)
    write_construction(params, args.out)
    print(f"{args.out}: {dims.num_rows}x{dims.num_cols}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    matrix, provenance = read_matrix(args.file)
    verdict = verify_cover_free(matrix, args.s, args.l,
                                count_witnesses=args.count_witnesses,
                                construction=provenance_params(provenance))
    bad, least = verdict.counterexample, verdict.min_family
    if args.json:
        payload = {"holds": verdict.holds, "s": args.s, "l": args.l,
                   "rows": matrix.num_rows, "cols": matrix.num_cols,
                   "counterexample": bad and {"neg": list(bad.neg_cols),
                                              "pos": list(bad.pos_cols)},
                   "witness_count": verdict.witness_count}
        if args.count_witnesses:
            payload["min_witnesses"] = verdict.witness_count
        payload["mode"] = "full" if verdict.orbits is None else "orbit"
        payload["orbits"] = verdict.orbits
        print(json.dumps(payload))
    else:
        print(f"{'' if verdict.holds else 'NOT '}COVER-FREE ({args.s},{args.l})")
        if bad is not None:
            print(f"neg {_format_positions(bad.neg_cols)}")
            print(f"pos {_format_positions(bad.pos_cols)}")
        if args.count_witnesses:
            print(f"min witnesses {verdict.witness_count} at neg {_format_positions(least.neg_cols)} "
                  f"pos {_format_positions(least.pos_cols)}")
    return EXIT_OK if verdict.holds else EXIT_PROPERTY_FAILS


def _cmd_entry(args: argparse.Namespace) -> int:
    params = CodeParams(args.n, args.k, args.s, args.l)
    if args.row is not None:
        row = RowLabel(tuple(_parse_family(args.row, params.n)))
        row_rank = row_rank_from_label(params, row)
    else:
        row = row_label_from_rank(params, args.row_rank)
        row_rank = args.row_rank
    if args.col is not None:
        col = _parse_family(args.col, params.n)
        if len(col) != 1:
            raise ValueError(f"--col takes a single set literal, got {args.col!r}")
        col = col[0]
        col_rank = column_rank(params, col)
    else:
        col = column_from_rank(params, args.col_rank)
        col_rank = args.col_rank
    bit = entry(params, row, col)
    print(bit)
    print(f"row rank={row_rank} label={row}")
    print(f"col rank={col_rank} set={col}")
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    params = CodeParams(args.n, args.k, args.s, args.l)
    neg = _parse_family(args.neg, params.n)
    pos = _parse_family(args.pos, params.n)
    label = witness_row(params, neg, pos)
    rank = row_rank_from_label(params, label)
    confirmed = (all(entry(params, label, col) == 1 for col in pos)
                 and all(entry(params, label, col) == 0 for col in neg))
    if not confirmed:
        raise WitnessSearchError("constructed witness failed entry validation")
    print(str(label))
    print(f"rank={rank}")
    print(f"verified: 1 on all {len(pos)} positive and 0 on all {len(neg)} negative columns")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcode",
        description="Constant-weight cover-free codes: generate, verify, query.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("n", type=int, help="ground set size")
        p.add_argument("k", type=int, help="column subset size")
        p.add_argument("s", type=int, help="row member subset size")
        p.add_argument("l", type=int, help="subsets per row label")

    p = sub.add_parser("params", help="report exact and asymptotic dimensions")
    add_params_args(p)
    p.add_argument("--best-k", action="store_true",
                   help="ignore k and use the admissible k maximizing the column count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gen", help="write the matrix to a text file as it is built")
    add_params_args(p)
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--max-bits", type=int, default=MATERIALIZE_BIT_BUDGET,
                   help="bound on rows x columns, in bits, checked before anything "
                        "is written")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="exhaustively check the cover-free condition")
    p.add_argument("file", help="matrix file to check")
    p.add_argument("--s", type=int, required=True, help="negative family size")
    p.add_argument("--l", type=int, required=True, help="positive family size")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--count-witnesses", action="store_true",
                   help="also report the least witness multiplicity and the first "
                        "family reaching it (stops at a zero)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("entry", help="compute one matrix entry by rank or label")
    add_params_args(p)
    row_group = p.add_mutually_exclusive_group(required=True)
    row_group.add_argument("--row-rank", type=int, help="0-based row rank")
    row_group.add_argument("--row", help='row label, e.g. "{1,2},{4,5}"')
    col_group = p.add_mutually_exclusive_group(required=True)
    col_group.add_argument("--col-rank", type=int, help="0-based column rank")
    col_group.add_argument("--col", help='column subset, e.g. "{1,2,3}"')
    p.set_defaults(func=_cmd_entry)

    p = sub.add_parser("witness", help="construct a row separating column families")
    add_params_args(p)
    p.add_argument("--neg", required=True,
                   help='columns the witness must avoid, e.g. "{1,2,3};{1,2,4}"')
    p.add_argument("--pos", required=True,
                   help='columns the witness must hit, e.g. "{3,4,5};{1,4,5}"')
    p.set_defaults(func=_cmd_witness)
    return parser


# Parsing never mutates the parser, so main builds it once per process.
_parser = functools.cache(build_parser)


@contextlib.contextmanager
def _exact_int_strings() -> Iterator[None]:
    """Lift the interpreter's digit limit on int/str conversion (Python 3.11,
    and patch releases of earlier versions), so exact counts and ranks of any
    size parse and print; the previous limit is restored on exit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Sequence[str] | None = None) -> int:
    with _exact_int_strings():
        args = _parser().parse_args(argv)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = args.func(args)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            return code
        except ParameterError as exc:
            print(f"error: violated constraint {exc.constraint}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except BudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except WitnessSearchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_WITNESS
        except (ValueError, IndexError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

