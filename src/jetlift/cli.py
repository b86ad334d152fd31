"""Command-line interface.

Subcommands: ``dim`` (closed-form dimension), ``zset`` (free cells),
``construct`` (assignment -> verified table), ``verify`` (re-check a stored
table), ``oracle`` (brute-force nullspace cross-check).  Exit codes: 0 on
success, 1 on a mathematical mismatch, 2 on usage or input errors and on
output that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Iterable

from . import lift_space
from .lift_space import (
    DEFAULT_SEED,
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    cell_list_text,
    dimension,
    free_cells,
    read_params,
)
from .multiindex import COUNT_CAP, MAX_COUNT_DIGITS, capped_binomial
from .oracle import (
    DEFAULT_MAX_UNKNOWNS,
    OracleSizeError,
    build_constraints,
    check_iso,
    compare_with_construction,
    dump_matrix,
    nullspace,  # unused here; the benchmark's tracer patches it on this module
)
from .verifier import run_all_checks
from .weil_algebra import AlgebraParams

# ``zset``, ``dim --check-z``, ``construct`` and ``verify`` enumerate every
# table cell, C(k, s) rows of C(r + k, r) monomials; larger tables are
# refused before enumerating.
MAX_TABLE_CELLS = 1_000_000
# Every listed monomial is a k-long exponent list: the basis, listed once
# with the cells, and one per cell in the JSON that ``zset``, ``construct``
# and ``verify`` write or read.  Longer listings are refused the same way.
MAX_LISTED_ENTRIES = 10_000_000


class CliError(Exception):
    """Input problem worth exit code 2."""


def _params(args) -> LiftParams:
    try:
        return LiftParams(AlgebraParams(args.r, args.k), args.s)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _check_enumerable(
    params: LiftParams, doing: str = "listing the free cells", as_json: bool = False
) -> None:
    r, k, s = params.algebra.r, params.algebra.k, params.s
    cap = MAX_TABLE_CELLS
    B = capped_binomial(r + k, r, cap)
    cells = capped_binomial(k, s, cap) * B
    if cells > cap:
        raise CliError(f"{doing} would visit more than {cap} table cells")
    # Without a cell no monomial is listed; with one, B is exact.
    if (cells if as_json else B * bool(cells)) * k > MAX_LISTED_ENTRIES:
        raise CliError(f"{doing} would visit more than {MAX_LISTED_ENTRIES} monomial exponents")


def _check_dimension(params: LiftParams) -> None:
    # Bounds C(r + s - 1, s) * C(r + k, r + s) without building a factor
    # past the cap; the second factor is 0 for s > k.
    r, k, s = params.algebra.r, params.algebra.k, params.s
    tail = capped_binomial(r + k, r + s, COUNT_CAP)
    if tail and capped_binomial(r + s - 1, s, COUNT_CAP) * tail > COUNT_CAP:
        raise CliError(f"the dimension has more than {MAX_COUNT_DIGITS} digits")


def _read_input(path: str, cls, what: str, field: str):
    """``cls.from_json_dict`` of the file at ``path``, refused before any
    enumeration when the table is too large."""
    try:
        data = _load_json(path)
        _check_enumerable(read_params(data, what, field), f"reading the {what}", as_json=True)
        return cls.from_json_dict(data)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _too_long() -> CliError:
    # Python 3.11+ refuses str() of an integer past its digit limit.
    return CliError(
        "a table value has a numerator or denominator of more than "
        f"{sys.get_int_max_str_digits()} digits, the limit for writing an integer"
    )


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc


def _write(path: str, write) -> None:
    """``write(path)``, with a file system error reported as a CliError."""
    try:
        write(path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the text ``pieces`` to the file ``out``, or to stdout, one
    piece at a time."""
    if out:

        def write(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)

        _write(out, write)
    else:
        sys.stdout.writelines(pieces)


def _print_report(rep, witnesses: int, stream) -> None:
    """One line per check, by name, then the first ``witnesses`` failures.
    Every line is formed before any is written."""
    failed = Counter(dict.fromkeys(rep.cases, 0))
    failed.update(f.check for f in rep.failures)
    try:
        lines = [
            f"{name}: {'FAIL' if n else 'ok'} ({rep.cases.get(name, 0)} cases, {n} failed)"
            for name, n in sorted(failed.items())
        ] + [
            f"  witness {f.check}: {f.witness!r} expected {f.expected} got {f.actual}"
            for f in rep.failures[:witnesses]
        ]
    except ValueError as exc:
        raise _too_long() from exc
    stream.writelines(line + "\n" for line in lines)


def cmd_dim(args) -> int:
    params = _params(args)
    if args.check_z:
        _check_enumerable(params)
    _check_dimension(params)
    d = dimension(params)
    z = len(free_cells(params)) if args.check_z else None
    if args.json:
        doc = {"r": args.r, "k": args.k, "s": args.s, "dimension": d}
        if z is not None:
            doc["free_cells"] = z
        print(json.dumps(doc))
    elif z is not None:
        print(f"{d} (free cells: {z})")
    else:
        print(d)
    if z is not None and z != d:
        print("error: free-cell count disagrees with the closed form", file=sys.stderr)
        return 1
    return 0


def cmd_zset(args) -> int:
    params = _params(args)
    _check_enumerable(params, as_json=True)
    _emit(cell_list_text(free_cells(params)), args.out)
    return 0


def cmd_construct(args) -> int:
    if args.infile:
        assignment = _read_input(args.infile, CoefficientAssignment, "assignment", "values")
    else:
        if args.r is None or args.k is None or args.s is None:
            raise CliError("--random needs -r, -k and -s")
        params = _params(args)
        _check_enumerable(params, "completing the table", as_json=True)
        seed = DEFAULT_SEED if args.seed is None else args.seed
        assignment = CoefficientAssignment.random(params, seed=seed)
    # Looked up on the module so a wrapper installed on lift_space.construct
    # (perfbench's tracer) also sees the CLI's calls.
    table = lift_space.construct(assignment)
    try:
        text = table.json_text()
    except ValueError as exc:
        raise _too_long() from exc
    _emit(text, args.out)
    rep = run_all_checks(table)
    _print_report(rep, args.witnesses, sys.stdout if args.out else sys.stderr)
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    table = _read_input(args.infile, LiftTable, "table", "cells")
    rep = run_all_checks(table, all_slots=args.all_slots)
    _print_report(rep, args.witnesses, sys.stdout)
    return 0 if rep.passed else 1


def cmd_oracle(args) -> int:
    params = _params(args)
    try:
        system = build_constraints(params, max_unknowns=args.max_unknowns)
    except OracleSizeError as exc:
        raise CliError(str(exc)) from exc
    _check_enumerable(params)
    if args.dump:
        _write(args.dump, lambda path: dump_matrix(system, path))
    iso = check_iso(system)  # first, so a tracer counts the representative pass as the oracle's
    nullity, formula = system.nullity, dimension(params)
    ok = nullity == formula and iso
    print(f"nullspace={nullity} formula={formula} iso={'ok' if iso else 'FAIL'}")
    if args.compare:
        rep = compare_with_construction(system)
        _print_report(rep, args.witnesses, sys.stdout)
        ok = ok and rep.passed
    return 0 if ok else 1


def _add_params(sub, required: bool = True) -> None:
    sub.add_argument("-r", type=int, required=required, help="truncation order")
    sub.add_argument("-k", type=int, required=required, help="variable count")
    sub.add_argument("-s", type=int, required=required, help="arity of the maps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlift",
        description="Exact lift tables on truncated polynomial algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dim", help="closed-form dimension of the lift space")
    _add_params(p)
    p.add_argument("--check-z", action="store_true", help="also count the free cells")
    p.add_argument("--json", action="store_true", help="emit a JSON object")
    p.set_defaults(func=cmd_dim)

    p = subs.add_parser("zset", help="enumerate the free cells")
    _add_params(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_zset)

    p = subs.add_parser("construct", help="complete an assignment to a verified table")
    _add_params(p, required=False)
    p.add_argument("--in", dest="infile", help="assignment JSON to complete")
    p.add_argument("--random", action="store_true", help="use a seeded random assignment")
    p.add_argument("--seed", type=int, help="seed for --random")
    p.add_argument("--out", help="write the table JSON here instead of stdout")
    p.add_argument("--witnesses", type=int, default=10, help="witness lines to print")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("verify", help="run the exhaustive checks on a stored table")
    p.add_argument("--in", dest="infile", required=True, help="table JSON to check")
    p.add_argument("--witnesses", type=int, default=10, help="witness lines to print")
    p.add_argument("--all-slots", action="store_true", help="sweep every slot, not only the last")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("oracle", help="brute-force nullspace cross-check")
    _add_params(p)
    p.add_argument("--compare", action="store_true", help="also compare against the construction")
    p.add_argument("--max-unknowns", type=int, default=DEFAULT_MAX_UNKNOWNS, help="size guard")
    p.add_argument("--dump", help="write the constraint rows to this path")
    p.add_argument("--witnesses", type=int, default=10, help="witness lines to print")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct":
        if bool(args.infile) == bool(args.random):
            parser.error("construct needs exactly one of --in or --random")
        if args.infile and any(v is not None for v in (args.r, args.k, args.s, args.seed)):
            parser.error("construct --in takes no -r, -k, -s or --seed")
    try:
        if getattr(args, "witnesses", 0) < 0:
            raise CliError(f"--witnesses must be non-negative, got {args.witnesses}")
        if getattr(args, "max_unknowns", 0) < 0:
            raise CliError(f"--max-unknowns must be non-negative, got {args.max_unknowns}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # The reader of stdout has gone.  What is still buffered goes to
        # the null device, so the interpreter's final flush does not raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
