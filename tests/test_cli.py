"""Command-line surface: output shapes, exit codes, file round-trips."""

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    construct,
    dimension,
    free_cells,
)
from jetlift.cli import MAX_LISTED_ENTRIES, MAX_TABLE_CELLS, CliError, _print_report, main
from jetlift.multiindex import MAX_COUNT_DIGITS
from jetlift.oracle import DEFAULT_MAX_UNKNOWNS
from jetlift.rationals import MAX_DECIMAL_EXPONENT, MAX_RATIONAL_DIGITS
from jetlift.verifier import Failure, VerificationReport
from support import reference_run_all_checks

ROOT = Path(__file__).resolve().parent.parent
P121 = LiftParams(AlgebraParams(1, 2), 1)

UNIT_ASSIGNMENT = {
    "r": 1,
    "k": 2,
    "s": 1,
    "values": [
        {"i": [1], "alpha": [0, 0], "c": "0"},
        {"i": [1], "alpha": [0, 1], "c": "1"},
        {"i": [2], "alpha": [0, 0], "c": "0"},
    ],
}


# -- dim ---------------------------------------------------------------------


def test_dim_plain(capsys):
    assert main(["dim", "-r", "1", "-k", "2", "-s", "1"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_dim_with_free_cell_count(capsys):
    assert main(["dim", "-r", "1", "-k", "2", "-s", "1", "--check-z"]) == 0
    assert capsys.readouterr().out == "3 (free cells: 3)\n"


def test_dim_json(capsys):
    assert main(["dim", "-r", "2", "-k", "3", "-s", "2", "--json", "--check-z"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"r": 2, "k": 3, "s": 2, "dimension": 15, "free_cells": 15}


def test_dim_rejects_bad_parameters(capsys):
    assert main(["dim", "-r", "-1", "-k", "2", "-s", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# Far past the enumeration cap: C(10^9, 3)·C(10^9 + 30, 30) table cells, and
# C(10^5, 2) rows of the single monomial at r = 0 (dimension 0 there).
HUGE_TABLES = [["-r", "30", "-k", "1000000000", "-s", "3"], ["-r", "0", "-k", "100000", "-s", "2"]]


@pytest.mark.parametrize("params", HUGE_TABLES)
@pytest.mark.parametrize("command", [["dim", "--check-z"], ["zset"]])
def test_free_cell_enumeration_is_refused_past_the_cap(capsys, command, params):
    assert main([*command, *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: listing the free cells would visit more than {MAX_TABLE_CELLS} table cells\n"
    )


@pytest.mark.parametrize("command", [["oracle"], ["oracle", "--compare"]])
def test_oracle_refuses_a_free_cell_listing_past_the_cap(capsys, command):
    # At r = 0 the unknown guard passes any k; check_iso would list C(k, s) rows.
    assert main([*command, *HUGE_TABLES[1]]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: listing the free cells would visit more than {MAX_TABLE_CELLS} table cells\n",
    )


def test_oracle_answers_at_r_zero_with_a_hundred_thousand_variables(capsys):
    assert main(["oracle", "-r", "0", "-k", "100000", "-s", "1"]) == 0
    assert capsys.readouterr() == ("nullspace=0 formula=0 iso=ok\n", "")


def test_commands_answer_without_variables_at_a_huge_order(capsys):
    # With k = 0 only degree 0 exists, so no loop may run over the degrees up to r.
    huge = ["-r", str(2**70), "-k", "0"]
    assert main(["oracle", *huge, "-s", "1"]) == 0
    assert capsys.readouterr() == ("nullspace=0 formula=0 iso=ok\n", "")
    assert main(["oracle", *huge, "-s", "0", "--compare"]) == 0
    capsys.readouterr()
    assert main(["zset", *huge, "-s", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == [{"i": [], "alpha": []}]
    assert main(["dim", "--check-z", *huge, "-s", "0"]) == 0
    assert capsys.readouterr().out == "1 (free cells: 1)\n"


def test_oracle_answers_at_one_variable_with_a_large_order(capsys):
    # At k = 1 the orbits are listed for every degree up to (s + 1) r; each
    # degree has one partition, and its listing must not try the others.
    assert main(["oracle", "-r", "19999", "-k", "1", "-s", "0"]) == 0
    assert capsys.readouterr() == ("nullspace=20000 formula=20000 iso=ok\n", "")


def test_oracle_answers_at_once_with_no_unknowns_at_a_large_arity(capsys):
    # s > C(r + k, r): no combination of s distinct monomials exists, so no
    # block is listed, although multidegrees reach degree (s + 1) r.
    assert main(["oracle", "-r", "3", "-k", "1", "-s", "10000"]) == 0
    assert capsys.readouterr() == ("nullspace=0 formula=0 iso=ok\n", "")


def test_oracle_answers_at_once_with_no_unknowns_at_two_variables(capsys):
    # At k = 2 the orbits up to degree (s + 1) r number about ((s + 1) r)^2 / 4.
    assert main(["oracle", "-r", "1", "-k", "2", "-s", "3000"]) == 0
    assert capsys.readouterr() == ("nullspace=0 formula=0 iso=ok\n", "")


def test_oracle_answers_at_once_with_every_monomial_in_the_combination(capsys):
    # s = C(r + k, r): one combination, the whole basis, so every unknown's
    # degree is at least k and each exponent at most 2; neither the listing
    # of partial combinations nor that of multidegrees may run past that.
    assert main(["oracle", "-r", "1", "-k", "40", "-s", "41"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "nullspace=0 formula=0 iso=ok"


def test_dim_without_check_z_does_not_enumerate(capsys):
    assert main(["dim", "-r", "0", "-k", "100000", "-s", "2"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_dim_with_arity_above_k_skips_the_huge_binomial(capsys):
    # C(r + s - 1, s) has tens of millions of digits here, but the other
    # factor is 0 (s > k), so the closed form never builds it.
    big = "100000000"
    assert main(["dim", "-r", big, "-k", "1", "-s", big, "--check-z"]) == 0
    assert capsys.readouterr().out == "0 (free cells: 0)\n"


def test_dim_refuses_a_dimension_past_the_digit_cap(capsys):
    # C(2·10^8, 10^8 + 1) has about sixty million digits; neither factor
    # is built past the cap.
    big = "100000000"
    assert main(["dim", "-r", big, "-k", big, "-s", "1"]) == 2
    assert capsys.readouterr() == (
        "", f"error: the dimension has more than {MAX_COUNT_DIGITS} digits\n"
    )


def test_dim_digit_cap_is_exact(capsys):
    # At s = 1 and k = r the dimension r·C(2r, r + 1) grows with r; find
    # the last r whose dimension has at most MAX_COUNT_DIGITS digits.
    def dim(r):
        return dimension(LiftParams(AlgebraParams(r, r), 1))

    lo, hi = 1, 20_000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if dim(mid) < 10**MAX_COUNT_DIGITS else (lo, mid)
    assert main(["dim", "-r", str(lo), "-k", str(lo), "-s", "1"]) == 0
    out = capsys.readouterr().out
    assert out == f"{dim(lo)}\n" and len(out) == MAX_COUNT_DIGITS + 1
    assert main(["dim", "-r", str(hi), "-k", str(hi), "-s", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: the dimension has more than")


# -- zset --------------------------------------------------------------------


def test_zset_lists_free_cells_in_order(capsys):
    assert main(["zset", "-r", "1", "-k", "2", "-s", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [
        {"i": [1], "alpha": [0, 0]},
        {"i": [1], "alpha": [0, 1]},
        {"i": [2], "alpha": [0, 0]},
    ]


def test_zset_writes_file(tmp_path, capsys):
    out = tmp_path / "cells.json"
    assert main(["zset", "-r", "1", "-k", "1", "-s", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == [{"i": [1], "alpha": [0]}]
    assert capsys.readouterr().out == ""


# -- construct ---------------------------------------------------------------


def test_construct_from_file(tmp_path, capsys):
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(UNIT_ASSIGNMENT))
    assert main(["construct", "--in", str(src)]) == 0
    captured = capsys.readouterr()
    table = json.loads(captured.out)
    cells = {(tuple(c["i"]), tuple(c["alpha"])): c["v"] for c in table["cells"]}
    assert cells[((2,), (1, 0))] == "-1"
    assert cells[((1,), (0, 1))] == "1"
    assert "leibniz: ok" in captured.err
    assert "truncation: ok" in captured.err


def test_construct_to_file_reports_on_stdout(tmp_path, capsys):
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(UNIT_ASSIGNMENT))
    out = tmp_path / "table.json"
    assert main(["construct", "--in", str(src), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "truncation: ok" in captured.out
    stored = json.loads(out.read_text())
    assert stored["r"] == 1 and len(stored["cells"]) == 6


def test_construct_random_is_seed_deterministic(capsys):
    args = ["construct", "-r", "2", "-k", "2", "-s", "2", "--random", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(args[:-1] + ["8"]) == 0
    assert capsys.readouterr().out != first


def test_construct_rejects_bad_assignment_file(tmp_path, capsys):
    bad = dict(UNIT_ASSIGNMENT, values=UNIT_ASSIGNMENT["values"][:2])
    src = tmp_path / "short.json"
    src.write_text(json.dumps(bad))
    assert main(["construct", "--in", str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def _too_long_assignment(tmp_path) -> Path:
    # Free values with ~3,000-digit denominators pass the input cap, but
    # bound cells sum several of them and their denominators pass Python's
    # limit for writing an integer.
    params = LiftParams(AlgebraParams(2, 3), 1)
    big = 10**2990
    values = [
        {"i": list(c.axes), "alpha": list(c.alpha), "c": f"1/{big + n}"}
        for n, c in enumerate(free_cells(params))
    ]
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps({"r": 2, "k": 3, "s": 1, "values": values}))
    return src


def _assert_too_long(code, captured):
    # No huge number is printed on failure, and no JSON is written.
    assert code == 2
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        "error: a table value has a numerator or denominator of more than "
        f"{limit} digits, the limit for writing an integer\n"
    )


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_construct_refuses_values_past_the_digit_limit(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["construct", "--in", str(_too_long_assignment(tmp_path)), "--out", str(out)])
    _assert_too_long(code, capsys.readouterr())
    assert not out.exists()


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_construct_to_stdout_refuses_values_past_the_digit_limit(tmp_path, capsys):
    code = main(["construct", "--in", str(_too_long_assignment(tmp_path))])
    _assert_too_long(code, capsys.readouterr())


# s = 0 ("i": []), k = 0 ("alpha": []), s > k (no cell), and bound cells.
WRITER_POINTS = [(2, 2, 0), (1, 0, 0), (2, 2, 3), (2, 3, 2), (3, 2, 1)]


@pytest.mark.parametrize("point", WRITER_POINTS, ids=lambda p: "r={} k={} s={}".format(*p))
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "--out"])
def test_written_json_is_json_dumps_with_indent_two(tmp_path, capsys, point, to_file):
    # Free values of both signs, every third with ~3,900 digits; bound
    # cells sum a few of them.
    r, k, s = point
    params = LiftParams(AlgebraParams(r, k), s)
    big = 10**3899
    values = {
        c: Fraction((-1) ** (n + 1) * (big * (n % 3 == 0) + n + 1), 1 + n % 4)
        for n, c in enumerate(free_cells(params))
    }
    assignment = CoefficientAssignment(params, values)
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(assignment.to_json_dict()))
    table_doc = construct(assignment).to_json_dict()
    if table_doc["cells"]:
        written = [c["v"] for c in table_doc["cells"]]
        assert any(v.startswith("-") for v in written)
        assert max(map(len, written)) >= 3900
    zset_doc = [{"i": list(c.axes), "alpha": list(c.alpha)} for c in free_cells(params)]
    zset = ["zset", "-r", str(r), "-k", str(k), "-s", str(s)]
    for argv, doc in ((["construct", "--in", str(src)], table_doc), (zset, zset_doc)):
        out = tmp_path / "out.json"
        code = main(argv + (["--out", str(out)] if to_file else []))
        text = capsys.readouterr().out
        if to_file:
            text = out.read_bytes().decode("utf-8")
            out.unlink()
        assert code == 0
        assert text == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "field,value",
    [
        ("r", 1.9),
        ("r", True),
        ("s", "1"),
        ("i", [1.7]),
        ("alpha", [0.2, 1]),
        ("i", [True]),
        ("alpha", [0, 1.0]),
        ("i", ["1"]),
    ],
)
def test_inputs_with_non_integer_fields_exit_two(tmp_path, capsys, field, value):
    """Exit 2, naming the field and its first entry that is not an int."""
    bad = next(x for x in value if type(x) is not int) if isinstance(value, list) else value
    message = f"error: {field} must be an integer, got {bad!r}\n"
    doc = json.loads(json.dumps(UNIT_ASSIGNMENT))
    if field in doc:
        doc[field] = value
    else:
        doc["values"][1][field] = value
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(doc))
    assert main(["construct", "--in", str(src)]) == 2
    assert capsys.readouterr().err == message

    table = construct(CoefficientAssignment.from_json_dict(UNIT_ASSIGNMENT)).to_json_dict()
    if field in table:
        table[field] = value
    else:
        table["cells"][1][field] = value
    src.write_text(json.dumps(table))
    assert main(["verify", "--in", str(src)]) == 2
    assert capsys.readouterr().err == message


def test_construct_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-r", "1", "-k", "1", "-s", "1"])
    assert exc.value.code == 2
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(UNIT_ASSIGNMENT))
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--in", str(src), "--random"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra", [["-r", "9"], ["-k", "9"], ["-s", "9"], ["--seed", "3"], ["--seed", "1729"]]
)
def test_construct_from_file_refuses_parameters_and_seed(tmp_path, capsys, extra):
    # The file fixes r, k, s and the values, so these would be ignored.
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(UNIT_ASSIGNMENT))
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--in", str(src), *extra])
    assert exc.value.code == 2
    assert "construct --in takes no -r, -k, -s or --seed" in capsys.readouterr().err


def test_construct_random_needs_parameters(capsys):
    assert main(["construct", "--random"]) == 2
    assert "needs -r, -k and -s" in capsys.readouterr().err


# -- verify ------------------------------------------------------------------


def table_file(tmp_path, corrupt: bool = False):
    table = construct(CoefficientAssignment.random(P121, seed=3))
    if corrupt:
        table = table.with_cell((2,), (1, 0), table.cell((2,), (1, 0)) + 1)
    path = tmp_path / ("bad.json" if corrupt else "good.json")
    path.write_text(json.dumps(table.to_json_dict()))
    return path


def test_verify_passes_a_valid_table(tmp_path, capsys):
    path = table_file(tmp_path)
    assert main(["verify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "skew: ok" in out and "truncation: ok" in out


def test_verify_flags_a_corrupted_table(tmp_path, capsys):
    path = table_file(tmp_path, corrupt=True)
    assert main(["verify", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness" in out


def test_verify_all_slots_flag(tmp_path, capsys):
    path = table_file(tmp_path)
    assert main(["verify", "--in", str(path), "--all-slots"]) == 0
    assert "leibniz: ok" in capsys.readouterr().out


def test_verify_reports_every_basis_tuple_at_333(tmp_path, capsys):
    """The sweeps evaluate only the tuples that can read a cell, but the
    case counts stay the full basis-tuple counts: B^(s+2) product-rule
    tuples and B^(s+1)·C(s,2) + (B^s - B!/(B-s)!)·B skew cases, B = 20."""
    path = tmp_path / "t.json"
    args = ["construct", "--random", "-r", "3", "-k", "3", "-s", "3", "--out", str(path)]
    expected = (
        "leibniz: ok (3200000 cases, 0 failed)\n"
        "skew: ok (503200 cases, 0 failed)\n"
        "truncation: ok (45 cases, 0 failed)\n"
    )
    assert main(args) == 0
    assert capsys.readouterr().out == expected
    assert main(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("extra", [[], ["--all-slots"], ["--witnesses", "1000"]])
def test_verify_output_on_a_corrupted_table_matches_the_reference(tmp_path, capsys, extra):
    params = LiftParams(AlgebraParams(2, 3), 2)
    table = construct(CoefficientAssignment.random(params, seed=5))
    bad = table.with_cell((1, 3), (1, 1, 0), table.cell((1, 3), (1, 1, 0)) + 2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    assert main(["verify", "--in", str(path), *extra]) == 1
    out = capsys.readouterr()
    rep = reference_run_all_checks(bad, all_slots="--all-slots" in extra)
    assert len(rep.failures) > 10
    expected = io.StringIO()
    _print_report(rep, int(extra[1]) if "--witnesses" in extra else 10, expected)
    assert out == (expected.getvalue(), "")


def test_verify_rejects_an_oversized_exponent(tmp_path, capsys):
    doc = construct(CoefficientAssignment.random(P121, seed=3)).to_json_dict()
    doc["cells"][0]["v"] = f"1e{MAX_DECIMAL_EXPONENT + 1}"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: decimal exponent")


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_verify_refuses_a_bound_cell_construct_wrote_past_the_read_cap(tmp_path, capsys):
    # Free values with ~2,100-digit denominators: a bound cell sums two of
    # them, so ``construct`` writes a value of more than the 4,000 digits
    # ``verify`` reads but fewer than the 4,300 it can write.
    params = LiftParams(AlgebraParams(2, 3), 1)
    big = 10**2100
    values = [
        {"i": list(c.axes), "alpha": list(c.alpha), "c": f"1/{big + n}"}
        for n, c in enumerate(free_cells(params))
    ]
    src, table = tmp_path / "assignment.json", tmp_path / "table.json"
    src.write_text(json.dumps({"r": 2, "k": 3, "s": 1, "values": values}))
    assert main(["construct", "--in", str(src), "--out", str(table)]) == 0
    capsys.readouterr()
    longest = max(len(c["v"].split("/")[-1]) for c in json.loads(table.read_text())["cells"])
    assert MAX_RATIONAL_DIGITS < longest <= sys.get_int_max_str_digits()
    assert main(["verify", "--in", str(table)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: a number of ")
    assert err.endswith(f" digits in a rational string; at most {MAX_RATIONAL_DIGITS} accepted\n")


def test_verify_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--in", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_verify_rejects_missing_file(capsys):
    assert main(["verify", "--in", "/nonexistent/table.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def _assert_cannot_write(argv, path, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    assert not Path(path).exists()


def test_oracle_reports_an_unwritable_dump(tmp_path, capsys):
    path = tmp_path / "missing" / "x.mtx"
    argv = ["oracle", "-r", "1", "-k", "1", "-s", "1", "--dump", str(path)]
    _assert_cannot_write(argv, path, capsys)


def test_zset_reports_an_unwritable_out(tmp_path, capsys):
    path = tmp_path / "missing" / "z.json"
    argv = ["zset", "-r", "1", "-k", "1", "-s", "1", "--out", str(path)]
    _assert_cannot_write(argv, path, capsys)


def test_construct_reports_an_unwritable_out(tmp_path, capsys):
    path = tmp_path / "missing" / "t.json"
    argv = ["construct", "--random", "-r", "1", "-k", "1", "-s", "1", "--out", str(path)]
    _assert_cannot_write(argv, path, capsys)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_verify_refuses_witness_values_past_the_digit_limit(tmp_path, capsys):
    # Every cell 1/(10^2500 + odd) passes the input cap, but the table fails
    # and its witness values combine cells with different denominators,
    # past Python's limit for writing an integer.  Nothing is printed
    # before the refusal.
    params = LiftParams(AlgebraParams(2, 3), 1)
    big = 10**2500
    cells = [
        {"i": list(axes), "alpha": list(alpha), "v": f"1/{big + 2 * n + 1}"}
        for n, (axes, alpha) in enumerate(
            (axes, alpha) for axes in params.rows for alpha in params.algebra.basis
        )
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"r": 2, "k": 3, "s": 1, "cells": cells}))
    for extra in ([], ["--all-slots"]):
        assert main(["verify", "--in", str(path), *extra]) == 2
        assert capsys.readouterr() == (
            "",
            "error: a table value has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits, the limit for writing an integer\n",
        )


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_report_printing_refuses_before_writing_anything():
    # The path ``oracle --compare`` takes: a failing report is formatted
    # whole before its first line is written.
    rep = VerificationReport(
        cases={"span": 1},
        failures=[Failure("span", (), Fraction(0), Fraction(1, 10**5000 + 1))],
    )
    stream = io.StringIO()
    with pytest.raises(CliError, match="the limit for writing an integer"):
        _print_report(rep, 10, stream)
    assert stream.getvalue() == ""


# Check names in an unsorted order, and a failing check with no cases entry.
REPORT = VerificationReport(
    cases={"truncation": 3, "leibniz": 27, "skew": 0},
    failures=[
        Failure("leibniz", ((1, 0), 2), Fraction(1, 2), Fraction(-3)),
        Failure("span", (("union", 4),), Fraction(3), Fraction(4)),
        Failure("leibniz", ((0, 1), 1), Fraction(0), Fraction(7, 9)),
    ],
)
REPORT_CHECKS = (
    "leibniz: FAIL (27 cases, 2 failed)\n"
    "skew: ok (0 cases, 0 failed)\n"
    "span: FAIL (0 cases, 1 failed)\n"
    "truncation: ok (3 cases, 0 failed)\n"
)
REPORT_WITNESSES = [
    "  witness leibniz: ((1, 0), 2) expected 1/2 got -3\n",
    "  witness span: (('union', 4),) expected 3 got 4\n",
    "  witness leibniz: ((0, 1), 1) expected 0 got 7/9\n",
]


@pytest.mark.parametrize("witnesses", [0, 2, 3, 1000])
def test_report_prints_the_checks_by_name_then_the_first_witnesses(witnesses):
    stream = io.StringIO()
    _print_report(REPORT, witnesses, stream)
    assert stream.getvalue() == REPORT_CHECKS + "".join(REPORT_WITNESSES[:witnesses])


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_report_printing_refuses_a_long_last_witness_before_writing_anything():
    long = Fraction(10 ** sys.get_int_max_str_digits())
    rep = VerificationReport(
        cases=REPORT.cases, failures=REPORT.failures + [Failure("truncation", (), Fraction(0), long)]
    )
    stream = io.StringIO()
    with pytest.raises(CliError, match="the limit for writing an integer"):
        _print_report(rep, 1000, stream)
    assert stream.getvalue() == ""
    # Past the witness limit the value is never written.
    _print_report(rep, 3, stream)
    checks = REPORT_CHECKS.replace("truncation: ok (3 cases, 0", "truncation: FAIL (3 cases, 1")
    assert stream.getvalue() == checks + "".join(REPORT_WITNESSES)


# -- bounded work ------------------------------------------------------------

# C(60, 30) monomials at (30, 30): listing the basis would not finish.
BIG = ["-r", "30", "-k", "30", "-s", "1"]


@pytest.fixture
def no_basis_listing(monkeypatch):
    def refuse(self):
        raise AssertionError("the monomial basis was listed")

    monkeypatch.setattr(AlgebraParams, "basis", property(refuse))


@pytest.mark.parametrize(
    "command,field,doing",
    [("construct", "values", "reading the assignment"), ("verify", "cells", "reading the table")],
)
def test_large_input_files_are_refused_before_enumerating(
    tmp_path, capsys, no_basis_listing, command, field, doing
):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"r": 30, "k": 30, "s": 1, field: []}))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {doing} would visit more than {MAX_TABLE_CELLS} table cells\n"
    )


def test_large_random_construction_is_refused_before_enumerating(capsys, no_basis_listing):
    assert main(["construct", "--random", *BIG]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: completing the table would visit more than {MAX_TABLE_CELLS} table cells\n",
    )


def test_oracle_guard_answers_without_listing_the_basis(capsys, no_basis_listing):
    assert main(["oracle", *BIG]) == 2
    n = math.comb(60, 30) ** 2
    assert capsys.readouterr() == (
        "",
        f"error: system would have {n} unknowns, above the limit of {DEFAULT_MAX_UNKNOWNS}\n",
    )
    big = "100000000"
    assert main(["oracle", "-r", big, "-k", big, "-s", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: system would have at least 10**{MAX_COUNT_DIGITS} unknowns, "
        f"above the limit of {DEFAULT_MAX_UNKNOWNS}\n"
    )


def test_tables_without_rows_are_checked_without_listing_the_basis(tmp_path, capsys, no_basis_listing):
    # At s > k a table has no row, so its cases are counted in closed form.
    out = tmp_path / "t.json"
    argv = ["construct", "--random", "-r", str(10**30), "-k", "2", "-s", "3", "--out", str(out)]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out == report
    B = math.comb(10**30 + 2, 2)
    assert report == (
        f"leibniz: ok ({B**5} cases, 0 failed)\n"
        f"skew: ok ({B**4 * 3 + (B**3 - math.perm(B, 3)) * B} cases, 0 failed)\n"
        f"truncation: ok ({10**30 + 2} cases, 0 failed)\n"
    )


# B ** (s + 2) past COUNT_CAP: B = 2 with 2 ** 14285 > 10 ** 4300, B = 3 with
# 3 ** 9013 > 10 ** 4300 though its bits alone do not show it, and a
# 2843-digit B.
@pytest.mark.parametrize("params", [(1, 1, 14283), (2, 1, 9011), (10**30, 100, 101)], ids=str)
def test_check_counts_past_the_digit_cap_are_refused_before_forming_them(tmp_path, capsys, params):
    r, k, s = params
    refused = ("", f"error: the check counts have more than {MAX_COUNT_DIGITS} digits\n")
    assert main(["construct", "--random", "-r", str(r), "-k", str(k), "-s", str(s)]) == 2
    assert capsys.readouterr() == refused
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"r": r, "k": k, "s": s, "cells": []}))
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr() == refused


# Under the cell cap, but each listed monomial is a k-long exponent list:
# B·k entries for the basis, cells·k for the JSON a command writes.  Each
# ran for tens of seconds, or out of memory, before the entry cap.
LONG_LISTINGS = [
    (["zset", "-r", "1", "-k", "4000", "-s", "0", "--out", "OUT"], "listing the free cells"),
    (["construct", "--random", "-r", "0", "-k", "400", "-s", "2"], "completing the table"),
    (["construct", "--random", "-r", "0", "-k", "1000", "-s", "2"], "completing the table"),
    (["construct", "--random", "-r", "1", "-k", "400", "-s", "1"], "completing the table"),
    (["oracle", "-r", "1", "-k", "19999", "-s", "0"], "listing the free cells"),
    (["dim", "--check-z", "-r", "1", "-k", "19999", "-s", "0"], "listing the free cells"),
]


@pytest.mark.parametrize("argv,doing", LONG_LISTINGS, ids=[" ".join(a) for a, _ in LONG_LISTINGS])
def test_long_exponent_listings_are_refused_before_listing(
    tmp_path, capsys, no_basis_listing, argv, doing
):
    out = tmp_path / "out.json"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {doing} would visit more than {MAX_LISTED_ENTRIES} monomial exponents\n",
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command,field,doing",
    [("construct", "values", "reading the assignment"), ("verify", "cells", "reading the table")],
)
def test_input_files_with_long_exponent_lists_are_refused(
    tmp_path, capsys, no_basis_listing, command, field, doing
):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"r": 1, "k": 4000, "s": 0, field: []}))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {doing} would visit more than {MAX_LISTED_ENTRIES} monomial exponents\n"
    )


def test_the_exponent_cap_counts_the_cells_only_where_json_lists_them(capsys):
    # 124,750 cells of the one monomial at r = 0.  The oracle and dim list
    # the basis once, B·k = 500 entries; zset, like the cell cap, counts
    # every cell of the table, 62,375,000 entries, though none is free here.
    argv = ["-r", "0", "-k", "500", "-s", "2"]
    assert main(["oracle", *argv]) == 0
    assert capsys.readouterr() == ("nullspace=0 formula=0 iso=ok\n", "")
    assert main(["dim", "--check-z", *argv]) == 0
    assert capsys.readouterr() == ("0 (free cells: 0)\n", "")
    assert main(["zset", *argv]) == 2
    assert capsys.readouterr().err.endswith(f"{MAX_LISTED_ENTRIES} monomial exponents\n")


# -- witness counts ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--in", "BAD"],
        ["construct", "--random", "-r", "1", "-k", "2", "-s", "1"],
        ["oracle", "-r", "1", "-k", "2", "-s", "1", "--compare"],
    ],
    ids=["verify", "construct", "oracle"],
)
def test_negative_witness_counts_are_refused(tmp_path, capsys, argv):
    bad = str(table_file(tmp_path, corrupt=True))
    argv = [bad if a == "BAD" else a for a in argv]
    assert main([*argv, "--witnesses", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --witnesses must be non-negative, got -1\n")


def test_negative_unknown_limits_are_refused(capsys):
    argv = ["oracle", "-r", "0", "-k", "0", "-s", "0", "--max-unknowns"]
    assert main([*argv, "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --max-unknowns must be non-negative, got -1\n")
    # A limit of 0 stays valid: it refuses the one unknown of this system.
    assert main([*argv, "0"]) == 2
    assert capsys.readouterr().err == "error: system would have 1 unknowns, above the limit of 0\n"


def test_witness_count_limits_the_printed_witnesses(tmp_path, capsys):
    # The (1,2,1) table with one corrupted bound cell has three witnesses:
    # 0 prints none of them, 2 the first two, the default all three.
    bad = str(table_file(tmp_path, corrupt=True))
    printed = []
    for extra in (["--witnesses", "0"], ["--witnesses", "2"], []):
        assert main(["verify", "--in", bad, *extra]) == 1
        lines = capsys.readouterr().out.splitlines()
        printed.append([line for line in lines if line.startswith("  witness ")])
    assert [len(w) for w in printed] == [0, 2, 3]
    assert printed[1] == printed[2][:2]


# -- many variables ----------------------------------------------------------

# Listing the basis is a loop, not one call per variable: 1,000 variables
# (1,001 monomials at r = 1, s = 0) stay under Python's recursion limit.
MANY = ["-r", "1", "-k", "1000", "-s", "0"]


def test_zset_lists_the_cells_of_a_thousand_variables(tmp_path, capsys):
    out = tmp_path / "z.json"
    assert main(["zset", *MANY, "--out", str(out)]) == 0
    cells = json.loads(out.read_text())
    assert len(cells) == 1001
    assert cells[:2] == [{"i": [], "alpha": [0] * 1000}, {"i": [], "alpha": [1] + [0] * 999}]
    assert cells[-1] == {"i": [], "alpha": [0] * 999 + [1]}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["dim", *MANY, "--check-z"], "1001 (free cells: 1001)\n"),
        (
            ["construct", "--random", *MANY, "--out", "TABLE"],
            "leibniz: ok (0 cases, 0 failed)\n"
            "skew: ok (0 cases, 0 failed)\n"
            "truncation: ok (0 cases, 0 failed)\n",
        ),
        (["oracle", *MANY], "nullspace=1001 formula=1001 iso=ok\n"),
    ],
    ids=["dim", "construct", "oracle"],
)
def test_a_thousand_variables(tmp_path, capsys, argv, expected):
    argv = [str(tmp_path / "t.json") if a == "TABLE" else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


# -- malformed JSON shapes ---------------------------------------------------


def valid_table_doc() -> dict:
    return construct(CoefficientAssignment.from_json_dict(UNIT_ASSIGNMENT)).to_json_dict()


@pytest.mark.parametrize(
    "command,field,value",
    [
        ("construct", "values", 5),
        ("construct", "values", [5]),
        ("construct", "values", None),
        ("construct", "values", [[1, 2]]),
        ("verify", "cells", 7),
        ("verify", "cells", [7]),
        ("verify", "cells", {"i": [1]}),
    ],
)
def test_wrongly_shaped_entry_lists_exit_two(tmp_path, capsys, command, field, value):
    doc = copy.deepcopy(UNIT_ASSIGNMENT) if command == "construct" else valid_table_doc()
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command,field,entry,cell",
    [("construct", "values", 1, "((1,), (0, 1))"), ("verify", "cells", 4, "((2,), (1, 0))")],
)
def test_a_repeated_cell_exits_two(tmp_path, capsys, command, field, entry, cell):
    # Both files are read by one reader, so both name the cell alike.
    doc = copy.deepcopy(UNIT_ASSIGNMENT) if command == "construct" else valid_table_doc()
    doc[field].append(doc[field][entry])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: duplicate cell {cell}\n")


def json_type(value) -> str:
    for name, kind in (("bool", bool), ("int", int), ("float", float), ("str", str),
                       ("list", list), ("object", dict)):
        if isinstance(value, kind):
            return name
    return "null"


def json_nodes(doc, path=()):
    """Every (path, value) in a JSON document, the document itself first."""
    yield path, doc
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from json_nodes(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="ab1/", max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4,
)
RATIONAL_FIELDS = {"c", "v"}
PARSERS = {
    "assignment": (lambda: UNIT_ASSIGNMENT, CoefficientAssignment.from_json_dict, "construct"),
    "table": (valid_table_doc, LiftTable.from_json_dict, "verify"),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(PARSERS)), st.data())
def test_fuzz_wrong_json_types_are_refused_with_exit_two(kind, data):
    """Replace one field or entry of a valid document by a value of a JSON
    type it does not accept; every parser and the CLI must refuse it."""
    make, parse, command = PARSERS[kind]
    doc = make()
    path, original = data.draw(st.sampled_from(list(json_nodes(doc))))
    accepted = {json_type(original)}
    if path and path[-1] in RATIONAL_FIELDS:
        accepted |= {"str", "int"}
    value = data.draw(JSON_VALUES.filter(lambda v: json_type(v) not in accepted))
    bad = replaced(doc, path, value)
    with pytest.raises(ValueError):
        parse(bad)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "doc.json"
        src.write_text(json.dumps(bad))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--in", str(src)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# -- any command line ----------------------------------------------------------

SMALL_VALUES = ["-1", "0", "1", "2", "3", "x", "2.5", str(10**30)]
COUNT_VALUES = ["-1", "0", "1", "20000", str(10**30)]


def draw_argv(data, tmp: Path) -> list[str]:
    """A command line for one subcommand: each option left out or given a
    small, edge or mistyped value, an input file that is missing, a
    directory, malformed, valid, or valid but for one replaced value, and
    outputs in ``tmp`` or in a directory that does not exist."""
    command = data.draw(st.sampled_from(["dim", "zset", "construct", "verify", "oracle"]))
    argv = [command]

    def option(flag, values):
        value = data.draw(st.sampled_from([None, *values]), label=flag)
        if value is not None:
            argv.extend([flag, value])

    def switch(flag):
        if data.draw(st.booleans(), label=flag):
            argv.append(flag)

    if command in ("construct", "verify"):
        doc = copy.deepcopy(UNIT_ASSIGNMENT) if command == "construct" else valid_table_doc()
        kind = data.draw(st.sampled_from(["missing", "directory", "malformed", "valid", "replaced"]))
        src = tmp if kind == "directory" else tmp / "in.json"
        if kind == "malformed":
            src.write_text('{"r": 1,')
        elif kind == "valid":
            src.write_text(json.dumps(doc))
        elif kind == "replaced":
            path, _ = data.draw(st.sampled_from(list(json_nodes(doc))))
            src.write_text(json.dumps(replaced(doc, path, data.draw(JSON_VALUES))))
        if command == "verify" or data.draw(st.booleans(), label="--in"):
            argv += ["--in", str(src)]
    if command != "verify":
        for flag in ("-r", "-k", "-s"):
            option(flag, SMALL_VALUES)
    outputs = [str(tmp / "out"), str(tmp / "missing" / "out")]
    if command == "dim":
        switch("--check-z")
        switch("--json")
    elif command == "construct":
        switch("--random")
        option("--seed", SMALL_VALUES)
    elif command == "verify":
        switch("--all-slots")
    elif command == "oracle":
        switch("--compare")
        option("--max-unknowns", COUNT_VALUES)
        option("--dump", outputs)
    if command in ("zset", "construct"):
        option("--out", outputs)
    if command in ("construct", "verify", "oracle"):
        option("--witnesses", COUNT_VALUES)
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_no_command_line_ends_in_a_traceback(data):
    """Every command line exits 0, 1 or 2 without a traceback, and exit 2
    prints one ``error:`` line, also when stdout's reader has gone."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = draw_argv(data, Path(tmp))
        if data.draw(st.booleans(), label="stdout reader closed"):
            # A real pipe: ``main`` puts the null device on stdout's file descriptor.
            read, write = os.pipe()
            os.close(read)
            out = open(write, "w", encoding="utf-8")
        else:
            out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out.close()  # flushes what is left, as the interpreter does at exit
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


# -- oracle ------------------------------------------------------------------


def test_oracle_smallest_case(capsys):
    assert main(["oracle", "-r", "1", "-k", "1", "-s", "1"]) == 0
    assert capsys.readouterr().out == "nullspace=1 formula=1 iso=ok\n"


def test_oracle_with_compare(capsys):
    assert main(["oracle", "-r", "1", "-k", "2", "-s", "1", "--compare"]) == 0
    out = capsys.readouterr().out
    assert "nullspace=3 formula=3 iso=ok" in out
    assert "constraint-rows: ok" in out
    assert "span: ok" in out


@pytest.mark.parametrize(
    "argv", [["-r", "2", "-k", "4", "-s", "3"], ["-r", "3", "-k", "3", "-s", "2", "--compare"]]
)
def test_oracle_moves_no_vector_between_blocks(monkeypatch, capsys, argv):
    # The nullity, check_iso and --compare read each representative's basis
    # on its cells: a passing run walks no orbit, lists no block in columns
    # and expands no vector to a block's unknowns.
    from jetlift import cli, oracle

    def refuse(*args):
        raise AssertionError("a passing run walked an orbit or listed a block")

    for name in ("nullspace", "_orbit", "_full"):
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(oracle.ConstraintSystem, "block", refuse)
    monkeypatch.setattr(cli, "nullspace", refuse)
    golden = json.loads((ROOT / "tests" / "golden_transcript.json").read_text(encoding="utf-8"))
    head, point = " ".join(["oracle", *argv, "--dump"]), "r={} k={} s={}".format(*argv[1:6:2])
    (want,) = [rec for rec in golden[point] if rec["argv"].startswith(head)]
    assert main(["oracle", *argv]) == want["exit"] == 0
    assert capsys.readouterr().out == want["stdout"]


def test_oracle_respects_the_size_guard(capsys):
    assert main(["oracle", "-r", "3", "-k", "4", "-s", "2"]) == 2
    err = capsys.readouterr().err
    assert "20825" in err
    assert (
        main(["oracle", "-r", "1", "-k", "1", "-s", "1", "--max-unknowns", "3"]) == 2
    )


def test_oracle_dump_writes_the_rows(tmp_path, capsys):
    path = tmp_path / "rows.mtx"
    assert main(["oracle", "-r", "1", "-k", "1", "-s", "1", "--dump", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "%%matrix coordinate rational general"
    assert lines[1] == "3 4 3"


# -- process-level entry points ------------------------------------------------


def test_module_invocation_works():
    proc = subprocess.run(
        [sys.executable, "-m", "jetlift", "dim", "-r", "1", "-k", "2", "-s", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_closed_stdout_reader_exits_two_with_one_error_line():
    # The free-cell list is ~100 kB, more than a pipe holds, so writing it
    # meets the closed pipe whatever the timing.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "jetlift", "zset", "-r", "3", "-k", "6", "-s", "3"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    assert proc.stdout.readline() == "[\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 2
    assert stderr.startswith("error: cannot write stdout: ")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


def test_the_cli_imports_no_dataclasses_inspect_or_pathlib():
    # Each would add milliseconds to every fresh process.  ``-S`` skips the
    # site module, so no ``.pth`` file of the host loads them first.
    code = (
        "import jetlift.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def script_line_target(text: str) -> str:
    """The ``jetlift = "module:function"`` value under ``[project.scripts]``,
    read line by line (``tomllib`` needs Python 3.11)."""
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            name, _, value = line.partition("=")
            if name.strip() == "jetlift":
                return value.strip().strip('"')
    raise AssertionError("no jetlift entry under [project.scripts]")


def console_script_target() -> str:
    """The ``module:function`` that ``pyproject.toml`` declares for the
    ``jetlift`` console script."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        return script_line_target(text)
    target = tomllib.loads(text)["project"]["scripts"]["jetlift"]
    assert script_line_target(text) == target
    return target


def test_console_script_works():
    argv = ["oracle", "-r", "1", "-k", "1", "-s", "1"]
    module, func = console_script_target().split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    launch = f"import sys; from {module} import {func}; sys.exit({func}())"
    runs = [[sys.executable, "-c", launch, *argv]]
    script = shutil.which("jetlift")
    if script is not None:
        runs.append([script, *argv])
    for cmd in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (cmd, proc.stderr)
        assert proc.stdout.strip() == "nullspace=1 formula=1 iso=ok", cmd


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
