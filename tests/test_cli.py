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
    AlgebraElement,
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    construct,
    dimension,
    free_cells,
)
from jetlift.cli import MAX_TABLE_CELLS, CliError, _print_report, main
from jetlift.multiindex import MAX_COUNT_DIGITS
from jetlift.oracle import DEFAULT_MAX_UNKNOWNS
from jetlift.rationals import MAX_DECIMAL_EXPONENT
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


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python writes integers of any length",
)
def test_construct_refuses_values_past_the_digit_limit(tmp_path, capsys):
    # Free values with ~3,000-digit denominators pass the input cap, but
    # bound cells sum several of them and their denominators pass Python's
    # limit for writing an integer.  No huge number is printed on failure.
    params = LiftParams(AlgebraParams(2, 3), 1)
    big = 10**2990
    values = [
        {"i": list(c.axes), "alpha": list(c.alpha), "c": f"1/{big + n}"}
        for n, c in enumerate(free_cells(params))
    ]
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps({"r": 2, "k": 3, "s": 1, "values": values}))
    out = tmp_path / "table.json"
    code = main(["construct", "--in", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        "error: a table value has a numerator or denominator of more than "
        f"{limit} digits, the limit for writing an integer\n"
    )


@pytest.mark.parametrize(
    "field,value",
    [("r", 1.9), ("r", True), ("s", "1"), ("i", [1.7]), ("alpha", [0.2, 1])],
)
def test_inputs_with_non_integer_fields_exit_two(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(UNIT_ASSIGNMENT))
    if field in doc:
        doc[field] = value
    else:
        doc["values"][1][field] = value
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(doc))
    assert main(["construct", "--in", str(src)]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err

    table = construct(CoefficientAssignment.from_json_dict(UNIT_ASSIGNMENT)).to_json_dict()
    if field in table:
        table[field] = value
    else:
        table["cells"][1][field] = value
    src.write_text(json.dumps(table))
    assert main(["verify", "--in", str(src)]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err


def test_construct_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-r", "1", "-k", "1", "-s", "1"])
    assert exc.value.code == 2
    src = tmp_path / "assignment.json"
    src.write_text(json.dumps(UNIT_ASSIGNMENT))
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--in", str(src), "--random"])
    assert exc.value.code == 2


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


def test_verify_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--in", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_verify_rejects_missing_file(capsys):
    assert main(["verify", "--in", "/nonexistent/table.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


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


# -- malformed JSON shapes ---------------------------------------------------


def valid_table_doc() -> dict:
    return construct(CoefficientAssignment.from_json_dict(UNIT_ASSIGNMENT)).to_json_dict()


def valid_element_doc() -> dict:
    alg = P121.algebra
    return AlgebraElement.from_terms(alg, {(0, 0): 2, (0, 1): Fraction(-1, 3)}).to_json_dict()


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
RATIONAL_FIELDS = {"c", "v", "coeff"}
PARSERS = {
    "assignment": (lambda: UNIT_ASSIGNMENT, CoefficientAssignment.from_json_dict, "construct"),
    "table": (valid_table_doc, LiftTable.from_json_dict, "verify"),
    "element": (valid_element_doc, AlgebraElement.from_json_dict, None),
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
    if command is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "doc.json"
        src.write_text(json.dumps(bad))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--in", str(src)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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
