"""Command-line surface: output shapes, exit codes, file round-trips."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    construct,
    free_cells,
)
from jetlift.cli import MAX_TABLE_CELLS, _print_report, main
from jetlift.rationals import MAX_DECIMAL_EXPONENT
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
