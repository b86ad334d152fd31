"""Replays the CLI transcript in ``golden_transcript.json`` byte for byte:
stdout, stderr and exit code of every command, and every file it writes.

Each point runs ``dim`` (plain, ``--check-z``, ``--json``, both), ``zset``,
``construct --random`` (to stdout and to a file), ``verify`` on that table
and, when the table has a bound cell, on a copy whose first bound cell is
raised by 1 (default, ``--all-slots``, ``--witnesses 1000``), then
``oracle`` and ``oracle --compare``, both with ``--dump``.  Outputs longer
than ``INLINE_BYTES`` are kept as a SHA-256 digest and a byte count, which
keeps the file small; shorter ones are kept as text.

The transcript pins today's output.  Regenerate it only for an intended
output change, and list that change in the change log:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from jetlift import AlgebraParams, LiftTable, free_cells
from jetlift.cli import main

TRANSCRIPT = Path(__file__).with_name("golden_transcript.json")
INLINE_BYTES = 4096

SMALL_GRID = [
    (0, 2, 1), (1, 0, 0), (1, 1, 1), (1, 1, 3), (1, 2, 1), (1, 2, 2),
    (2, 2, 0), (2, 2, 2), (2, 3, 2), (3, 2, 1),
]
POINTS = SMALL_GRID + [(2, 4, 3), (3, 3, 2)]


def _digest(text: str) -> str:
    data = text.encode("utf-8")
    if len(data) <= INLINE_BYTES:
        return text
    return f"sha256:{hashlib.sha256(data).hexdigest()} ({len(data)} bytes)"


def run(argv: list[str], tmp: Path, files: tuple[str, ...] = ()) -> dict:
    """One command in-process: its exit code, captured streams and the
    files it writes, paths shown relative to ``tmp``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record = {
        "argv": " ".join(argv).replace(str(tmp), "$TMP"),
        "exit": code,
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
    }
    if files:
        record["files"] = {f: _digest((tmp / f).read_text(encoding="utf-8")) for f in files}
    return record


def _corrupt_first_bound_cell(src: Path, dst: Path) -> bool:
    """Write ``src`` with its first bound cell (row-major) raised by 1;
    False when the table has none."""
    table = LiftTable.from_json_dict(json.loads(src.read_text(encoding="utf-8")))
    params = table.params
    free = set(free_cells(params))
    for axes in params.rows:
        for alpha in params.algebra.basis:
            if (axes, alpha) not in free:
                bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + 1)
                dst.write_text(json.dumps(bad.to_json_dict()), encoding="utf-8")
                return True
    return False


def point_transcript(r: int, k: int, s: int, tmp: Path) -> list[dict]:
    p = ["-r", str(r), "-k", str(k), "-s", str(s)]
    good, bad = tmp / "table.json", tmp / "bad.json"
    recs = [
        run(["dim", *p], tmp),
        run(["dim", *p, "--check-z"], tmp),
        run(["dim", *p, "--json"], tmp),
        run(["dim", *p, "--json", "--check-z"], tmp),
        run(["zset", *p], tmp),
        run(["construct", "--random", *p], tmp),
        run(["construct", "--random", *p, "--seed", "7", "--out", str(good)], tmp, ("table.json",)),
        run(["verify", "--in", str(good)], tmp),
    ]
    if _corrupt_first_bound_cell(good, bad):
        for extra in ([], ["--all-slots"], ["--witnesses", "1000"]):
            recs.append(run(["verify", "--in", str(bad), *extra], tmp))
    recs.append(run(["oracle", *p, "--dump", str(tmp / "rows.mtx")], tmp, ("rows.mtx",)))
    recs.append(
        run(["oracle", *p, "--compare", "--dump", str(tmp / "rows2.mtx")], tmp, ("rows2.mtx",))
    )
    return recs


def point_key(point) -> str:
    return "r={} k={} s={}".format(*point)


def write_transcript() -> None:
    doc = {}
    for point in POINTS:
        with tempfile.TemporaryDirectory() as tmp:
            doc[point_key(point)] = point_transcript(*point, Path(tmp))
    TRANSCRIPT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_covers_every_point(golden):
    assert list(golden) == [point_key(p) for p in POINTS]


@pytest.mark.parametrize("point", POINTS, ids=point_key)
def test_cli_output_matches_the_golden_transcript(golden, point, tmp_path):
    want = golden[point_key(point)]
    got = point_transcript(*point, tmp_path)
    assert [rec["argv"] for rec in got] == [rec["argv"] for rec in want]
    for g, w in zip(got, want):
        assert g == w, w["argv"]


@pytest.mark.parametrize("point", [(2, 4, 3), (3, 3, 2)], ids=point_key)
def test_no_command_builds_the_product_table(golden, point, tmp_path, monkeypatch):
    # The verifier's product-rule sweep and the oracle's instances read each
    # product from the integer codes: construct, verify of a corrupted
    # table, oracle and oracle --compare replay the transcript without it.
    def refuse(self):
        raise AssertionError("AlgebraParams.product_index was built")

    monkeypatch.setattr(AlgebraParams, "product_index", property(refuse))
    assert point_transcript(*point, tmp_path) == golden[point_key(point)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_transcript()
