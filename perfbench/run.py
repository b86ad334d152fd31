"""Benchmark of the jetlift command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {tables,oracle,grid,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout: the program is imported from ``src/``.
Each workload is a fixed list of commands (one *pass*).  Passes run as a
closed loop with one client: ``jetlift.cli.main(argv)`` is called in this
process, one command at a time, with stdout and stderr captured, so
interpreter start-up is counted only in ``setup_s``.  Passes repeat while
the next one should end within ``--seconds`` (at least one pass).  Every
command's output is checked; a failed check is counted, never raised.

The speed of a shared host's CPU drifts by tens of percent over seconds
to minutes, alike for every kind of pure-Python work.  So the end-to-end
times are reported *at reference speed*: the process pins itself to one
CPU, a speed gauge (``gauge.py``) runs beside it on that CPU and times a
fixed kernel ten times a second, and each command's or launch's wall time
is multiplied by ``GAUGE_REF_S`` over the harmonic mean of the kernel
times read while it ran.  The unscaled pass time and the gauge readings are printed too.

``--trace 0`` reports the end-to-end metrics, and prints besides them the
time per command label (``construct_s``, ``verify_s``, ``verify_reject_s``,
``oracle_s``, ``oracle_compare_s``, ``grid_s``) and ``error_rate``, the
failed share of commands attempted.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from spans
recorded around the public functions of each layer (see ``spans.py``).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from spans import Tracer, instrument, layer_of, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "tables": "construct, verify and reject-verify of seeded tables at (2,4,3) and (3,3,2): "
    "the verifier and its evaluator memo do nearly all the work, the oracle none",
    "oracle": "oracle at (2,4,3), then oracle --compare at (3,3,2): "
    "row building, then comparison against the construction; the verifier never runs",
    "grid": "dim, zset, construct, verify and oracle at 32 small points: "
    "fixed per-command costs (argparse, cached tables, JSON, printing) dominate",
}

TABLE_POINTS = ((2, 4, 3), (3, 3, 2))
ORACLE_POINTS = ((2, 4, 3, False), (3, 3, 2, True))
# Every (r, k, s) with r, k in 1..3, s in 0..3 whose product-rule instance
# count per slot, B^(s+2) with B = C(r+k, k), stays at or below 20,000.
GRID_POINTS = tuple(
    (r, k, s)
    for r in (1, 2, 3)
    for k in (1, 2, 3)
    for s in range(4)
    if math.comb(r + k, k) ** (s + 2) <= 20_000
)
SMOKE_POINTS = {
    "tables": ((1, 2, 2), (2, 2, 1)),
    "oracle": ((1, 2, 2, False), (2, 2, 1, True)),
    "grid": tuple(p for p in GRID_POINTS if p[0] <= 2 and p[1] <= 2 and p[2] <= 2),
}

# GAUGE_REF_S is the gauge kernel's mean CPU time on a 2-vCPU x86-64
# cloud host under CPython 3.11, so scaled times read close to wall times
# there.  An interval shorter than a few gauge periods is scaled by the
# GAUGE_MIN_READINGS readings nearest to it.
GAUGE_REF_S = 0.0025
GAUGE_MIN_READINGS = 5
GAUGE_START_TIMEOUT_S = 30

SETUP_LAUNCHES = 5  # at set-up; more follow during the run, up to the maximum
SETUP_LAUNCHES_MAX = 15
# Nearest-rank percentiles, in tenths of a percent, tried for the tail.
TAIL_LADDER = (500, 900, 990, 999)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("cli", "lift_space", "verifier", "oracle", "weil_algebra")
PER_LAYER = {
    "verifier.leibniz.self_s": "s",
    "verifier.skew.self_s": "s",
    "verifier.truncation.self_s": "s",
    "verifier.leibniz.cases": "count",
    "verifier.skew.cases": "count",
    "verifier.truncation.cases": "count",
    "verifier.failed": "count",
    "verifier.cases_per_s": "1/s",
    "lift_space.construct.self_s": "s",
    "lift_space.construct.calls": "count",
    "lift_space.free_cells.self_s": "s",
    "lift_space.free_cells.calls": "count",
    "lift_space.assignment.self_s": "s",
    "lift_space.json.self_s": "s",
    "oracle.build.self_s": "s",
    "oracle.rows.instantiated": "count",
    "oracle.rows.unique": "count",
    "oracle.rows.unique_ratio": "ratio",
    "oracle.unknowns": "count",
    "oracle.nnz": "count",
    "oracle.nullspace.self_s": "s",
    "oracle.rank_ratio": "ratio",
    "oracle.basis_bits": "bits",
    "oracle.check_iso.self_s": "s",
    "oracle.compare.self_s": "s",
    "oracle.compare.row_checks": "count",
    "oracle.expand_table.self_s": "s",
    "oracle.rank_of.self_s": "s",
    "weil_algebra.tables.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
}
# Counters that must repeat exactly from pass to pass.
EXACT_COUNTS = (
    "verifier.leibniz.cases",
    "verifier.skew.cases",
    "verifier.truncation.cases",
    "verifier.failed",
    "lift_space.construct.calls",
    "lift_space.free_cells.calls",
    "oracle.rows.instantiated",
    "oracle.rows.unique",
    "oracle.unknowns",
    "oracle.nnz",
    "oracle.rank",
    "oracle.basis_bits",
    "oracle.compare.row_checks",
)


# -- statistics ---------------------------------------------------------------


def nearest_rank(xs: list[float], tenths: int) -> tuple[float, int]:
    """The nearest-rank percentile (in tenths of a percent) of sorted ``xs``
    and how many samples rank after it."""
    rank = -(-tenths * len(xs) // 1000)
    return xs[rank - 1], len(xs) - rank


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile with at least ``TAIL_MIN_BEYOND`` samples ranked after it;
    the maximum (percentile 100, none beyond) when no percentile has that."""
    xs = sorted(samples)
    best = (100.0, xs[-1], 0)
    for tenths in TAIL_LADDER:
        value, beyond = nearest_rank(xs, tenths)
        if beyond >= TAIL_MIN_BEYOND:
            best = (tenths / 10, value, beyond)
    return best


def lift_dimension(r: int, k: int, s: int) -> int:
    """The closed form C(r+s-1, s) * C(r+k, r+s), recomputed independently."""
    return math.comb(r + s - 1, s) * math.comb(r + k, r + s)


# -- commands and their output checks ------------------------------------------

Check = Callable[[object, str, str], "str | None"]


class Command(NamedTuple):
    label: str  # the end-to-end figure this command's time feeds
    argv: list[str]
    check: Check


REPORT_LINE = re.compile(r"(\S+): (ok|FAIL) \((\d+) cases, (\d+) failed\)")


def report_failures(text: str) -> dict[str, int]:
    """Failed-case count per check named in a printed verification report."""
    return {m[1]: int(m[4]) for m in map(REPORT_LINE.fullmatch, text.splitlines()) if m}


def expect_clean_report(rc, text: str, names: set[str]) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    fails = report_failures(text)
    if not names <= set(fails):
        return f"report lacks {sorted(names - set(fails))}"
    bad = {n: f for n, f in fails.items() if f}
    return f"failed cases {bad}" if bad else None


CHECKS = {"leibniz", "skew", "truncation"}


def dim_command(label, r, k, s) -> Command:
    want = lift_dimension(r, k, s)

    def check(rc, out, err):
        m = re.fullmatch(r"(\d+) \(free cells: (\d+)\)\n", out)
        if rc != 0 or not m:
            return f"exit {rc}, output {out!r}"
        if (int(m[1]), int(m[2])) != (want, want):
            return f"printed {m[1]} and {m[2]}, closed form {want}"
        return None

    return Command(label, ["dim", "--check-z", "-r", str(r), "-k", str(k), "-s", str(s)], check)


def zset_command(label, r, k, s) -> Command:
    want = lift_dimension(r, k, s)

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}"
        try:
            cells = json.loads(out)
            distinct = {(tuple(c["i"]), tuple(c["alpha"])) for c in cells}
        except (ValueError, TypeError, KeyError) as exc:
            return f"unreadable cell list: {exc!r}"
        if len(cells) != want or len(distinct) != want:
            return f"{len(cells)} cells ({len(distinct)} distinct), closed form {want}"
        return None

    return Command(label, ["zset", "-r", str(r), "-k", str(k), "-s", str(s)], check)


def oracle_command(label, r, k, s, compare) -> Command:
    want = lift_dimension(r, k, s)
    argv = ["oracle", "-r", str(r), "-k", str(k), "-s", str(s)] + (["--compare"] if compare else [])

    def check(rc, out, err):
        head, _, rest = out.partition("\n")
        if head != f"nullspace={want} formula={want} iso=ok":
            return f"printed {head!r}, closed form {want}"
        if compare:
            return expect_clean_report(rc, rest, {"constraint-rows", "span"})
        return None if rc == 0 else f"exit {rc}"

    return Command(label, argv, check)


def construct_command(label, assignment: Path, table: Path, values: dict) -> Command:
    def check(rc, out, err):
        problem = expect_clean_report(rc, out, CHECKS)
        if problem:
            return problem
        try:
            doc = json.loads(table.read_text(encoding="utf-8"))
            cells = {(tuple(c["i"]), tuple(c["alpha"])): Fraction(c["v"]) for c in doc["cells"]}
        except (OSError, ValueError, TypeError, KeyError) as exc:
            return f"unreadable table: {exc!r}"
        wrong = [cell for cell, v in values.items() if cells.get(cell) != v]
        return f"{len(wrong)} free values changed, e.g. {wrong[0]}" if wrong else None

    return Command(label, ["construct", "--in", str(assignment), "--out", str(table)], check)


def verify_command(label, table: Path) -> Command:
    return Command(
        label, ["verify", "--in", str(table)], lambda rc, out, err: expect_clean_report(rc, out, CHECKS)
    )


def reject_command(label, table: Path) -> Command:
    def check(rc, out, err):
        if rc != 1:
            return f"exit {rc} on a corrupted table, expected 1"
        if not any(report_failures(out).values()):
            return "corrupted table reported no failed case"
        return None

    return Command(label, ["verify", "--in", str(table)], check)


# -- seeded inputs ------------------------------------------------------------


def mixed_rationals(rng: random.Random, n: int) -> list[Fraction]:
    """``n`` nonzero rationals: every fourth one wide (40-bit numerator and
    denominator), the rest small.  The seed picks only signs and digits, so
    every seed gives the arithmetic the same shape and about the same cost."""
    out = []
    for i in range(n):
        sign = rng.choice((-1, 1))
        if i % 4 == 0:
            out.append(Fraction(sign * (rng.getrandbits(39) | 1 << 39), rng.getrandbits(39) | 1 << 39))
        else:
            out.append(Fraction(sign * rng.randint(1, 9), rng.randint(1, 9)))
    return out


class PointFiles(NamedTuple):
    assignment: Path
    table: Path
    corrupted: Path
    values: dict  # (axes, alpha) -> the assigned Fraction


def write_point_inputs(rng: random.Random, workdir: Path, r: int, k: int, s: int) -> PointFiles:
    """A seeded assignment JSON, the path its table goes to, and a copy of
    that table with one seeded bound cell raised by 1.  Only bound cells are
    corrupted: changing a free cell gives another valid table."""
    from jetlift.lift_space import CoefficientAssignment, LiftParams, construct, free_cells
    from jetlift.weil_algebra import AlgebraParams

    params = LiftParams(AlgebraParams(r, k), s)
    cells = free_cells(params)
    values = dict(zip(cells, mixed_rationals(rng, len(cells))))
    name = f"r{r}k{k}s{s}"
    assignment = workdir / f"{name}-assignment.json"
    doc = {
        "r": r,
        "k": k,
        "s": s,
        "values": [{"i": list(c.axes), "alpha": list(c.alpha), "c": str(v)} for c, v in values.items()],
    }
    assignment.write_text(json.dumps(doc), encoding="utf-8")
    corrupted = workdir / f"{name}-corrupted.json"
    bound = [
        (axes, alpha)
        for axes in params.rows
        for alpha in params.algebra.basis
        if (axes, alpha) not in values
    ]
    if bound:
        table = construct(CoefficientAssignment(params, values))
        axes, alpha = rng.choice(bound)
        bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + 1)
        corrupted.write_text(json.dumps(bad.to_json_dict()), encoding="utf-8")
    return PointFiles(assignment, workdir / f"{name}-table.json", corrupted, values)


def build_pass(workload: str, rng: random.Random, workdir: Path, smoke: bool) -> list[Command]:
    """The commands of one pass; every input file is written here, before
    any timing starts.  The oracle workload has no generated inputs."""
    if workload == "oracle":
        points = SMOKE_POINTS["oracle"] if smoke else ORACLE_POINTS
        return [
            oracle_command("oracle_compare_s" if cmp else "oracle_s", r, k, s, cmp)
            for r, k, s, cmp in points
        ]
    commands = []
    if workload == "tables":
        for r, k, s in SMOKE_POINTS["tables"] if smoke else TABLE_POINTS:
            f = write_point_inputs(rng, workdir, r, k, s)
            commands += [
                construct_command("construct_s", f.assignment, f.table, f.values),
                verify_command("verify_s", f.table),
                reject_command("verify_reject_s", f.corrupted),
            ]
        return commands
    for r, k, s in SMOKE_POINTS["grid"] if smoke else GRID_POINTS:
        f = write_point_inputs(rng, workdir, r, k, s)
        commands += [
            dim_command("grid_s", r, k, s),
            zset_command("grid_s", r, k, s),
            construct_command("grid_s", f.assignment, f.table, f.values),
            verify_command("grid_s", f.table),
            oracle_command("grid_s", r, k, s, False),
        ]
    return commands


# -- running ------------------------------------------------------------------


class Sample(NamedTuple):
    label: str
    start: float
    wall: float
    spans: list
    kept: list


class SpeedGauge:
    """Runs ``gauge.py`` beside this process, on the same CPU, while the
    commands are timed; after it is stopped, ``scale`` turns a wall time
    into a time at reference speed."""

    def __init__(self, path: Path):
        self.path = path
        self.readings: list[tuple[float, float]] = []  # (end time, kernel CPU s)
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> SpeedGauge:
        self.path.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).with_name("gauge.py")), str(self.path)]
        self._proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.perf_counter() + GAUGE_START_TIMEOUT_S
        while not self._read() and self._proc.poll() is None and time.perf_counter() < deadline:
            time.sleep(0.05)
        if not self.readings:
            self.__exit__()
            raise RuntimeError(f"speed gauge gave no reading (exit {self._proc.returncode})")
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._read()

    def _read(self) -> list:
        """The complete lines written so far."""
        with contextlib.suppress(FileNotFoundError):
            lines = self.path.read_text(encoding="utf-8").split("\n")[:-1]
            self.readings = [(float(t), float(v)) for t, v in map(str.split, lines)]
        return self.readings

    def scale(self, start: float, wall: float) -> float:
        """``GAUGE_REF_S`` over the harmonic mean of the readings taken from
        ``start`` to ``start + wall``, or nearest to that interval if it
        holds fewer than ``GAUGE_MIN_READINGS``.  The CPU flips between
        speeds many times a second, so the mean speed over the interval is
        what its wall time reflects; a median would jump between modes."""
        times = [t for t, _ in self.readings]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, start + wall)
        while hi - lo < min(GAUGE_MIN_READINGS, len(times)):
            if hi < len(times) and (lo == 0 or times[hi] - (start + wall) < start - times[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return GAUGE_REF_S / statistics.harmonic_mean([v for _, v in self.readings[lo:hi]])


class Runner:
    """Runs commands one at a time through ``cli_main`` and counts the
    ones whose exit code or output is wrong."""

    def __init__(self, cli_main: Callable[[list[str]], int]):
        self.cli_main = cli_main
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def run(self, cmd: Command, tracer: Tracer | None = None) -> Sample:
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli_main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 -- a crash is a failed command, not a failed run
            crash = exc
        wall = time.perf_counter() - start
        self.attempted += 1
        problem = f"raised {crash!r}" if crash else cmd.check(rc, out.getvalue(), err.getvalue())
        if problem:
            self.fail(f"{' '.join(cmd.argv)}: {problem}")
        spans, kept = tracer.take() if tracer else ([], [])
        return Sample(cmd.label, start, wall, spans, kept)


class SetupProbe:
    """Wall times of fresh interpreters running ``python -m jetlift dim -r 1
    -k 1 -s 1``: start-up, ``import jetlift`` and argparse.

    The machine's speed drifts over seconds, so besides the launches made at
    set-up, one more is made between commands whenever ``interval`` seconds
    have passed since the last, spreading the samples over the whole run."""

    def __init__(self, runner: Runner, interval: float):
        self.runner = runner
        self.interval = interval
        self.launches: list[tuple[float, float]] = []  # (start, wall)
        self._last = 0.0
        path = os.environ.get("PYTHONPATH")
        self._env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def launch(self, timed: bool = True) -> None:
        argv = [sys.executable, "-m", "jetlift", "dim", "-r", "1", "-k", "1", "-s", "1"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self._env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            proc = None
        self._last = time.perf_counter()
        if not timed:  # the first launch writes the bytecode caches
            return
        self.launches.append((start, self._last - start))
        self.runner.attempted += 1
        if proc is None or proc.returncode != 0 or proc.stdout != "1\n":
            self.runner.fail(f"fresh-interpreter dim: {proc and (proc.returncode, proc.stdout, proc.stderr)}")

    def between_commands(self) -> None:
        if len(self.launches) < SETUP_LAUNCHES_MAX and time.perf_counter() - self._last >= self.interval:
            self.launch()


def run_pass(
    runner: Runner, commands: list[Command], tracer: Tracer | None, probe: SetupProbe | None = None
) -> list[Sample]:
    gc.collect()
    samples = []
    with instrument(tracer) if tracer else contextlib.nullcontext():
        for cmd in commands:
            samples.append(runner.run(cmd, tracer))
            if probe:
                probe.between_commands()
    return samples


# -- per-layer accounting -----------------------------------------------------


def bit_length(basis) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for vec in basis for v in vec),
        default=0,
    )


def pass_layers(samples: list[Sample]) -> dict:
    """Self time per span name, self time per (label, layer), wall per
    label and exact counts, for one traced pass.  The label ``pass_s``
    stands for the whole pass."""
    self_by_name: Counter = Counter()
    layer_by_label: dict[str, Counter] = defaultdict(Counter)
    walls: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for smp in samples:
        walls[smp.label] += smp.wall
        walls["pass_s"] += smp.wall
        for sp, own in zip(smp.spans, self_times(smp.spans)):
            self_by_name[sp.name] += own
            layer_by_label[smp.label][layer_of(sp.name)] += own
            layer_by_label["pass_s"][layer_of(sp.name)] += own
            calls[sp.name] += 1
        for name, args, out in smp.kept:
            if name.startswith("verifier."):
                check = name.split(".")[1]
                counts[f"verifier.{check}.cases"] += out.cases.get(check, 0)
                counts["verifier.failed"] += len(out.failures)
            elif name == "oracle.build":
                B, s = out.params.algebra.dim, out.params.s
                counts["oracle.rows.instantiated"] += len(out.slots) * B ** (s + 2)
                counts["oracle.rows.unique"] += len(out.rows)
                counts["oracle.unknowns"] += len(out.unknowns)
                counts["oracle.nnz"] += sum(map(len, out.rows))
            elif name == "oracle.nullspace":
                nullity, basis = out
                counts["oracle.rank"] += len(args[0].unknowns) - nullity
                counts["oracle.basis_bits"] = max(counts["oracle.basis_bits"], bit_length(basis))
            elif name == "oracle.compare":
                counts["oracle.compare.row_checks"] += out.cases.get("constraint-rows", 0)
    counts["lift_space.construct.calls"] = calls["lift_space.construct"]
    counts["lift_space.free_cells.calls"] = calls["lift_space.free_cells"]
    return {
        "self": self_by_name,
        "layers": layer_by_label,
        "walls": walls,
        "counts": {name: counts[name] for name in EXACT_COUNTS},
    }


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes; counts from the first,
    which every other pass must equal) and each layer's share of each label."""
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    counts = traced[0]["counts"]
    m = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            m[name] = med(lambda p, span=span: p["self"][span])
        elif name in counts:
            m[name] = counts[name]
    checks = ("verifier.leibniz", "verifier.skew", "verifier.truncation")
    cases = sum(counts[f"{c}.cases"] for c in checks)
    m["verifier.cases_per_s"] = med(
        lambda p: cases / t if (t := sum(p["self"][c] for c in checks)) else 0.0
    )
    rows, unique = counts["oracle.rows.instantiated"], counts["oracle.rows.unique"]
    m["oracle.rows.unique_ratio"] = unique / rows if rows else 0.0
    m["oracle.rank_ratio"] = counts["oracle.rank"] / unique if unique else 0.0
    m["trace_overhead"] = med(lambda p: p["walls"]["pass_s"]) / statistics.median(untraced_walls)
    shares = {
        label: {
            layer: sum(p["layers"][label][layer] for p in traced) / sum(p["walls"][label] for p in traced)
            for layer in LAYERS
        }
        for label in traced[0]["walls"]
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = shares["pass_s"][layer]
    return m, shares


# -- one workload ---------------------------------------------------------------


class Result(NamedTuple):
    attempted: int
    errors: list[str]
    metrics: dict[str, float]
    lines: list[str]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    cli_main: Callable[[list[str]], int],
    smoke: bool = False,
) -> Result:
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli_main)
    lines = [f"{workload}: {WORKLOADS[workload]}"]
    commands = build_pass(workload, random.Random(seed), workdir, smoke)
    untraced: list[list[Sample]] = []
    traced: list[dict] = []
    # Traced runs report no end-to-end time, so they need no speed gauge.
    gauge = None if trace else SpeedGauge(workdir / "gauge.txt")
    with gauge or contextlib.nullcontext():
        probe = None
        if not trace:
            probe = SetupProbe(runner, max(seconds / SETUP_LAUNCHES_MAX, 1.0))
            for i in range(SETUP_LAUNCHES + 1):
                probe.launch(timed=i > 0)
        start = time.perf_counter()
        took = 0.0
        # A pass starts only if, judged by the previous one, it ends within
        # --seconds; there is always at least one pass of each kind needed.
        while not untraced or (trace and not traced) or time.perf_counter() + took - start <= seconds:
            began = time.perf_counter()
            if trace and len(traced) < len(untraced):
                traced.append(pass_layers(run_pass(runner, commands, Tracer())))
            else:
                untraced.append(run_pass(runner, commands, None, probe))
            took = time.perf_counter() - began

    if trace:
        runner.attempted += 1
        for i, p in enumerate(traced[1:], start=2):
            first = traced[0]["counts"]
            drift = {n: (first[n], v) for n, v in p["counts"].items() if v != first[n]}
            if drift:
                runner.fail(f"exact counts drifted in traced pass {i}: {drift}")
                break
        walls = [sum(s.wall for s in smp) for smp in untraced]
        metrics, shares = layer_metrics(traced, walls)
        lines.append(f"{len(traced)} traced and {len(untraced)} untraced passes")
        for name, unit in PER_LAYER.items():
            lines.append(f"{workload} {name} {metrics[name]} {unit}")
        for label, by_layer in shares.items():
            lines.append(
                f"{workload} share of {label}: "
                + ", ".join(f"{layer} {v:.4f}" for layer, v in by_layer.items())
            )
    else:
        metrics, more = end_to_end_metrics(untraced, probe.launches, gauge.scale)
        g = statistics.quantiles([v for _, v in gauge.readings], n=4) if len(gauge.readings) > 1 else [0.0] * 3
        lines += [
            f"{len(untraced)} passes of {len(commands)} commands; times at reference speed",
            f"speed gauge: {len(gauge.readings)} readings, quartiles "
            + " ".join(f"{v * 1000:.3f}" for v in g)
            + f" ms, reference {GAUGE_REF_S * 1000:g} ms",
        ]
        for name, (value, unit, note) in more.items():
            lines.append(f"{workload} {name} {value} {unit} ({note})")
    rate = len(runner.errors) / runner.attempted
    lines.append(f"{workload} error_rate {rate} ratio ({len(runner.errors)} of {runner.attempted})")
    lines += [f"{workload} ERROR {e}" for e in runner.errors[:20]]
    return Result(runner.attempted, runner.errors, metrics, lines)


def end_to_end_metrics(
    passes: list[list[Sample]],
    launches: list[tuple[float, float]],
    scale: Callable[[float, float], float],
) -> tuple[dict, dict]:
    """JSON metrics, and the printed figures (value, unit, how measured),
    which add the time per label: construct_s, verify_s, ..., grid_s.

    Every time is a wall time times ``scale(start, wall)``.  The
    per-command figures are taken over each command's median across
    passes.  Over raw samples the median of ``tables`` and ``oracle`` would
    be read at the seam between their light and heavy commands, where
    run-to-run drift in machine speed moves it most."""
    n = len(passes)
    scaled = [[s.wall * scale(s.start, s.wall) for s in smp] for smp in passes]
    launch_s = [wall * scale(start, wall) for start, wall in launches]
    per_cmd = [statistics.median(p[i] for p in scaled) for i in range(len(scaled[0]))]
    p, tail, beyond = tail_percentile(per_cmd)
    metrics = {
        "setup_s": statistics.median(launch_s),
        "pass_s": statistics.median(map(sum, scaled)),
        "cmd_p50_ms": statistics.median(per_cmd) * 1000,
        "cmd_tail_ms": tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    of = f"{len(per_cmd)} commands' medians over {n} passes"
    notes = {
        "setup_s": f"median of {len(launch_s)} fresh interpreters",
        "pass_s": f"median of {n} passes; wall time "
        f"{statistics.median(sum(s.wall for s in smp) for smp in passes)} s unscaled",
        "cmd_p50_ms": f"median of {of}",
        "cmd_tail_ms": f"p{p:g} of {of}, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    printed = {name: (metrics[name], END_TO_END[name], notes[name]) for name in metrics}
    for label in dict.fromkeys(s.label for s in passes[0]):
        value = statistics.median(
            sum(t for s, t in zip(smp, times) if s.label == label) for smp, times in zip(passes, scaled)
        )
        printed[label] = (value, "s", f"median of {n} passes")
    return metrics, printed


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny points, for the benchmark's own tests")
    return ap.parse_args(argv)


def load_cli():
    """``jetlift.cli.main`` from this checkout's ``src/``, never from an
    installed copy."""
    if not (SRC / "jetlift" / "cli.py").is_file():
        raise SystemExit(f"error: no jetlift sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import jetlift.cli

    if Path(jetlift.cli.__file__).resolve().parent != (SRC / "jetlift").resolve():
        raise SystemExit(f"error: jetlift was imported from {jetlift.cli.__file__}, not {SRC}")
    return jetlift.cli.main


def pin_to_one_cpu() -> str:
    """Keep this process and the interpreters it launches on one CPU, so
    the speed gauge reads the CPU the commands run on; a note saying which."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc!r})"
    return f"nproc={len(allowed)}, pinned to CPU {min(allowed)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = load_cli()
    pinned = pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(
        f"jetlift benchmark: seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} {pinned}; "
        "closed loop, one client, one command at a time"
    )
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir / name, cli_main, args.smoke
            )
            print("\n".join(results[name].lines), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in res.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(len(r.errors) for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r.attempted for r in results.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
