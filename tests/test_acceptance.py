"""Acceptance gate: nine criteria, one test and one printed PASS/FAIL line
each.  Run ``pytest -s tests/test_acceptance.py`` to watch the lines appear;
every comparison below is exact (integers and rationals, no tolerances).

The parameter grid is r, k in {1,2,3} and s in {0,1,2,3}.  Every criterion
runs on the full grid except criterion 6, which drops the points whose
linear system would exceed the CLI's unknown-count guard (exactly one point,
(3,3,3)): its every-slot reference would instantiate about ten million
product-rule instances there.  The oracle criteria 1 and 8 build
(3,3,3) with the guard lifted to its unknown count; criterion 1 also
builds (4,3,3), (3,4,3) and (4,4,2), with 169,050 to 229,075 unknowns each.
Criterion 4 runs the oracle as the CLI does, with the guard lifted, on the
wider grid r <= 6, k <= 4, s <= 3.
Criterion 1 also checks the peeling rows by which the oracle skips the
blocks past r + s, and a test besides the nine checks, on criterion 4's
systems, that the blocks below r + s compose no row.  Criterion 9 checks
the truncation kernel on its own, larger grid.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    construct,
    dimension,
    free_cells,
    run_all_checks,
)
from jetlift.lift_space import block_cells, extract_coefficients, graded_dimension, multidegree
from jetlift.multiindex import binomial
from jetlift.oracle import (
    DEFAULT_MAX_UNKNOWNS,
    build_constraints,
    check_iso,
    compare_with_construction,
    nullspace,
    unknown_count,
)
from support import (
    FULL_GRID,
    REACH_POINTS,
    detectable_cells,
    peeling_certificate,
    reference_build_all_slots,
    reference_nullspace,
    truncation_kernel_failures,
)


def lift(point) -> LiftParams:
    r, k, s = point
    return LiftParams(AlgebraParams(r, k), s)


CAPPED_GRID = [p for p in FULL_GRID if unknown_count(lift(p)) <= DEFAULT_MAX_UNKNOWNS]

# Criterion 9: r <= 6, k <= 6, s <= 4, and two points with more variables
# or a higher order.
KERNEL_GRID = [(r, k, s) for r in range(7) for k in range(7) for s in range(5)] + [
    (5, 8, 4),
    (8, 5, 3),
]

# Criterion 4: r <= 6, k <= 4, s <= 3, which holds the full grid and the
# three reach points.
ISO_GRID = [(r, k, s) for r in range(7) for k in range(5) for s in range(4)]

SPOT_DIMENSIONS = {(1, 1, 1): 1, (1, 2, 1): 3, (2, 2, 2): 3, (2, 3, 2): 15}


@pytest.fixture(scope="module")
def oracle_cache():
    """Default (last-slot) constraint systems and nullspaces for every grid
    point, (3,3,3) included with the guard lifted, built once and shared by
    the criteria that need the brute-force side."""
    cache = {}
    for point in FULL_GRID + REACH_POINTS:
        params = lift(point)
        system = build_constraints(params, max_unknowns=unknown_count(params))
        nullity, basis = nullspace(system)
        cache[point] = (params, system, nullity, basis)
    return cache


def finish(n: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] criterion {n}: {status} — {desc}")
    if failures:
        shown = ", ".join(str(f) for f in failures[:5])
        more = f" … and {len(failures) - 5} more" if len(failures) > 5 else ""
        pytest.fail(f"criterion {n}: {shown}{more}")


def test_criterion_1_dimension_cross_check(oracle_cache):
    failures = []
    if set(FULL_GRID) - set(CAPPED_GRID) != {(3, 3, 3)}:
        failures.append(("guard", sorted(set(FULL_GRID) - set(CAPPED_GRID))))
    for point in FULL_GRID + REACH_POINTS:
        params, system, nullity, _ = oracle_cache[point]
        if nullity != dimension(params):
            failures.append((point, "nullspace", nullity, dimension(params)))
        # The oracle skips the blocks past r + s by the peeling lemma; check
        # its rows on each orbit's representative (the orbits are symmetric).
        for m in system.multidegrees:
            if sum(m) > point[0] + point[2] and list(m) == sorted(m, reverse=True):
                failures.extend((point, m, *f) for f in peeling_certificate(system, m))
    for point, expected in SPOT_DIMENSIONS.items():
        if dimension(lift(point)) != expected:
            failures.append((point, "spot", expected))
        if oracle_cache[point][2] != expected:
            failures.append((point, "spot-nullity", expected))
    finish(
        1,
        "oracle nullspace dimension equals the closed form on the full grid "
        "and at (4,3,3), (3,4,3), (4,4,2), and the peeling rows settle the "
        "blocks past r + s",
        failures,
    )


def test_criterion_2_edge_case_formula():
    failures = []
    for r in range(4):
        for k in range(4):
            params = lift((r, k, 0))
            direct = params.algebra.dim  # the full dual space
            if not dimension(params) == binomial(r + k, r) == direct:
                failures.append(((r, k, 0), dimension(params), direct))
            if len(free_cells(params)) != direct:
                failures.append(((r, k, 0), "free-cells"))
    for s in range(1, 4):
        for k in range(4):
            params = lift((0, k, s))
            if dimension(params) != 0 or len(free_cells(params)) != 0:
                failures.append(((0, k, s), dimension(params)))
        for r in range(4):
            params = lift((r, 0, s))
            if dimension(params) != 0 or len(free_cells(params)) != 0:
                failures.append(((r, 0, s), dimension(params)))
    finish(
        2,
        "closed form matches direct counts when r, k, or s is zero",
        failures,
    )


def test_criterion_3_every_unit_construction_verifies():
    failures = []
    for point in FULL_GRID:
        params = lift(point)
        for cell in free_cells(params):
            rep = run_all_checks(construct(CoefficientAssignment.unit(params, cell)))
            if not rep.passed:
                failures.append((point, tuple(cell), len(rep.failures)))
    finish(
        3,
        "constructed tables pass the skew, product-rule, and truncation "
        "checks for every standard-basis assignment on the full grid",
        failures,
    )


@pytest.fixture(scope="module")
def iso_systems():
    """The CLI's constraint system, guard lifted, at every point of
    criterion 4's grid; each is solved when first read."""
    return {
        point: build_constraints(lift(point), max_unknowns=unknown_count(lift(point)))
        for point in ISO_GRID
    }


def test_criterion_4_isomorphism(iso_systems):
    failures = []
    for point, system in iso_systems.items():
        params = system.params
        if system.nullity != dimension(params):
            failures.append((point, "nullity", system.nullity, dimension(params)))
        if len(free_cells(params)) != dimension(params):
            failures.append((point, "free-cell count"))
        if not check_iso(system):
            failures.append((point, "evaluation matrix not invertible"))
        rep = compare_with_construction(system)
        if not rep.passed:
            failures.append((point, "span mismatch", len(rep.failures)))
    finish(
        4,
        "the oracle nullity and the free cells count the dimension, evaluation "
        "at the free cells is bijective, and construction spans exactly the "
        "oracle nullspace on r <= 6, k <= 4, s <= 3",
        failures,
    )


def test_criterion_5_roundtrip_and_linearity():
    failures = []
    for point in FULL_GRID:
        params = lift(point)
        base = 10000 * point[0] + 100 * point[1] + point[2]
        for i in range(100):
            a = CoefficientAssignment.random(params, seed=base + i)
            if extract_coefficients(construct(a)) != a:
                failures.append((point, "roundtrip", i))
        for i in range(20):
            rng = random.Random(base + 555 + i)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c1 = CoefficientAssignment.random(params, seed=base + 1000 + i)
            c2 = CoefficientAssignment.random(params, seed=base + 2000 + i)
            combo = {z: a * v + b * c2.values[z] for z, v in c1.values.items()}
            lhs = construct(CoefficientAssignment(params, combo)).cells
            t1, t2 = construct(c1).cells, construct(c2).cells
            rhs = tuple(
                tuple(a * x + b * y for x, y in zip(r1, r2)) for r1, r2 in zip(t1, t2)
            )
            if lhs != rhs:
                failures.append((point, "linearity", i))
    finish(
        5,
        "extract-after-construct is the identity (100 seeded draws per "
        "point) and construction is linear (20 seeded draws per point)",
        failures,
    )


def test_criterion_6_last_slot_reduction(oracle_cache):
    failures = []
    for point in CAPPED_GRID:
        params, system_last, nullity_last, basis_last = oracle_cache[point]
        system_all = reference_build_all_slots(params)
        if system_last.rows != system_all.rows:
            failures.append((point, "row sets"))
        nullity_all, _ = reference_nullspace(system_all)
        if nullity_last != nullity_all:
            failures.append((point, "nullity", nullity_last, nullity_all))
        for vec in basis_last:
            bad = any(
                sum((coeff * vec.get(col, 0) for col, coeff in row), Fraction(0)) != 0
                for row in system_all.rows
            )
            if bad:
                failures.append((point, "containment"))
                break
    finish(
        6,
        "imposing the product rule at the last slot on increasing leading "
        "tuples yields the same rows and nullspace as imposing it at every "
        "slot on every ordered tuple",
        failures,
    )


def test_blocks_below_r_plus_s_compose_no_row(iso_systems):
    # Below degree r + s the arguments b, c and d of an instance have degree
    # at most r together, so no product is truncated: every row holds for
    # every table and composes to 0, and each cell of the block is free.
    checked = 0
    for (r, _, s), system in iso_systems.items():
        for orbit in system._orbits:
            if sum(orbit.rep) < r + s:
                checked += 1
                assert orbit.composed == [], orbit.rep
                assert len(orbit.basis) == len(block_cells(system.params, orbit.rep)), orbit.rep
    assert checked == 605


def test_criterion_7_corruption_detection():
    # Arity zero has an unconstrained table (the checks are all vacuous), so
    # no perturbation there is detectable even in principle; likewise cells
    # whose indicator table is itself a solution.  The negative control
    # therefore draws from the detectable cells at arity one and two.
    failures = []
    points = [
        (r, k, s)
        for r in (1, 2)
        for k in (1, 2)
        for s in (1, 2)
        if lift((r, k, s)).rows
    ]
    for point in points:
        params = lift(point)
        targets = detectable_cells(params)
        if not targets:
            failures.append((point, "no detectable cells"))
            continue
        base = 77000 + 1000 * point[0] + 100 * point[1] + point[2]
        for i in range(20):
            rng = random.Random(base + i)
            table = construct(CoefficientAssignment.random(params, seed=base + i))
            axes, alpha = targets[rng.randrange(len(targets))]
            eps = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((-1, 1))
            bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + eps)
            if run_all_checks(bad).passed:
                failures.append((point, (axes, alpha), i))
    finish(
        7,
        "single-cell corruptions at detectable cells are flagged in all 20 "
        "seeded trials per point (r, k ≤ 2, s in {1, 2})",
        failures,
    )


def test_criterion_8_graded_agreement(oracle_cache):
    # Every oracle basis vector lies in one multidegree block; the closed
    # form, the free cells and the oracle must then agree block by block.
    failures = []
    for point in FULL_GRID:
        params, system, _, basis = oracle_cache[point]
        block_of = {col: m for m in system.multidegrees for col in system.block(m).cells}
        free = params.free_cell_set
        vectors = Counter()
        for vec in basis:
            blocks = {block_of[col] for col in vec}
            if len(blocks) != 1:
                failures.append((point, "vector spans blocks", sorted(blocks)))
            vectors.update(blocks)
        blocks = set(system.multidegrees) | {multidegree(*cell) for cell in free}
        for m in sorted(blocks):
            cells = sum(cell in free for cell in block_cells(params, m))
            counts = (graded_dimension(params, m), cells, vectors[m])
            if len(set(counts)) != 1:
                failures.append((point, m, counts))
    finish(
        8,
        "per multidegree block, the graded closed form, the free cells and "
        "the oracle basis vectors agree on the full grid",
        failures,
    )


def test_criterion_9_truncation_kernel():
    # A fourth route, without the oracle: the kernel of the truncation sums,
    # block by block, on a grid far past the oracle's reach.
    failures = []
    for point in KERNEL_GRID:
        failures.extend((point, *f) for f in truncation_kernel_failures(lift(point)))
    finish(
        9,
        "per multidegree block, the kernel of the truncation sums has the "
        "graded dimension and the free cells complement its pivots "
        "(r <= 6, k <= 6, s <= 4, and (5,8,4), (8,5,3))",
        failures,
    )
