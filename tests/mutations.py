"""Standing mutation check: each listed mutant of ``src/`` must fail its tests.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutations.py

Each mutation replaces one text, which must occur exactly once in its
module, in a fresh copy of ``src/`` under a temporary directory.  Each of
its named tests is then run against that copy, with ``-x``, and must fail.
The named tests must first pass on an unmutated copy, so a failure is the
mutant's.  A refactor that moves a mutated text must update its entry
here.  The script prints one line per mutation and exits 1 if any text
does not occur exactly once, any named test passes on its mutant, or the
unmutated copy fails.  Pytest does not collect this file: its name does not
start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


CLI = "tests/test_cli.py::"
ORACLE = "tests/test_oracle.py::"
VERIFIER = "tests/test_verifier.py::"
GOLDEN = "tests/test_golden.py::"

MUTATIONS = [
    Mutation(
        "drop the relabel sign",
        "jetlift/oracle.py",
        "out[axes] = v if sign > 0 else -v",
        "out[axes] = v",
        (
            ORACLE + "test_transported_basis_is_every_block_eliminated_directly",
            ORACLE + "test_orbit_path_expands_every_unit_table_as_the_evaluator_does",
            ORACLE + "test_compare_completes_only_each_units_block",
            ORACLE + "test_compare_witnesses_carry_the_sign_of_each_entry",
            ORACLE + "test_compare_names_a_unit_that_fails_only_a_composed_row",
        ),
    ),
    Mutation(
        "name a unit only by the rows of its own block",
        "jetlift/oracle.py",
        "for row, got in hits or [hit]",
        "for row, got in hits",
        (ORACLE + "test_compare_names_a_unit_that_fails_only_a_composed_row",),
    ),
    Mutation(
        "sign a splice by its insertion point, not by the entries it passes",
        "jetlift/oracle.py",
        "-1 if len(pre) - i & 1 else 1",
        "-1 if i & 1 else 1",
        (ORACLE + "test_closed_form_columns_are_the_positions_of_the_unknowns",),
    ),
    Mutation(
        "name the witnesses from the representative's block, not the unit's",
        "jetlift/oracle.py",
        "block = system.block(m)",
        "block = system.block(rep)",
        (ORACLE + "test_compare_reports_violated_rows_in_row_order",),
    ),
    Mutation(
        "sum each orbit's span ranks once, not per block",
        "jetlift/oracle.py",
        "blocks, size = units.get(rep, {}), _orbit_size(rep)",
        "blocks, size = units.get(rep, {}), 1",
        (
            ORACLE + "test_compare_with_construction_passes",
            ORACLE + "test_orbit_local_checks_match_the_full_vector_reference[(3, 3, 2)]",
        ),
    ),
    Mutation(
        "check_iso reads block m's free cells without pulling them back",
        "jetlift/oracle.py",
        "pulled = _relabel({axes: 1 for axes, _ in held}, _pull(m))",
        "pulled = {axes: 1 for axes, _ in held}",
        (
            ORACLE + "test_nullity_matches_formula_and_basis_satisfies_rows",
            ORACLE + "test_orbit_local_checks_match_the_full_vector_reference[(3, 3, 2)]",
        ),
    ),
    Mutation(
        "skip the representatives of degree r + s",
        "jetlift/oracle.py",
        "min(self.params.algebra.r + self.params.s, self._top)",
        "min(self.params.algebra.r + self.params.s - 1, self._top)",
        (
            ORACLE + "test_presolve_and_early_stop_keep_each_representatives_rows_and_basis",
            ORACLE + "test_nullity_of_each_block_is_the_graded_dimension",
        ),
    ),
    Mutation(
        "raise the degree floor by one",
        "jetlift/oracle.py",
        "low = sum(alg.degrees[:s])",
        "low = sum(alg.degrees[:s]) + 1",
        (ORACLE + "test_block_rows_give_the_every_slot_rows",),
    ),
    Mutation(
        "lower the part cap by one",
        "jetlift/oracle.py",
        "top = alg.r + sum(",
        "top = alg.r - 1 + sum(",
        (ORACLE + "test_block_rows_give_the_every_slot_rows",),
    ),
    Mutation(
        "read an argument of degree 2 as linear in the expansion",
        "jetlift/oracle.py",
        "deg[combo[-1]] == 1",
        "deg[combo[-1]] <= 2",
        (
            ORACLE + "test_expansion_is_the_transposed_peeling_sum",
            ORACLE + "test_nullity_of_each_block_is_the_graded_dimension",
        ),
    ),
    Mutation(
        "drop the sign of a peeling term in the expansion",
        "jetlift/oracle.py",
        "acc[cell] = acc.get(cell, 0) + t[1] * v",
        "acc[cell] = acc.get(cell, 0) + v",
        (
            ORACLE + "test_expansion_is_the_transposed_peeling_sum",
            ORACLE + "test_nullity_of_each_block_is_the_graded_dimension",
        ),
    ),
    Mutation(
        "count each block's rows once, not once per unit",
        "jetlift/oracle.py",
        "checked += rows * len(held)",
        "checked += rows",
        (
            ORACLE + "test_compare_reports_violated_rows_in_row_order",
            ORACLE + "test_orbit_local_checks_match_the_full_vector_reference[(3, 3, 2)]",
            ORACLE + "test_count_only_listing_counts_each_block_past_r_plus_s[2-4-3]",
        ),
    ),
    Mutation(
        "number the combinations one place off",
        "jetlift/oracle.py",
        "comb(B - 1 - v, s - i)",
        "comb(B - v, s - i)",
        (
            ORACLE + "test_closed_form_columns_are_the_positions_of_the_unknowns",
            ORACLE + "test_block_rows_give_the_every_slot_rows",
        ),
    ),
    Mutation(
        "drop c = b",
        "jetlift/oracle.py",
        "-2 if b == c else -1",
        "-1",
        (ORACLE + "test_block_rows_give_the_every_slot_rows",),
    ),
    Mutation(
        "drop the verifier's failure sort",
        "jetlift/verifier.py",
        "    failed.sort(key=itemgetter(0))\n",
        "",
        (
            VERIFIER + "test_pruned_sweeps_reach_the_same_instances_as_the_reference",
            VERIFIER + "test_run_all_checks_matches_the_reference_on_random_cell_tables",
        ),
    ),
    Mutation(
        "drop compare's failure re-sort",
        "jetlift/oracle.py",
        "    failed.sort(key=itemgetter(0))\n",
        "",
        (
            ORACLE + "test_compare_reports_violated_rows_in_row_order",
            ORACLE + "test_compare_reports_failures_in_free_cell_order_across_blocks",
        ),
    ),
    Mutation(
        "compose no single-entry row of the representative's listing",
        "jetlift/oracle.py",
        "composed = {_normal(e) for col in zeros if (e := expansion[col])}",
        "composed = set()",
        (
            ORACLE + "test_presolve_and_early_stop_keep_each_representatives_rows_and_basis",
            ORACLE + "test_nullity_of_each_block_is_the_graded_dimension",
        ),
    ),
    Mutation(
        "--compare checks no composed single-entry row",
        "jetlift/oracle.py",
        "for row in composed if (got",
        "for row in composed if len(row) > 1 and (got",
        (ORACLE + "test_compare_reports_failures_in_free_cell_order_across_blocks",),
    ),
    Mutation(
        "flip the free-cell predicate",
        "jetlift/lift_space.py",
        "axes[-1] < sup[-1]",
        "axes[-1] <= sup[-1]",
        (
            "tests/test_lift_space.py::test_free_cells_match_direct_definition_on_grid",
            ORACLE + "test_nullity_matches_formula_and_basis_satisfies_rows",
        ),
    ),
    Mutation(
        "count the free cells of a top-degree block without dropping its top axis",
        "jetlift/lift_space.py",
        "return binomial(q - 1, params.s)",
        "return binomial(q, params.s)",
        (
            "tests/test_acceptance.py::test_criterion_9_truncation_kernel",
            "tests/test_acceptance.py::test_criterion_8_graded_agreement",
        ),
    ),
    Mutation(
        "tighten the expansion cap",
        "jetlift/lift_space.py",
        "> alg.r + p.s:",
        "> alg.r + p.s - 1:",
        (ORACLE + "test_orbit_path_expands_every_unit_table_as_the_evaluator_does",),
    ),
    Mutation(
        "flip the peeling sign",
        "jetlift/lift_space.py",
        "-x if len(axes) - i & 1 else x",
        "x",
        (
            "tests/test_lift_space.py::test_evaluation_matches_product_rule_recursion",
            ORACLE + "test_expansion_is_the_transposed_peeling_sum",
        ),
    ),
    Mutation(
        "drop the F(pre, 1) zeros",
        "jetlift/oracle.py",
        "if combo[0] == 0}",
        "if combo[0] == 1}",
        (ORACLE + "test_block_rows_give_the_every_slot_rows",),
    ),
    Mutation(
        "drop the top-degree instances",
        "jetlift/verifier.py",
        "if size > alg.r + s:",
        "if size >= alg.r + s:",
        (VERIFIER + "test_a_corrupted_cell_is_swept_only_in_its_own_block",),
    ),
    Mutation(
        "drop the duplicate-cell check",
        "jetlift/lift_space.py",
        '        if cell in values:\n            raise ValueError(f"duplicate cell {cell}")\n',
        "",
        (CLI + "test_a_repeated_cell_exits_two",),
    ),
    Mutation(
        "sum the numerators without rescaling them",
        "jetlift/rationals.py",
        "d // q",
        "1",
        (
            "tests/test_rationals.py::test_exact_sum_is_the_sum_of_fractions",
            VERIFIER + "test_wide_rational_tables_match_the_references",
        ),
    ),
    Mutation(
        "skip the digit-run scan",
        "jetlift/rationals.py",
        "if len(value) > MAX_RATIONAL_DIGITS:",
        "if False:",
        (
            "tests/test_rationals.py::test_parse_refuses_strings_over_the_caps",
            CLI + "test_verify_refuses_a_bound_cell_construct_wrote_past_the_read_cap",
        ),
    ),
    Mutation(
        "drop the comma between cells",
        "jetlift/lift_space.py",
        'head = ","',
        'head = ""',
        (
            CLI + "test_written_json_is_json_dumps_with_indent_two[stdout-r=2 k=3 s=2]",
            GOLDEN + "test_cli_output_matches_the_golden_transcript[r=2 k=4 s=3]",
        ),
    ),
    Mutation(
        "write an empty list over two lines",
        "jetlift/lift_space.py",
        '    if not xs:\n        return "[]"\n',
        "",
        (CLI + "test_written_json_is_json_dumps_with_indent_two[--out-r=2 k=2 s=0]",),
    ),
    Mutation(
        "form the table's value strings while writing",
        "jetlift/lift_space.py",
        """tails = [f',\\n      "v": "{format_rational(v)}"' for v in values]""",
        """tails = (f',\\n      "v": "{format_rational(v)}"' for v in values)""",
        (
            CLI + "test_construct_refuses_values_past_the_digit_limit",
            CLI + "test_construct_to_stdout_refuses_values_past_the_digit_limit",
        ),
    ),
    Mutation(
        "decide the product rule on lhs and one term only",
        "jetlift/verifier.py",
        "exact_sum(((1, lhs), (-1, tb), (-1, tc)))",
        "exact_sum(((1, lhs), (-1, tb)))",
        (
            VERIFIER + "test_run_all_checks_matches_the_reference_on_random_cell_tables",
            CLI + "test_verify_output_on_a_corrupted_table_matches_the_reference[extra0]",
        ),
    ),
    Mutation(
        "swap bd and cd from the codes",
        "jetlift/lift_space.py",
        "get(xb + dc), get(code[c] + dc)",
        "get(code[c] + dc), get(xb + dc)",
        (
            ORACLE + "test_factors_lists_exactly_the_live_factorisations",
            ORACLE + "test_block_rows_give_the_every_slot_rows",
            VERIFIER + "test_run_all_checks_matches_the_reference_on_random_cell_tables",
        ),
    ),
    Mutation(
        "drop the expansion's second peeling term",
        "jetlift/oracle.py",
        "for x, to in ((j, pos.get(code[c] + code[d])), (c, pos.get(code[j] + code[d]))):",
        "for x, to in ((j, pos.get(code[c] + code[d])),):",
        ("tests/test_acceptance.py::test_blocks_below_r_plus_s_compose_no_row",),
    ),
    Mutation(
        "compare value types on all but their last field",
        "jetlift/weil_algebra.py",
        "for f in self._fields])",
        "for f in self._fields[:-1]])",
        (
            "tests/test_weil_algebra.py::test_value_types_compare_hash_and_print_by_every_field",
            "tests/test_lift_space.py::test_element_evaluation_validation",
        ),
    ),
    Mutation(
        "refuse a check count past the cap only when its bits show it",
        "jetlift/cli.py",
        " or B ** (s + 2) > COUNT_CAP)",
        ")",
        (CLI + "test_check_counts_past_the_digit_cap_are_refused_before_forming_them[(2, 1, 9011)]",),
    ),
    Mutation(
        "count the truncation cases of a table without rows one degree high",
        "jetlift/verifier.py",
        "comb(alg.r + k, k - 1)",
        "comb(alg.r + k, k)",
        (CLI + "test_tables_without_rows_are_checked_without_listing_the_basis",),
    ),
    Mutation(
        "print ok for a failed check",
        "jetlift/cli.py",
        "{'FAIL' if n else 'ok'}",
        "ok",
        (
            CLI + "test_report_prints_the_checks_by_name_then_the_first_witnesses",
            CLI + "test_verify_flags_a_corrupted_table",
        ),
    ),
]


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def pytest(src: Path, tests: list[str] | tuple[str, ...]) -> int:
    """The exit code of pytest on ``tests`` with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True)
    return done.returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        named = sorted({t for mut in MUTATIONS for t in mut.tests})
        code = pytest(copy_src(Path(tmp)), named)
        print(f"unmutated: pytest exit {code}, {'ok' if code == 0 else 'FAIL'}")
        bad += code != 0
    for mut in MUTATIONS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            path = src / mut.module
            text = path.read_text(encoding="utf-8")
            if text.count(mut.old) != 1:
                print(f"{mut.name}: FAIL, the text occurs {text.count(mut.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(mut.old, mut.new), encoding="utf-8")
            survived = [t for t in mut.tests if pytest(src, [t]) != 1]
        status = f"FAIL, did not fail: {', '.join(survived)}" if survived else "caught"
        print(f"{mut.name}: {status}")
        bad += bool(survived)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
