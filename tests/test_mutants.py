"""Mutation checks: each row breaks one line of the package in a copy of
the source and expects the tests it names to fail there.  A check that no
test depends on any longer shows up as a row whose tests pass.

Each row is (module under ``src/crflag``, exact source snippet,
replacement, node ids expected to fail).  The fast test keeps the table in
step with the source: every snippet occurs exactly once, so a refactor
that moves the code fails here and updates the row in the same change.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

KERNEL_NAIVE = "tests/test_chevalley.py::test_levi_tensor_kernel_equals_naive_kernel_"
MINIMALITY_NAIVE = "tests/test_chevalley.py::test_oracle_minimality_equals_naive_loop_"
REDUCE_LINEAR = "tests/test_properties.py::test_subspace_reduce_is_linear_in_each_coordinate"
SUM_TABLE = "tests/test_roots.py::test_root_sum_table_"
CRALGEBRA = "tests/test_cralgebra.py::"
THEOREM_CHECK = "tests/test_survey.py::test_each_theorem_check_fires"
RECORDS = "tests/test_records.py::"
IMMUTABLE = RECORDS + "test_record_is_immutable_and_rebuilds_by_keyword"

MUTANTS = [
    # the product drops u's coefficient from every term
    pytest.param(
        "chevalley.py", "f = x * y * z", "f = y * z",
        [KERNEL_NAIVE + "off_root_spaces",
         "tests/test_chevalley.py::test_bracket_residues_equal_one_bracket_per_row_off_root_spaces"],
        id="bracket-residues-drop-coefficient",
    ),
    # the residue table skips the reduction modulo the span
    pytest.param(
        "chevalley.py", "span.reduce({c: 1})", "{c: span.scale}",
        [KERNEL_NAIVE + "on_root_spaces", MINIMALITY_NAIVE + "on_root_spaces"],
        id="bracket-residues-unreduced",
    ),
    # minimality never indexes a row, so nothing is bracketed
    pytest.param(
        "chevalley.py", "rows_at.setdefault(k, []).append((count, y))", "pass",
        [MINIMALITY_NAIVE + "on_root_spaces"],
        id="minimality-never-indexes",
    ),
    # minimality stops after one round
    pytest.param(
        "chevalley.py", "new = added.row_vecs()", "new = []",
        [MINIMALITY_NAIVE + "on_root_spaces"],
        id="minimality-one-round",
    ),
    # reduce divides before it scales, so it is no longer linear
    pytest.param(
        "chevalley.py", "f = self.scale * x // row[p]", "f = x // row[p] * self.scale",
        [REDUCE_LINEAR, KERNEL_NAIVE + "off_root_spaces"],
        id="reduce-not-linear",
    ),
    # the cross-check never compares a level with the fast path's
    pytest.param(
        "chevalley.py", "if sub != subspace_from_rootset(ca, fast):", "if False:",
        ["tests/test_chevalley.py::test_cross_check_names_the_first_level_that_differs"],
        id="cross-check-skips-levels",
    ),
    # the N-table accepts an ordered pair met in a second triple
    pytest.param(
        "chevalley.py", "if (x, y) in table:", "if False:",
        ["tests/test_chevalley.py::test_n_table_rejects_a_pair_in_two_triples"],
        id="n-table-pair-in-two-triples",
    ),
    # the involution constructor accepts a matrix whose square is not 1
    pytest.param(
        "involution.py",
        "if any(image(col) != rs.simple(j + 1) for j, col in enumerate(cols)):", "if False:",
        ["tests/test_involution.py::test_from_matrix_rejects_non_involutive"],
        id="involution-skips-square",
    ),
    # ... an image that is not a root
    pytest.param(
        "involution.py", "if images[beta] not in codes:", "if False:",
        ["tests/test_involution.py::test_from_matrix_rejects_non_root_preserving"],
        id="involution-skips-root-set",
    ),
    # ... columns that break the invariant form
    pytest.param(
        "involution.py", "if rs.inner(ci, cj) != rs.form[i][j]:", "if False:",
        ["tests/test_involution.py::test_constructor_rejects_form_breaking_permutation"],
        id="involution-skips-form",
    ),
    # each theorem check of the survey never fires
    pytest.param(
        "survey.py", "if cr.cr_codim == 1 and finite and not q.is_maximal:", "if False:",
        [THEOREM_CHECK + "[non-maximal-finite]"],
        id="theorem-non-maximal-finite",
    ),
    pytest.param(
        "survey.py", "if not finite:", "if False:",
        [THEOREM_CHECK + "[maximal-degenerate]"],
        id="theorem-maximal-degenerate",
    ),
    pytest.param(
        "survey.py", "if not minimal:", "if False:",
        [THEOREM_CHECK + "[maximal-not-minimal]"],
        id="theorem-maximal-not-minimal",
    ),
    pytest.param(
        "survey.py", "if finite and q.is_maximal and order > cq + 1:", "if False:",
        [THEOREM_CHECK + "[bound]"],
        id="theorem-bound",
    ),
    # each invariant check of cralgebra never fires
    pytest.param(
        "cralgebra.py", "if not check_root_set_closed(rs, q_infty):", "if False:",
        [CRALGEBRA + "test_analyze_rejects_a_q_infty_that_is_not_closed"],
        id="cralgebra-q-infty-closed",
    ),
    pytest.param(
        "cralgebra.py", "if not nxt < levels[-1]:", "if False:",
        [CRALGEBRA + "test_filter_levels_rejects_a_step_that_does_not_descend"],
        id="cralgebra-levels-descend",
    ),
    pytest.param(
        "cralgebra.py", "if len(levels) > cap:", "if False:",
        [CRALGEBRA + "test_filter_levels_rejects_a_chain_longer_than_its_bound"],
        id="cralgebra-chain-length",
    ),
    pytest.param(
        "cralgebra.py", "if not cr.q_infty <= level:", "if False:",
        [CRALGEBRA + "test_filtration_rejects_a_level_without_q_infty"],
        id="cralgebra-level-contains-q-infty",
    ),
    pytest.param(
        "cralgebra.py", "if not check_root_set_closed(cr.rs, level):", "if False:",
        [CRALGEBRA + "test_filtration_rejects_a_level_that_is_not_closed"],
        id="cralgebra-level-closed",
    ),
    pytest.param(
        "cralgebra.py", "if not check_root_set_closed(cr.rs, witness):", "if False:",
        [CRALGEBRA + "test_witness_rejects_a_set_that_is_not_closed"],
        id="cralgebra-witness-closed",
    ),
    pytest.param(
        "cralgebra.py", "if not cr.q.root_set < witness <= cr.q_plus:", "if False:",
        [CRALGEBRA + "test_witness_rejects_a_set_not_above_q"],
        id="cralgebra-witness-between",
    ),
    pytest.param(
        "cralgebra.py", "if not 1 <= order <= cr.cr_dim:", "if False:",
        [CRALGEBRA + "test_evaluate_rejects_an_order_above_the_cr_dimension"],
        id="cralgebra-order-range",
    ),
    # a record accepts an assignment, and a deletion
    pytest.param(
        "roots.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        [IMMUTABLE + "[InvolutionData]"],
        id="record-assigns",
    ),
    pytest.param(
        "roots.py", 'raise AttributeError(f"cannot delete field {name!r}")',
        "object.__delattr__(self, name)",
        [IMMUTABLE + "[CRAlgebraData]"],
        id="record-deletes",
    ),
    # involutions compare without their provenance
    pytest.param(
        "involution.py", "return self.matrix == other.matrix and self.provenance == other.provenance",
        "return self.matrix == other.matrix",
        [RECORDS + "test_involutions_compare_by_matrix_and_provenance"],
        id="involution-eq-without-provenance",
    ),
    # ... hash their images
    pytest.param(
        "involution.py", "return hash((self.matrix, self.provenance))",
        "return hash((self.matrix, self.provenance, len(self.images)))",
        [RECORDS + "test_involutions_compare_by_matrix_and_provenance"],
        id="involution-hash-with-images",
    ),
    # ... print their images
    pytest.param(
        "involution.py", "provenance={self.provenance!r})",
        "provenance={self.provenance!r}, images={self.images!r})",
        [RECORDS + "test_involution_repr_leaves_out_images"],
        id="involution-repr-with-images",
    ),
    # a record compares its fields with those of any object
    pytest.param(
        "involution.py", "if other.__class__ is not self.__class__:", "if False:",
        [IMMUTABLE + "[InvolutionData]"],
        id="involution-eq-any-class",
    ),
    pytest.param(
        "cralgebra.py", "if other.__class__ is not self.__class__:", "if False:",
        [IMMUTABLE + "[CRAlgebraData]"],
        id="cralgebra-eq-any-class",
    ),
    # survey starts a sweep above its rank bound
    pytest.param(
        "cli.py", "if args.max_rank > MAX_SURVEY_RANK:", "if False:",
        ["tests/test_cli.py::test_survey_above_rank_eight_exits_two"],
        id="survey-rank-unbounded",
    ),
    # the sum table's strict height cut drops the sums of two roots of equal height
    pytest.param(
        "roots.py", "2 * heights[half] <= heights[k]", "2 * heights[half] < heights[k]",
        [SUM_TABLE + "lists_exactly_the_root_sums[B-3]",
         "tests/test_roots.py::test_root_sum_rows_have_2h_minus_4_entries_when_simply_laced[D-4]"],
        id="sum-table-strict-height-cut",
    ),
    # -x's row keeps x's id order instead of swapping its halves
    pytest.param(
        "roots.py", "ids[m:] + ids[:m]", "ids",
        [SUM_TABLE + "lists_exactly_the_root_sums[A-2]", SUM_TABLE + "lists_exactly_the_root_sums[G-2]"],
        id="sum-table-negative-rows-unswapped",
    ),
    # -x's row holds x's partners un-negated
    pytest.param(
        "roots.py", "negated[p]: negated[row[p]]", "negated[p]: roots[row[p]]",
        [SUM_TABLE + "is_symmetric_under_negation[B-3]", SUM_TABLE + "lists_exactly_the_root_sums[G-2]"],
        id="sum-table-negative-rows-unnegated",
    ),
]


def _source(module: str) -> str:
    return (ROOT / "src" / "crflag" / module).read_text()


@pytest.mark.parametrize("module, snippet, replacement, node_ids", MUTANTS)
def test_mutant_snippet_occurs_once(module, snippet, replacement, node_ids):
    source = _source(module)
    assert source.count(snippet) == 1, (module, snippet)
    # the mutant compiles, so a failing run is a failing test
    compile(source.replace(snippet, replacement), module, "exec")
    for node_id in node_ids:
        path, name = node_id.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), node_id


@pytest.mark.slow
@pytest.mark.parametrize("module, snippet, replacement, node_ids", MUTANTS)
def test_mutant_is_killed(tmp_path, module, snippet, replacement, node_ids):
    # pyproject.toml's pythonpath puts the copy's src first, not the checkout's
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tmp_path)
    path = tmp_path / "src" / "crflag" / module
    path.write_text(path.read_text().replace(snippet, replacement))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, timeout=120,
    )
    # 1: the tests ran and one failed; 2-5 would be an error of the run itself
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
