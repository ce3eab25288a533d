"""Acceptance suite: every criterion runs at its stated tolerance (exact)
and prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from time import perf_counter

import pytest

from crflag.chevalley import build_chevalley, jacobi_check
from crflag.cralgebra import (
    DEGENERATE,
    ORBIT_CR,
    ORBIT_OPEN,
    ORBIT_TOTALLY_REAL,
    analyze,
    evaluate,
    filtration,
    is_minimal,
)
from crflag.involution import (
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from crflag.parabolic import check_root_set_closed, parabolic_from_subset
from crflag.roots import build_root_system, highest_root, is_valid_type, parse_root
from crflag.survey import run_survey

DEFAULT_FAMILIES = ["A", "B", "C", "D", "G"]
RANK4_SYSTEMS = [
    (f, r) for f in DEFAULT_FAMILIES for r in range(1, 5) if is_valid_type(f, r)
]


def _check(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


@pytest.fixture(scope="module")
def default_survey():
    start = perf_counter()
    rows = run_survey(
        DEFAULT_FAMILIES,
        max_rank=4,
        involution_source=3,
        hypersurface_only=False,
        oracle_max_rank=4,
    )
    return rows, perf_counter() - start


def _roots(rank, *strings):
    return frozenset(parse_root(s, rank) for s in strings)


def test_criterion_1_golden_so7_case():
    def body():
        start = perf_counter()
        rs = build_root_system("B", 3)
        q = parabolic_from_subset(rs, {1, 3})
        sigma = identity_involution(rs)
        for gamma in ((0, 1, 0), (1, 1, 1)):
            sigma = cayley_update(rs, sigma, gamma)
        cr = analyze(rs, q, sigma)
        f = filtration(cr)
        infty = _roots(3, "100", "-112", "-001", "-011", "-012")
        assert f.levels[3] == infty and f.levels[3] == cr.q_infty
        assert f.levels[2] == infty | _roots(3, "-122")
        assert f.levels[1] == f.levels[2] | _roots(3, "-010", "-111")
        assert f.levels[0] == f.levels[1] | _roots(3, "-100", "-110", "001")
        assert len(f.levels) == 4
        assert evaluate(cr).order == 3
        assert f.kernel_dims == (6, 3, 1, 0)
        geo = cr.geometry
        assert geo.dim_Z == 7 and geo.cr_codim == 1
        assert is_minimal(cr)
        assert perf_counter() - start < 1.0

    _check(1, "so(7) hypersurface filtration, order 3, exact root sets", body)


def test_criterion_2_oracle_equivalence(default_survey):
    rows, elapsed = default_survey

    def body():
        assert rows, "the default survey must produce cases"
        assert all(row.oracle_checked for row in rows), (
            "every rank <= 4 case carries a passed oracle cross-check"
        )
        assert elapsed < 60.0, f"survey took {elapsed:.1f}s"

    _check(2, f"oracle equivalence over {len(rows)} cases in {elapsed:.1f}s", body)


def test_criterion_3_hypersurface_bound(default_survey):
    rows, _ = default_survey

    def body():
        hyper = [r for r in rows if r.orbit_type == ORBIT_CR and r.cr_codim == 1]
        assert hyper
        for row in hyper:
            if isinstance(row.order, int):
                assert row.c_of_q is not None, row
                assert row.order <= row.c_of_q + 1, row
            else:
                assert row.order == DEGENERATE, row
            if row.c_of_q is None:
                assert row.order == DEGENERATE, row
            if row.family in "ABCD" and isinstance(row.order, int):
                assert row.order <= 3, row

    _check(3, "hypersurface rows: maximality, order <= c(q)+1, classical <= 3", body)


def test_criterion_4_maximal_parabolic_theorem(default_survey):
    rows, _ = default_survey

    def body():
        checked = 0
        for row in rows:
            if row.orbit_type == ORBIT_CR and row.c_of_q is not None:
                assert isinstance(row.order, int), row
                assert row.minimal, row
                checked += 1
        assert checked

    _check(4, "maximal parabolic CR rows all have finite order and are minimal", body)


def test_criterion_5_highest_coefficient_table():
    def body():
        # the largest coefficient of the highest root, per type up to rank 8
        table = {
            (family, rank): max(highest_root(build_root_system(family, rank)))
            for family in "ABCDEFG"
            for rank in range(1, 9)
            if is_valid_type(family, rank)
        }
        for (family, rank), value in table.items():
            if family == "A":
                assert value == 1
            if family in "ABCD":
                assert value <= 2
        for family, rank in (("A", 8), ("B", 8), ("C", 8), ("D", 8)):
            assert (family, rank) in table
        assert table[("G", 2)] == 3
        assert table[("F", 4)] == 4
        assert table[("E", 6)] == 3
        assert table[("E", 7)] == 4
        assert table[("E", 8)] == 6

    _check(5, "highest-coefficient table matches the exceptional values", body)


def test_criterion_6_property_suites():
    def body():
        # involution invariants for every Cayley-generated involution
        for family, rank in RANK4_SYSTEMS:
            rs = build_root_system(family, rank)
            for sigma in enumerate_cayley_involutions(rs, 3):
                involution_from_matrix(rs, sigma.matrix)
        # bracket-closure of every filtration level over a dense sweep
        for family, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)):
            rs = build_root_system(family, rank)
            subsets = range(2 ** rs.rank)
            for sigma in enumerate_cayley_involutions(rs, 2):
                for mask in subsets:
                    qr = {i + 1 for i in range(rs.rank) if mask >> i & 1}
                    cr = analyze(rs, parabolic_from_subset(rs, qr), sigma)
                    for level in filtration(cr).levels:
                        assert check_root_set_closed(rs, level)
        # commuting strongly orthogonal Cayley steps
        for family, rank in (("B", 3), ("C", 3), ("B", 4), ("D", 4)):
            rs = build_root_system(family, rank)
            sid = identity_involution(rs)
            for g1 in rs.positive_roots:
                for g2 in rs.positive_roots:
                    if g1 < g2 and strongly_orthogonal(rs, g1, g2):
                        one = cayley_update(rs, cayley_update(rs, sid, g1), g2)
                        two = cayley_update(rs, cayley_update(rs, sid, g2), g1)
                        assert one.matrix == two.matrix
        # exhaustive Jacobi for every rank <= 4 table
        for family in "ABCDFG":
            for rank in range(1, 5):
                if not is_valid_type(family, rank):
                    continue
                ca = build_chevalley(build_root_system(family, rank))
                dim = ca.dim
                assert jacobi_check(ca, sample=None) == dim * (dim - 1) * (dim - 2) // 6

    _check(6, "standalone property suites (involutions, closure, commuting, Jacobi)", body)


def test_criterion_7_small_instance_cross_checks():
    def body():
        # A1: totally real closed case and open case
        a1 = build_root_system("A", 1)
        borel = parabolic_from_subset(a1, set())
        split = analyze(a1, borel, identity_involution(a1))
        assert split.geometry.orbit_type == ORBIT_TOTALLY_REAL
        assert evaluate(split).order == ORBIT_TOTALLY_REAL
        flipped = analyze(a1, borel, cayley_update(a1, identity_involution(a1), (1,)))
        assert flipped.geometry.orbit_type == ORBIT_OPEN
        assert evaluate(flipped).order == ORBIT_OPEN
        assert flipped.q_plus == frozenset(a1.roots)

        # A2: the order-1 sphere of the swap involution
        a2 = build_root_system("A", 2)
        q = parabolic_from_subset(a2, {1})
        swap = involution_from_matrix(a2, ((0, 1), (1, 0)))
        cr = analyze(a2, q, swap)
        negatives = _roots(2, "-10", "-01", "-11")
        f = filtration(cr)
        assert f.levels == (q.root_set, negatives)
        assert cr.q_infty == negatives
        assert evaluate(cr).order == 1
        geo = cr.geometry
        assert (geo.dim_Z, geo.dimR_M, geo.cr_dim, geo.cr_codim) == (2, 3, 1, 1)
        assert is_minimal(cr)

        # A2 Borel with the negated swap: sigma maps the negative roots onto
        # the positive ones, so q + sigma(q) fills the algebra (open orbit)
        open_cr = analyze(a2, parabolic_from_subset(a2, set()),
                          involution_from_matrix(a2, ((0, -1), (-1, 0))))
        assert open_cr.q_plus == frozenset(a2.roots)
        assert open_cr.geometry.orbit_type == ORBIT_OPEN

    _check(7, "A1/A2 hand enumerations reproduce exactly", body)
