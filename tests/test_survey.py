import pytest

from crflag import chevalley, survey
from crflag.cralgebra import DEGENERATE, ORBIT_CR, ORBIT_TOTALLY_REAL
from crflag.involution import cayley_update, identity_involution
from crflag.parabolic import c_of_q, parabolic_from_subset
from crflag.roots import build_root_system, highest_root, is_valid_type
from crflag.survey import SurveyRow, TheoremViolation, run_survey


@pytest.fixture(scope="module")
def small_survey():
    return run_survey(["A", "B"], max_rank=3, involution_source=2, oracle_max_rank=3)


def test_survey_is_deterministic(small_survey):
    again = run_survey(["A", "B"], max_rank=3, involution_source=2, oracle_max_rank=3)
    assert small_survey == again


def test_survey_contains_golden_row(small_survey):
    rows = [
        r
        for r in small_survey
        if r.family == "B" and r.rank == 3 and r.qr == (1, 3) and r.involution == "010|111"
    ]
    assert len(rows) == 1
    row = rows[0]
    assert row.order == 3
    assert row.c_of_q == 2
    assert row.bound_satisfied is True
    assert row.minimal is True
    assert row.orbit_type == ORBIT_CR and row.cr_codim == 1
    assert row.oracle_checked


def test_depth_zero_involutions_are_totally_real():
    rows = run_survey(["A"], max_rank=2, involution_source=0, oracle_max_rank=2)
    for row in rows:
        if row.cr_codim == 0:
            # the full parabolic gives a point; everything else is totally real
            assert row.qr == tuple(range(1, row.rank + 1))
        else:
            assert row.orbit_type == ORBIT_TOTALLY_REAL
            assert row.involution == "identity"


def test_survey_rows_have_bound_only_for_finite_maximal(small_survey):
    for row in small_survey:
        if isinstance(row.order, int) and row.c_of_q is not None:
            assert row.bound_satisfied is not None
        else:
            assert row.bound_satisfied is None


def test_hypersurface_filter():
    rows = run_survey(["B"], max_rank=3, involution_source=2,
                      hypersurface_only=True, oracle_max_rank=0)
    assert rows and all(r.cr_codim == 1 for r in rows)
    assert all(not r.oracle_checked for r in rows)


def test_hypersurface_theorems_on_small_survey(small_survey):
    for row in small_survey:
        if row.orbit_type != ORBIT_CR or row.cr_codim != 1:
            continue
        if isinstance(row.order, int):
            assert row.c_of_q is not None, row
            assert row.order <= row.c_of_q + 1
        else:
            assert row.order == DEGENERATE


def test_maximal_cr_rows_minimal_and_finite(small_survey):
    for row in small_survey:
        if row.orbit_type == ORBIT_CR and row.c_of_q is not None:
            assert isinstance(row.order, int)
            assert row.minimal


def test_each_survey_runs_its_own_cross_checks(monkeypatch):
    calls = []
    real = chevalley.cross_check

    def counting(rs, q_roots, sigma_q, fast_levels, fast_minimal):
        calls.append((rs.family, rs.rank, q_roots, sigma_q))
        real(rs, q_roots, sigma_q, fast_levels, fast_minimal)

    monkeypatch.setattr(chevalley, "cross_check", counting)
    rows = run_survey(["A"], max_rank=3, involution_source=2, oracle_max_rank=3)
    first = len(calls)
    # one derivation per distinct pair of root sets within a sweep ...
    assert 0 < first == len(set(calls)) < len(rows)
    # ... and none carried over into the next sweep
    assert run_survey(["A"], max_rank=3, involution_source=2, oracle_max_rank=3) == rows
    assert calls[first:] == calls[:first]


def test_theorem_violation_reproducer():
    exc = TheoremViolation("bound exceeded", "B", 3, (3, 1), "010|111")
    msg = str(exc)
    assert "family=B" in msg and "rank=3" in msg
    assert "qr=(1, 3)" in msg and "010|111" in msg


_GOLDEN = ("B", 3, (1, 3), ((0, 1, 0), (1, 1, 1)), "010|111")   # maximal, order 3, c(q) = 2
_NON_MAXIMAL = ("A", 3, (1,), ((1, 1, 1),), "111")             # degenerate hypersurface


@pytest.mark.parametrize("case,fields,message", [
    (_NON_MAXIMAL, {"order": 1}, "finitely nondegenerate hypersurface with non-maximal parabolic"),
    (_GOLDEN, {"order": DEGENERATE}, "maximal parabolic CR case without finite order"),
    (_GOLDEN, {"minimal": False}, "maximal parabolic CR case that is not minimal"),
    (_GOLDEN, {"order": 4}, "order 4 exceeds the bound c(q)+1 = 3"),
], ids=["non-maximal-finite", "maximal-degenerate", "maximal-not-minimal", "bound"])
def test_each_theorem_check_fires(monkeypatch, case, fields, message):
    family, rank, qr, chain, label = case
    rs = build_root_system(family, rank)
    q = parabolic_from_subset(rs, qr)
    sigma = identity_involution(rs)
    for gamma in chain:
        sigma = cayley_update(rs, sigma, gamma)
    real = survey.evaluate
    monkeypatch.setattr(survey, "evaluate", lambda cr: real(cr)._replace(**fields))
    cq = c_of_q(rs, q) if q.is_maximal else None
    with pytest.raises(TheoremViolation) as info:
        survey._survey_case(rs, q, cq, sigma, False, 0, set())
    exc = info.value
    assert str(exc).startswith(message + " [reproducer: ")
    assert (exc.family, exc.rank, exc.qr, exc.provenance) == (family, rank, qr, label)


def test_highest_coefficient_table():
    table = {
        (family, rank): max(highest_root(build_root_system(family, rank)))
        for family in "ABCDEFG"
        for rank in range(1, 9)
        if is_valid_type(family, rank)
    }
    for rank in range(1, 9):
        assert table[("A", rank)] == 1
    for family in ("B", "C", "D"):
        for (fam, rank), value in table.items():
            if fam == family:
                assert value == 2
    assert table[("G", 2)] == 3
    assert table[("F", 4)] == 4
    assert table[("E", 6)] == 3
    assert table[("E", 7)] == 4
    assert table[("E", 8)] == 6


def test_survey_row_is_frozen(small_survey):
    row = small_survey[0]
    assert isinstance(row, SurveyRow)
    with pytest.raises(AttributeError):
        row.order = 5


@pytest.mark.slow
def test_rank_five_classical_hypersurfaces():
    rows = run_survey(["A", "B", "C", "D"], max_rank=5, involution_source=3,
                      hypersurface_only=True, oracle_max_rank=0)
    finite = [r for r in rows if isinstance(r.order, int)]
    assert finite
    for row in finite:
        assert row.c_of_q is not None, row
        assert row.order <= 3, row
