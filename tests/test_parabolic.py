import pytest

from crflag.parabolic import (
    NotMaximal,
    c_of_q,
    check_root_set_closed,
    parabolic_from_subset,
)
from crflag.roots import build_root_system, highest_root, parse_root, root_sum_table


def _roots(rank, *strings):
    return frozenset(parse_root(s, rank) for s in strings)


def test_b3_subset_13():
    rs = build_root_system("B", 3)
    p = parabolic_from_subset(rs, {1, 3})
    negatives = {tuple(-c for c in b) for b in rs.positive_roots}
    assert p.root_set == frozenset(negatives) | _roots(3, "100", "001")
    assert len(p.root_set) == 11
    assert p.is_maximal


def test_full_subset_gives_all_roots():
    rs = build_root_system("C", 3)
    p = parabolic_from_subset(rs, {1, 2, 3})
    assert p.root_set == frozenset(rs.roots)
    assert not p.is_maximal


def test_empty_subset_gives_borel():
    rs = build_root_system("A", 3)
    p = parabolic_from_subset(rs, set())
    assert p.root_set == {tuple(-c for c in b) for b in rs.positive_roots}


def test_bad_index_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        parabolic_from_subset(rs, {0})
    with pytest.raises(ValueError):
        parabolic_from_subset(rs, {3})


def test_root_sets_bracket_closed():
    for family, rank in (("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        rs = build_root_system(family, rank)
        for qr in ({1}, {2}, set(), {1, 2}):
            p = parabolic_from_subset(rs, qr)
            assert check_root_set_closed(rs, p.root_set)


def test_c_of_q_values():
    b3 = build_root_system("B", 3)
    assert c_of_q(b3, parabolic_from_subset(b3, {1, 3})) == 2
    a4 = build_root_system("A", 4)
    for removed in range(1, 5):
        qr = set(range(1, 5)) - {removed}
        assert c_of_q(a4, parabolic_from_subset(a4, qr)) == 1
    g2 = build_root_system("G", 2)
    values = {c_of_q(g2, parabolic_from_subset(g2, {1})), c_of_q(g2, parabolic_from_subset(g2, {2}))}
    assert values == {2, 3} and max(values) <= 3


def test_c_of_q_rejects_non_maximal():
    rs = build_root_system("B", 3)
    with pytest.raises(NotMaximal):
        c_of_q(rs, parabolic_from_subset(rs, {1}))
    with pytest.raises(NotMaximal):
        c_of_q(rs, parabolic_from_subset(rs, set()))


def test_c_of_q_equals_highest_root_coefficient():
    for family, rank in (("B", 4), ("D", 4), ("F", 4), ("G", 2)):
        rs = build_root_system(family, rank)
        top = highest_root(rs)
        for removed in range(1, rank + 1):
            p = parabolic_from_subset(rs, set(range(1, rank + 1)) - {removed})
            assert c_of_q(rs, p) == top[removed - 1]


def has_nonresonant_field(rs, p):
    """True iff no two roots outside the parabolic sum to a root outside it
    (vacuously true when the complement is empty)."""
    complement = set(rs.roots) - p.root_set
    sums = root_sum_table(rs)
    return not any(
        b in complement and s in complement for a in complement for b, s in sums[a].items()
    )


def test_nonresonant_field():
    b3 = build_root_system("B", 3)
    p = parabolic_from_subset(b3, {1, 3})
    assert not has_nonresonant_field(b3, p)
    # e.g. 010 + 112 = 122, all outside the parabolic
    a3 = build_root_system("A", 3)
    for removed in range(1, 4):
        q = parabolic_from_subset(a3, set(range(1, 4)) - {removed})
        assert has_nonresonant_field(a3, q)
    assert has_nonresonant_field(b3, parabolic_from_subset(b3, {1, 2, 3}))


def test_nonresonant_iff_c_equals_one():
    # every maximal parabolic: nonresonance is the Hermitian case c(q) = 1
    systems = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
               ("G", 2)]
    for family, rank in systems:
        rs = build_root_system(family, rank)
        for removed in range(1, rank + 1):
            p = parabolic_from_subset(rs, set(range(1, rank + 1)) - {removed})
            assert has_nonresonant_field(rs, p) == (c_of_q(rs, p) == 1)
