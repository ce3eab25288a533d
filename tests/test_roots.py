import hashlib
from fractions import Fraction

import pytest

from crflag import roots
from crflag.roots import (
    FAMILIES,
    InvariantViolation,
    UnknownRootSystem,
    build_root_system,
    format_root,
    highest_root,
    is_valid_type,
    pairing,
    parse_root,
    root_sum_table,
)

# |Phi+| per the closed-form counts: A n(n+1)/2, B/C n^2, D n(n-1),
# E6/E7/E8 36/63/120, F4 24, G2 6.
POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25,
    ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[(family, rank)]
    assert len(rs.roots) == 2 * len(rs.positive_roots)


def _euclidean_roots(family, rank):
    """Independent oracle: classical root systems in e_i coordinates,
    converted to simple-root coefficients."""
    if family == "A":
        # e_i - e_j in R^{rank+1}; alpha_i = e_i - e_{i+1}
        e = [[int(k == i) - int(k == i + 1) for k in range(rank + 1)] for i in range(rank)]
        dim = rank + 1
        vectors = [
            tuple(int(k == i) - int(k == j) for k in range(dim))
            for i in range(dim) for j in range(dim) if i != j
        ]
    elif family in ("B", "C", "D"):
        dim = rank
        e = [[int(k == i) - int(k == i + 1) for k in range(rank)] for i in range(rank - 1)]
        vectors = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for si in (1, -1):
                    for sj in (1, -1):
                        vectors.append(tuple(si * int(k == i) + sj * int(k == j) for k in range(dim)))
        if family == "B":
            e.append([int(k == rank - 1) for k in range(rank)])
            for i in range(dim):
                for s in (1, -1):
                    vectors.append(tuple(s * int(k == i) for k in range(dim)))
        elif family == "C":
            e.append([2 * int(k == rank - 1) for k in range(rank)])
            for i in range(dim):
                for s in (1, -1):
                    vectors.append(tuple(2 * s * int(k == i) for k in range(dim)))
        else:
            e.append([int(k == rank - 2) + int(k == rank - 1) for k in range(rank)])
    else:
        raise AssertionError(family)
    # invert the simple-root matrix over the rationals to get coefficients
    n = rank
    coeffs = []
    for v in vectors:
        # solve sum_i c_i e[i] = v restricted to the lattice the e span
        import fractions

        m = [[fractions.Fraction(e[i][k]) for i in range(n)] for k in range(len(v))]
        rhs = [fractions.Fraction(x) for x in v]
        # least-structure Gaussian elimination
        used = []
        for col in range(n):
            piv = next(r for r in range(len(m)) if r not in used and m[r][col] != 0)
            used.append(piv)
            for r in range(len(m)):
                if r != piv and m[r][col] != 0:
                    f = m[r][col] / m[piv][col]
                    for c2 in range(n):
                        m[r][c2] -= f * m[piv][c2]
                    rhs[r] -= f * rhs[piv]
        sol = [None] * n
        for col, piv in enumerate(used):
            sol[col] = rhs[piv] / m[piv][col]
        assert all(s.denominator == 1 for s in sol)
        coeffs.append(tuple(int(s) for s in sol))
    return set(coeffs)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)],
)
def test_roots_match_euclidean_construction(family, rank):
    rs = build_root_system(family, rank)
    assert set(rs.roots) == _euclidean_roots(family, rank)


def test_b3_positive_roots_table():
    rs = build_root_system("B", 3)
    expected = {"100", "010", "001", "110", "011", "111", "012", "112", "122"}
    assert {format_root(b) for b in rs.positive_roots} == expected


def test_a1_roots():
    rs = build_root_system("A", 1)
    assert set(rs.roots) == {(1,), (-1,)}


def test_no_zero_and_negatives_present():
    rs = build_root_system("C", 3)
    assert (0,) * rs.rank not in rs.root_code
    for beta in rs.positive_roots:
        assert tuple(-c for c in beta) in rs.root_code


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(UnknownRootSystem):
        build_root_system(family, rank)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_cartan_matrix_reproduced_by_form(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rank):
        for j in range(rank):
            assert pairing(rs, rs.simple(i + 1), rs.simple(j + 1)) == rs.cartan_matrix[i][j]


def test_pairing_b3_examples():
    rs = build_root_system("B", 3)
    # independent Gram matrix for B3 with long roots of squared length 2
    gram = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]

    def kap(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(3) for j in range(3))

    for beta in rs.roots:
        for gamma in ((1, 0, 0), (1, 1, 1), (0, 1, 0), (0, 1, 2)):
            expected = Fraction(2 * kap(beta, gamma), kap(gamma, gamma))
            assert pairing(rs, beta, gamma) == expected
    assert pairing(rs, (1, 0, 0), (1, 1, 1)) == 2
    assert pairing(rs, (0, 1, 2), (0, 1, 0)) == 0


def test_pairing_self_is_two():
    for family, rank in (("A", 3), ("B", 3), ("G", 2)):
        rs = build_root_system(family, rank)
        for gamma in rs.roots:
            assert pairing(rs, gamma, gamma) == 2


def test_pairing_zero_gamma_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ZeroDivisionError):
        pairing(rs, (1, 0), (0, 0))


def test_pairing_non_integral_raises():
    # gamma = 2(alpha_1 + alpha_2) is not a root: <alpha_1|gamma> = 1/2
    rs = build_root_system("A", 2)
    with pytest.raises(InvariantViolation, match="not an integer"):
        pairing(rs, (1, 0), (2, 2))


# Every type the sum table is tested on; A30 is the table analyze-cold builds.
SUM_TABLE_TYPES = [
    ("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
    ("E", 6), ("E", 7), ("E", 8), ("C", 5), ("D", 6), ("B", 8), ("C", 8), ("D", 8),
    ("A", 12), ("A", 30),
]


def _negate(root):
    return tuple(-c for c in root)


@pytest.mark.parametrize("family,rank", SUM_TABLE_TYPES)
def test_root_sum_table_lists_exactly_the_root_sums(family, rank):
    # Brute force over all ordered pairs, on codes: code(a + b) =
    # code(a) + code(b), and test_root_codes_are_the_base_expansion checks
    # the codes themselves.
    rs = build_root_system(family, rank)
    table = root_sum_table(rs)
    assert list(table) == list(rs.roots)
    root_of = {c: r for r, c in rs.root_code.items()}
    items = list(rs.root_code.items())
    for a, ca in items:
        expected = {b: root_of[ca + cb] for b, cb in items if ca + cb in root_of}
        assert list(table[a].items()) == list(expected.items())


SIMPLY_LACED = [
    (f, n) for f in "ADE" for n in range(1, 9) if is_valid_type(f, n)
] + [("A", 30)]


@pytest.mark.parametrize("family,rank", SIMPLY_LACED)
def test_root_sum_rows_have_2h_minus_4_entries_when_simply_laced(family, rank):
    # In a simply-laced type alpha + beta is a root exactly when
    # <alpha|beta> = -1, and each root has 2h - 4 such partners, h the
    # Coxeter number |Phi| / rank (A1: 0, E8: 56, A30: 58).
    rs = build_root_system(family, rank)
    h, rem = divmod(len(rs.roots), rank)
    assert rem == 0
    assert {len(row) for row in root_sum_table(rs).values()} == {2 * h - 4}


# Number of ordered pairs of roots whose sum is a root.
ROW_TOTALS = {("B", 3): 120, ("C", 4): 336, ("F", 4): 816, ("G", 2): 60}


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 5), ("B", 8), ("C", 3), ("C", 4), ("C", 8), ("F", 4), ("G", 2),
])
def test_root_sum_row_totals_match_tuple_brute_force(family, rank):
    rs = build_root_system(family, rank)
    root_set = set(rs.roots)
    brute = sum(
        tuple(map(sum, zip(a, b))) in root_set for a in rs.roots for b in rs.roots
    )
    assert sum(map(len, root_sum_table(rs).values())) == brute
    if (family, rank) in ROW_TOTALS:
        assert brute == ROW_TOTALS[(family, rank)]


@pytest.mark.parametrize("family,rank", SUM_TABLE_TYPES)
def test_root_sum_table_is_symmetric_under_negation(family, rank):
    table = root_sum_table(build_root_system(family, rank))
    for a, row in table.items():
        assert table[_negate(a)] == {_negate(b): _negate(s) for b, s in row.items()}


# sha256 of repr(positive_roots), first 16 hex digits, recorded when the
# closure still built every candidate root as a tuple: the closure on root
# codes must give the same roots in the same order.
POSITIVE_ROOT_DIGESTS = {
    ("A", 1): "8349bb5d2d44e8d6", ("A", 2): "f5e15e52c871b505",
    ("A", 3): "575bd7985165f040", ("A", 4): "26bbe3cc5b924e23",
    ("A", 5): "37de9ba7f3b7a511", ("A", 6): "d324616fcf662d95",
    ("A", 7): "6b7a85e92154e7ed", ("A", 8): "c91dc0b7654d8a57",
    ("B", 2): "e2533dc20b7324a1", ("B", 3): "3b2c2696380cc0a2",
    ("B", 4): "a5e867a305f30fdc", ("B", 5): "e87adaf605c8ed59",
    ("B", 6): "c6df0a2118635f43", ("B", 7): "45dfeb4fb3990773",
    ("B", 8): "800d0e849d4656d8", ("C", 3): "ecf6013269bb7322",
    ("C", 4): "2883f8f5e1e705c5", ("C", 5): "a3b4a09702901955",
    ("C", 6): "03930f7b6e5f9449", ("C", 7): "83104c929d918b82",
    ("C", 8): "30567a677c4d6676", ("D", 4): "af452542e323c39d",
    ("D", 5): "089d3d349ef6620c", ("D", 6): "bc72e9071413db55",
    ("D", 7): "f86c4c4e3daadb70", ("D", 8): "5997d952ab031adc",
    ("E", 6): "d21b4a81275fffff", ("E", 7): "bc39dd837f158a5c",
    ("E", 8): "1d1470cbbe10bc55", ("F", 4): "acbe1a59fe1da2e3",
    ("G", 2): "4635f0fee09bca8d", ("A", 30): "1c1ec764ddb61650",
}


def test_positive_root_digests_cover_every_type_up_to_rank_eight():
    up_to_eight = {(f, n) for f in FAMILIES for n in range(1, 9) if is_valid_type(f, n)}
    assert set(POSITIVE_ROOT_DIGESTS) == up_to_eight | {("A", 30)}


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_ROOT_DIGESTS))
def test_positive_roots_pinned_in_order(family, rank):
    positives = build_root_system(family, rank).positive_roots
    digest = hashlib.sha256(repr(positives).encode()).hexdigest()[:16]
    assert digest == POSITIVE_ROOT_DIGESTS[(family, rank)]


@pytest.mark.parametrize("family,rank", [("A", 12), ("B", 4), ("E", 8), ("F", 4), ("G", 2)])
def test_root_codes_are_the_base_expansion(family, rank):
    rs = build_root_system(family, rank)
    assert list(rs.root_code) == list(rs.roots)
    for beta, code in rs.root_code.items():
        assert code == sum(c * roots._CODE_BASE**i for i, c in enumerate(beta))
        assert (code > 0) == (beta in rs.positive_roots)
    assert max(max(map(abs, beta)) for beta in rs.roots) <= roots._MAX_COEFFICIENT


def test_root_coefficient_above_the_code_bound_raises(monkeypatch):
    # E8's highest root has coefficient 6; with the bound lowered to 5 the
    # closure must refuse the root rather than let codes alias.
    monkeypatch.setattr(roots, "_MAX_COEFFICIENT", 5)
    with pytest.raises(InvariantViolation, match="root codes"):
        build_root_system.__wrapped__("E", 8)
    build_root_system.__wrapped__("E", 7)


def test_highest_roots():
    assert highest_root(build_root_system("B", 3)) == (1, 2, 2)
    for n in (1, 2, 4, 7):
        assert highest_root(build_root_system("A", n)) == (1,) * n
    assert highest_root(build_root_system("G", 2)) == (3, 2)
    assert max(highest_root(build_root_system("E", 8))) == 6


def test_highest_root_dominates():
    for family, rank in (("B", 4), ("C", 4), ("D", 4), ("F", 4)):
        rs = build_root_system(family, rank)
        top = highest_root(rs)
        assert all(all(t >= b for t, b in zip(top, beta)) for beta in rs.positive_roots)


def test_kappa_linearity():
    rs = build_root_system("B", 3)
    for beta in rs.positive_roots:
        for gamma in rs.positive_roots:
            s = tuple(b + g for b, g in zip(beta, gamma))
            if s in rs.root_code:
                for delta in rs.positive_roots:
                    assert rs.inner(s, delta) == rs.inner(beta, delta) + rs.inner(gamma, delta)


@pytest.mark.parametrize("family,rank", [
    (f, r) for f in FAMILIES for r in range(1, 9) if is_valid_type(f, r) and (r <= 4 or f == "E")
])
def test_kappa_of_highest_root_is_two(family, rank):
    rs = build_root_system(family, rank)
    top = highest_root(rs)
    # rs.inner is 6 kappa
    assert rs.inner(top, top) == 6 * 2


@pytest.mark.parametrize("family,rank,short,value", [
    ("B", 3, 3, 1), ("C", 3, 1, 1), ("C", 3, 2, 1), ("F", 4, 3, 1), ("F", 4, 4, 1),
    ("G", 2, 1, Fraction(2, 3)),
])
def test_kappa_on_short_simple_roots(family, rank, short, value):
    rs = build_root_system(family, rank)
    alpha = rs.simple(short)
    assert rs.inner(alpha, alpha) == 6 * value
    assert roots.kappa(rs, alpha, alpha) == value


def test_reflection_closure():
    for family, rank in (("A", 2), ("B", 3), ("C", 3), ("G", 2)):
        rs = build_root_system(family, rank)
        for beta in rs.roots:
            for gamma in rs.roots:
                refl = tuple(b - pairing(rs, beta, gamma) * g for b, g in zip(beta, gamma))
                assert refl in rs.root_code


def test_root_strings_unbroken():
    # the gamma-string through beta has no gaps
    rs = build_root_system("G", 2)
    for beta in rs.roots:
        for gamma in rs.roots:
            if beta in (gamma, tuple(-c for c in gamma)):
                continue
            down = 0
            v = tuple(b - g for b, g in zip(beta, gamma))
            while v in rs.root_code:
                down += 1
                v = tuple(x - g for x, g in zip(v, gamma))
            up = 0
            v = tuple(b + g for b, g in zip(beta, gamma))
            while v in rs.root_code:
                up += 1
                v = tuple(x + g for x, g in zip(v, gamma))
            assert down - up == pairing(rs, beta, gamma)


def test_format_and_parse():
    assert format_root((-1, -1, -2)) == "-112"
    assert format_root((1, 2, 2)) == "122"
    assert format_root((0, 1, 0)) == "010"
    long_vec = tuple([1] + [0] * 9 + [2])
    assert format_root(long_vec) == "(1,0,0,0,0,0,0,0,0,0,2)"
    assert parse_root("-112", 3) == (-1, -1, -2)
    assert parse_root("(1,2,2)", 3) == (1, 2, 2)
    assert parse_root(format_root(long_vec), 11) == long_vec
    with pytest.raises(ValueError):
        parse_root("1x2", 3)
    with pytest.raises(ValueError):
        parse_root("(1,2)", 3)


def test_rank_ten_format_roundtrip():
    rs = build_root_system("A", 10)
    for beta in rs.roots:
        assert parse_root(format_root(beta), 10) == beta


def test_root_system_cached_and_shared():
    assert build_root_system("B", 3) is build_root_system("B", 3)
