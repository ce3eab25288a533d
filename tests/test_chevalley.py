import ast
import hashlib
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from crflag import chevalley
from crflag.chevalley import (
    ChevalleyAlgebra,
    Subspace,
    build_chevalley,
    cross_check,
    jacobi_check,
    levi_tensor_kernel,
    oracle_filtration,
    oracle_minimality,
    subspace_from_rootset,
)
from crflag.cralgebra import analyze, filtration, is_minimal
from crflag.involution import (
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
)
from crflag.parabolic import parabolic_from_subset
from crflag.roots import InvariantViolation, RootSystem, build_root_system, is_valid_type


@pytest.fixture(scope="module")
def b3_case():
    rs = build_root_system("B", 3)
    ca = build_chevalley(rs)
    q = parabolic_from_subset(rs, {1, 3})
    sigma = identity_involution(rs)
    for gamma in ((0, 1, 0), (1, 1, 1)):
        sigma = cayley_update(rs, sigma, gamma)
    cr = analyze(rs, q, sigma)
    return rs, ca, q, cr


def test_a1_is_sl2():
    rs = build_root_system("A", 1)
    ca = build_chevalley(rs)
    assert ca.dim == 3
    x = {ca.root_index[(1,)]: 1}
    y = {ca.root_index[(-1,)]: 1}
    h = {0: 1}
    assert ca.bracket(h, x) == {ca.root_index[(1,)]: 2}
    assert ca.bracket(h, y) == {ca.root_index[(-1,)]: -2}
    assert ca.bracket(x, y) == {0: 1}


def test_b3_dimension(b3_case):
    _, ca, _, _ = b3_case
    assert ca.dim == 21


def _structure_constants(ca: ChevalleyAlgebra) -> dict:
    """N(a,b) for every ordered pair of roots with a+b a root, read off the
    adjoint table: [x_a, x_b] = N(a,b) x_(a+b)."""
    table = {}
    for a, i in ca.root_index.items():
        for b, j in ca.root_index.items():
            k = ca.root_index.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                [(col, n)] = ca.ad[i][j].items()
                assert col == k
                table[(a, b)] = n
    return table


def test_a2_n_constant():
    rs = build_root_system("A", 2)
    ca = build_chevalley(rs)
    assert abs(_structure_constants(ca)[((1, 0), (0, 1))]) == 1


def test_n_table_antisymmetry_and_negation():
    # no digest covers the A and D types; reading every sum pair off ``ad``
    # also shows that the triples reach each of them
    for family, rank in (("B", 3), ("G", 2), ("C", 3), ("A", 5), ("D", 5)):
        table = _structure_constants(build_chevalley(build_root_system(family, rank)))
        for (a, b), n in table.items():
            assert table[(b, a)] == -n
            na = tuple(-c for c in a)
            nb = tuple(-c for c in b)
            assert table[(na, nb)] == -n


def test_n_table_chevalley_integrality():
    # |N(a,b)| = p+1 with p the downward a-string length through b
    for family, rank in (("B", 3), ("G", 2), ("F", 4), ("A", 5), ("D", 5)):
        rs = build_root_system(family, rank)
        ca = build_chevalley(rs)
        for (a, b), n in _structure_constants(ca).items():
            p = 0
            v = tuple(x - y for x, y in zip(b, a))
            while v in rs.root_code:
                p += 1
                v = tuple(x - y for x, y in zip(v, a))
            assert abs(n) == p + 1


# sha256 of repr(sorted(table.items())) for N(a, b) keyed by pairs of root
# tuples and read off ``ad``, first 16 hex digits, recorded when the table
# was built on root tuples and Fraction lengths per pair: the constants
# must not change with the arithmetic.
N_TABLE_DIGESTS = {
    ("B", 3): "2527a053eff24b41",
    ("C", 3): "68e4540d1bf4bfdf",
    ("G", 2): "3cda9ce9f13bae82",
    ("F", 4): "dbe5ef284e3122b6",
    ("E", 6): "44ea2dfd15890448",
    ("E", 7): "4fde56a442ec6e50",
    ("E", 8): "037e8fb2794afb4f",
}


@pytest.mark.parametrize("family,rank", sorted(N_TABLE_DIGESTS))
def test_structure_constants_pinned(family, rank):
    table = _structure_constants(build_chevalley(build_root_system(family, rank)))
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()[:16]
    assert digest == N_TABLE_DIGESTS[(family, rank)]


# sha256 of repr(sorted(((i, j), sorted(ca.bracket({i: 1}, {j: 1}).items())))
# over every unit pair), first 16 hex digits, recorded when each unit
# bracket was computed on demand from the root tables and cached: the
# adjoint table must give the same brackets.
BRACKET_DIGESTS = {
    ("B", 3): "658f9e6b47400899",
    ("C", 3): "3de9849b3df6e36c",
    ("G", 2): "800744f39ad32773",
    ("F", 4): "a5d8a78af42f1a92",
    ("E", 7): "2afb10b3424f6f68",
    ("E", 8): "7fa51a37bbb65760",
}


@pytest.mark.parametrize("family,rank", sorted(BRACKET_DIGESTS))
def test_bracket_table_pinned(family, rank):
    ca = build_chevalley(build_root_system(family, rank))
    table = {(i, j): ca.bracket({i: 1}, {j: 1}) for i in range(ca.dim) for j in range(ca.dim)}
    items = sorted((ij, sorted(w.items())) for ij, w in table.items())
    assert hashlib.sha256(repr(items).encode()).hexdigest()[:16] == BRACKET_DIGESTS[(family, rank)]
    for (i, j), w in table.items():
        assert w == {k: -c for k, c in table[(j, i)].items()}
    # the table holds exactly the non-zero unit brackets
    assert all(entry for row in ca.ad for entry in row.values())
    assert {(i, j) for i, row in enumerate(ca.ad) for j in row} == {ij for ij, w in table.items() if w}


def test_cross_check_leaves_the_adjoint_table_as_built(b3_case):
    rs, ca, q, cr = b3_case
    entries = sum(map(len, ca.ad))
    cross_check(rs, q.root_set, cr.sigma_q, filtration(cr), is_minimal(cr))
    assert sum(map(len, ca.ad)) == entries


def test_n_table_computes_each_root_length_once(monkeypatch):
    rs = build_root_system("F", 4)
    calls = []
    inner = type(rs).inner

    def counting_inner(self, beta, gamma):
        calls.append((beta, gamma))
        return inner(self, beta, gamma)

    monkeypatch.setattr(type(rs), "inner", counting_inner)
    # one length per root serves the coroots and the structure constants;
    # the Cartan eigenvalues come off the Cartan matrix, not a pairing
    build_chevalley.__wrapped__(rs)
    assert sorted(calls) == sorted((beta, beta) for beta in rs.roots)


def test_n_table_rejects_a_pair_in_two_triples():
    # a repeated positive root repeats its decompositions
    rs = build_root_system("B", 3)
    rs = RootSystem(family=rs.family, rank=rs.rank, cartan_matrix=rs.cartan_matrix,
                    positive_roots=rs.positive_roots + rs.positive_roots[-1:], form=rs.form,
                    roots=rs.roots, root_code=rs.root_code)
    with pytest.raises(InvariantViolation, match="lies in two triples"):
        build_chevalley.__wrapped__(rs)


def test_oracle_imports_nothing_of_the_fast_path():
    # the oracle re-derives every answer itself; sharing the fast path's
    # sum table or root-set code would let one defect pass both routes
    tree = ast.parse(Path(chevalley.__file__).read_text())
    fast = {"parabolic", "cralgebra", "survey"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            assert not names & fast, names
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            imported = {alias.name for alias in node.names}
            assert module not in fast and not imported & fast, (node.module, imported)
            assert "root_sum_table" not in imported


def test_g2_has_constant_of_modulus_three():
    ca = build_chevalley(build_root_system("G", 2))
    assert max(abs(n) for n in _structure_constants(ca).values()) == 3


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_jacobi_exhaustive_small_ranks(family, rank):
    ca = build_chevalley(build_root_system(family, rank))
    dim = ca.dim
    assert jacobi_check(ca, sample=None) == dim * (dim - 1) * (dim - 2) // 6


def test_jacobi_sampled_rank_five(monkeypatch):
    ca = build_chevalley(build_root_system("B", 5))
    seen = []
    real = chevalley._jacobi_defect

    def recording(ca, i, j, k):
        seen.append((i, j, k))
        return real(ca, i, j, k)

    monkeypatch.setattr(chevalley, "_jacobi_defect", recording)
    assert jacobi_check(ca, sample=500) == 500
    rng = random.Random(20240 + ca.dim)
    assert seen == [tuple(rng.sample(range(ca.dim), 3)) for _ in range(500)]


@pytest.mark.parametrize("dim", [35, 55, 78, 133, 248])
def test_jacobi_draws_equal_random_sample(dim):
    # the sampled check draws the triples random.sample would, more cheaply
    for seed in (0, 1, 20240 + dim):
        rng = random.Random(seed)
        expected = [tuple(rng.sample(range(dim), 3)) for _ in range(2000)]
        assert list(chevalley._distinct_triples(random.Random(seed), dim, 2000)) == expected


def test_jacobi_check_catches_one_wrong_sign():
    rs = build_root_system("B", 3)
    ca = build_chevalley(rs)
    ad = [{j: dict(unit) for j, unit in row.items()} for row in ca.ad]
    i, j = ca.root_index[(1, 0, 0)], ca.root_index[(0, 1, 0)]
    ((k, n),) = ad[i][j].items()
    ad[i][j] = {k: -n}
    broken = ChevalleyAlgebra(rs=rs, dim=ca.dim, root_index=ca.root_index, ad=ad)
    with pytest.raises(InvariantViolation, match="Jacobi fails"):
        jacobi_check(broken)
    assert jacobi_check(ca) == ca.dim * (ca.dim - 1) * (ca.dim - 2) // 6


def test_rank_bound():
    with pytest.raises(ValueError, match="bounded at rank 8"):
        build_chevalley(build_root_system("A", 9))


def test_subspace_canonical_form():
    a = Subspace(4, [{0: 2, 1: 4}, {1: 2, 2: 2}])
    b = Subspace(4, [{1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 1: 1, 2: -1}])
    assert a == b
    assert a.dim == 2
    assert a.contains({0: 1, 1: 2})
    assert not a.contains({0: 1})
    c = a.sum_with(Subspace(4, [{3: 5}]))
    assert c.dim == 3 and c.contains({3: 1})
    assert a <= c


def test_subspace_generator_order_irrelevant():
    vecs = [{0: 1, 2: 3}, {1: 2, 2: -1}, {0: 1, 1: 1}]
    import itertools

    first, *rest = (Subspace(3, perm) for perm in itertools.permutations(vecs))
    assert all(span == first for span in rest)


def test_subspace_reduce_is_linear():
    # every pivot column is cleared, not only those before the first free one
    assert Subspace(3, [{0: 1}, {2: 1}]).reduce({1: 1, 2: 1}) == {1: 1}
    sub = Subspace(4, [{0: 2, 1: 1}, {2: 3, 3: 1}])
    assert [row[p] for p, row in sub.rows.items()] == [2, 3]
    u = {0: 1, 1: 5, 2: 1}
    v = {0: -3, 2: 2, 3: 7}
    total = {c: u.get(c, 0) + v.get(c, 0) for c in set(u) | set(v)}
    ru, rv = sub.reduce(u), sub.reduce(v)
    combined = {c: ru.get(c, 0) + rv.get(c, 0) for c in set(ru) | set(rv)}
    assert sub.reduce(total) == {c: x for c, x in combined.items() if x}
    assert not set(sub.reduce(total)) & set(sub.rows)
    assert sub.contains({0: 4, 1: 2, 2: 3, 3: 1})
    assert not sub.contains({1: 1})


def _quadratic_subspace_rows(vectors) -> dict:
    """The echelon rows of ``Subspace`` with a back-reduction that tests
    every larger pivot against every row, O(pivots^2)."""
    by_pivot: dict = {}
    for v in vectors:
        row = {c: int(x) for c, x in v.items() if x}
        while row:
            p = min(row)
            if p in by_pivot:
                row = chevalley._eliminate(row, by_pivot[p], p)
            else:
                by_pivot[p] = chevalley._primitive(row)
                break
    pivots = sorted(by_pivot)
    for p in reversed(pivots):
        row = by_pivot[p]
        for q in pivots:
            if q > p and q in row:
                row = chevalley._eliminate(row, by_pivot[q], q)
        by_pivot[p] = chevalley._primitive(row)
    return {p: by_pivot[p] for p in pivots}


def test_subspace_back_reduction_equals_quadratic_loop():
    rng = random.Random(31)
    reduced = set()
    for _ in range(300):
        dim = rng.randint(1, 14)
        vecs = []
        for _ in range(rng.randint(1, dim + 3)):
            coords = rng.sample(range(dim), rng.randint(1, min(dim, 6)))
            vecs.append({c: rng.randint(-5, 5) for c in coords})
        sub = Subspace(dim, vecs)
        assert sub.rows == _quadratic_subspace_rows(vecs), vecs
        assert list(sub.rows) == sorted(sub.rows)
        reduced.add(any(len(row) > 1 for row in sub.rows.values()))
    # rows with entries off their pivot occur, as do spaces of unit rows
    assert reduced == {True, False}


def test_coordinate_span_equals_eliminated_unit_vectors():
    rng = random.Random(33)
    cases = [(5, []), (6, [4, 1, 4])]
    for _ in range(40):
        dim = rng.randint(1, 12)
        cases.append((dim, rng.sample(range(dim), rng.randint(0, dim))))
    for dim, coords in cases:
        direct = Subspace.coordinate_span(dim, coords)
        eliminated = Subspace(dim, [{c: 1} for c in coords])
        assert direct == eliminated, coords
        assert list(direct.rows) == list(eliminated.rows) == sorted(set(coords))
        assert direct.scale == eliminated.scale == 1


def _rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for vec in rows:
        row = {c: Fraction(x) for c, x in vec.items() if x}
        while row:
            p = min(row)
            if p not in pivots:
                pivots[p] = row
                break
            f = row[p] / pivots[p][p]
            for c, x in pivots[p].items():
                row[c] = row.get(c, 0) - f * x
                if not row[c]:
                    del row[c]
    return len(pivots)


def test_levi_tensor_kernel_off_root_spaces():
    # A2 (su(2,1)), level = Cartan + C(x_a1 + x_a2): not a root-space sum
    rs = build_root_system("A", 2)
    ca = build_chevalley(rs)
    q = parabolic_from_subset(rs, {1})
    cr = analyze(rs, q, involution_from_matrix(rs, ((0, 1), (1, 0))))
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    level = Subspace(ca.dim, [{0: 1}, {1: 1}, {ca.root_index[(1, 0)]: 1, ca.root_index[(0, 1)]: 1}])
    ker = levi_tensor_kernel(ca, level, sq_sub)
    span = level.sum_with(sq_sub)
    right = sq_sub.row_vecs()
    for w in ker.row_vecs():
        assert level.contains(w)
        assert all(span.contains(ca.bracket(w, v)) for v in right)
    # rank of b -> ([b, v_j] mod span)_j, as the rank of the stacked brackets
    # with a copy of span in every block, less those copies
    blocks = [{j * ca.dim + c: x for j, v in enumerate(right) for c, x in ca.bracket(b, v).items()}
              for b in level.row_vecs()]
    blocks += [{j * ca.dim + c: x for c, x in s.items()} for j in range(len(right)) for s in span.row_vecs()]
    rank = _rank(blocks) - len(right) * span.dim
    assert rank == 1
    assert ker.dim == level.dim - rank
    assert ker == Subspace(ca.dim, [{0: 1}, {1: 1}])


def test_subspace_from_rootset_dims(b3_case):
    _, ca, q, _ = b3_case
    assert subspace_from_rootset(ca, q.root_set).dim == 14
    assert subspace_from_rootset(ca, frozenset()).dim == 3
    assert subspace_from_rootset(ca, frozenset(ca.rs.roots)).dim == 21


def test_oracle_filtration_golden_dims(b3_case):
    _, ca, q, cr = b3_case
    q_sub = subspace_from_rootset(ca, q.root_set)
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    levels = oracle_filtration(ca, q_sub, sq_sub)
    assert [lv.dim for lv in levels] == [14, 11, 9, 8]


def test_oracle_equals_fast_path_levels(b3_case):
    _, ca, q, cr = b3_case
    q_sub = subspace_from_rootset(ca, q.root_set)
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    levels = oracle_filtration(ca, q_sub, sq_sub)
    fast = filtration(cr)
    assert len(levels) == len(fast)
    for sub, roots in zip(levels, fast):
        assert subspace_from_rootset(ca, roots) == sub


def test_oracle_stops_immediately_when_sigma_q_is_q(b3_case):
    _, ca, q, _ = b3_case
    q_sub = subspace_from_rootset(ca, q.root_set)
    assert oracle_filtration(ca, q_sub, q_sub) == [q_sub]


def test_oracle_su21_dims():
    rs = build_root_system("A", 2)
    ca = build_chevalley(rs)
    q = parabolic_from_subset(rs, {1})
    cr = analyze(rs, q, involution_from_matrix(rs, ((0, 1), (1, 0))))
    q_sub = subspace_from_rootset(ca, q.root_set)
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    levels = oracle_filtration(ca, q_sub, sq_sub)
    assert [lv.dim for lv in levels] == [6, 5]
    # Levi-nondegenerate: the first kernel is already the stationary level
    assert levi_tensor_kernel(ca, levels[0], sq_sub) == levels[1]


def test_levi_kernels_equal_levels(b3_case):
    _, ca, q, cr = b3_case
    q_sub = subspace_from_rootset(ca, q.root_set)
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    levels = oracle_filtration(ca, q_sub, sq_sub)
    assert levi_tensor_kernel(ca, levels[0], sq_sub).dim == 11
    for k in range(1, len(levels)):
        assert levi_tensor_kernel(ca, levels[k - 1], sq_sub) == levels[k]
    # fixed point at the stationary level
    assert levi_tensor_kernel(ca, levels[-1], sq_sub) == levels[-1]


def test_cross_check_solves_each_level_once(b3_case, monkeypatch):
    rs, ca, q, cr = b3_case
    calls = []
    real = chevalley.levi_tensor_kernel

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(chevalley, "levi_tensor_kernel", counting)
    q_sub = subspace_from_rootset(ca, q.root_set)
    sq_sub = subspace_from_rootset(ca, cr.sigma_q)
    oracle_filtration(ca, q_sub, sq_sub)
    alone = len(calls)
    calls.clear()
    cross_check(rs, q.root_set, cr.sigma_q, filtration(cr), is_minimal(cr))
    assert len(calls) == alone == 4


def test_cross_check_names_the_first_level_that_differs(b3_case):
    rs, _, q, cr = b3_case
    fast = list(filtration(cr))
    # drop from q(1) a root that q(2) does not hold: the chain keeps its length
    fast[1] = fast[1] - {min(fast[1] - fast[2])}
    with pytest.raises(InvariantViolation, match=r"oracle level 1 \(dimension 11\)"):
        cross_check(rs, q.root_set, cr.sigma_q, fast, is_minimal(cr))


def test_cross_check_rejects_a_short_chain(b3_case):
    rs, _, q, cr = b3_case
    fast = filtration(cr)
    with pytest.raises(InvariantViolation, match="oracle chain has 4 levels, fast path 3"):
        cross_check(rs, q.root_set, cr.sigma_q, fast[:1] + fast[2:], is_minimal(cr))


def test_cross_check_rejects_the_wrong_minimality(b3_case):
    rs, _, q, cr = b3_case
    with pytest.raises(InvariantViolation, match="oracle minimality True, fast path False"):
        cross_check(rs, q.root_set, cr.sigma_q, filtration(cr), not is_minimal(cr))


def test_bracket_residues_equal_one_bracket_per_row_off_root_spaces():
    rng = random.Random(7)
    compared = 0
    for family, rank in (("B", 3), ("G", 2)):
        ca = build_chevalley(build_root_system(family, rank))

        def random_row():
            coords = rng.sample(range(ca.dim), rng.randint(1, 3))
            return {c: rng.choice((-3, -2, 2, 3, 5)) for c in coords}

        rows = [random_row() for _ in range(5)]
        rows_at: dict = {}
        for j, v in enumerate(rows):
            for k, y in v.items():
                rows_at.setdefault(k, []).append((j, y))
        for span in (Subspace(ca.dim), Subspace(ca.dim, [random_row() for _ in range(4)])):
            residue: dict = {}
            for _ in range(2):
                u = random_row()
                got = chevalley._bracket_residues(ca, u, rows_at, residue, span)
                for j, v in enumerate(rows):
                    res = {d: x for d, x in got.get(j, {}).items() if x}
                    assert res == span.reduce(ca.bracket(u, v)), (family, u, v)
                    compared += 1
    assert compared == 40


def _naive_kernel(ca: ChevalleyAlgebra, level: Subspace, sigma_q: Subspace) -> Subspace:
    """The Levi-tensor kernel with one bracket per (level row, sigma_q row)
    pair and one reduction per non-zero image."""
    span = level.sum_with(sigma_q)
    right = sigma_q.row_vecs()
    offset = len(right) * ca.dim
    rows = []
    for b in level.row_vecs():
        row = {offset + c: v for c, v in b.items()}
        for j, v in enumerate(right):
            image = ca.bracket(b, v)
            if image:
                for c, x in span.reduce(image).items():
                    row[j * ca.dim + c] = x
        rows.append(row)
    solved = Subspace(offset + ca.dim, rows)
    return Subspace(ca.dim, [
        {c - offset: v for c, v in row.items()} for p, row in solved.rows.items() if p >= offset
    ])


def test_levi_tensor_kernel_equals_naive_kernel_on_root_spaces():
    proper = set()
    for family in "ABCDG":
        for rank in range(1, 4):
            if not is_valid_type(family, rank):
                continue
            rs = build_root_system(family, rank)
            ca = build_chevalley(rs)
            involutions = enumerate_cayley_involutions(rs, 3)
            seen = set()
            for size in range(rank + 1):
                for qr in combinations(range(1, rank + 1), size):
                    q = parabolic_from_subset(rs, qr)
                    for sigma in involutions:
                        key = (q.root_set, analyze(rs, q, sigma).sigma_q)
                        if key in seen:
                            continue
                        seen.add(key)
                        sq_sub = subspace_from_rootset(ca, key[1])
                        for level in oracle_filtration(ca, subspace_from_rootset(ca, key[0]), sq_sub):
                            ker = levi_tensor_kernel(ca, level, sq_sub)
                            assert ker == _naive_kernel(ca, level, sq_sub), (family, rank, qr)
                            proper.add(ker != level)
    assert proper == {True, False}


def test_levi_tensor_kernel_equals_naive_kernel_off_root_spaces():
    rng = random.Random(2027)
    scaled, dims = set(), set()

    def random_subspace(dim, count):
        vecs = []
        for _ in range(count):
            coords = rng.sample(range(dim), rng.randint(1, 3))
            vecs.append({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in coords})
        return Subspace(dim, vecs)

    for family, rank in (("A", 2), ("B", 3), ("G", 2)):
        ca = build_chevalley(build_root_system(family, rank))
        for _ in range(12):
            level = random_subspace(ca.dim, rng.randint(2, 6))
            sq_sub = random_subspace(ca.dim, rng.randint(1, 4))
            ker = levi_tensor_kernel(ca, level, sq_sub)
            assert ker == _naive_kernel(ca, level, sq_sub), (family, rank, level.rows, sq_sub.rows)
            scaled.add(level.sum_with(sq_sub).scale > 1)
            dims.add((ker.dim == 0, ker.dim == level.dim))
    # pivots > 1 occur, and kernels that are zero, all of the level and neither
    assert scaled == {True, False}
    assert {(True, False), (False, True), (False, False)} <= dims


def test_oracle_minimality(b3_case):
    _, ca, q, cr = b3_case
    q_plus = subspace_from_rootset(ca, cr.q_plus)
    assert oracle_minimality(ca, q_plus) == is_minimal(cr) is True
    assert not oracle_minimality(ca, subspace_from_rootset(ca, q.root_set))
    assert oracle_minimality(ca, subspace_from_rootset(ca, frozenset(ca.rs.roots)))


def _naive_minimality(ca: ChevalleyAlgebra, q_plus: Subspace) -> bool:
    """V <- V + [V, V] to stabilization, bracketing every pair of rows of V
    on every round."""
    current = q_plus
    while True:
        rows = current.row_vecs()
        brackets = [ca.bracket(u, v) for u, v in combinations(rows, 2)]
        nxt = Subspace(ca.dim, rows + brackets)
        if nxt == current:
            return current.dim == ca.dim
        current = nxt


def test_oracle_minimality_equals_naive_loop_on_root_spaces():
    verdicts = set()
    for family in "ABCDG":
        for rank in range(1, 4):
            if not is_valid_type(family, rank):
                continue
            rs = build_root_system(family, rank)
            ca = build_chevalley(rs)
            involutions = enumerate_cayley_involutions(rs, 3)
            seen = set()
            for size in range(rank + 1):
                for qr in combinations(range(1, rank + 1), size):
                    q = parabolic_from_subset(rs, qr)
                    for sigma in involutions:
                        q_plus = analyze(rs, q, sigma).q_plus
                        if q_plus in seen:
                            continue
                        seen.add(q_plus)
                        sub = subspace_from_rootset(ca, q_plus)
                        verdict = oracle_minimality(ca, sub)
                        assert verdict == _naive_minimality(ca, sub), (family, rank, qr)
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_oracle_minimality_equals_naive_loop_off_root_spaces():
    rng = random.Random(2006)
    verdicts = set()
    for family, rank in (("A", 2), ("B", 3), ("G", 2)):
        ca = build_chevalley(build_root_system(family, rank))
        for _ in range(8):
            vecs = []
            for _ in range(rng.randint(1, 3)):
                coords = rng.sample(range(ca.dim), rng.randint(1, 3))
                vecs.append({c: rng.choice((-2, -1, 1, 2)) for c in coords})
            sub = Subspace(ca.dim, vecs)
            verdict = oracle_minimality(ca, sub)
            assert verdict == _naive_minimality(ca, sub), (family, rank, vecs)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_oracle_minimality_rejects_a_round_that_adds_nothing_new(b3_case, monkeypatch):
    _, ca, q, _ = b3_case
    # residues that lie in V already: the round would repeat forever
    monkeypatch.setattr(chevalley, "_bracket_residues", lambda ca, u, *_: {0: dict(u)})
    with pytest.raises(InvariantViolation, match="new directions"):
        oracle_minimality(ca, subspace_from_rootset(ca, q.root_set))


def _analyze_cold_e8():
    """The E8 case of the analyze-cold benchmark workload."""
    rs = build_root_system("E", 8)
    sigma = cayley_update(rs, identity_involution(rs), (0, 0, 0, 0, 0, 0, 0, 1))
    return build_chevalley(rs), analyze(rs, parabolic_from_subset(rs, range(1, 8)), sigma)


def test_oracle_minimality_brackets_each_pair_once_on_e8(monkeypatch):
    ca, cr = _analyze_cold_e8()
    q_plus = subspace_from_rootset(ca, cr.q_plus)
    m = q_plus.dim
    assert m == 219
    calls = []
    real = ChevalleyAlgebra.bracket

    def counting(self, u, v):
        calls.append(1)
        return real(self, u, v)

    monkeypatch.setattr(ChevalleyAlgebra, "bracket", counting)
    reduces, per_round = [], []
    real_reduce, real_sum_with = Subspace.reduce, Subspace.sum_with

    def counting_reduce(self, vec):
        reduces.append(1)
        return real_reduce(self, vec)

    def counting_sum_with(self, other):
        # one call closes each round
        per_round.append(len(reduces))
        reduces.clear()
        return real_sum_with(self, other)

    seen, index = [], []
    real_residues = chevalley._bracket_residues

    def recording_residues(ca, u, rows_at, residue, span):
        # the number of rows indexed when u is bracketed against them
        seen.append(len({j for at in rows_at.values() for j, _ in at}))
        index.append(rows_at)
        return real_residues(ca, u, rows_at, residue, span)

    monkeypatch.setattr(Subspace, "reduce", counting_reduce)
    monkeypatch.setattr(Subspace, "sum_with", counting_sum_with)
    monkeypatch.setattr(chevalley, "_bracket_residues", recording_residues)
    assert oracle_minimality(ca, q_plus) is is_minimal(cr) is True
    assert not calls
    assert per_round and not reduces
    assert all(0 < n <= ca.dim for n in per_round)
    # each row is bracketed against the rows before it, then indexed: every
    # unordered pair once, no row with itself
    assert all(rows_at is index[0] for rows_at in index)
    n = len({j for at in index[0].values() for j, _ in at})
    assert m <= n < ca.dim
    assert sum(seen) == n * (n - 1) // 2
    assert seen == list(range(n))


def test_levi_tensor_kernel_work_on_e8(monkeypatch):
    ca, cr = _analyze_cold_e8()
    brackets, reduces, per_call = [], [], []
    real_bracket, real_reduce, real_kernel = (
        ChevalleyAlgebra.bracket, Subspace.reduce, chevalley.levi_tensor_kernel
    )

    def counting_bracket(self, u, v):
        brackets.append(1)
        return real_bracket(self, u, v)

    def counting_reduce(self, vec):
        reduces.append(1)
        return real_reduce(self, vec)

    seen = []
    real_residues = chevalley._bracket_residues

    def recording_residues(ca, u, rows_at, residue, span):
        seen.append(len({j for at in rows_at.values() for j, _ in at}))
        return real_residues(ca, u, rows_at, residue, span)

    def counting_kernel(ca, level, sigma_q):
        brackets.clear()
        reduces.clear()
        seen.clear()
        ker = real_kernel(ca, level, sigma_q)
        # one product per row of the level, each against every row of sigma(q)
        assert seen == [sigma_q.dim] * level.dim
        per_call.append((len(brackets), len(reduces)))
        return ker

    monkeypatch.setattr(ChevalleyAlgebra, "bracket", counting_bracket)
    monkeypatch.setattr(Subspace, "reduce", counting_reduce)
    monkeypatch.setattr(chevalley, "levi_tensor_kernel", counting_kernel)
    monkeypatch.setattr(chevalley, "_bracket_residues", recording_residues)
    levels = oracle_filtration(
        ca, subspace_from_rootset(ca, cr.q.root_set), subspace_from_rootset(ca, cr.sigma_q)
    )
    assert [lv.dim for lv in levels] == [191, 164, 163]
    assert len(per_call) == 3
    for n_brackets, n_reduces in per_call:
        assert n_brackets == 0
        assert 0 < n_reduces <= ca.dim
