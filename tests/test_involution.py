import itertools

import pytest

from crflag.involution import (
    InvolutionError,
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from crflag.roots import RootSystem, build_root_system, pairing


def _a2_with_form(form) -> RootSystem:
    """A2 with its Gram matrix replaced by ``form``."""
    a2 = build_root_system("A", 2)
    return RootSystem(family="A", rank=2, cartan_matrix=a2.cartan_matrix,
                      positive_roots=a2.positive_roots, form=form, roots=a2.roots,
                      root_code=a2.root_code)


def test_identity():
    rs = build_root_system("B", 3)
    sid = identity_involution(rs)
    assert sid.apply((1, 0, 0)) == (1, 0, 0)
    assert sid.provenance == "identity"
    assert all(sid.fixes(beta) for beta in rs.roots)


def test_from_matrix_a2_swap():
    rs = build_root_system("A", 2)
    swap = involution_from_matrix(rs, ((0, 1), (1, 0)))
    assert swap.apply((1, 0)) == (0, 1)
    assert swap.apply((1, 1)) == (1, 1)
    # checked by enumeration over all six roots
    for beta in rs.roots:
        img = swap.apply(beta)
        assert img in rs.root_code
        assert swap.apply(img) == beta
        for gamma in rs.roots:
            assert rs.inner(img, swap.apply(gamma)) == rs.inner(beta, gamma)


def test_from_matrix_rejects_non_involutive():
    rs = build_root_system("A", 2)
    with pytest.raises(InvolutionError, match="involutive"):
        involution_from_matrix(rs, ((2, 0), (0, 2)))


def test_from_matrix_rejects_non_integer_entries():
    rs = build_root_system("A", 2)
    with pytest.raises(InvolutionError, match="0.9, 0.2"):
        involution_from_matrix(rs, ((0.9, 1), (1, 0.2)))
    assert involution_from_matrix(rs, ((0.0, 1.0), (1, 0))).matrix == ((0, 1), (1, 0))


def test_from_matrix_rejects_non_root_preserving():
    rs = build_root_system("A", 2)
    with pytest.raises(InvolutionError, match="root"):
        involution_from_matrix(rs, ((1, 0), (0, -1)))
    b2 = build_root_system("B", 2)
    # the B2 diagram swap maps 12 to 21, which is not a root
    with pytest.raises(InvolutionError, match="root"):
        involution_from_matrix(b2, ((0, 1), (1, 0)))


def test_constructor_rejects_form_breaking_permutation():
    # a form that no root system has: with alpha_2 half as long as
    # alpha_1, the A2 diagram swap is still an involution of the root set,
    # but not an isometry
    rs = _a2_with_form(((6, -3), (-3, 3)))
    with pytest.raises(InvolutionError, match="invariant form"):
        involution_from_matrix(rs, ((0, 1), (1, 0)))


def test_minus_identity_valid():
    rs = build_root_system("B", 3)
    neg = involution_from_matrix(rs, tuple(tuple(-int(i == j) for j in range(3)) for i in range(3)))
    assert neg.apply((1, 2, 2)) == (-1, -2, -2)


def test_cayley_update_b3():
    rs = build_root_system("B", 3)
    s1 = cayley_update(rs, identity_involution(rs), (0, 1, 0))
    assert s1.apply((0, 1, 0)) == (0, -1, 0)
    assert s1.apply((0, 0, 1)) == (0, 1, 1)
    assert s1.provenance == ((0, 1, 0),)
    s2 = cayley_update(rs, s1, (1, 1, 1))
    assert s2.apply((1, 0, 0)) == (-1, -1, -2)
    assert s2.provenance == ((0, 1, 0), (1, 1, 1))


def test_cayley_twice_is_identity():
    rs = build_root_system("C", 3)
    for gamma in rs.positive_roots:
        once = cayley_update(rs, identity_involution(rs), gamma)
        twice = cayley_update(rs, once, gamma)
        assert twice.matrix == identity_involution(rs).matrix


def test_cayley_preconditions():
    rs = build_root_system("B", 3)
    s1 = cayley_update(rs, identity_involution(rs), (0, 1, 0))
    # 001 is moved by s1, so it is not an admissible Cayley root
    assert not s1.fixes((0, 0, 1))
    with pytest.raises(InvolutionError, match="not fixed"):
        cayley_update(rs, s1, (0, 0, 1))
    with pytest.raises(InvolutionError, match="not a root"):
        cayley_update(rs, s1, (5, 0, 0))


def test_cayley_equals_reflection_composition():
    # every enumerated involution against a per-root reference: starting
    # from the identity table, each chain root gamma maps every image s to
    # s - <s|gamma> gamma
    types = [
        *[("A", r, 3) for r in range(1, 6)],
        *[("B", r, 3) for r in range(2, 6)],
        *[("C", r, 3) for r in range(3, 6)],
        ("D", 4, 3), ("D", 5, 3), ("G", 2, 3), ("F", 4, 3), ("E", 6, 2),
    ]
    for family, rank, depth in types:
        rs = build_root_system(family, rank)
        reference = {(): {beta: beta for beta in rs.roots}}
        for inv in enumerate_cayley_involutions(rs, depth):
            chain = inv.provenance if isinstance(inv.provenance, tuple) else ()
            for k in range(1, len(chain) + 1):
                if chain[:k] not in reference:
                    gamma = chain[k - 1]
                    reference[chain[:k]] = {
                        beta: tuple(x - pairing(rs, s, gamma) * g for x, g in zip(s, gamma))
                        for beta, s in reference[chain[:k - 1]].items()
                    }
            assert inv.images == reference[chain], (family, rank, chain)


@pytest.mark.parametrize("family,rank,bound,accepted", [
    ("A", 2, 2, 8), ("B", 2, 2, 6), ("G", 2, 3, 8), ("A", 3, 1, 20),
])
def test_matrix_box_accepts_exactly_the_involutions(family, rank, bound, accepted):
    # every integer matrix with entries in -bound..bound is either rejected
    # or accepted; the accepted ones are all involutions of Aut(Phi) there,
    # counted independently by a search over the Weyl group times the
    # diagram automorphisms
    rs = build_root_system(family, rank)
    count = 0
    for flat in itertools.product(range(-bound, bound + 1), repeat=rank * rank):
        matrix = tuple(flat[i * rank:(i + 1) * rank] for i in range(rank))
        try:
            sigma = involution_from_matrix(rs, matrix)
        except InvolutionError:
            continue
        assert sigma.matrix == matrix
        assert all(sigma.apply(sigma.apply(beta)) == beta for beta in rs.roots)
        count += 1
    assert count == accepted


def test_cayley_rejects_non_integral_pairing():
    # a form that no root system has: <alpha_2|alpha_1> = 2 (-1) / 6 is not
    # an integer, so the step must fail instead of writing fractions
    rs = _a2_with_form(((6, -1), (-1, 6)))
    with pytest.raises(InvolutionError):
        cayley_update(rs, identity_involution(rs), (1, 0))


def test_strongly_orthogonal():
    b3 = build_root_system("B", 3)
    assert strongly_orthogonal(b3, (1, 1, 1), (0, 1, 0))
    assert not strongly_orthogonal(b3, (1, 1, 1), (1, 1, 1))
    a2 = build_root_system("A", 2)
    assert not strongly_orthogonal(a2, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        strongly_orthogonal(a2, (2, 0), (0, 1))


def test_strongly_orthogonal_chains_commute():
    rs = build_root_system("B", 3)
    sid = identity_involution(rs)
    pairs = [
        (g1, g2)
        for g1 in rs.positive_roots
        for g2 in rs.positive_roots
        if g1 < g2 and strongly_orthogonal(rs, g1, g2)
    ]
    assert pairs
    for g1, g2 in pairs:
        one = cayley_update(rs, cayley_update(rs, sid, g1), g2)
        two = cayley_update(rs, cayley_update(rs, sid, g2), g1)
        assert one.matrix == two.matrix


def test_enumerate_a1():
    rs = build_root_system("A", 1)
    assert len(enumerate_cayley_involutions(rs, 0)) == 1
    invs = enumerate_cayley_involutions(rs, 1)
    assert len(invs) == 2
    assert {inv.matrix for inv in invs} == {((1,),), ((-1,),)}


def test_enumerate_b3_contains_golden_involution():
    rs = build_root_system("B", 3)
    golden = cayley_update(rs, cayley_update(rs, identity_involution(rs), (0, 1, 0)), (1, 1, 1))
    invs = enumerate_cayley_involutions(rs, 2)
    assert golden.matrix in {inv.matrix for inv in invs}


def test_enumerate_deterministic_and_validated():
    rs = build_root_system("B", 2)
    invs1 = enumerate_cayley_involutions(rs, 3)
    invs2 = enumerate_cayley_involutions(rs, 3)
    assert [i.matrix for i in invs1] == [i.matrix for i in invs2]
    for inv in invs1:
        # re-validation must accept every generated involution
        involution_from_matrix(rs, inv.matrix)


@pytest.mark.parametrize(
    "family,rank,counts",
    [
        ("A", 1, [1, 2, 2, 2]),
        ("A", 2, [1, 4, 4, 4]),
        ("A", 3, [1, 7, 10, 10]),
        ("B", 2, [1, 5, 6, 6]),
        ("B", 3, [1, 10, 19, 20]),
        ("C", 3, [1, 10, 19, 20]),
        ("D", 4, [1, 13, 31, 43]),
        ("G", 2, [1, 7, 8, 8]),
    ],
)
def test_enumeration_counts_by_depth(family, rank, counts):
    # depth-1 counts are 1 + |Phi+| (identity plus one reflection per
    # positive root); deeper counts pin the strong-orthogonality closure
    rs = build_root_system(family, rank)
    assert counts[1] == 1 + len(rs.positive_roots)
    got = [len(enumerate_cayley_involutions(rs, d)) for d in range(4)]
    assert got == counts
    for d in range(4):
        expected = [(s.matrix, s.provenance) for s in _brute_force_cayley(rs, d)]
        assert [(s.matrix, s.provenance) for s in enumerate_cayley_involutions(rs, d)] == expected


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("G", 2)])
def test_enumeration_stops_once_no_chain_extends(family, rank):
    # a chain of strongly orthogonal roots is at most rank long, so a
    # deeper bound adds no round of work, however large it is
    rs = build_root_system(family, rank)
    expected = [(s.matrix, s.provenance) for s in enumerate_cayley_involutions(rs, rank)]
    got = [(s.matrix, s.provenance) for s in enumerate_cayley_involutions(rs, 10**12)]
    assert got == expected


def _brute_force_cayley(rs, depth):
    """Every pairwise strongly orthogonal set of at most ``depth`` positive
    roots, by size and then lexicographically in table order, applied as a
    sorted Cayley chain; the first set reaching a matrix wins."""
    found = {}
    for k in range(depth + 1):
        for chain in itertools.combinations(rs.positive_roots, k):
            if all(strongly_orthogonal(rs, a, b) for a, b in itertools.combinations(chain, 2)):
                sigma = identity_involution(rs)
                for gamma in chain:
                    sigma = cayley_update(rs, sigma, gamma)
                found.setdefault(sigma.matrix, sigma)
    return list(found.values())


def test_g2_orthogonal_pairs_all_give_minus_identity():
    # rank 2: two orthogonal reflections compose to -id, so all three
    # strongly orthogonal pairs collapse to a single new involution
    rs = build_root_system("G", 2)
    pairs = [
        (g1, g2)
        for g1 in rs.positive_roots
        for g2 in rs.positive_roots
        if g1 < g2 and strongly_orthogonal(rs, g1, g2)
    ]
    assert len(pairs) == 3
    minus_id = ((-1, 0), (0, -1))
    for g1, g2 in pairs:
        sigma = cayley_update(rs, cayley_update(rs, identity_involution(rs), g1), g2)
        assert sigma.matrix == minus_id


def test_chain_roots_pairwise_strongly_orthogonal():
    rs = build_root_system("C", 3)
    for inv in enumerate_cayley_involutions(rs, 3):
        chain = inv.provenance if isinstance(inv.provenance, tuple) else ()
        for i, g1 in enumerate(chain):
            for g2 in chain[i + 1:]:
                assert strongly_orthogonal(rs, g1, g2)
