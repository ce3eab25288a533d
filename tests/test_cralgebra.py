import pytest

from crflag.cralgebra import (
    DEGENERATE,
    ORBIT_CR,
    ORBIT_OPEN,
    ORBIT_TOTALLY_REAL,
    OrbitTypeError,
    addition_closure,
    analyze,
    filter_levels,
    filtration,
    geometry,
    holomorphic_degeneracy_witness,
    is_minimal,
    nondegeneracy_order,
)
from crflag.involution import (
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
)
from crflag.parabolic import check_root_set_closed, parabolic_from_subset
from crflag.roots import build_root_system, parse_root


def _roots(rank, *strings):
    return frozenset(parse_root(s, rank) for s in strings)


@pytest.fixture(scope="module")
def golden():
    """The so(7) hypersurface case: B3, keep {alpha_1, alpha_3}, Cayley
    chain alpha_2 then alpha_1+alpha_2+alpha_3 from the identity."""
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    sigma = identity_involution(rs)
    for gamma in ((0, 1, 0), (1, 1, 1)):
        sigma = cayley_update(rs, sigma, gamma)
    return rs, q, sigma, analyze(rs, q, sigma)


GOLDEN_INFTY = ("100", "-112", "-001", "-011", "-012")


def test_golden_q_infty(golden):
    rs, _, _, cr = golden
    assert cr.q_infty == _roots(3, *GOLDEN_INFTY)
    assert len(cr.q_infty) == 5
    assert cr.gamma_set == _roots(3, "012")


def test_identity_sigma_is_totally_real():
    for family, rank, qr in (("B", 3, {1, 3}), ("A", 3, {2}), ("C", 3, set())):
        rs = build_root_system(family, rank)
        q = parabolic_from_subset(rs, qr)
        cr = analyze(rs, q, identity_involution(rs))
        assert cr.q_infty == cr.q_plus == q.root_set
        assert geometry(cr).orbit_type == ORBIT_TOTALLY_REAL


def test_a1_borel_with_reflection_is_open():
    rs = build_root_system("A", 1)
    q = parabolic_from_subset(rs, set())
    sigma = cayley_update(rs, identity_involution(rs), (1,))
    cr = analyze(rs, q, sigma)
    assert cr.sigma_q == _roots(1, "1")
    assert cr.q_plus == frozenset(rs.roots)
    assert geometry(cr).orbit_type == ORBIT_OPEN
    assert nondegeneracy_order(cr) == ORBIT_OPEN


def test_golden_geometry(golden):
    _, _, _, cr = golden
    geo = geometry(cr)
    assert (geo.dim_Z, geo.dimR_M, geo.cr_dim, geo.cr_codim) == (7, 13, 6, 1)
    assert geo.orbit_type == ORBIT_CR


def test_point_flag_manifold():
    rs = build_root_system("A", 2)
    q = parabolic_from_subset(rs, {1, 2})
    geo = geometry(analyze(rs, q, identity_involution(rs)))
    assert geo.dim_Z == 0 and geo.cr_codim == 0


def test_golden_filtration(golden):
    _, _, _, cr = golden
    f = filtration(cr)
    infty = _roots(3, *GOLDEN_INFTY)
    assert f.levels[3] == infty
    assert f.levels[2] == infty | _roots(3, "-122")
    assert f.levels[1] == f.levels[2] | _roots(3, "-010", "-111")
    assert f.levels[0] == f.levels[1] | _roots(3, "-100", "-110", "001")
    assert f.stationary_index == 3 and f.reached_infty
    assert f.order_k == 3
    assert f.kernel_dims == (6, 3, 1, 0)


def test_identity_sigma_filtration_is_trivial():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    f = filtration(analyze(rs, q, identity_involution(rs)))
    assert f.levels == (q.root_set,)
    assert f.stationary_index == 0 and f.reached_infty
    assert f.order_k is None


def test_su21_sphere_case():
    # hand enumeration over the six roots of A2
    rs = build_root_system("A", 2)
    q = parabolic_from_subset(rs, {1})
    sigma = involution_from_matrix(rs, ((0, 1), (1, 0)))
    cr = analyze(rs, q, sigma)
    negatives = _roots(2, "-10", "-01", "-11")
    assert cr.q_infty == negatives
    f = filtration(cr)
    assert f.levels == (q.root_set, negatives)
    assert nondegeneracy_order(cr) == 1
    geo = geometry(cr)
    assert (geo.dim_Z, geo.dimR_M, geo.cr_dim, geo.cr_codim) == (2, 3, 1, 1)
    assert is_minimal(cr)


def test_golden_order_and_minimality(golden):
    _, _, _, cr = golden
    assert nondegeneracy_order(cr) == 3
    assert is_minimal(cr)
    assert holomorphic_degeneracy_witness(cr) is None


def _first_degenerate_hypersurface(rs, qr):
    q = parabolic_from_subset(rs, qr)
    for sigma in enumerate_cayley_involutions(rs, 3):
        cr = analyze(rs, q, sigma)
        geo = geometry(cr)
        if geo.orbit_type == ORBIT_CR and geo.cr_codim == 1:
            return cr
    return None


def test_non_maximal_hypersurface_is_degenerate():
    rs = build_root_system("B", 3)
    cr = _first_degenerate_hypersurface(rs, {1})
    assert cr is not None, "the Cayley sweep must produce a hypersurface case"
    assert nondegeneracy_order(cr) == DEGENERATE
    witness = holomorphic_degeneracy_witness(cr)
    assert witness is not None
    assert check_root_set_closed(rs, witness)
    assert cr.q.root_set < witness <= cr.q_plus


def test_witness_gate_raises_off_cr():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    cr = analyze(rs, q, identity_involution(rs))
    with pytest.raises(OrbitTypeError):
        holomorphic_degeneracy_witness(cr)


def test_witness_iff_degenerate_on_sweep():
    rs = build_root_system("B", 3)
    for qr in (set(), {1}, {2}, {3}, {1, 3}, {2, 3}):
        q = parabolic_from_subset(rs, qr)
        for sigma in enumerate_cayley_involutions(rs, 2):
            cr = analyze(rs, q, sigma)
            if geometry(cr).orbit_type != ORBIT_CR:
                continue
            order = nondegeneracy_order(cr)
            witness = holomorphic_degeneracy_witness(cr)
            assert (witness is not None) == (order == DEGENERATE)
            if isinstance(order, int):
                assert 1 <= order <= len(q.root_set) - len(cr.q_infty)


def test_minimality_cases():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    assert not is_minimal(analyze(rs, q, identity_involution(rs)))
    full = parabolic_from_subset(rs, {1, 2, 3})
    assert is_minimal(analyze(rs, full, identity_involution(rs)))


def test_addition_closure():
    rs = build_root_system("A", 2)
    assert addition_closure(rs, {(1, 0), (0, 1)}) == _roots(2, "10", "01", "11")
    negatives = {tuple(-c for c in b) for b in rs.positive_roots}
    assert addition_closure(rs, negatives) == frozenset(negatives)


def test_check_root_set_closed():
    rs = build_root_system("A", 2)
    negatives = {tuple(-c for c in b) for b in rs.positive_roots}
    assert check_root_set_closed(rs, negatives)
    assert check_root_set_closed(rs, {(1, 0)})
    assert not check_root_set_closed(rs, {(1, 0), (0, 1)})


def test_filtration_levels_are_bracket_closed_and_nested(golden):
    _, q, _, cr = golden
    f = filtration(cr)
    for i, level in enumerate(f.levels):
        assert check_root_set_closed(cr.rs, level)
        assert cr.q_infty <= level <= q.root_set
        if i:
            assert level < f.levels[i - 1]


def test_sigma_swap_consistency(golden):
    # running the analysis from sigma(q) instead of q must produce the
    # sigma-images of every level
    rs, q, sigma, cr = golden
    mirrored = filter_levels(rs, cr.sigma_q, frozenset(q.root_set))
    direct = filter_levels(rs, frozenset(q.root_set), cr.sigma_q)
    assert len(mirrored) == len(direct)
    for lhs, rhs in zip(mirrored, direct):
        assert lhs == frozenset(sigma.apply(b) for b in rhs)
