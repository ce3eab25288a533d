"""Hypothesis suites for the algebraic invariants."""

from hypothesis import given, settings, strategies as st

from crflag.cralgebra import (
    DEGENERATE,
    ORBIT_CR,
    ORBIT_OPEN,
    analyze,
    evaluate,
    filter_levels,
    filtration,
    holomorphic_degeneracy_witness,
    is_minimal,
)
from crflag.involution import (
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from crflag.parabolic import c_of_q, check_root_set_closed, parabolic_from_subset
from crflag.roots import build_root_system, pairing, root_sum_table

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]
_RS = {key: build_root_system(*key) for key in SYSTEMS}
_INVS = {key: enumerate_cayley_involutions(rs, 2) for key, rs in _RS.items()}

system_st = st.sampled_from(SYSTEMS)


@st.composite
def cases(draw):
    key = draw(system_st)
    rs = _RS[key]
    mask = draw(st.integers(min_value=0, max_value=2 ** rs.rank - 1))
    qr = {i + 1 for i in range(rs.rank) if mask >> i & 1}
    sigma = draw(st.sampled_from(_INVS[key]))
    return rs, parabolic_from_subset(rs, qr), sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_parabolic_root_sets_bracket_closed(case):
    rs, q, _ = case
    assert check_root_set_closed(rs, q.root_set)


def _nonresonant(rs, q):
    """No two roots outside q sum to a root outside q."""
    complement = set(rs.roots) - q.root_set
    sums = root_sum_table(rs)
    return not any(
        b in complement and s in complement for a in complement for b, s in sums[a].items()
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system_st, st.integers(min_value=0, max_value=7))
def test_nonresonance_iff_hermitian(key, seed):
    rs = _RS[key]
    removed = seed % rs.rank + 1
    q = parabolic_from_subset(rs, set(range(1, rs.rank + 1)) - {removed})
    assert _nonresonant(rs, q) == (c_of_q(rs, q) == 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system_st, st.data())
def test_cayley_involutions_validate(key, data):
    rs = _RS[key]
    sigma = data.draw(st.sampled_from(_INVS[key]))
    # the matrix route raises on any broken invariant and agrees with the
    # Cayley route on every root
    assert involution_from_matrix(rs, sigma.matrix).images == sigma.images
    fixed = sum(1 for beta in rs.roots if sigma.fixes(beta))
    moved = len(rs.roots) - fixed
    assert moved % 2 == 0  # moved roots come in sigma-orbits of size two


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system_st, st.data())
def test_strongly_orthogonal_steps_commute(key, data):
    rs = _RS[key]
    pairs = [
        (g1, g2)
        for g1 in rs.positive_roots
        for g2 in rs.positive_roots
        if g1 < g2 and strongly_orthogonal(rs, g1, g2)
    ]
    if not pairs:
        return
    g1, g2 = data.draw(st.sampled_from(pairs))
    sid = identity_involution(rs)
    one = cayley_update(rs, cayley_update(rs, sid, g1), g2)
    two = cayley_update(rs, cayley_update(rs, sid, g2), g1)
    assert one.matrix == two.matrix


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_filtration_invariants(case):
    rs, q, sigma = case
    cr = analyze(rs, q, sigma)
    f = filtration(cr)
    assert f.levels[0] == q.root_set
    for i, level in enumerate(f.levels):
        assert cr.q_infty <= level <= q.root_set
        assert check_root_set_closed(rs, level)
        if i:
            assert level < f.levels[i - 1]
    assert f.stationary_index == len(f.levels) - 1
    assert f.kernel_dims == tuple(len(lv) - len(cr.q_infty) for lv in f.levels)
    assert f.reached_infty == (f.levels[-1] == cr.q_infty)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_geometry_identities(case):
    rs, q, sigma = case
    cr = analyze(rs, q, sigma)
    geo = cr.geometry
    assert geo.dimR_M == 2 * geo.cr_dim + geo.cr_codim
    assert (geo.orbit_type == ORBIT_OPEN) == (geo.cr_codim == 0)
    assert geo.dim_Z == geo.cr_dim + geo.cr_codim  # complement of q in the algebra


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_witness_iff_degenerate_and_order_bound(case):
    rs, q, sigma = case
    cr = analyze(rs, q, sigma)
    if cr.geometry.orbit_type != ORBIT_CR:
        return
    result = evaluate(cr)
    order, witness = result.order, result.witness
    assert witness == holomorphic_degeneracy_witness(cr, filtration(cr))
    assert (witness is not None) == (order == DEGENERATE)
    if witness is not None:
        assert check_root_set_closed(rs, witness)
        assert q.root_set < witness <= cr.q_plus
    else:
        assert 1 <= order <= len(q.root_set) - len(cr.q_infty)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_maximal_cr_is_minimal_with_finite_order(case):
    rs, q, sigma = case
    cr = analyze(rs, q, sigma)
    if not q.is_maximal or cr.geometry.orbit_type != ORBIT_CR:
        return
    result = evaluate(cr)
    assert isinstance(result.order, int)
    assert result.minimal and is_minimal(cr)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_sigma_image_of_filtration(case):
    rs, q, sigma = case
    cr = analyze(rs, q, sigma)
    swapped = filter_levels(rs, cr.sigma_q, frozenset(q.root_set))
    direct = filter_levels(rs, frozenset(q.root_set), cr.sigma_q)
    assert [frozenset(sigma.apply(b) for b in level) for level in direct] == swapped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system_st, st.data())
def test_reflection_closure_and_kappa_symmetry(key, data):
    rs = _RS[key]
    beta = data.draw(st.sampled_from(rs.roots))
    gamma = data.draw(st.sampled_from(rs.roots))
    refl = tuple(b - pairing(rs, beta, gamma) * g for b, g in zip(beta, gamma))
    assert refl in rs.root_lookup
    assert rs.inner(beta, gamma) == rs.inner(gamma, beta)
