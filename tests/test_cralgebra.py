import gc
import itertools
import sys
import weakref

import pytest

from crflag import cralgebra
from crflag.cli import build_report
from crflag.cralgebra import (
    DEGENERATE,
    ORBIT_CR,
    ORBIT_OPEN,
    ORBIT_TOTALLY_REAL,
    OrbitTypeError,
    addition_closure,
    analyze,
    evaluate,
    filter_levels,
    filtration,
    holomorphic_degeneracy_witness,
    is_minimal,
)
from crflag.involution import (
    InvolutionData,
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
)
from crflag.parabolic import check_root_set_closed, parabolic_from_subset
from crflag.roots import InvariantViolation, build_root_system, parse_root, root_sum_table
from crflag.survey import run_survey


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
    assert frozenset(rs.roots) - cr.q_plus == _roots(3, "012")


def test_identity_sigma_is_totally_real():
    for family, rank, qr in (("B", 3, {1, 3}), ("A", 3, {2}), ("C", 3, set())):
        rs = build_root_system(family, rank)
        q = parabolic_from_subset(rs, qr)
        cr = analyze(rs, q, identity_involution(rs))
        assert cr.q_infty == cr.q_plus == q.root_set
        assert cr.orbit_type == ORBIT_TOTALLY_REAL


def test_a1_borel_with_reflection_is_open():
    rs = build_root_system("A", 1)
    q = parabolic_from_subset(rs, set())
    sigma = cayley_update(rs, identity_involution(rs), (1,))
    cr = analyze(rs, q, sigma)
    assert cr.sigma_q == _roots(1, "1")
    assert cr.q_plus == frozenset(rs.roots)
    assert cr.orbit_type == ORBIT_OPEN
    assert evaluate(cr).order == ORBIT_OPEN


def test_golden_geometry(golden):
    _, _, _, cr = golden
    assert (cr.dim_Z, cr.dimR_M, cr.cr_dim, cr.cr_codim) == (7, 13, 6, 1)
    assert cr.orbit_type == ORBIT_CR


def test_point_flag_manifold():
    rs = build_root_system("A", 2)
    q = parabolic_from_subset(rs, {1, 2})
    cr = analyze(rs, q, identity_involution(rs))
    assert cr.dim_Z == 0 and cr.cr_codim == 0


def test_golden_filtration(golden):
    _, _, _, cr = golden
    levels = filtration(cr)
    infty = _roots(3, *GOLDEN_INFTY)
    assert levels[3] == infty == cr.q_infty
    assert levels[2] == infty | _roots(3, "-122")
    assert levels[1] == levels[2] | _roots(3, "-010", "-111")
    assert levels[0] == levels[1] | _roots(3, "-100", "-110", "001")
    assert len(levels) == 4
    assert evaluate(cr).order == 3
    assert [len(level - infty) for level in levels] == [6, 3, 1, 0]


def test_identity_sigma_filtration_is_trivial():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    cr = analyze(rs, q, identity_involution(rs))
    assert filtration(cr) == (q.root_set,) == (cr.q_infty,)
    assert evaluate(cr).order == ORBIT_TOTALLY_REAL


def test_su21_sphere_case():
    # hand enumeration over the six roots of A2
    rs = build_root_system("A", 2)
    q = parabolic_from_subset(rs, {1})
    sigma = involution_from_matrix(rs, ((0, 1), (1, 0)))
    cr = analyze(rs, q, sigma)
    negatives = _roots(2, "-10", "-01", "-11")
    assert cr.q_infty == negatives
    assert filtration(cr) == (q.root_set, negatives)
    assert evaluate(cr).order == 1
    assert (cr.dim_Z, cr.dimR_M, cr.cr_dim, cr.cr_codim) == (2, 3, 1, 1)
    assert is_minimal(cr)


def test_golden_order_and_minimality(golden):
    _, _, _, cr = golden
    result = evaluate(cr)
    assert (result.order, result.minimal, result.witness) == (3, True, None)
    assert is_minimal(cr)
    assert holomorphic_degeneracy_witness(cr, filtration(cr)) is None


def _first_degenerate_hypersurface(rs, qr):
    q = parabolic_from_subset(rs, qr)
    for sigma in enumerate_cayley_involutions(rs, 3):
        cr = analyze(rs, q, sigma)
        if cr.orbit_type == ORBIT_CR and cr.cr_codim == 1:
            return cr
    return None


def test_non_maximal_hypersurface_is_degenerate():
    rs = build_root_system("B", 3)
    cr = _first_degenerate_hypersurface(rs, {1})
    assert cr is not None, "the Cayley sweep must produce a hypersurface case"
    result = evaluate(cr)
    assert result.order == DEGENERATE
    witness = result.witness
    assert witness is not None
    assert holomorphic_degeneracy_witness(cr, result.levels) == witness
    assert check_root_set_closed(rs, witness)
    assert cr.q.root_set < witness <= cr.q_plus


def test_witness_gate_raises_off_cr():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    cr = analyze(rs, q, identity_involution(rs))
    with pytest.raises(OrbitTypeError):
        holomorphic_degeneracy_witness(cr, filtration(cr))


def test_witness_iff_degenerate_on_sweep():
    rs = build_root_system("B", 3)
    for qr in (set(), {1}, {2}, {3}, {1, 3}, {2, 3}):
        q = parabolic_from_subset(rs, qr)
        for sigma in enumerate_cayley_involutions(rs, 2):
            cr = analyze(rs, q, sigma)
            if cr.orbit_type != ORBIT_CR:
                continue
            result = evaluate(cr)
            order, witness = result.order, result.witness
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
    levels = filtration(cr)
    for i, level in enumerate(levels):
        assert check_root_set_closed(cr.rs, level)
        assert cr.q_infty <= level <= q.root_set
        if i:
            assert level < levels[i - 1]


def test_sigma_swap_consistency(golden):
    # running the analysis from sigma(q) instead of q must produce the
    # sigma-images of every level
    rs, q, sigma, cr = golden
    mirrored = filter_levels(rs, cr.sigma_q, frozenset(q.root_set))
    direct = filter_levels(rs, frozenset(q.root_set), cr.sigma_q)
    assert len(mirrored) == len(direct)
    for lhs, rhs in zip(mirrored, direct):
        assert lhs == frozenset(sigma.apply(b) for b in rhs)


def _depth_three_cases():
    """Every (q, sigma) of A1-A4, B2-B4, C3, D4 and G2 with sigma a Cayley
    chain of length at most 3, or -1."""
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                         ("B", 4), ("C", 3), ("D", 4), ("G", 2)):
        rs = build_root_system(family, rank)
        minus = tuple(tuple(-int(i == j) for j in range(rank)) for i in range(rank))
        sigmas = enumerate_cayley_involutions(rs, 3) + [involution_from_matrix(rs, minus)]
        for size in range(rank + 1):
            for qr in itertools.combinations(range(1, rank + 1), size):
                q = parabolic_from_subset(rs, qr)
                for sigma in sigmas:
                    yield rs, q, sigma


def test_identities_analyze_takes_from_the_involution():
    # analyze checks none of these per case: each follows from sigma being
    # a linear involution of Phi, which its constructor checks
    cases = 0
    for rs, q, sigma in _depth_three_cases():
        cr = analyze(rs, q, sigma)
        transversal = frozenset(rs.roots) - cr.q_plus
        for roots in (cr.q_infty, cr.q_plus, transversal):
            assert frozenset(map(sigma.apply, roots)) == roots
        assert len(cr.q_plus) == 2 * len(q.root_set) - len(cr.q_infty)
        if len(transversal) == 1:
            (gamma,) = transversal
            assert sigma.fixes(gamma)
        assert cr.dimR_M == 2 * cr.cr_dim + cr.cr_codim
        assert check_root_set_closed(rs, cr.q_infty)
        cases += 1
    assert cases == 2_866


def test_filtration_off_cr_orbits_is_the_full_chain():
    # filtration returns q alone on open and totally real orbits without
    # running the kernel steps, and is_minimal answers from the orbit type
    # without the closure; the steps and the closure reach the same answers
    kinds = set()
    for rs, q, sigma in _depth_three_cases():
        cr = analyze(rs, q, sigma)
        if cr.orbit_type == ORBIT_CR:
            continue
        kinds.add(cr.orbit_type)
        assert filtration(cr) == filter_levels(rs, q.root_set, cr.sigma_q) == (q.root_set,)
        assert is_minimal(cr) == (addition_closure(rs, cr.q_plus) == frozenset(rs.roots))
    assert kinds == {ORBIT_OPEN, ORBIT_TOTALLY_REAL}


def test_totally_real_case_scans_no_root_sums(monkeypatch):
    # A30 split is totally real: q^inf is q, closed by construction, and
    # q + sigma(q) = q is proper, so neither answer scans a root sum
    rs = build_root_system("A", 30)
    q = parabolic_from_subset(rs, {1})
    calls = []
    for name in ("check_root_set_closed", "addition_closure"):
        def counting(*args, _name=name, _real=getattr(cralgebra, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cralgebra, name, counting)
    cr = analyze(rs, q, identity_involution(rs))
    result = evaluate(cr)
    assert cr.orbit_type == ORBIT_TOTALLY_REAL and cr.q_infty == q.root_set
    assert result.order == ORBIT_TOTALLY_REAL and result.minimal is False
    assert calls == []


def test_analyze_applies_sigma_once_per_root_of_q(golden, monkeypatch):
    rs, q, sigma, _ = golden
    calls = []
    apply = InvolutionData.apply

    def counting(self, root):
        calls.append(root)
        return apply(self, root)

    monkeypatch.setattr(InvolutionData, "apply", counting)
    analyze(rs, q, sigma)
    assert len(calls) == len(q.root_set)


def _count_filtration_calls(monkeypatch):
    """Wrap cralgebra.filtration in every crflag module that bound it by
    name, as the benchmark's tracer does; the list gets one entry a call."""
    real = cralgebra.filtration
    calls = []

    def counting(cr):
        calls.append(None)
        return real(cr)

    for name, module in list(sys.modules.items()):
        if name == "crflag" or name.startswith("crflag."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_survey_computes_the_filtration_once_per_kept_row(monkeypatch):
    calls = _count_filtration_calls(monkeypatch)
    rows = run_survey(["A", "B"], max_rank=3, involution_source=2,
                      hypersurface_only=True, oracle_max_rank=3)
    assert any(r.orbit_type == ORBIT_CR and r.oracle_checked for r in rows)
    assert len(calls) == len(rows)


def test_analyze_report_computes_the_filtration_once(golden, monkeypatch):
    rs, q, sigma, _ = golden
    calls = _count_filtration_calls(monkeypatch)
    report = build_report(rs, q, sigma, run_oracle=True)
    assert report["order"] == 3 and report["degenerate"] is False
    assert len(calls) == 1


def test_evaluate_keeps_no_case_alive(golden):
    rs, q, sigma, _ = golden
    cr = analyze(rs, q, sigma)
    case = weakref.ref(cr)
    result = evaluate(cr)
    del cr
    gc.collect()
    assert case() is None
    assert result.order == 3


def test_evaluate_rejects_an_order_above_the_cr_dimension(golden, monkeypatch):
    _, _, _, cr = golden
    real = cralgebra.filtration

    def too_long(cr_):
        # a chain that reaches q^inf after cr_dim + 1 steps
        return (cr_.q.root_set,) * (cr_.cr_dim + 1) + (cr_.q_infty,)

    monkeypatch.setattr(cralgebra, "filtration", too_long)
    with pytest.raises(InvariantViolation, match="1..cr_dim"):
        evaluate(cr)


# Each invariant check of cralgebra fires on an input that breaks it.  A
# validated sigma never does, so the inputs are built past the validation.


def _sum_in(rs, inside, target):
    """A root of ``target`` that is the sum of two roots of ``inside``."""
    sums = root_sum_table(rs)
    return next(s for x in inside for y, s in sums[x].items() if y in inside and s in target)


def test_analyze_rejects_a_q_infty_that_is_not_closed(golden):
    # a permutation of the roots that is not linear: it swaps a sum a of
    # two roots of q with -a, so q^inf is q without a
    rs, q, sigma, _ = golden
    def minus(r):
        return tuple(-c for c in r)

    a = _sum_in(rs, q.root_set, {r for r in q.root_set if minus(r) not in q.root_set})
    minus_a = minus(a)
    images = {r: r for r in rs.roots}
    images[a], images[minus_a] = minus_a, a
    with pytest.raises(InvariantViolation, match="q\\^inf must be closed"):
        analyze(rs, q, InvolutionData(sigma.matrix, "explicit", images))


def test_filter_levels_rejects_a_step_that_does_not_descend(golden, monkeypatch):
    rs, q, _, cr = golden
    monkeypatch.setattr(cralgebra, "_next_level", lambda rs_, level, sigma_q: frozenset(rs_.roots))
    with pytest.raises(InvariantViolation, match="strictly decrease"):
        filter_levels(rs, q.root_set, cr.sigma_q)


def test_filter_levels_rejects_a_chain_longer_than_its_bound(golden, monkeypatch):
    # one root less a step runs past q^inf, down to the empty level
    rs, q, _, cr = golden
    monkeypatch.setattr(cralgebra, "_next_level", lambda rs_, level, sigma_q: frozenset(sorted(level)[1:]))
    with pytest.raises(InvariantViolation, match="theoretical length"):
        filter_levels(rs, q.root_set, cr.sigma_q)


def test_filtration_rejects_a_level_without_q_infty(golden, monkeypatch):
    _, q, _, cr = golden
    monkeypatch.setattr(cralgebra, "filter_levels", lambda *args: (q.root_set, frozenset()))
    with pytest.raises(InvariantViolation, match="contain q\\^inf"):
        filtration(cr)


def test_filtration_rejects_a_level_that_is_not_closed(golden, monkeypatch):
    # q without a sum of two of its roots that lies outside q^inf
    rs, q, _, cr = golden
    level = q.root_set - {_sum_in(rs, q.root_set, q.root_set - cr.q_infty)}
    monkeypatch.setattr(cralgebra, "filter_levels", lambda *args: (q.root_set, level))
    with pytest.raises(InvariantViolation, match="every level must be closed"):
        filtration(cr)


def test_witness_rejects_a_set_that_is_not_closed(golden):
    # q plus one sigma image that does not close up with q
    rs, q, sigma, cr = golden
    beta = next(b for b in q.root_set - cr.q_infty
                if not check_root_set_closed(rs, q.root_set | {sigma.apply(b)}))
    with pytest.raises(InvariantViolation, match="witness must be closed"):
        holomorphic_degeneracy_witness(cr, (q.root_set, cr.q_infty | {beta}))


def test_witness_rejects_a_set_not_above_q(golden):
    # a last level inside q^inf adds nothing to q
    _, q, _, cr = golden
    with pytest.raises(InvariantViolation, match="strictly between"):
        holomorphic_degeneracy_witness(cr, (q.root_set, frozenset()))
