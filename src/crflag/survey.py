"""Batch sweeps over (type, parabolic, involution) cases.

Each case is analyzed with the root-combinatoric fast path
(``cralgebra.analyze``, then ``cralgebra.evaluate`` on the rows kept);
cases of small rank are additionally re-derived with the Chevalley oracle
and the two answers compared level by level.  The sweep asserts the structural
theorems that hold for every admissible involution: on hypersurface
orbits finite order forces a maximal parabolic and is bounded by
c(q) + 1, and a maximal parabolic forces finite order plus minimality.
A violated assertion aborts the sweep with a reproducer.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .cralgebra import ORBIT_CR, analyze, evaluate
from .involution import InvolutionData, enumerate_cayley_involutions
from .parabolic import c_of_q, parabolic_from_subset
from .roots import FAMILIES, build_root_system, format_root, is_valid_type


class TheoremViolation(Exception):
    """A surveyed case contradicted one of the asserted theorems."""

    def __init__(self, message: str, family: str, rank: int, qr, provenance):
        self.family = family
        self.rank = rank
        self.qr = tuple(sorted(qr))
        self.provenance = provenance
        super().__init__(
            f"{message} [reproducer: family={family} rank={rank} "
            f"qr={self.qr} involution={provenance}]"
        )


class SurveyRow(NamedTuple):
    family: str
    rank: int
    qr: tuple[int, ...]
    involution: str            # provenance string, e.g. "identity" or "010|111"
    orbit_type: str
    cr_codim: int
    order: int | str           # k, "degenerate", "open", or "totally_real"
    c_of_q: int | None         # populated for maximal parabolics
    bound_satisfied: bool | None   # finite order and maximal parabolic only
    minimal: bool
    oracle_checked: bool


def provenance_label(sigma: InvolutionData) -> str:
    if isinstance(sigma.provenance, tuple):
        return "|".join(format_root(g) for g in sigma.provenance)
    return sigma.provenance


def _ranks(family: str, max_rank: int) -> list[int]:
    return [r for r in range(1, max_rank + 1) if is_valid_type(family, r)]


def run_survey(
    families,
    max_rank: int,
    involution_source: int = 3,
    hypersurface_only: bool = False,
    oracle_max_rank: int = 4,
) -> list[SurveyRow]:
    """One row per (parabolic subset, involution) case, the involutions
    being the Cayley chains of length at most ``involution_source``, in
    deterministic order: family, rank, subset (by size then
    lexicographically), then involution enumeration order."""
    fams = sorted(set(families), key=FAMILIES.index)
    rows: list[SurveyRow] = []
    # oracle results depend only on the two root sets; a case already
    # cross-checked in this sweep is not re-derived
    seen: set = set()
    for family in fams:
        for rank in _ranks(family, max_rank):
            rs = build_root_system(family, rank)
            involutions = enumerate_cayley_involutions(rs, involution_source)
            subsets = [
                frozenset(c)
                for size in range(rank + 1)
                for c in combinations(range(1, rank + 1), size)
            ]
            for qr in subsets:
                q = parabolic_from_subset(rs, qr)
                cq = c_of_q(rs, q) if q.is_maximal else None
                for sigma in involutions:
                    rows.append(
                        _survey_case(rs, q, cq, sigma, hypersurface_only, oracle_max_rank, seen)
                    )
    return [r for r in rows if r is not None]


def _survey_case(rs, q, cq, sigma, hypersurface_only, oracle_max_rank, seen):
    cr = analyze(rs, q, sigma)
    if hypersurface_only and cr.cr_codim != 1:
        return None
    label = provenance_label(sigma)
    result = evaluate(cr)
    order = result.order
    minimal = result.minimal
    finite = isinstance(order, int)

    def violate(msg):
        raise TheoremViolation(msg, rs.family, rs.rank, q.qr, label)

    if cr.orbit_type == ORBIT_CR:
        # on a CR orbit the order is finite or "degenerate", so this
        # also says that a non-maximal hypersurface case is degenerate
        if cr.cr_codim == 1 and finite and not q.is_maximal:
            violate("finitely nondegenerate hypersurface with non-maximal parabolic")
        if q.is_maximal:
            if not finite:
                violate("maximal parabolic CR case without finite order")
            if not minimal:
                violate("maximal parabolic CR case that is not minimal")
    if finite and q.is_maximal and order > cq + 1:
        violate(f"order {order} exceeds the bound c(q)+1 = {cq + 1}")

    bound = (order <= cq + 1) if (finite and q.is_maximal) else None
    oracle_checked = rs.rank <= oracle_max_rank
    key = (rs.family, rs.rank, q.root_set, cr.sigma_q)
    if oracle_checked and key not in seen:
        from .chevalley import cross_check  # the oracle loads with its first case

        cross_check(rs, q.root_set, cr.sigma_q, result.levels, minimal)
        seen.add(key)

    return SurveyRow(
        family=rs.family,
        rank=rs.rank,
        qr=tuple(sorted(q.qr)),
        involution=label,
        orbit_type=cr.orbit_type,
        cr_codim=cr.cr_codim,
        order=order,
        c_of_q=cq,
        bound_satisfied=bound,
        minimal=minimal,
        oracle_checked=oracle_checked,
    )
