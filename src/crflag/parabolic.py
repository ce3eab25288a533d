"""Parabolic subalgebras encoded as root sets.

A parabolic containing the fixed Borel is determined by the subset of
simple roots it keeps; the Borel itself consists of the negative roots.
The root set is all negative roots plus the positive roots supported on
the kept subset.
"""

from __future__ import annotations

from typing import NamedTuple

from .roots import InvariantViolation, Root, RootSystem, highest_root, root_sum_table


class NotMaximal(ValueError):
    """Raised by operations defined only for maximal parabolics."""


class ParabolicData(NamedTuple):
    qr: frozenset[int]          # kept simple-root indices, 1-based
    root_set: frozenset[Root]
    is_maximal: bool


def parabolic_from_subset(rs: RootSystem, qr) -> ParabolicData:
    """Build the parabolic keeping the 1-based simple roots in ``qr``."""
    kept = frozenset(qr)
    for i in kept:
        if not isinstance(i, int) or not 1 <= i <= rs.rank:
            raise ValueError(f"simple root index {i!r} out of range 1..{rs.rank}")
    roots = {tuple(-c for c in beta) for beta in rs.positive_roots}
    for beta in rs.positive_roots:
        if all(c == 0 or (i + 1) in kept for i, c in enumerate(beta)):
            roots.add(beta)
    p = ParabolicData(qr=kept, root_set=frozenset(roots), is_maximal=len(kept) == rs.rank - 1)
    if not check_root_set_closed(rs, p.root_set):
        raise InvariantViolation("parabolic root set must be bracket-closed")
    if {b for b in p.root_set if sum(b) == 1 and all(c >= 0 for c in b)} != {
        rs.simple(i) for i in kept
    }:
        raise InvariantViolation("the parabolic must contain exactly the kept simple roots")
    return p


def check_root_set_closed(rs: RootSystem, root_set) -> bool:
    """True iff the set is closed under root addition inside Phi."""
    members = set(root_set)
    sums = root_sum_table(rs)
    for a in members:
        for b, s in sums[a].items():
            if b in members and s not in members:
                return False
    return True


def c_of_q(rs: RootSystem, p: ParabolicData) -> int:
    """Largest coefficient of the removed simple root over the positive
    roots; defined only for maximal parabolics."""
    if not p.is_maximal:
        raise NotMaximal("c(q) is only defined for a maximal parabolic")
    (removed,) = set(range(1, rs.rank + 1)) - p.qr
    qi = removed - 1
    c = max(beta[qi] for beta in rs.positive_roots)
    if c != highest_root(rs)[qi]:
        raise InvariantViolation("c(q) must be the highest root's coefficient")
    return c
