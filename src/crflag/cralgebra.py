"""Core analysis of a homogeneous CR structure given by root data.

The input triple is (root system, parabolic, involution).  All derived
objects are root sets: the image sigma(q), the sum q + sigma(q), the
intersection q^inf = q & sigma(q), and the descending kernel filtration

    q = q(0) > q(1) > ... > q(inf),

where a root alpha survives a step iff bracketing it against every root
beta of sigma(q) lands back inside the current level or sigma(q); the
Cartan part is implicit since it lies in every level.  The filtration
decides the order of nondegeneracy, holomorphic degeneracy, and together
with the addition closure of q + sigma(q), minimality.

``analyze`` builds the root sets of a case and reads its dimensions and
orbit type off their sizes, into one flat record; ``evaluate`` then
computes every answer of the case once: the filtration as the tuple of
its levels, the order and degeneracy witness read off that chain (the
order is its length minus one, and "q^inf reached" compares its last
level, so neither is stored beside it), and minimality.  The CLI and the
survey read every answer from these two and derive none.  Off CR orbits
the orbit type answers without a bracket: q + sigma(q) is Phi if open and
q if totally real, so the chain is q alone, minimal iff the orbit is open.

sigma reaches this module already validated: ``involution._involution``
builds it as a linear involution of Phi.  So every fact that follows
from sigma permuting the roots (sigma-stability of q^inf, of q + sigma(q)
and of its complement, and the size identities) is not checked again
per case; the tests check them once over whole families of cases.  Apart
from the closedness of q^inf (see ``analyze``), the checks that stay are
theorems about the filtration and the witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .involution import InvolutionData
from .parabolic import ParabolicData, check_root_set_closed
from .roots import InvariantViolation, Record, Root, RootSystem, root_sum_table

ORBIT_OPEN = "open"
ORBIT_TOTALLY_REAL = "totally_real"
ORBIT_CR = "cr"
DEGENERATE = "degenerate"


class OrbitTypeError(ValueError):
    """Operation called on an orbit type it is not defined for."""


class CRAlgebraData(Record):
    """The root sets of one case, its dimensions and its orbit type;
    compared and hashed by its field values."""

    _fields = ("rs", "q", "sigma", "sigma_q", "q_plus", "q_infty",
               "dim_Z", "dimR_M", "cr_dim", "cr_codim", "orbit_type")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, rs: RootSystem, q: ParabolicData, sigma: InvolutionData,
                 sigma_q: frozenset[Root], q_plus: frozenset[Root], q_infty: frozenset[Root],
                 dim_Z: int, dimR_M: int, cr_dim: int, cr_codim: int, orbit_type: str):
        set_field = object.__setattr__
        set_field(self, "rs", rs)
        set_field(self, "q", q)
        set_field(self, "sigma", sigma)
        set_field(self, "sigma_q", sigma_q)      # sigma(Phi(q))
        set_field(self, "q_plus", q_plus)        # Phi(q) | sigma(Phi(q))
        set_field(self, "q_infty", q_infty)      # Phi(q) & sigma(Phi(q))
        set_field(self, "dim_Z", dim_Z)
        set_field(self, "dimR_M", dimR_M)
        set_field(self, "cr_dim", cr_dim)
        set_field(self, "cr_codim", cr_codim)
        set_field(self, "orbit_type", orbit_type)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"CRAlgebraData({fields})"


class CaseResult(NamedTuple):
    levels: tuple[frozenset[Root], ...]   # q(0) > q(1) > ..., up to the stationary level
    order: int | str                  # k, "degenerate", "open" or "totally_real"
    witness: frozenset[Root] | None   # degenerate CR orbits only
    minimal: bool


def analyze(rs: RootSystem, q: ParabolicData, sigma: InvolutionData) -> CRAlgebraData:
    """Assemble the root sets of a case, one sigma image per root of q,
    and read its dimensions and orbit type off their sizes.

    The involution constructor has already built sigma as a linear
    involution of Phi, so these hold without a check here:
    sigma(q^inf) = q^inf and sigma(q + sigma(q)) = q + sigma(q), since
    sigma(q & sigma(q)) = sigma(q) & q; |q + sigma(q)| = 2|q| - |q^inf|,
    since |sigma(q)| = |q|, which is also dim M = 2 CR-dim + CR-codim; a
    lone transversal root is sigma-fixed, since Phi minus q + sigma(q) is
    sigma-stable.  The closedness of q^inf is implied too (q is closed
    and sigma is linear), but it is still checked here on open and CR
    orbits.  On a totally real orbit q + sigma(q) = q, so sigma(q) = q and
    q^inf is q, which ``parabolic_from_subset`` has checked.  Dropping the
    check everywhere speeds the sweep benchmark up so far that the
    harness, whose own memory grows with each repetition it keeps, reports
    a peak RSS beyond its bound; it goes once the benchmark measures each
    interpreter's own peak (ROADMAP item 1)."""
    q_roots = q.root_set
    sigma_q = frozenset(map(sigma.apply, q_roots))
    q_plus = q_roots | sigma_q
    q_infty = q_roots & sigma_q
    n_roots = len(rs.roots)
    cr_codim = n_roots - len(q_plus)
    if cr_codim == 0:
        orbit = ORBIT_OPEN
    elif q_plus == q_roots:
        orbit = ORBIT_TOTALLY_REAL
    else:
        orbit = ORBIT_CR
    if orbit != ORBIT_TOTALLY_REAL and not check_root_set_closed(rs, q_infty):
        raise InvariantViolation("q^inf must be closed under root addition")
    return CRAlgebraData(
        rs=rs,
        q=q,
        sigma=sigma,
        sigma_q=sigma_q,
        q_plus=q_plus,
        q_infty=q_infty,
        dim_Z=n_roots - len(q_roots),
        dimR_M=n_roots - len(q_infty),
        cr_dim=len(q_roots) - len(q_infty),
        cr_codim=cr_codim,
        orbit_type=orbit,
    )


def _next_level(rs: RootSystem, level: frozenset[Root], sigma_q: frozenset[Root]) -> frozenset[Root]:
    """One kernel step: keep alpha iff every bracket against sigma(q)
    stays in level + sigma(q) (sums through 0 land in the Cartan)."""
    sums = root_sum_table(rs)
    return frozenset(
        alpha
        for alpha in level
        if not any(
            beta in sigma_q and s not in level and s not in sigma_q
            for beta, s in sums[alpha].items()
        )
    )


def filter_levels(rs: RootSystem, q_roots: frozenset[Root], sigma_q: frozenset[Root]) -> tuple[frozenset[Root], ...]:
    """The raw descending chain for arbitrary root-set input, up to and
    including the first stationary value."""
    q_infty = q_roots & sigma_q
    levels = [frozenset(q_roots)]
    cap = len(q_roots) - len(q_infty) + 1
    while True:
        nxt = _next_level(rs, levels[-1], sigma_q)
        if nxt == levels[-1]:
            break
        if not nxt < levels[-1]:
            raise InvariantViolation("levels must strictly decrease until stationary")
        levels.append(nxt)
        if len(levels) > cap:
            raise InvariantViolation("filtration exceeded its theoretical length")
    return tuple(levels)


def filtration(cr: CRAlgebraData) -> tuple[frozenset[Root], ...]:
    """The kernel filtration q(0) > q(1) > ..., up to and including its
    stationary level, with its invariants validated.

    Off CR orbits the chain is q alone: q + sigma(q) is all of Phi (open)
    or q itself (totally real), so no bracket of q against sigma(q) leaves
    q + sigma(q).  The oracle cross-check still compares it."""
    q_roots = cr.q.root_set
    if cr.orbit_type != ORBIT_CR:
        return (q_roots,)
    levels = filter_levels(cr.rs, q_roots, cr.sigma_q)
    for level in levels:
        if not cr.q_infty <= level:
            raise InvariantViolation("every level must contain q^inf")
        if not check_root_set_closed(cr.rs, level):
            raise InvariantViolation("every level must be closed under root addition")
    return levels


def holomorphic_degeneracy_witness(cr: CRAlgebraData, levels: tuple[frozenset[Root], ...]) -> frozenset[Root] | None:
    """For a degenerate CR orbit with filtration chain ``levels``, an
    intermediate bracket-closed root set r with Phi(q) strictly inside r
    inside q_plus; None when the orbit is finitely nondegenerate, i.e. when
    the chain reaches q^inf.  Raises OrbitTypeError for open or totally
    real input."""
    if cr.orbit_type != ORBIT_CR:
        raise OrbitTypeError(f"degeneracy witness undefined for {cr.orbit_type} orbits")
    if levels[-1] == cr.q_infty:
        return None
    witness = cr.q.root_set | frozenset(map(cr.sigma.apply, levels[-1]))
    if not check_root_set_closed(cr.rs, witness):
        raise InvariantViolation("the degeneracy witness must be closed under root addition")
    if not cr.q.root_set < witness <= cr.q_plus:
        raise InvariantViolation("the witness must lie strictly between q and q + sigma(q)")
    return witness


def addition_closure(rs: RootSystem, roots) -> frozenset[Root]:
    """Close a root set under addition inside Phi (the root content of the
    generated subalgebra; the Cartan is implicit)."""
    sums = root_sum_table(rs)
    closed = set(roots)
    queue = list(closed)
    while queue:
        a = queue.pop()
        added = [s for b, s in sums[a].items() if b in closed and s not in closed]
        for s in added:
            closed.add(s)
            queue.append(s)
    return frozenset(closed)


def is_minimal(cr: CRAlgebraData) -> bool:
    """True iff q + sigma(q) generates the whole algebra, i.e. the addition
    closure of its root content is all of Phi.  Off CR orbits the type
    answers: it is Phi if open, and q, closed and proper, if totally real."""
    if cr.orbit_type != ORBIT_CR:
        return cr.orbit_type == ORBIT_OPEN
    return addition_closure(cr.rs, cr.q_plus) == frozenset(cr.rs.roots)


def evaluate(cr: CRAlgebraData) -> CaseResult:
    """Every answer of an analyzed case, each computed once.

    The order is the orbit type for open and totally real orbits; for a
    CR orbit it is the integer k when the filtration strictly descends to
    q^inf at step k, and "degenerate" when it stabilizes strictly above
    q^inf, which is exactly when the orbit has a degeneracy witness.
    """
    levels = filtration(cr)
    witness = None
    if cr.orbit_type != ORBIT_CR:
        order = cr.orbit_type
    else:
        witness = holomorphic_degeneracy_witness(cr, levels)
        if witness is not None:
            order = DEGENERATE
        else:
            order = len(levels) - 1
            if not 1 <= order <= cr.cr_dim:
                raise InvariantViolation(f"order {order} must lie in 1..cr_dim")
    return CaseResult(levels=levels, order=order, witness=witness, minimal=is_minimal(cr))
