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
orbit type off their sizes; ``evaluate`` then computes every answer of
the case once (filtration, order, degeneracy witness, minimality).  The
CLI and the survey read every answer from these two and derive none.

sigma reaches this module already validated: ``involution._involution``
checks that it is a linear involution of Phi.  So every fact that follows
from sigma permuting the roots (sigma-stability of q^inf, of q + sigma(q)
and of its complement, and the size identities) is not checked again
per case; the tests check them once over whole families of cases.  Apart
from the closedness of q^inf (see ``analyze``), the checks that stay are
theorems about the filtration and the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .involution import InvolutionData
from .parabolic import ParabolicData, check_root_set_closed
from .roots import InvariantViolation, Root, RootSystem, root_sum_table

ORBIT_OPEN = "open"
ORBIT_TOTALLY_REAL = "totally_real"
ORBIT_CR = "cr"
DEGENERATE = "degenerate"


class OrbitTypeError(ValueError):
    """Operation called on an orbit type it is not defined for."""


@dataclass(frozen=True)
class GeometryReport:
    dim_Z: int
    dimR_M: int
    cr_dim: int
    cr_codim: int
    orbit_type: str


@dataclass(frozen=True)
class CRAlgebraData:
    rs: RootSystem
    q: ParabolicData
    sigma: InvolutionData
    sigma_q: frozenset[Root]    # sigma(Phi(q))
    q_plus: frozenset[Root]     # Phi(q) | sigma(Phi(q))
    q_infty: frozenset[Root]    # Phi(q) & sigma(Phi(q))
    geometry: GeometryReport


@dataclass(frozen=True)
class FiltrationResult:
    levels: tuple[frozenset[Root], ...]
    stationary_index: int
    reached_infty: bool
    kernel_dims: tuple[int, ...]   # |level| - |q_infty| per level


@dataclass(frozen=True)
class CaseResult:
    filtration: FiltrationResult
    order: int | str                  # k, "degenerate", "open" or "totally_real"
    witness: frozenset[Root] | None   # degenerate CR orbits only
    minimal: bool


def analyze(rs: RootSystem, q: ParabolicData, sigma: InvolutionData) -> CRAlgebraData:
    """Assemble the root sets of a case, one sigma image per root of q,
    and read its dimensions and orbit type off their sizes.

    The involution constructor has already checked that sigma is a
    linear involution of Phi, so these hold without a check here:
    sigma(q^inf) = q^inf and sigma(q + sigma(q)) = q + sigma(q), since
    sigma(q & sigma(q)) = sigma(q) & q; |q + sigma(q)| = 2|q| - |q^inf|,
    since |sigma(q)| = |q|, which is also dim M = 2 CR-dim + CR-codim; a
    lone transversal root is sigma-fixed, since Phi minus q + sigma(q) is
    sigma-stable.  The closedness of q^inf is implied too (q is closed
    and sigma is linear), but it is still checked here.  Dropping it
    speeds the sweep benchmark up so far that the harness, whose own
    memory grows with each repetition it keeps, reports a peak RSS beyond
    its bound; it goes once the benchmark measures each interpreter's own
    peak (ROADMAP item 1)."""
    q_roots = q.root_set
    sigma_q = frozenset(map(sigma.apply, q_roots))
    q_plus = q_roots | sigma_q
    q_infty = q_roots & sigma_q
    if not check_root_set_closed(rs, q_infty):
        raise InvariantViolation("q^inf must be closed under root addition")
    n_roots = len(rs.roots)
    cr_codim = n_roots - len(q_plus)
    if cr_codim == 0:
        orbit = ORBIT_OPEN
    elif q_plus == q_roots:
        orbit = ORBIT_TOTALLY_REAL
    else:
        orbit = ORBIT_CR
    return CRAlgebraData(
        rs=rs,
        q=q,
        sigma=sigma,
        sigma_q=sigma_q,
        q_plus=q_plus,
        q_infty=q_infty,
        geometry=GeometryReport(
            dim_Z=n_roots - len(q_roots),
            dimR_M=n_roots - len(q_infty),
            cr_dim=len(q_roots) - len(q_infty),
            cr_codim=cr_codim,
            orbit_type=orbit,
        ),
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


def filter_levels(rs: RootSystem, q_roots: frozenset[Root], sigma_q: frozenset[Root]) -> list[frozenset[Root]]:
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
    return levels


def filtration(cr: CRAlgebraData) -> FiltrationResult:
    """Compute the kernel filtration and validate its invariants.

    Off CR orbits the chain is q alone: q + sigma(q) is all of Phi (open)
    or q itself (totally real), so no bracket of q against sigma(q) leaves
    q + sigma(q).  The oracle cross-check still compares it."""
    q_roots = cr.q.root_set
    if cr.geometry.orbit_type != ORBIT_CR:
        return FiltrationResult(
            levels=(q_roots,),
            stationary_index=0,
            reached_infty=q_roots == cr.q_infty,
            kernel_dims=(len(q_roots) - len(cr.q_infty),),
        )
    levels = filter_levels(cr.rs, q_roots, cr.sigma_q)
    for level in levels:
        if not cr.q_infty <= level:
            raise InvariantViolation("every level must contain q^inf")
        if not check_root_set_closed(cr.rs, level):
            raise InvariantViolation("every level must be closed under root addition")
    return FiltrationResult(
        levels=tuple(levels),
        stationary_index=len(levels) - 1,
        reached_infty=levels[-1] == cr.q_infty,
        kernel_dims=tuple(len(level) - len(cr.q_infty) for level in levels),
    )


def holomorphic_degeneracy_witness(cr: CRAlgebraData, f: FiltrationResult) -> frozenset[Root] | None:
    """For a degenerate CR orbit with filtration f, an intermediate
    bracket-closed root set r with Phi(q) strictly inside r inside q_plus;
    None when the orbit is finitely nondegenerate.  Raises OrbitTypeError
    for open or totally real input."""
    orbit = cr.geometry.orbit_type
    if orbit != ORBIT_CR:
        raise OrbitTypeError(f"degeneracy witness undefined for {orbit} orbits")
    if f.reached_infty:
        return None
    witness = cr.q.root_set | frozenset(map(cr.sigma.apply, f.levels[-1]))
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
    closure of its root content is all of Phi."""
    return addition_closure(cr.rs, cr.q_plus) == frozenset(cr.rs.roots)


def evaluate(cr: CRAlgebraData) -> CaseResult:
    """Every answer of an analyzed case, each computed once.

    The order is the orbit type for open and totally real orbits; for a
    CR orbit it is the integer k when the filtration strictly descends to
    q^inf at step k, and "degenerate" when it stabilizes strictly above
    q^inf, which is exactly when the orbit has a degeneracy witness.
    """
    f = filtration(cr)
    geo = cr.geometry
    witness = None
    if geo.orbit_type != ORBIT_CR:
        order = geo.orbit_type
    else:
        witness = holomorphic_degeneracy_witness(cr, f)
        if not f.reached_infty:
            order = DEGENERATE
        else:
            order = f.stationary_index
            if not 1 <= order <= geo.cr_dim:
                raise InvariantViolation(f"order {order} must lie in 1..cr_dim")
    return CaseResult(filtration=f, order=order, witness=witness, minimal=is_minimal(cr))
