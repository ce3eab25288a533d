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
from functools import lru_cache

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
class CRAlgebraData:
    rs: RootSystem
    q: ParabolicData
    sigma: InvolutionData
    sigma_q: frozenset[Root]    # sigma(Phi(q))
    q_plus: frozenset[Root]     # Phi(q) | sigma(Phi(q))
    q_infty: frozenset[Root]    # Phi(q) & sigma(Phi(q))
    gamma_set: frozenset[Root]  # Phi minus q_plus


@dataclass(frozen=True)
class FiltrationResult:
    levels: tuple[frozenset[Root], ...]
    stationary_index: int
    reached_infty: bool
    order_k: int | None
    kernel_dims: tuple[int, ...]   # |level| - |q_infty| per level


@dataclass(frozen=True)
class GeometryReport:
    dim_Z: int
    dimR_M: int
    cr_dim: int
    cr_codim: int
    orbit_type: str


def analyze(rs: RootSystem, q: ParabolicData, sigma: InvolutionData) -> CRAlgebraData:
    """Assemble the cached root sets: one sigma image per root of q.

    The involution constructor has already checked that sigma is a
    linear involution of Phi, so these hold without a check here:
    sigma(q^inf) = q^inf and sigma(q + sigma(q)) = q + sigma(q), since
    sigma(q & sigma(q)) = sigma(q) & q; |q + sigma(q)| = 2|q| - |q^inf|,
    since |sigma(q)| = |q|; a lone transversal root is sigma-fixed, since
    Phi minus q + sigma(q) is sigma-stable.  The closedness of q^inf is
    implied too (q is closed and sigma is linear), but it is still
    checked here.  Dropping it speeds the sweep benchmark up so far that
    the harness, whose own memory grows with each repetition it keeps,
    reports a peak RSS beyond its bound; it goes once the benchmark
    measures each interpreter's own peak (ROADMAP item 1)."""
    q_roots = q.root_set
    sigma_q = frozenset(map(sigma.apply, q_roots))
    q_plus = q_roots | sigma_q
    q_infty = q_roots & sigma_q
    gamma_set = frozenset(rs.roots) - q_plus
    if not check_root_set_closed(rs, q_infty):
        raise InvariantViolation("q^inf must be closed under root addition")
    return CRAlgebraData(
        rs=rs,
        q=q,
        sigma=sigma,
        sigma_q=sigma_q,
        q_plus=q_plus,
        q_infty=q_infty,
        gamma_set=gamma_set,
    )


def geometry(cr: CRAlgebraData) -> GeometryReport:
    """Dimensions and orbit type read off the root-set sizes.  dim M =
    2 CR-dim + CR-codim is inclusion-exclusion for q and sigma(q), which
    have the same size because sigma is a bijection of Phi."""
    n_roots = len(cr.rs.roots)
    dim_z = n_roots - len(cr.q.root_set)
    dim_m = n_roots - len(cr.q_infty)
    cr_dim = len(cr.q.root_set) - len(cr.q_infty)
    cr_codim = n_roots - len(cr.q_plus)
    if cr_codim == 0:
        orbit = ORBIT_OPEN
    elif cr.q_plus == cr.q.root_set:
        orbit = ORBIT_TOTALLY_REAL
    else:
        orbit = ORBIT_CR
    return GeometryReport(
        dim_Z=dim_z, dimR_M=dim_m, cr_dim=cr_dim, cr_codim=cr_codim, orbit_type=orbit
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


@lru_cache(maxsize=1024)
def filtration(cr: CRAlgebraData) -> FiltrationResult:
    """Compute the kernel filtration and validate its invariants."""
    levels = filter_levels(cr.rs, cr.q.root_set, cr.sigma_q)
    for level in levels:
        if not cr.q_infty <= level:
            raise InvariantViolation("every level must contain q^inf")
        if not check_root_set_closed(cr.rs, level):
            raise InvariantViolation("every level must be closed under root addition")
    stationary = len(levels) - 1
    reached = levels[-1] == cr.q_infty
    order_k = stationary if reached and stationary >= 1 else None
    kernel_dims = tuple(len(level) - len(cr.q_infty) for level in levels)
    return FiltrationResult(
        levels=tuple(levels),
        stationary_index=stationary,
        reached_infty=reached,
        order_k=order_k,
        kernel_dims=kernel_dims,
    )


def nondegeneracy_order(cr: CRAlgebraData):
    """Order of finite nondegeneracy.

    Returns "open" or "totally_real" for the extreme orbit types, the
    integer k when the filtration strictly descends to q^inf at step k,
    and "degenerate" when it stabilizes strictly above q^inf.
    """
    orbit = geometry(cr).orbit_type
    if orbit == ORBIT_OPEN:
        return ORBIT_OPEN
    if orbit == ORBIT_TOTALLY_REAL:
        return ORBIT_TOTALLY_REAL
    f = filtration(cr)
    if not f.reached_infty:
        return DEGENERATE
    k = f.stationary_index
    if not 1 <= k <= len(cr.q.root_set) - len(cr.q_infty):
        raise InvariantViolation(f"order {k} must lie in 1..cr_dim")
    return k


def holomorphic_degeneracy_witness(cr: CRAlgebraData) -> frozenset[Root] | None:
    """For a degenerate CR orbit, an intermediate bracket-closed root set
    r with Phi(q) strictly inside r inside q_plus; None when the orbit is
    finitely nondegenerate.  Raises OrbitTypeError for open or totally
    real input."""
    orbit = geometry(cr).orbit_type
    if orbit != ORBIT_CR:
        raise OrbitTypeError(f"degeneracy witness undefined for {orbit} orbits")
    f = filtration(cr)
    if f.reached_infty:
        return None
    stationary = f.levels[-1]
    witness = cr.q.root_set | frozenset(cr.sigma.apply(b) for b in stationary)
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
