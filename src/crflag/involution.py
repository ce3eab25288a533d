"""Lattice involutions of a root system and partial Cayley transforms.

An involution sigma is stored as its images of all roots, computed once
when it is built; the fast path only ever uses sigma as a map from roots
to roots.  The one constructor validates it, so no caller checks sigma
again: it maps roots to roots, it squares to the identity, it preserves
the invariant form on the simple roots, and it is linear, i.e. the image
table equals the integer matrix (columns sigma(alpha_j)) on every root.
sigma is then a lattice automorphism that permutes the roots; the matrix
is kept for printing and deduplication.  Starting from the identity (the
split situation), new involutions are produced by Cayley steps: a step
at a root gamma fixed by the current involution composes with the
reflection in gamma, sigma' = s_gamma o sigma.  Chains require each new
root to be strongly orthogonal to all earlier ones; two such steps
commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .roots import InvariantViolation, Root, RootSystem

Matrix = tuple[tuple[int, ...], ...]


class InvolutionError(ValueError):
    """A matrix failed one of the involution invariants, or a Cayley
    precondition does not hold; the message names the failure."""


@dataclass(frozen=True)
class InvolutionData:
    """A validated root-lattice involution.

    ``images`` maps every root beta to sigma(beta); ``matrix`` is the same
    map on root coordinates, its columns the images of the simple roots.
    ``provenance`` is "identity", "explicit", or the tuple of Cayley roots
    applied left to right starting from the identity.  Equality and hash
    use ``matrix`` and ``provenance`` only.
    """

    matrix: Matrix
    provenance: str | tuple[Root, ...]
    images: dict[Root, Root] = field(compare=False, repr=False)

    def apply(self, root: Root) -> Root:
        """sigma(root); sigma is defined on roots only."""
        return self.images[root]

    def fixes(self, root: Root) -> bool:
        return self.images[root] == root


def _involution(rs: RootSystem, images: dict[Root, Root], provenance) -> InvolutionData:
    """The one constructor, and the only place sigma is validated.  Four
    checks, in this order: ``images`` maps roots to roots, squares to the
    identity, keeps the inner products of the simple roots, and is linear
    (sigma(beta) = sum_i beta_i sigma(alpha_i) for every root beta).  Then
    read off the matrix.

    The first two make sigma a bijection of Phi, so sigma(q) has |q|
    roots, sigma(q & sigma(q)) = q & sigma(q), sigma(q | sigma(q)) =
    q | sigma(q), and Phi minus q | sigma(q) is sigma-stable; linearity
    adds that sigma maps closed root sets to closed root sets.
    ``cralgebra.analyze`` relies on all of this without checking it."""
    lookup = rs.root_lookup
    for beta in rs.roots:
        image = images[beta]
        if image not in lookup:
            raise InvolutionError(f"the root set is not preserved (image of {beta} is not a root)")
        if images[image] != beta:
            raise InvolutionError(f"the map is not involutive (sigma(sigma({beta})) != {beta})")
    # kappa-preservation on the simple roots is kappa-preservation on the
    # lattice they span
    cols = [images[rs.simple(j + 1)] for j in range(rs.rank)]
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            if rs.inner(ci, cj) != rs.form[i][j]:
                raise InvolutionError("the invariant form is not preserved")
    # Linearity on root codes, one dot product per root.  The form check
    # comes first: the matrix is then an isometry, so sum_i beta_i
    # sigma(alpha_i) has the length of a root, and lattice vectors that
    # short have coefficients of at most 6 in every simple type, where
    # codes are injective; equal codes mean equal vectors.
    codes = rs.root_code
    col_codes = [codes[c] for c in cols]
    for beta in rs.roots:
        if codes[images[beta]] != sum(map(mul, beta, col_codes)):
            raise InvolutionError(
                f"the map is not linear (sigma({beta}) is not the matrix applied to {beta})"
            )
    return InvolutionData(matrix=tuple(zip(*cols)), provenance=provenance, images=images)


def identity_involution(rs: RootSystem) -> InvolutionData:
    return _involution(rs, {beta: beta for beta in rs.roots}, "identity")


def involution_from_matrix(rs: RootSystem, matrix, provenance="explicit") -> InvolutionData:
    """Validate a rank x rank integer matrix as a root-lattice involution."""
    bad = [x for row in matrix for x in row if int(x) != x]
    if bad:
        raise InvolutionError(f"matrix entries {', '.join(map(repr, bad))} are not integers")
    n = rs.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InvolutionError(f"matrix must be {n}x{n}")
    cols = [tuple(int(row[j]) for row in matrix) for j in range(n)]

    def image(v) -> Root:
        # sigma(v) = sum_j v_j sigma(alpha_j)
        return tuple(sum(c * col[i] for c, col in zip(v, cols) if c) for i in range(n))

    if any(image(cols[j]) != rs.simple(j + 1) for j in range(n)):
        raise InvolutionError("matrix is not involutive (M*M != id)")
    return _involution(rs, {beta: image(beta) for beta in rs.roots}, provenance)


def cayley_update(rs: RootSystem, sigma: InvolutionData, gamma: Root) -> InvolutionData:
    """One partial Cayley step at a root gamma fixed by sigma up to sign.

    The lattice identification makes the step the pure map
    beta -> sigma(beta) - <sigma(beta)|gamma> gamma, i.e.
    sigma' = s_gamma o sigma.  sigma(gamma) = +-gamma is exactly the
    condition for sigma' to be an involution again (reflections in gamma
    and -gamma coincide, so a second step at the same root undoes the
    first).  The result is re-validated against all involution invariants.
    """
    if gamma not in rs.root_lookup:
        raise InvolutionError(f"Cayley root {gamma} is not a root")
    if sigma.apply(gamma) not in (gamma, tuple(-c for c in gamma)):
        raise InvolutionError(
            f"Cayley root {gamma} is not fixed (up to sign) by the current involution"
        )
    # <s|gamma> = 2 kappa(s, gamma) / kappa(gamma, gamma), with the
    # denominator computed once for the step
    gg = rs.inner(gamma, gamma)
    images = {}
    for beta, s in sigma.images.items():
        c, rem = divmod(2 * rs.inner(s, gamma), gg)
        if rem:
            raise InvolutionError(f"the pairing <{s}|{gamma}> is not an integer")
        images[beta] = tuple(b - c * g for b, g in zip(s, gamma)) if c else s
    if sigma.provenance == "identity":
        prov: str | tuple[Root, ...] = (gamma,)
    elif isinstance(sigma.provenance, tuple):
        prov = sigma.provenance + (gamma,)
    else:
        prov = "explicit"
    return _involution(rs, images, prov)


def strongly_orthogonal(rs: RootSystem, gamma1: Root, gamma2: Root) -> bool:
    """True iff neither gamma1 + gamma2 nor gamma1 - gamma2 is a root and
    kappa(gamma1, gamma2) = 0; a root is never strongly orthogonal to
    itself."""
    for g in (gamma1, gamma2):
        if g not in rs.root_lookup:
            raise ValueError(f"{g} is not a root")
    s = tuple(a + b for a, b in zip(gamma1, gamma2))
    d = tuple(a - b for a, b in zip(gamma1, gamma2))
    if s in rs.root_lookup or d in rs.root_lookup:
        return False
    return rs.inner(gamma1, gamma2) == 0


def enumerate_cayley_involutions(rs: RootSystem, max_chain_length: int) -> list[InvolutionData]:
    """All involutions reachable from the identity by admissible Cayley
    chains of the given maximal length, deduplicated by matrix.

    Each chain step must be fixed by the current involution and strongly
    orthogonal to every earlier chain root.  Reflections in gamma and
    -gamma coincide, so only positive representatives are explored, and
    steps at strongly orthogonal roots commute, so each chain is built
    once, in table order.  The returned list is deterministic: breadth
    first, chains in lexicographic table order, first matrix kept.
    """
    positives = rs.positive_roots
    start = identity_involution(rs)
    found: dict[Matrix, InvolutionData] = {start.matrix: start}
    # (involution, chain, table index after the chain's last root)
    frontier: list[tuple[InvolutionData, tuple[Root, ...], int]] = [(start, (), 0)]
    for _ in range(max_chain_length):
        nxt: list[tuple[InvolutionData, tuple[Root, ...], int]] = []
        for sigma, chain, first in frontier:
            for k in range(first, len(positives)):
                gamma = positives[k]
                if not all(strongly_orthogonal(rs, gamma, prev) for prev in chain):
                    continue
                if not sigma.fixes(gamma):
                    raise InvariantViolation("strong orthogonality must imply fixedness")
                new = cayley_update(rs, sigma, gamma)
                nxt.append((new, chain + (gamma,), k + 1))
                found.setdefault(new.matrix, new)
        frontier = nxt
    return list(found.values())
