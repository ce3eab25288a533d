"""Lattice involutions of a root system and partial Cayley transforms.

An involution sigma is built from sigma(alpha_1), ..., sigma(alpha_n),
the columns of its matrix: the one constructor writes each root's image
as the integer sum sum_j beta_j sigma(alpha_j), so sigma is linear by
construction, and the fast path only ever uses that table of images.
The constructor checks, so no caller checks again, that sigma squares to
the identity on the simple roots, maps roots to roots and preserves the
invariant form on the simple roots; it is then a lattice automorphism
that permutes the roots.  The matrix is kept for printing and
deduplication.  Starting from the identity (the split situation), new
involutions are produced by Cayley steps: a step at a root gamma fixed
by the current involution composes with the reflection in gamma,
sigma' = s_gamma o sigma, and moves only the n columns.  Chains require
each new root to be strongly orthogonal to all earlier ones; two such
steps commute.
"""

from __future__ import annotations

from .roots import InvariantViolation, Record, Root, RootSystem

Matrix = tuple[tuple[int, ...], ...]


class InvolutionError(ValueError):
    """A matrix failed one of the involution invariants, or a Cayley
    precondition does not hold; the message names the failure."""


class InvolutionData(Record):
    """A validated root-lattice involution.

    ``images`` maps every root beta to sigma(beta); ``matrix`` is the same
    map on root coordinates, its columns the images of the simple roots.
    ``provenance`` is "identity", "explicit", or the tuple of Cayley roots
    applied left to right starting from the identity.  Equality, hash and
    repr use ``matrix`` and ``provenance`` only.
    """

    __slots__ = ("matrix", "provenance", "images")

    def __init__(self, matrix: Matrix, provenance: str | tuple[Root, ...], images: dict[Root, Root]):
        set_field = object.__setattr__
        set_field(self, "matrix", matrix)
        set_field(self, "provenance", provenance)
        set_field(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix and self.provenance == other.provenance

    def __hash__(self):
        return hash((self.matrix, self.provenance))

    def __repr__(self) -> str:
        return f"InvolutionData(matrix={self.matrix!r}, provenance={self.provenance!r})"

    def apply(self, root: Root) -> Root:
        """sigma(root); sigma is defined on roots only."""
        return self.images[root]

    def fixes(self, root: Root) -> bool:
        return self.images[root] == root


def _involution(rs: RootSystem, cols: list[Root], provenance) -> InvolutionData:
    """The one constructor, and the only place sigma is validated.
    ``cols`` are the images sigma(alpha_1), ..., sigma(alpha_n); every root
    beta gets the image sum_j beta_j sigma(alpha_j), so sigma is linear.
    Three checks, in this order: sigma(sigma(alpha_j)) = alpha_j for every
    j, every image is a root, and the columns keep the inner products of
    the simple roots.

    By linearity the first makes sigma square to the identity on every
    root, and with the second it is a bijection of Phi, so sigma(q) has
    |q| roots, sigma(q & sigma(q)) = q & sigma(q), sigma(q | sigma(q)) =
    q | sigma(q), and Phi minus q | sigma(q) is sigma-stable; linearity
    adds that sigma maps closed root sets to closed root sets.
    ``cralgebra.analyze`` relies on all of this without checking it."""
    n = rs.rank
    # the non-zero entries of each column, so that a root's image costs
    # one term per non-zero entry of a column it uses
    terms = [[(i, c) for i, c in enumerate(col) if c] for col in cols]

    def image(beta) -> Root:
        acc = [0] * n
        for b, nonzero in zip(beta, terms):
            if b:
                for i, c in nonzero:
                    acc[i] += b * c
        return tuple(acc)

    if any(image(col) != rs.simple(j + 1) for j, col in enumerate(cols)):
        raise InvolutionError("matrix is not involutive (M*M != id)")
    codes = rs.root_code
    images = {}
    for beta in rs.roots:
        images[beta] = image(beta)
        if images[beta] not in codes:
            raise InvolutionError(f"the root set is not preserved (image of {beta} is not a root)")
    # kappa-preservation on the simple roots is kappa-preservation on the
    # lattice they span
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            if rs.inner(ci, cj) != rs.form[i][j]:
                raise InvolutionError("the invariant form is not preserved")
    return InvolutionData(matrix=tuple(zip(*cols)), provenance=provenance, images=images)


def identity_involution(rs: RootSystem) -> InvolutionData:
    return _involution(rs, [rs.simple(j + 1) for j in range(rs.rank)], "identity")


def involution_from_matrix(rs: RootSystem, matrix) -> InvolutionData:
    """Validate a rank x rank integer matrix as a root-lattice involution."""
    bad = [x for row in matrix for x in row if int(x) != x]
    if bad:
        raise InvolutionError(f"matrix entries {', '.join(map(repr, bad))} are not integers")
    n = rs.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InvolutionError(f"matrix must be {n}x{n}")
    return _involution(rs, [tuple(int(row[j]) for row in matrix) for j in range(n)], "explicit")


def cayley_update(rs: RootSystem, sigma: InvolutionData, gamma: Root) -> InvolutionData:
    """One partial Cayley step at a root gamma fixed by sigma up to sign.

    The lattice identification makes the step the pure map
    beta -> sigma(beta) - <sigma(beta)|gamma> gamma, i.e.
    sigma' = s_gamma o sigma; it is linear, so it is computed on the
    columns sigma(alpha_j) alone.  sigma(gamma) = +-gamma is exactly the
    condition for sigma' to be an involution again (reflections in gamma
    and -gamma coincide, so a second step at the same root undoes the
    first).  The result is re-validated against all involution invariants.
    """
    if gamma not in rs.root_code:
        raise InvolutionError(f"Cayley root {gamma} is not a root")
    if sigma.apply(gamma) not in (gamma, tuple(-c for c in gamma)):
        raise InvolutionError(
            f"Cayley root {gamma} is not fixed (up to sign) by the current involution"
        )
    # <s|gamma> = 2 kappa(s, gamma) / kappa(gamma, gamma), with the
    # denominator computed once for the step
    gg = rs.inner(gamma, gamma)
    cols = []
    for s in zip(*sigma.matrix):
        c, rem = divmod(2 * rs.inner(s, gamma), gg)
        if rem:
            raise InvolutionError(f"the pairing <{s}|{gamma}> is not an integer")
        cols.append(tuple(b - c * g for b, g in zip(s, gamma)))
    if sigma.provenance == "identity":
        prov: str | tuple[Root, ...] = (gamma,)
    elif isinstance(sigma.provenance, tuple):
        prov = sigma.provenance + (gamma,)
    else:
        prov = "explicit"
    return _involution(rs, cols, prov)


def strongly_orthogonal(rs: RootSystem, gamma1: Root, gamma2: Root) -> bool:
    """True iff neither gamma1 + gamma2 nor gamma1 - gamma2 is a root and
    kappa(gamma1, gamma2) = 0; a root is never strongly orthogonal to
    itself."""
    for g in (gamma1, gamma2):
        if g not in rs.root_code:
            raise ValueError(f"{g} is not a root")
    s = tuple(a + b for a, b in zip(gamma1, gamma2))
    d = tuple(a - b for a, b in zip(gamma1, gamma2))
    if s in rs.root_code or d in rs.root_code:
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
    first, chains in lexicographic table order, first matrix kept.  The
    rounds stop once no chain extends, which happens by round rank + 1,
    however large ``max_chain_length`` is.
    """
    positives = rs.positive_roots
    start = identity_involution(rs)
    found: dict[Matrix, InvolutionData] = {start.matrix: start}
    # (involution, chain, table index after the chain's last root)
    frontier: list[tuple[InvolutionData, tuple[Root, ...], int]] = [(start, (), 0)]
    for _ in range(max_chain_length):
        if not frontier:
            break
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
