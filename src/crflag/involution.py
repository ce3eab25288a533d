"""Lattice involutions of a root system and partial Cayley transforms.

An involution is stored as an integer matrix acting on root-coefficient
vectors.  It must square to the identity, permute the roots, and preserve
the invariant form.  Starting from the identity (the split situation),
new involutions are produced by Cayley steps: a step at a root gamma
fixed by the current involution composes with the reflection in gamma,
sigma' = s_gamma o sigma.  Chains require each new root to be strongly
orthogonal to all earlier ones; two such steps commute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .roots import InvariantViolation, Root, RootSystem, pairing

Matrix = tuple[tuple[int, ...], ...]


class InvolutionError(ValueError):
    """A matrix failed one of the involution invariants, or a Cayley
    precondition does not hold; the message names the failure."""


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_vec(m: Matrix, v: Root) -> Root:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


@dataclass(frozen=True)
class InvolutionData:
    """A validated root-lattice involution.

    ``provenance`` is "identity", "explicit", or the tuple of Cayley roots
    applied left to right starting from the identity.
    """

    matrix: Matrix
    provenance: str | tuple[Root, ...]

    def apply(self, root: Root) -> Root:
        return _mat_vec(self.matrix, root)

    def fixes(self, root: Root) -> bool:
        return self.apply(root) == root


def _validate(rs: RootSystem, m: Matrix) -> None:
    n = rs.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise InvolutionError(f"matrix must be {n}x{n}")
    if _mat_mul(m, m) != _identity(n):
        raise InvolutionError("matrix is not involutive (M*M != id)")
    for beta in rs.positive_roots:
        if _mat_vec(m, beta) not in rs.root_lookup:
            raise InvolutionError(
                f"matrix does not preserve the root set (image of {beta} is not a root)"
            )
    # kappa-preservation as the matrix identity M^T F M = F: the images of
    # the simple roots (the columns of M) keep their inner products; the
    # roots span the lattice, so this is kappa-preservation on all roots.
    cols = list(zip(*m))
    for i in range(n):
        for j in range(n):
            if rs.inner(cols[i], cols[j]) != rs.form[i][j]:
                raise InvolutionError("matrix does not preserve the invariant form")


def identity_involution(rs: RootSystem) -> InvolutionData:
    return InvolutionData(matrix=_identity(rs.rank), provenance="identity")


def involution_from_matrix(rs: RootSystem, matrix, provenance="explicit") -> InvolutionData:
    """Validate a rank x rank integer matrix as a root-lattice involution."""
    bad = [x for row in matrix for x in row if int(x) != x]
    if bad:
        raise InvolutionError(f"matrix entries {', '.join(map(repr, bad))} are not integers")
    m = tuple(tuple(int(x) for x in row) for row in matrix)
    _validate(rs, m)
    return InvolutionData(matrix=m, provenance=provenance)


def reflection_matrix(rs: RootSystem, gamma: Root) -> Matrix:
    """Matrix of the reflection s_gamma on root coordinates."""
    if gamma not in rs.root_lookup:
        raise InvolutionError(f"{gamma} is not a root")
    cols = []
    for j in range(rs.rank):
        e = tuple(int(k == j) for k in range(rs.rank))
        c = pairing(rs, e, gamma)
        if not isinstance(c, int):
            raise InvariantViolation(f"<alpha_{j + 1}|{gamma}> must be an integer")
        cols.append(tuple(int(i == j) - c * gamma[i] for i in range(rs.rank)))
    return tuple(tuple(cols[j][i] for j in range(rs.rank)) for i in range(rs.rank))


def cayley_update(rs: RootSystem, sigma: InvolutionData, gamma: Root) -> InvolutionData:
    """One partial Cayley step at a root gamma fixed by sigma up to sign.

    The lattice identification makes the step the pure map
    beta -> sigma(beta) - <beta|gamma> gamma, i.e. sigma' = s_gamma o sigma.
    sigma(gamma) = +-gamma is exactly the condition for sigma' to be an
    involution again (reflections in gamma and -gamma coincide, so a
    second step at the same root undoes the first).  The result is
    re-validated against all involution invariants.
    """
    if gamma not in rs.root_lookup:
        raise InvolutionError(f"Cayley root {gamma} is not a root")
    if sigma.apply(gamma) not in (gamma, tuple(-c for c in gamma)):
        raise InvolutionError(
            f"Cayley root {gamma} is not fixed (up to sign) by the current involution"
        )
    new = _mat_mul(reflection_matrix(rs, gamma), sigma.matrix)
    _validate(rs, new)
    if sigma.provenance == "identity":
        prov: str | tuple[Root, ...] = (gamma,)
    elif isinstance(sigma.provenance, tuple):
        prov = sigma.provenance + (gamma,)
    else:
        prov = "explicit"
    return InvolutionData(matrix=new, provenance=prov)


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
