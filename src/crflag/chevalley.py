"""Exact Chevalley-basis realization and a linear-algebra cross-check.

The algebra is spanned by coroots h_1..h_n and one vector x_alpha per
root.  Structure constants N(alpha,beta) with |N| = p+1 (p the length of
the downward alpha-string through beta) are fixed by choosing +(p+1) on
extraspecial pairs and propagating every other sign through the Jacobi
identity, in integer arithmetic throughout.  They go, with the Cartan
eigenvalues and the coroots, into one sparse adjoint table ``ad`` that
holds every non-zero bracket of two basis vectors and is complete once
built; the construction verifies the Jacobi identity on basis triples
afterwards (exhaustively up to rank 4, sampled above).

Subspaces are kept in a canonical integer echelon form (primitive rows,
positive pivots, fully reduced), so subspace equality is plain equality
of row tuples and every computation is exact.

This module re-derives the kernel filtration and minimality by honest
bracket arithmetic.  Each level of the filtration is the left kernel of
the Levi-form bracket tensor of the level before, solved by one echelon
elimination (``levi_tensor_kernel``).  Minimality is the fixpoint of
V <- V + [V, V], reached semi-naively: each round brackets only the
directions the round before added.  The module consumes the
involution only through the image root set of the parabolic, never as a
map on the algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .roots import InvariantViolation, Root, RootSystem, pairing

Vec = dict[int, int]


# ---------------------------------------------------------------------------
# structure constants


def _string_down(root_of: dict[int, Root], alpha: int, beta: int) -> int:
    """p = max k with beta - k*alpha a root, on root codes."""
    p = 0
    v = beta - alpha
    while v in root_of:
        p += 1
        v -= alpha
    return p


def _build_n_table(rs: RootSystem) -> dict[tuple[Root, Root], int]:
    """Constants N(alpha,beta) for every ordered pair with alpha+beta a root.

    Positive pairs are filled in increasing height of the sum; the
    extraspecial pair of each sum gets +(p+1) and the remaining pairs are
    solved from a Jacobi relation against the extraspecial pair.  Mixed and
    negative pairs follow from N(-a,-b) = -N(a,b) and the sum-zero cycle
    N(a,b)/kappa(c,c) = N(b,c)/kappa(a,a) for a+b+c = 0.

    Roots are handled by their integer codes (``rs.root_code``: sums and
    negatives are integer sums and negatives, and a root is positive iff
    its code is), and kappa(a,a) is computed once per root.  All arithmetic
    is on integers: the Jacobi step and a length ratio are exact divisions
    that raise on a remainder, and a ratio of equal lengths is not applied.
    The keys of the returned table are the root tuples of ``rs``.
    """
    root_of = {c: r for r, c in rs.root_code.items()}
    order = {rs.root_code[r]: i for i, r in enumerate(rs.positive_roots)}
    # 6 kappa(a, a), an integer
    length = {c: rs.inner(r, r) for c, r in root_of.items()}
    npos: dict[tuple[int, int], int] = {}

    def scaled(n: int, num: int, den: int) -> int:
        """n * num / den, exactly."""
        if num == den:
            return n
        val, rem = divmod(n * num, den)
        if rem:
            raise InvariantViolation("a length ratio must scale a structure constant to an integer")
        return val

    def n_any(x: int, y: int) -> int:
        if x > 0 and y > 0:
            if order[x] < order[y]:
                return npos[(x, y)]
            return -npos[(y, x)]
        if x < 0 and y < 0:
            return -n_any(-x, -y)
        if x < 0:
            return -n_any(y, x)
        # x positive, y negative, x+y a root
        z = -(x + y)
        if z > 0:
            return scaled(n_any(z, x), length[z], length[y])
        return scaled(n_any(y, z), length[z], length[x])

    by_height = [rs.root_code[r] for r in sorted(rs.positive_roots, key=lambda r: (sum(r), r))]
    # the first rank roots by height are the simple roots
    for gamma in by_height[rs.rank:]:
        pairs = []
        for alpha in by_height:
            if order[alpha] >= order[gamma]:
                break
            beta = gamma - alpha
            if beta in order and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        pairs.sort(key=lambda ab: order[ab[0]])
        if not pairs:
            raise InvariantViolation("every non-simple positive root is a sum of positive roots")
        ex_alpha, ex_beta = pairs[0]
        npos[(ex_alpha, ex_beta)] = _string_down(root_of, ex_alpha, ex_beta) + 1
        for alpha, beta in pairs[1:]:
            # Jacobi on (x_{-a1}, x_alpha, x_beta) with (a1, b1) extraspecial:
            # N(alpha,beta) N(-a1,gamma) = -(N(beta,-a1) N(alpha,beta-a1)
            #                               + N(-a1,alpha) N(beta,alpha-a1))
            acc = 0
            d2 = beta - ex_alpha
            if d2 in root_of:
                acc += n_any(beta, -ex_alpha) * n_any(alpha, d2)
            d3 = alpha - ex_alpha
            if d3 in root_of:
                acc += n_any(-ex_alpha, alpha) * n_any(beta, d3)
            denom = n_any(-ex_alpha, gamma)
            if denom == 0:
                raise InvariantViolation("the extraspecial constant N(-a1, gamma) must not vanish")
            val, rem = divmod(-acc, denom)
            if rem or abs(val) != _string_down(root_of, alpha, beta) + 1:
                raise InvariantViolation("structure constant must be an integer of modulus p+1")
            npos[(alpha, beta)] = val

    table: dict[tuple[int, int], int] = {}
    for a in root_of:
        for b in root_of:
            if a + b in root_of:
                val = n_any(a, b)
                if abs(val) != _string_down(root_of, a, b) + 1:
                    raise InvariantViolation(
                        f"N{(root_of[a], root_of[b])} must be an integer of modulus p+1"
                    )
                table[(a, b)] = val
    for (a, b), n in table.items():
        if table[(b, a)] != -n:
            raise InvariantViolation(f"N(b,a) must be -N(a,b) for {(root_of[a], root_of[b])}")
        if table[(-a, -b)] != -n:
            raise InvariantViolation(f"N(-a,-b) must be -N(a,b) for {(root_of[a], root_of[b])}")
    return {(root_of[a], root_of[b]): n for (a, b), n in table.items()}


@dataclass(frozen=True, eq=False)
class ChevalleyAlgebra:
    """The algebra over the basis h_1..h_n, then x_alpha per root.

    ``ad`` is the sparse adjoint table, indexed by basis coordinate:
    ``ad[i]`` maps j to [e_i, e_j] and holds only the non-zero brackets,
    namely the eigenvalues [h_i, x_alpha] = <alpha|alpha_i> in both orders,
    [x_alpha, x_{-alpha}] as the coroot of alpha in coroot coordinates, and
    one entry per pair of ``n_table``.  It is complete when the algebra is
    built; nothing fills in later.
    """

    rs: RootSystem
    dim: int
    root_index: dict[Root, int]          # root -> basis coordinate
    basis_root: dict[int, Root]          # basis coordinate -> root
    n_table: dict[tuple[Root, Root], int]
    ad: list[dict[int, Vec]]

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            row = self.ad[i]
            for j, b in v.items():
                unit = row.get(j)
                if unit is None:
                    continue
                ab = a * b
                for k, c in unit.items():
                    val = out.get(k, 0) + ab * c
                    if val:
                        out[k] = val
                    elif k in out:
                        del out[k]
        return out


def _jacobi_defect(ca: ChevalleyAlgebra, i: int, j: int, k: int) -> Vec:
    ei, ej, ek = {i: 1}, {j: 1}, {k: 1}
    out: Vec = {}
    for u, vw in ((ei, (ej, ek)), (ej, (ek, ei)), (ek, (ei, ej))):
        term = ca.bracket(u, ca.bracket(*vw))
        for c, val in term.items():
            new = out.get(c, 0) + val
            if new:
                out[c] = new
            elif c in out:
                del out[c]
    return out


def jacobi_check(ca: ChevalleyAlgebra, sample: int | None = None) -> int:
    """Verify the Jacobi identity on basis triples; returns the number of
    triples checked.  ``sample=None`` checks every i<j<k triple."""
    dim = ca.dim
    if sample is None:
        triples = (
            (i, j, k)
            for i in range(dim)
            for j in range(i + 1, dim)
            for k in range(j + 1, dim)
        )
        count = 0
        for t in triples:
            if _jacobi_defect(ca, *t):
                raise InvariantViolation(f"Jacobi fails on {t}")
            count += 1
        return count
    rng = random.Random(20240 + dim)
    count = 0
    for _ in range(sample):
        i, j, k = rng.sample(range(dim), 3)
        if _jacobi_defect(ca, i, j, k):
            raise InvariantViolation(f"Jacobi fails on {(i, j, k)}")
        count += 1
    return count


@lru_cache(maxsize=None)
def build_chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    """Build the adjoint table and verify it at construction time."""
    if rs.rank > 8:
        raise ValueError("Chevalley construction is bounded at rank 8")
    n = rs.rank
    root_index: dict[Root, int] = {}
    basis_root: dict[int, Root] = {}
    for beta, signed in sorted(rs.root_lookup.items(), key=lambda kv: (kv[1] < 0, abs(kv[1]))):
        idx = n + len(root_index)
        root_index[beta] = idx
        basis_root[idx] = beta
    code_index = {rs.root_code[beta]: idx for beta, idx in root_index.items()}
    n_table = _build_n_table(rs)

    ad: list[dict[int, Vec]] = [{} for _ in range(n + len(rs.roots))]
    for beta in rs.roots:
        x = root_index[beta]
        kbb = rs.inner(beta, beta)
        coroot: Vec = {}
        for i, c in enumerate(beta):
            val, rem = divmod(c * rs.form[i][i], kbb)
            if rem:
                raise InvariantViolation("coroots are integral over the coroot basis")
            if val:
                coroot[i] = val
        ad[x][code_index[-rs.root_code[beta]]] = coroot
        for i in range(n):
            val = pairing(rs, beta, rs.simple(i + 1))
            if val:
                ad[i][x] = {x: val}
                ad[x][i] = {x: -val}
    for (a, b), nab in n_table.items():
        ad[root_index[a]][root_index[b]] = {code_index[rs.root_code[a] + rs.root_code[b]]: nab}

    ca = ChevalleyAlgebra(
        rs=rs,
        dim=n + len(rs.roots),
        root_index=root_index,
        basis_root=basis_root,
        n_table=n_table,
        ad=ad,
    )
    jacobi_check(ca, sample=None if rs.rank <= 4 else 4000)
    return ca


# ---------------------------------------------------------------------------
# exact subspaces


def _primitive(row: Vec) -> Vec:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    pivot = min(row)
    if row[pivot] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _eliminate(row: Vec, by: Vec, col: int) -> Vec:
    """Cross-multiplied elimination of ``col`` from ``row`` by ``by``."""
    a = by[col]
    b = row[col]
    out: Vec = {}
    for c in set(row) | set(by):
        v = a * row.get(c, 0) - b * by.get(c, 0)
        if v:
            out[c] = v
    return out


class Subspace:
    """A rational subspace in canonical integer echelon form.

    Rows are primitive integer vectors, fully reduced with positive
    pivots; two Subspace objects are equal iff the spaces coincide.
    ``scale`` is the lcm of the pivot entries.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "scale", "_by_pivot")

    def __init__(self, ambient_dim: int, vectors=()):
        self.ambient_dim = ambient_dim
        by_pivot: dict[int, Vec] = {}
        for v in vectors:
            row = {c: int(x) for c, x in (v.items() if isinstance(v, dict) else v) if x}
            while row:
                p = min(row)
                if p in by_pivot:
                    row = _eliminate(row, by_pivot[p], p)
                else:
                    by_pivot[p] = _primitive(row)
                    break
        # back-reduce from the largest pivot down, then normalize
        pivots = sorted(by_pivot)
        for p in reversed(pivots):
            row = by_pivot[p]
            for q in pivots:
                if q > p and q in row:
                    row = _eliminate(row, by_pivot[q], q)
            by_pivot[p] = _primitive(row)
        self.pivots = tuple(pivots)
        self.scale = lcm(*(by_pivot[p][p] for p in pivots))
        self._by_pivot = {p: by_pivot[p] for p in pivots}
        self.rows = tuple(
            tuple(sorted(by_pivot[p].items())) for p in pivots
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def row_vecs(self) -> list[Vec]:
        return [dict(r) for r in self.rows]

    def reduce(self, vec: Vec) -> Vec:
        """Residue of ``scale * vec`` modulo the subspace, with every pivot
        column cleared: linear in ``vec``, zero iff ``vec`` is contained.
        Rows are fully reduced, so clearing one pivot leaves the entries of
        ``vec`` at the others as they were."""
        out = {c: self.scale * v for c, v in vec.items() if v}
        for p, x in vec.items():
            row = self._by_pivot.get(p)
            if row is None or not x:
                continue
            f = self.scale * x // row[p]
            for c, v in row.items():
                nv = out.get(c, 0) - f * v
                if nv:
                    out[c] = nv
                else:
                    del out[c]
        return out

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise InvariantViolation("subspaces of different ambient spaces")
        return Subspace(self.ambient_dim, list(self.rows) + list(other.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(dict(r)) for r in self.rows)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


# ---------------------------------------------------------------------------
# oracle operations


def subspace_from_rootset(ca: ChevalleyAlgebra, root_set) -> Subspace:
    """Span of the full Cartan and the named root vectors."""
    vecs: list[Vec] = [{i: 1} for i in range(ca.rs.rank)]
    for beta in root_set:
        vecs.append({ca.root_index[beta]: 1})
    return Subspace(ca.dim, vecs)


def subspace_root_content(ca: ChevalleyAlgebra, sub: Subspace) -> tuple[frozenset[Root], int]:
    """Decompose an ad(Cartan)-stable subspace into its root set and its
    Cartan dimension; every echelon row must be supported either on a
    single root coordinate or inside the Cartan block."""
    n = ca.rs.rank
    roots = []
    cartan = 0
    for row in sub.rows:
        cols = [c for c, _ in row]
        if all(c < n for c in cols):
            cartan += 1
        elif len(cols) != 1:
            raise InvariantViolation("row mixes root spaces; subspace is not a root-space sum")
        else:
            roots.append(ca.basis_root[cols[0]])
    return frozenset(roots), cartan


def levi_tensor_kernel(ca: ChevalleyAlgebra, level: Subspace, sigma_q: Subspace) -> Subspace:
    """Left kernel of the bracket tensor level x sigma_q -> g / (level + sigma_q),
    {w in level : [w, sigma_q] inside level + sigma_q}.

    One echelon elimination: each basis row b of ``level`` becomes the row
    (residue of [b, v_j] for every row v_j of ``sigma_q``, then b itself),
    with the residues in the low columns.  The echelon rows whose pivot
    falls in the b block span the kernel, in ambient coordinates."""
    span = level.sum_with(sigma_q)
    right = sigma_q.row_vecs()
    offset = len(right) * ca.dim
    rows = []
    for b in level.row_vecs():
        row = {offset + c: v for c, v in b.items()}
        for j, v in enumerate(right):
            image = ca.bracket(b, v)
            if image:
                for c, x in span.reduce(image).items():
                    row[j * ca.dim + c] = x
        rows.append(row)
    solved = Subspace(offset + ca.dim, rows)
    return Subspace(ca.dim, [
        {c - offset: v for c, v in row} for p, row in zip(solved.pivots, solved.rows) if p >= offset
    ])


def oracle_filtration(ca: ChevalleyAlgebra, q_sub: Subspace, sigma_q: Subspace) -> list[Subspace]:
    """The descending kernel chain computed by literal bracket arithmetic,
    up to and including the first stationary subspace."""
    levels = [q_sub]
    while True:
        nxt = levi_tensor_kernel(ca, levels[-1], sigma_q)
        if nxt == levels[-1]:
            break
        if not (nxt.dim < levels[-1].dim and nxt <= levels[-1]):
            raise InvariantViolation("oracle levels must strictly decrease until stationary")
        levels.append(nxt)
        if len(levels) > q_sub.dim + 1:
            raise InvariantViolation("oracle filtration exceeded its theoretical length")
    return levels


def oracle_minimality(ca: ChevalleyAlgebra, q_plus: Subspace) -> bool:
    """Iterate V <- V + [V, V] to stabilization; True iff V fills the
    algebra.

    Semi-naive: after a round, the brackets of the rows it started from
    lie in V, so the next round brackets only the directions it added (the
    echelon rows of the non-zero residues mod V), against every earlier
    row and against each other once."""
    span = q_plus
    old: list[Vec] = []
    new = q_plus.row_vecs()
    while new and span.dim < ca.dim:
        residues = []
        for i, u in enumerate(new):
            for v in chain(old, new[i + 1:]):
                image = ca.bracket(u, v)
                if image and (res := span.reduce(image)):
                    residues.append(res)
        old.extend(new)
        added = Subspace(ca.dim, residues)
        new = added.row_vecs()
        span = span.sum_with(added)
    return span.dim == ca.dim


def cross_check(rs: RootSystem, q_roots, sigma_q, fast_levels, fast_minimal: bool) -> None:
    """Re-derive one case by bracket arithmetic and compare it with the
    fast root-set answers: chain length, each level's root content and
    Cartan dimension, and minimality of q + sigma(q).  Each Levi-tensor
    kernel is solved once, as a step of ``oracle_filtration``.  Reads root
    sets only; raises InvariantViolation naming the first disagreement."""
    ca = build_chevalley(rs)
    sq_sub = subspace_from_rootset(ca, sigma_q)
    levels = oracle_filtration(ca, subspace_from_rootset(ca, q_roots), sq_sub)
    if len(levels) != len(fast_levels):
        raise InvariantViolation(
            f"oracle chain has {len(levels)} levels, fast path {len(fast_levels)}"
        )
    for k, (sub, fast) in enumerate(zip(levels, fast_levels)):
        roots, cartan = subspace_root_content(ca, sub)
        if cartan != rs.rank:
            raise InvariantViolation(f"oracle level {k} has Cartan dimension {cartan}, not {rs.rank}")
        if roots != fast:
            raise InvariantViolation(
                f"oracle level {k} lacks {len(fast - roots)} and adds {len(roots - fast)} "
                "roots against the fast path"
            )
    minimal = oracle_minimality(ca, subspace_from_rootset(ca, q_roots | sigma_q))
    if minimal != fast_minimal:
        raise InvariantViolation(f"oracle minimality {minimal}, fast path {fast_minimal}")
