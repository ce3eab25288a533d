"""Exact Chevalley-basis realization and a linear-algebra cross-check.

The algebra is spanned by coroots h_1..h_n and one vector x_alpha per
root.  Structure constants N(alpha,beta) with |N| = p+1 (p the length of
the downward alpha-string through beta) are fixed by choosing +(p+1) on
extraspecial pairs and propagating every other sign through the Jacobi
identity, in integer arithmetic throughout.  They are found one
decomposition gamma = alpha + beta of a positive root at a time, and each
one fills the twelve constants of its two zero-sum triples
{alpha, beta, -gamma} and {-alpha, -beta, gamma}.  They go, with the Cartan
eigenvalues and the coroots, into one sparse adjoint table ``ad`` that
holds every non-zero bracket of two basis vectors and is complete once
built; it is the algebra's only table of structure constants.  The
construction verifies the Jacobi identity on basis triples afterwards
(exhaustively up to rank 4, sampled above).

Subspaces are kept in a canonical integer echelon form (primitive rows,
positive pivots, fully reduced), one row per pivot, so subspace equality
is plain equality of the pivot -> row maps and every computation is exact.
The back-reduction clears from each row only the larger pivot columns it
holds: the rows of larger pivots are fully reduced before it, so no
elimination brings in another pivot column.
The span of the Cartan and a set of root vectors is built directly in this
form, its rows the unit vectors, so the cross-check compares each oracle
level with the fast path's level as one equality of subspaces.

This module re-derives the kernel filtration and minimality by honest
bracket arithmetic.  Each level of the filtration is the left kernel of
the Levi-form bracket tensor of the level before, solved by one echelon
elimination (``levi_tensor_kernel``).  Minimality is the fixpoint of
V <- V + [V, V], reached semi-naively: each round brackets only the
directions the round before added (``oracle_minimality``).  Both take
their brackets, already reduced modulo a subspace, from one sparse
product of a row with ``ad`` and rows indexed by coordinate
(``_bracket_residues``).  The module consumes the involution only
through the image root set of the parabolic, never as a map on the
algebra.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm

from .roots import InvariantViolation, Record, Root, RootSystem

Vec = dict[int, int]

MAX_RANK = 8  # the largest rank build_chevalley accepts


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


def _build_n_table(rs: RootSystem) -> dict[tuple[int, int], int]:
    """Constants N(alpha,beta) for every ordered pair with alpha+beta a root.

    Every relation alpha + beta = gamma lies in one zero-sum triple, and
    one decomposition gamma = alpha + beta of a positive root gives two of
    them, {alpha, beta, -gamma} and its negative.  The decompositions are
    taken in increasing height of gamma, alpha before beta in root order;
    the first, extraspecial, pair of each gamma gets +(p+1) and the others
    are solved from a Jacobi relation against it, whose constants belong
    to lower sums or to gamma's extraspecial triple and so are already in
    the table.  One constant fills the twelve of its two triples through
    N(b,a) = -N(a,b), N(-a,-b) = -N(a,b) and the cycle
    N(a,b)/kappa(c,c) = N(b,c)/kappa(a,a) for a+b+c = 0; an ordered pair
    met twice raises, as does an entry whose modulus is not p+1.

    Roots are handled by their integer codes (``rs.root_code``: sums and
    negatives are integer sums and negatives, and a root is positive iff
    its code is), and kappa(a,a) is computed once per root.  All arithmetic
    is on integers: the Jacobi step and a length ratio are exact divisions
    that raise on a remainder.  The keys of the returned table are pairs
    of root codes.
    """
    root_of = {c: r for r, c in rs.root_code.items()}
    # rs.positive_roots is ordered by height, then lexicographically
    by_height = [rs.root_code[r] for r in rs.positive_roots]
    order = {c: i for i, c in enumerate(by_height)}
    # 6 kappa(a, a), an integer
    length = {c: rs.inner(r, r) for c, r in root_of.items()}
    table: dict[tuple[int, int], int] = {}

    def scaled(n: int, num: int, den: int) -> int:
        """n * num / den, exactly."""
        val, rem = divmod(n * num, den)
        if rem:
            raise InvariantViolation("a length ratio must scale a structure constant to an integer")
        return val

    def fill(alpha: int, beta: int, n: int) -> None:
        """Write the triples {alpha, beta, -gamma} and {-alpha, -beta, gamma}
        from n = N(alpha, beta)."""
        c = -(alpha + beta)
        for a, b, nab in ((alpha, beta, n),
                          (beta, c, scaled(n, length[alpha], length[c])),
                          (c, alpha, scaled(n, length[beta], length[c]))):
            for x, y, v in ((a, b, nab), (b, a, -nab), (-a, -b, -nab), (-b, -a, nab)):
                if (x, y) in table:
                    raise InvariantViolation(f"N{(root_of[x], root_of[y])} lies in two triples")
                if abs(v) != _string_down(root_of, x, y) + 1:
                    raise InvariantViolation(
                        f"N{(root_of[x], root_of[y])} must be an integer of modulus p+1"
                    )
                table[(x, y)] = v

    # the first rank roots by height are the simple roots; the pairs of
    # each sum come in increasing order of alpha, extraspecial first
    for g in range(rs.rank, len(by_height)):
        gamma = by_height[g]
        pairs = []
        for alpha in by_height[:g]:
            beta = gamma - alpha
            if beta in order and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        if not pairs:
            raise InvariantViolation("every non-simple positive root is a sum of positive roots")
        ex_alpha, ex_beta = pairs[0]
        fill(ex_alpha, ex_beta, _string_down(root_of, ex_alpha, ex_beta) + 1)
        for alpha, beta in pairs[1:]:
            # Jacobi on (x_{-a1}, x_alpha, x_beta) with (a1, b1) extraspecial:
            # N(alpha,beta) N(-a1,gamma) = -(N(beta,-a1) N(alpha,beta-a1)
            #                               + N(-a1,alpha) N(beta,alpha-a1))
            acc = 0
            d2 = beta - ex_alpha
            if d2 in root_of:
                acc += table[(beta, -ex_alpha)] * table[(alpha, d2)]
            d3 = alpha - ex_alpha
            if d3 in root_of:
                acc += table[(-ex_alpha, alpha)] * table[(beta, d3)]
            val, rem = divmod(-acc, table[(-ex_alpha, gamma)])
            if rem:
                raise InvariantViolation("the Jacobi relation must give an integer constant")
            fill(alpha, beta, val)
    return table


class ChevalleyAlgebra(Record):
    """The algebra over the basis h_1..h_n, then x_alpha per root.  Two
    algebras are equal only if they are the same object, which
    ``build_chevalley`` returns for each root system.

    ``ad`` is the sparse adjoint table, indexed by basis coordinate:
    ``ad[i]`` maps j to [e_i, e_j] and holds only the non-zero brackets,
    namely the eigenvalues [h_i, x_alpha] = <alpha|alpha_i> in both orders,
    [x_alpha, x_{-alpha}] as the coroot of alpha in coroot coordinates, and
    [x_alpha, x_beta] = N(alpha,beta) x_(alpha+beta) whenever alpha+beta is
    a root.  It is complete when the algebra is built; nothing fills in
    later.  Basis coordinate rank + i is the root ``rs.roots[i]``;
    ``root_index`` is the one map between roots and basis coordinates.
    """

    __slots__ = ("rs", "dim", "root_index", "ad")

    def __init__(self, rs: RootSystem, dim: int, root_index: dict[Root, int],
                 ad: list[dict[int, Vec]]):
        set_field = object.__setattr__
        set_field(self, "rs", rs)
        set_field(self, "dim", dim)
        set_field(self, "root_index", root_index)  # root -> basis coordinate
        set_field(self, "ad", ad)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """[u, v] of two vectors, with its zero entries dropped.  The oracle
        brackets rows in bulk through ``_bracket_residues`` and does not
        call this; it is the one-pair-at-a-time reference that the tests
        compare that product with."""
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
    """[e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]], with its
    zero entries dropped.  Each inner bracket is the one entry
    ``ad[v].get(w)``, and ``ad[u]`` is applied to it."""
    ad = ca.ad
    out: Vec = {}
    for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
        inner = ad[v].get(w)
        if inner is None:
            continue
        row = ad[u]
        for c, x in inner.items():
            unit = row.get(c)
            if unit is None:
                continue
            for d, y in unit.items():
                out[d] = out.get(d, 0) + x * y
    return {d: x for d, x in out.items() if x}


def _distinct_triples(rng: random.Random, dim: int, count: int):
    """``count`` triples of distinct coordinates below ``dim``, each drawn
    by rejecting repeats.  Above dim 21 this is how ``rng.sample(range(dim),
    3)`` draws, so the triples are the same, without its set-up per call."""
    draw = rng.randrange
    for _ in range(count):
        i = draw(dim)
        j = draw(dim)
        while j == i:
            j = draw(dim)
        k = draw(dim)
        while k == i or k == j:
            k = draw(dim)
        yield i, j, k


def jacobi_check(ca: ChevalleyAlgebra, sample: int | None = None) -> int:
    """Verify the Jacobi identity on basis triples; returns the number of
    triples checked.  ``sample=None`` checks every i<j<k triple."""
    dim = ca.dim
    if sample is None:
        triples = combinations(range(dim), 3)
    else:
        triples = _distinct_triples(random.Random(20240 + dim), dim, sample)
    count = 0
    for t in triples:
        if _jacobi_defect(ca, *t):
            raise InvariantViolation(f"Jacobi fails on {t}")
        count += 1
    return count


@lru_cache(maxsize=None)
def build_chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    """Build the adjoint table and verify it at construction time."""
    if rs.rank > MAX_RANK:
        raise ValueError(f"Chevalley construction is bounded at rank {MAX_RANK}")
    n = rs.rank
    root_index = {beta: idx for idx, beta in enumerate(rs.roots, start=n)}
    code_index = {rs.root_code[beta]: idx for beta, idx in root_index.items()}

    cartan = rs.cartan_matrix
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
        # <beta|alpha_i> = sum_j beta_j <alpha_j|alpha_i>: the combination
        # of the Cartan-matrix rows with beta's coefficients
        eigen = [0] * n
        for c, arow in zip(beta, cartan):
            if c:
                eigen = [e + c * a for e, a in zip(eigen, arow)]
        for i, val in enumerate(eigen):
            if val:
                ad[i][x] = {x: val}
                ad[x][i] = {x: -val}
    for (a, b), nab in _build_n_table(rs).items():
        ad[code_index[a]][code_index[b]] = {code_index[a + b]: nab}

    ca = ChevalleyAlgebra(rs=rs, dim=n + len(rs.roots), root_index=root_index, ad=ad)
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

    ``rows`` maps each pivot, in increasing order, to its row: a
    primitive integer vector, fully reduced, with a positive pivot entry.
    Two Subspace objects are equal iff the spaces coincide.  ``scale`` is
    the lcm of the pivot entries.
    """

    __slots__ = ("ambient_dim", "rows", "scale")

    def __init__(self, ambient_dim: int, vectors=()):
        self.ambient_dim = ambient_dim
        by_pivot: dict[int, Vec] = {}
        for v in vectors:
            row = {c: int(x) for c, x in v.items() if x}
            while row:
                p = min(row)
                if p in by_pivot:
                    row = _eliminate(row, by_pivot[p], p)
                else:
                    by_pivot[p] = _primitive(row)
                    break
        # back-reduce from the largest pivot down, then normalize.  The rows
        # of larger pivots are fully reduced already, so eliminating one of
        # their pivots adds no entry at another pivot column: a row needs
        # only the larger pivot columns it holds, in increasing order.
        pivots = sorted(by_pivot)
        for p in reversed(pivots):
            row = by_pivot[p]
            for q in sorted(c for c in row if c > p and c in by_pivot):
                row = _eliminate(row, by_pivot[q], q)
            by_pivot[p] = _primitive(row)
        self.rows = {p: by_pivot[p] for p in pivots}
        self.scale = lcm(*(row[p] for p, row in self.rows.items()))

    @classmethod
    def coordinate_span(cls, ambient_dim: int, coords) -> "Subspace":
        """Span of the unit vectors at ``coords``.  Each is already its own
        canonical row, so the rows are set directly, with no elimination."""
        sub = cls.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.rows = {c: {c: 1} for c in sorted(set(coords))}
        sub.scale = 1
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    def row_vecs(self) -> list[Vec]:
        return list(self.rows.values())

    def reduce(self, vec: Vec) -> Vec:
        """Residue of ``scale * vec`` modulo the subspace, with every pivot
        column cleared: linear in ``vec``, zero iff ``vec`` is contained.
        Rows are fully reduced, so clearing one pivot leaves the entries of
        ``vec`` at the others as they were."""
        out = {c: self.scale * v for c, v in vec.items() if v}
        for p, x in vec.items():
            row = self.rows.get(p)
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
        return Subspace(self.ambient_dim, chain(self.rows.values(), other.rows.values()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.rows.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


# ---------------------------------------------------------------------------
# oracle operations


def subspace_from_rootset(ca: ChevalleyAlgebra, root_set) -> Subspace:
    """Span of the full Cartan and the named root vectors, built directly
    in canonical form."""
    index = ca.root_index
    return Subspace.coordinate_span(
        ca.dim, chain(range(ca.rs.rank), (index[beta] for beta in root_set))
    )


def _bracket_residues(ca: ChevalleyAlgebra, u: Vec, rows_at: dict[int, list[tuple[int, int]]],
                      residue: dict[int, Vec], span: Subspace) -> dict[int, Vec]:
    """The residue of [u, v_j] modulo ``span`` for every indexed row v_j,
    as {j: residue}, the residues possibly holding zero entries; a j whose
    residue is zero may be missing.

    ``rows_at`` indexes the rows by coordinate (k -> [(j, (v_j)_k)]), so
    walking ``ca.ad[i]`` for each i in the support of u meets every
    non-zero term u_i (v_j)_k [e_i, e_k] of every [u, v_j] in one pass,
    with no empty bracket tried.  ``Subspace.reduce`` is linear (it scales
    by the one constant ``span.scale``, the lcm of the pivots, so its
    divisions are exact), hence the residue of [u, v_j] is the sum of these
    terms, each applied to the residues of its coordinates.  Those are kept
    in ``residue`` (c -> residue of e_c), which the caller shares between
    the calls against one span, so each coordinate is reduced at most once
    per span."""
    out: dict[int, Vec] = {}
    for i, x in u.items():
        for k, unit in ca.ad[i].items():
            at = rows_at.get(k)
            if at is None:
                continue
            for c, z in unit.items():
                res = residue.get(c)
                if res is None:
                    res = residue[c] = span.reduce({c: 1})
                if not res:
                    continue
                for j, y in at:
                    acc = out.get(j)
                    if acc is None:
                        acc = out[j] = {}
                    f = x * y * z
                    for d, r in res.items():
                        acc[d] = acc.get(d, 0) + f * r
    return out


def levi_tensor_kernel(ca: ChevalleyAlgebra, level: Subspace, sigma_q: Subspace) -> Subspace:
    """Left kernel of the bracket tensor level x sigma_q -> g / (level + sigma_q),
    {w in level : [w, sigma_q] inside level + sigma_q}.

    One echelon elimination: each basis row b of ``level`` becomes the row
    (residue of [b, v_j] for every row v_j of ``sigma_q``, then b itself),
    with the residues in the low columns.  The echelon rows whose pivot
    falls in the b block span the kernel, in ambient coordinates."""
    span = level.sum_with(sigma_q)
    dim = ca.dim
    offset = sigma_q.dim * dim
    rows_at: dict[int, list[tuple[int, int]]] = {}
    for j, v in enumerate(sigma_q.row_vecs()):
        for k, x in v.items():
            rows_at.setdefault(k, []).append((j, x))
    residue: dict[int, Vec] = {}
    rows = []
    for b in level.row_vecs():
        row = {offset + c: v for c, v in b.items()}
        for j, res in _bracket_residues(ca, b, rows_at, residue, span).items():
            base = j * dim
            for d, y in res.items():
                row[base + d] = y
        rows.append(row)
    solved = Subspace(offset + dim, rows)
    return Subspace(dim, [
        {c - offset: v for c, v in row.items()} for p, row in solved.rows.items() if p >= offset
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
    return levels


def oracle_minimality(ca: ChevalleyAlgebra, q_plus: Subspace) -> bool:
    """Iterate V <- V + [V, V] to stabilization; True iff V fills the
    algebra.

    Semi-naive: after a round, the brackets of the rows it started from
    lie in V, so the next round brackets only the directions it added (the
    echelon rows of the residues mod V).  Each new row is bracketed against
    every row indexed so far and only then indexed itself, so every
    unordered pair of rows is bracketed once and no row with itself.  The
    residues are reduced mod V, so each round adds its full dimension to V;
    a round that does not would repeat forever, and raises."""
    span = q_plus
    rows_at: dict[int, list[tuple[int, int]]] = {}
    count = 0                            # rows indexed so far
    new = q_plus.row_vecs()
    while new and span.dim < ca.dim:
        residue: dict[int, Vec] = {}
        residues = []
        for u in new:
            residues.extend(_bracket_residues(ca, u, rows_at, residue, span).values())
            for k, y in u.items():
                rows_at.setdefault(k, []).append((count, y))
            count += 1
        added = Subspace(ca.dim, residues)
        new = added.row_vecs()
        grown = span.sum_with(added)
        if grown.dim != span.dim + added.dim:
            raise InvariantViolation("each minimality round must add only new directions")
        span = grown
    return span.dim == ca.dim


def cross_check(rs: RootSystem, q_roots, sigma_q, fast_levels, fast_minimal: bool) -> None:
    """Re-derive one case by bracket arithmetic and compare it with the
    fast root-set answers: chain length, each level as a subspace against
    the span of the Cartan and the roots of the fast level, and minimality
    of q + sigma(q).  Spans are canonical, so each level is one equality.
    Each Levi-tensor kernel is solved once, as a step of
    ``oracle_filtration``.  Reads root sets only; raises InvariantViolation
    naming the first disagreement."""
    ca = build_chevalley(rs)
    sq_sub = subspace_from_rootset(ca, sigma_q)
    levels = oracle_filtration(ca, subspace_from_rootset(ca, q_roots), sq_sub)
    if len(levels) != len(fast_levels):
        raise InvariantViolation(
            f"oracle chain has {len(levels)} levels, fast path {len(fast_levels)}"
        )
    for k, (sub, fast) in enumerate(zip(levels, fast_levels)):
        if sub != subspace_from_rootset(ca, fast):
            raise InvariantViolation(
                f"oracle level {k} (dimension {sub.dim}) is not the span of the Cartan "
                f"and the {len(fast)} roots of fast level {k}"
            )
    minimal = oracle_minimality(ca, subspace_from_rootset(ca, q_roots | sigma_q))
    if minimal != fast_minimal:
        raise InvariantViolation(f"oracle minimality {minimal}, fast path {fast_minimal}")
