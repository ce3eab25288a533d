"""Finite root systems of the simple complex Lie algebras.

Everything lives on the root lattice: a root is a tuple of integer
coefficients over the simple roots alpha_1 .. alpha_n in the Bourbaki
numbering (for B-types the last simple root is short, for C-types the
last one is long, for G2 the first one is short).  The invariant form
kappa is normalized so that long roots have squared length 2, and it is
stored as the integer Gram matrix of 6 kappa on the simple roots (6
clears every denominator: short roots have kappa 1, or 2/3 in G2), so
every inner product ``RootSystem.inner`` is an exact ``int``; the Cartan
pairing <beta|gamma> of two roots is an integer.

Each root also has one integer code, code(beta) = sum_i beta_i B^i with
B = 4 * 6 + 1 = 25.  The code is linear, so code(alpha + beta) =
code(alpha) + code(beta), and it is injective on vectors whose
coefficients stay below B / 2 in absolute value.  No root coefficient of
a simple type exceeds 6 (E8's highest root), so sums of two roots code
injectively too, and a positive root has a positive code.
``build_root_system`` raises ``InvariantViolation`` if a root ever has a
coefficient above 6.  The positive closure, the sum table and the
Chevalley structure constants add and subtract codes, not tuples.

``root_sum_table`` lists, for every root, the roots it adds to a root.
It is built from the decompositions of the positive roots into two
positive roots alone: each one gives the twelve sums of a zero-sum triple
of roots and its negative, and no other pair of roots is tried.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import add

Root = tuple[int, ...]


class UnknownRootSystem(ValueError):
    """Raised when (family, rank) does not name a simple type."""


class InvariantViolation(AssertionError):
    """An internal consistency check failed; raised explicitly, so it
    still fires under ``python -O``."""


_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}

FAMILIES = tuple(_MIN_RANK)

# A difference of two sums of two roots has every coefficient at most
# 4 * _MAX_COEFFICIENT < _CODE_BASE, so distinct sums have distinct codes.
_MAX_COEFFICIENT = 6
_CODE_BASE = 4 * _MAX_COEFFICIENT + 1


class Record:
    """Base of the records that are classes rather than named tuples.

    A subclass lists its fields in ``__slots__`` and sets each one once in
    its ``__init__`` through ``object.__setattr__``; assigning or deleting
    an attribute afterwards raises ``AttributeError``.  Equality and hash
    are identity unless the subclass defines them.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RootSystem(Record):
    """Immutable root system data; safe to share between threads.  Two
    root systems are equal only if they are the same object, which
    ``build_root_system`` returns for each type.

    ``form`` is the integer Gram matrix of 6 kappa on the simple roots.
    ``roots`` is the one root numbering: the positive roots in
    construction order (by height, then lexicographic), then their
    negatives in the same order.  ``root_code`` maps every root, in that
    order, to its integer code (see the module docstring); membership in
    it is the test for "is a root".
    """

    __slots__ = ("family", "rank", "cartan_matrix", "positive_roots", "form", "roots", "root_code")

    def __init__(self, family: str, rank: int, cartan_matrix: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[Root, ...], form: tuple[tuple[int, ...], ...],
                 roots: tuple[Root, ...], root_code: dict[Root, int]):
        set_field = object.__setattr__
        set_field(self, "family", family)
        set_field(self, "rank", rank)
        set_field(self, "cartan_matrix", cartan_matrix)
        set_field(self, "positive_roots", positive_roots)
        set_field(self, "form", form)
        set_field(self, "roots", roots)
        set_field(self, "root_code", root_code)

    def simple(self, i: int) -> Root:
        """The simple root alpha_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range 1..{self.rank}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def inner(self, beta: Root, gamma: Root) -> int:
        """6 kappa(beta, gamma), exact."""
        form = self.form
        return sum(
            b * sum(f * g for f, g in zip(form[i], gamma) if g)
            for i, b in enumerate(beta) if b
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family}{self.rank})"


def is_valid_type(family: str, rank: int) -> bool:
    lo = _MIN_RANK.get(family)
    if lo is None or rank < lo:
        return False
    hi = _MAX_RANK.get(family)
    return hi is None or rank <= hi


def _cartan_and_lengths(family: str, rank: int):
    """Cartan matrix A[i][j] = <alpha_i|alpha_j> and d[j] = 6 kappa(alpha_j,
    alpha_j) / 2 = 3 * squared length: 6 long, 3 short, 2 for G2's short root."""
    A = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        A[i][i] = 2

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        A[i][j] = aij
        A[j][i] = aji

    d = [6] * rank
    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)
        d[rank - 1] = 3
    elif family == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)
        d = [3] * (rank - 1) + [6]
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, rank - 1):
            bond(i, i + 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
        d[2] = d[3] = 3
    elif family == "G":
        bond(0, 1, -1, -3)
        d[0] = 2
    else:  # pragma: no cover - guarded by caller
        raise UnknownRootSystem(family)
    return tuple(tuple(row) for row in A), tuple(d)


def _positive_closure(rank: int, cartan) -> dict[Root, int]:
    """Generate the positive roots by closing the simple roots upward;
    returns each positive root with its code, by height, then
    lexicographic.  This is where roots get their codes: alpha_i has code
    B^i, and every other root is a simple root above a known one.

    beta + alpha_i is a root iff the alpha_i-string through beta extends
    upward, i.e. p - <beta|alpha_i> >= 1 where p counts the downward steps
    and <beta|alpha_i> = sum_j beta_j A[j][i].  The string is walked on
    codes (a step is B^i), and each root carries its pairings with the
    simple roots, which a step at alpha_i raises by row i of A.
    """
    steps = [_CODE_BASE**i for i in range(rank)]
    # (root, code, <root|alpha_1> .. <root|alpha_n>)
    current = sorted(
        (tuple(int(j == i) for j in range(rank)), steps[i], cartan[i]) for i in range(rank)
    )
    positives = {beta: c for beta, c, _ in current}
    known = set(steps)
    while current:
        fresh: dict[int, tuple[Root, int, tuple[int, ...]]] = {}
        for beta, c, pairs in current:
            for i, step in enumerate(steps):
                p = 0
                v = c - step
                while v in known:
                    p += 1
                    v -= step
                s = c + step
                if p - pairs[i] >= 1 and s not in known and s not in fresh:
                    if beta[i] >= _MAX_COEFFICIENT:
                        raise InvariantViolation(
                            f"root coefficient above {_MAX_COEFFICIENT} breaks the root codes"
                        )
                    new = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    fresh[s] = (new, s, tuple(map(add, pairs, cartan[i])))
        current = sorted(fresh.values())
        known.update(fresh)
        positives.update((beta, c) for beta, c, _ in current)
    return positives


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given simple type.

    Raises UnknownRootSystem for pairs outside A(n>=1), B(n>=2), C(n>=3),
    D(n>=4), E(6..8), F4, G2.
    """
    if not isinstance(rank, int) or not is_valid_type(family, rank):
        raise UnknownRootSystem(f"{family!r} rank {rank!r} is not a simple type")
    cartan, d = _cartan_and_lengths(family, rank)
    form = tuple(
        tuple(d[j] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    if any(form[i][j] != form[j][i] for i in range(rank) for j in range(rank)):
        raise InvariantViolation("kappa must be symmetric")
    positives = _positive_closure(rank, cartan)
    negatives = {tuple(-c for c in beta): -code for beta, code in positives.items()}
    rs = RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=cartan,
        positive_roots=tuple(positives),
        form=form,
        roots=tuple(positives) + tuple(negatives),
        root_code=positives | negatives,
    )
    # The highest root must dominate coefficient-wise, which makes it the
    # unique maximal root.
    top = highest_root(rs)
    if not all(all(t >= b for t, b in zip(top, beta)) for beta in positives):
        raise InvariantViolation("the highest root must dominate every positive root")
    return rs


def kappa(rs: RootSystem, beta: Root, gamma: Root) -> "Fraction":
    """The invariant form on the root lattice (long roots have kappa=2).
    The package reads ``RootSystem.inner`` instead; ``kappa`` stays while
    the benchmark still declares its ``roots.kappa.self_s`` metric.
    ``fractions`` is imported here, so ``import crflag`` does not load it
    (nor ``decimal`` and ``numbers`` with it)."""
    from fractions import Fraction

    return Fraction(rs.inner(beta, gamma), 6)


@lru_cache(maxsize=None)
def root_sum_table(rs: RootSystem) -> dict[Root, dict[Root, Root]]:
    """Precomputed root sums, per root: alpha -> {beta: alpha+beta} for
    exactly the beta whose sum with alpha is again a root.  The rows, and
    the entries of each row, are in the order of ``rs.roots``.  Every value
    is a root tuple of ``rs``, not a new one.

    The table is read off the decompositions gamma = alpha + beta of the
    positive roots into two positive roots, alpha before beta; no other
    pair of roots is tried.  Every sum of two roots is one of the six sums
    inside a zero-sum triple {alpha, beta, -gamma} or inside its negative,
    and each such pair of triples comes from exactly one of these
    decompositions (Bourbaki, Lie groups and Lie algebras, ch. VI, 1).  A
    decomposition fills its entries in the rows of alpha, beta and gamma.
    The row of -x is the row of x negated: ids shift by |Phi+|, and the
    partners' positive and negative halves swap places.
    """
    roots = rs.roots
    n = len(rs.positive_roots)
    codes = list(rs.root_code.values())[:n]
    positive_id = {c: i for i, c in enumerate(codes)}.get
    heights = [sum(beta) for beta in rs.positive_roots]
    # rows[x]: partner id -> sum id in the row of roots[x], ids being
    # positions in rs.roots, so roots[x + n] = -roots[x].
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    # positive_roots is sorted by height, so the alpha of gamma = roots[k]
    # are the roots before `half`, those with 2 ht(alpha) <= ht(gamma); at
    # equal heights both orders turn up, and i < j keeps one.
    half = 0
    for k, code in enumerate(codes):
        while half < n and 2 * heights[half] <= heights[k]:
            half += 1
        for i in range(half):
            j = positive_id(code - codes[i])
            if j is not None and i < j:
                rows[i].update({j: k, k + n: j + n})
                rows[j].update({i: k, k + n: i + n})
                rows[k].update({i + n: j, j + n: i})
    negated = roots[n:] + roots[:n]  # negated[x] == -roots[x]
    positive_rows, negative_rows = [], []
    for row in rows:
        ids = sorted(row)
        m = bisect_left(ids, n)
        positive_rows.append({roots[p]: roots[row[p]] for p in ids})
        negative_rows.append({negated[p]: negated[row[p]] for p in ids[m:] + ids[:m]})
    return dict(zip(roots, positive_rows + negative_rows))


def pairing(rs: RootSystem, beta: Root, gamma: Root) -> int:
    """Cartan pairing <beta|gamma> = 2 kappa(beta,gamma) / kappa(gamma,gamma),
    an integer for two roots.  gamma = 0 raises ZeroDivisionError, and a
    non-integral value raises InvariantViolation."""
    denom = rs.inner(gamma, gamma)
    if denom == 0:
        raise ZeroDivisionError("pairing <.|gamma> needs kappa(gamma,gamma) != 0")
    val, rem = divmod(2 * rs.inner(beta, gamma), denom)
    if rem:
        raise InvariantViolation(f"the pairing <{beta}|{gamma}> is not an integer")
    return val


def highest_root(rs: RootSystem) -> Root:
    """The positive root of greatest height (``build_root_system`` checks
    that it dominates every root, so it is the unique maximal one)."""
    return max(rs.positive_roots, key=sum)


def format_root(root: Root) -> str:
    """Render a lattice vector: digit string like "-112" when every
    coefficient fits in one digit and the rank is at most 9, otherwise
    comma-separated signed integers in parentheses."""
    if len(root) <= 9 and (min(root) >= 0 or max(root) <= 0) and max(map(abs, root)) <= 9:
        digits = "".join(str(abs(c)) for c in root)
        return "-" + digits if any(c < 0 for c in root) else digits
    return "(" + ",".join(str(c) for c in root) + ")"


def parse_root(text: str, rank: int) -> Root:
    """Parse either root string format back into a coefficient tuple."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        parts = t[1:-1].split(",")
        if len(parts) != rank:
            raise ValueError(f"expected {rank} coefficients in {text!r}")
        return tuple(int(p) for p in parts)
    sign = 1
    if t.startswith("-"):
        sign = -1
        t = t[1:]
    if len(t) != rank or not t.isdigit():
        raise ValueError(f"malformed root string {text!r} for rank {rank}")
    return tuple(sign * int(ch) for ch in t)
