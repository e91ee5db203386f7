"""Exact linear algebra over the integers.

Everything here runs on plain Python integers, so intermediate results may
grow without bound and never overflow.  The module provides Smith and Hermite
normal forms with unimodular transforms, row lattices with membership and
coordinate queries, and invariant factors of finitely generated abelian
groups (quotients of ``Z^r`` by a row lattice).  A quotient is read off one
Smith form of its generators, redundant or not, with no Hermite step and no
transforms.

Each normal form has one kernel.  A transform is an identity block set
beside the matrix (U) or below it (V); the kernel picks its pivots in the
matrix's own block, its row and column steps carry the identity blocks
along, and the transforms are sliced out at the end.  A row-lattice basis
is built by :func:`_join`, one row at a time from the zero basis, on a tuple
of row tuples; the IntMatrix is built once, at the end.

Matrices follow the row convention: the lattice spanned by a matrix is the
integer span of its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import ContainmentError


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(map(mul, a, b))


def strict_int(value) -> int:
    """``value`` itself if it is an ``int``; ValueError for bools, floats, strings and the rest.

    Parsers of outside data use it where ``int()`` would silently truncate
    ``1.7`` or read ``true`` as 1.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def strict_list(value, parse=strict_int) -> list:
    """``[parse(x) for x in value]`` for a list ``value``; TypeError for anything else."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return [parse(x) for x in value]


def strict_matrix(value, cols: Optional[int] = None) -> IntMatrix:
    """An IntMatrix from a list of lists of ints, parsed strictly (see strict_int)."""
    return IntMatrix.from_rows(strict_list(value, strict_list), cols=cols)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = [tuple(row) for row in rows]
        for x in chain.from_iterable(data):
            if type(x) is not int:
                strict_int(x)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        else:
            width = 0 if cols is None else cols
        flat = tuple(x for row in data for x in row)
        return cls(len(data), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int, cols: int) -> "IntMatrix":
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = strict_int(d)
        return cls.from_rows(m, cols=cols)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if not other.rows:  # no terms to sum, and no columns to build
            return IntMatrix.zeros(self.rows, other.cols)
        rows = [self.row(i) for i in range(self.rows)]
        other_cols = list(zip(*(other.row(k) for k in range(other.rows))))
        return IntMatrix(self.rows, other.cols, tuple(sum(map(mul, r, c)) for r in rows for c in other_cols))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix difference")
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(dot(self.row(i), vec) for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant by the Bareiss fraction-free algorithm."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization U @ M @ V = diag(divisors) with unimodular U, V.

    ``divisors`` is the full diagonal of length min(rows, cols): a divisibility
    chain of nonnegative integers, zeros (rank deficiency) last.
    """

    U: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


def smith_normal_form(M: IntMatrix) -> SmithForm:
    """Smith normal form with transforms.

    Pivots are chosen by smallest nonzero absolute value to limit coefficient
    growth; all arithmetic is exact.  The form is taken of the block matrix
    [[M, I], [I, 0]] with pivots in its top-left block: row steps build U in
    the top-right block and column steps build V in the bottom-left one.
    """
    r, c = M.rows, M.cols
    a = [row + e for row, e in zip(M.to_rows(), IntMatrix.identity(r).to_rows())]
    a += [e + [0] * r for e in IntMatrix.identity(c).to_rows()]
    divisors = _smith(a, r, c)
    U = IntMatrix.from_rows([row[c:] for row in a[:r]], cols=r)
    V = IntMatrix.from_rows([row[:c] for row in a[r:]], cols=c)
    return SmithForm(U=U, V=V, divisors=divisors)


def snf_divisors(M: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, skipping transform bookkeeping."""
    return _smith(M.to_rows(), M.rows, M.cols)


def _row_sub(a: list[list[int]], i: int, j: int, q: int):
    """Row i of ``a`` minus q times row j, in place."""
    ai, aj = a[i], a[j]
    for k in range(len(ai)):
        ai[k] -= q * aj[k]


def _smith(a: list[list[int]], r: int, c: int) -> tuple[int, ...]:
    """Diagonalize the top-left r x c block of the rows ``a`` in place and return its diagonal.

    Pivots, clearing and the divisibility chain look at that block alone,
    but every row step runs over whole rows and every column step over
    whole columns, so blocks beside and below it record the transforms.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_sub(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]

    n = min(r, c)
    t = 0
    while t < n:
        # smallest-nonzero-absolute-value pivot in the trailing submatrix
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        # alternate row/column clearing; remainders swap into the pivot slot
        while True:
            changed = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _row_sub(a, i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        changed = True
                        break
            if changed:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        changed = True
                        break
            if not changed:
                break

        # enforce the divisibility chain before advancing
        p = a[t][t]
        violation = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % p:
                    violation = i
                    break
            if violation is not None:
                break
        if violation is not None:
            _row_sub(a, t, violation, -1)  # add the offending row, then re-clear
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    return tuple(a[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# Hermite normal form and row lattices
# ---------------------------------------------------------------------------


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with H = U @ M, U unimodular.

    H is in row echelon shape with positive pivots, zeros below each pivot,
    entries above a pivot reduced into [0, pivot), zero rows last.  H is the
    canonical basis of the row lattice of M.  The form is taken of [M | I]
    with pivots in M's columns, so U builds up in the right block.
    """
    r, c = M.rows, M.cols
    a = [row + e for row, e in zip(M.to_rows(), IntMatrix.identity(r).to_rows())]
    _hermite(a, c)
    return IntMatrix.from_rows([row[:c] for row in a], cols=c), IntMatrix.from_rows([row[c:] for row in a], cols=r)


def row_basis(M: IntMatrix) -> IntMatrix:
    """Canonical (Hermite) basis of the row lattice of M, one row per rank: M's rows joined one by one."""
    rows: tuple[tuple[int, ...], ...] = ()
    for i in range(M.rows):
        rows = _join(rows, M.row(i))
    return IntMatrix(len(rows), M.cols, tuple(chain.from_iterable(rows)))


def join_row(basis: IntMatrix, row: Sequence[int]) -> IntMatrix:
    """``row_basis`` of the rows of the Hermite basis ``basis`` plus one more row.

    The basis itself comes back when the row lies in its lattice (see :func:`_join`).
    """
    c = basis.cols
    e = basis.entries
    rows = tuple(e[k * c : (k + 1) * c] for k in range(basis.rows))
    joined = _join(rows, row)
    if joined is rows:
        return basis
    return IntMatrix(len(joined), c, tuple(chain.from_iterable(joined)))


def _join(rows: tuple[tuple[int, ...], ...], v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The Hermite basis ``rows``, a tuple of int tuples, with one more row ``v`` joined.

    The row is cleared column by column against the basis rows: at a pivot
    it divides, it is reduced; at one it does not divide, Euclid's algorithm
    on the two rows puts their gcd in the pivot; where no basis row has a
    pivot, it becomes a new row.  ``rows`` itself comes back when ``v`` lies
    in its lattice.

    Otherwise the entries above the pivots are reduced again, only at the
    pivots from the first changed or inserted row on.  This rests on one
    invariant: ``rows`` is reduced, and the rows above the first changed row
    are untouched, so they are already reduced at every earlier pivot.  The
    clearing pass records each pivot column as it meets it; after an insert,
    the rows below keep their pivots, and only those are found by a scan.
    """
    out: list[Sequence[int]] = list(rows)
    pivots: list[int] = []
    first = None  # the first changed or inserted row
    i = 0
    for col in range(len(v)):
        if i < len(out) and out[i][col]:  # row i's pivot: the entries before it are zero
            pivots.append(col)
            b = out[i]
            q, rem = divmod(v[col], b[col])
            if rem:
                while v[col]:  # Euclid on the two rows leaves their gcd in the pivot
                    q = b[col] // v[col]
                    b, v = v, [bk - q * vk for bk, vk in zip(b, v)]
                out[i] = b if b[col] > 0 else [-x for x in b]
                if first is None:
                    first = i
            elif q:
                v = [vk - q * bk for bk, vk in zip(b, v)]
            i += 1
        elif v[col]:
            out.insert(i, v if v[col] > 0 else [-x for x in v])
            if first is None:
                first = i
            pivots.append(col)
            for pr in out[i + 1 :]:  # the rows below keep their pivots, past col
                col += 1
                while not pr[col]:
                    col += 1
                pivots.append(col)
            break
    if first is None:
        return rows
    for j in range(first, len(out)):
        col = pivots[j]
        pr = out[j]
        for k in range(j):
            q = out[k][col] // pr[col]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], pr)]
    return tuple(map(tuple, out))


def _hermite(a: list[list[int]], c: int):
    """Bring the rows ``a`` to Hermite form in place, with pivots in their first c columns."""
    r = len(a)
    pr = 0
    for col in range(c):
        if pr == r:
            break
        while True:
            live = [i for i in range(pr, r) if a[i][col]]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(a[i][col]), i))
            if i0 != pr:
                a[pr], a[i0] = a[i0], a[pr]
            done = True
            for i in range(pr + 1, r):
                if a[i][col]:
                    _row_sub(a, i, pr, a[i][col] // a[pr][col])
                    if a[i][col]:
                        done = False
            if done:
                break
        if a[pr][col] == 0:
            continue
        if a[pr][col] < 0:
            a[pr] = [-x for x in a[pr]]
        for i in range(pr):
            q = a[i][col] // a[pr][col]
            if q:
                _row_sub(a, i, pr, q)
        pr += 1


class RowLattice:
    """Integer row span of a matrix with membership and coordinate queries."""

    def __init__(self, generators: IntMatrix):
        self.ambient_dim = generators.cols
        basis = row_basis(generators)
        self._basis = basis.to_rows()
        self._pivots = [next(j for j, x in enumerate(row) if x) for row in self._basis]

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def basis(self) -> IntMatrix:
        return IntMatrix.from_rows(self._basis, cols=self.ambient_dim)

    def key(self) -> tuple:
        """Canonical hashable form; equal lattices give equal keys."""
        return tuple(tuple(row) for row in self._basis)

    def coords(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Coordinates of vec over the Hermite basis, or None if outside."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        v = list(vec)
        out = []
        for row, p in zip(self._basis, self._pivots):
            q, rem = divmod(v[p], row[p])
            if rem:
                return None
            if q:
                for k in range(self.ambient_dim):
                    v[k] -= q * row[k]
            out.append(q)
        if any(v):
            return None
        return tuple(out)

    def __contains__(self, vec: Sequence[int]) -> bool:
        return self.coords(vec) is not None


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinAbGroup:
    """Invariant-factor form of a finitely generated abelian group.

    ``torsion`` is a divisibility chain of integers > 1; ``free_rank`` counts
    infinite cyclic summands.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d <= 1:
                raise ValueError("torsion entries must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion entries must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def order(self) -> Optional[int]:
        """Group order, or None for infinite groups."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def p_part(self, p: int) -> tuple[int, ...]:
        """The p-power parts (> 1) of the torsion entries."""
        out = []
        for d in self.torsion:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                out.append(q)
        return tuple(out)

    def to_dict(self) -> dict:
        return {"torsion": list(self.torsion), "free_rank": self.free_rank}

    @classmethod
    def from_dict(cls, data: dict) -> "FinAbGroup":
        return cls(
            torsion=tuple(strict_list(data["torsion"])),
            free_rank=strict_int(data["free_rank"]),
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def quotient_group(ambient_rank: int, generators: IntMatrix) -> FinAbGroup:
    """Z^ambient_rank modulo the row lattice of ``generators``, from one Smith form.

    The generator matrix must have ``ambient_rank`` columns; generators may be
    redundant or empty (the zero lattice).  The Smith diagonal of the
    generators alone gives the torsion (its entries above 1) and the rank of
    the lattice (its nonzero entries); no transform is built.
    """
    if generators.cols != ambient_rank:
        raise ValueError(
            f"dimension mismatch: generators have {generators.cols} columns, ambient rank is {ambient_rank}"
        )
    divisors = snf_divisors(generators)
    torsion = tuple(d for d in divisors if d > 1)
    return FinAbGroup(torsion=torsion, free_rank=ambient_rank - sum(1 for d in divisors if d))


def p_torsion_free(group: FinAbGroup, p: int) -> bool:
    """True when no torsion entry is divisible by the prime p."""
    check_prime(p)
    return all(d % p for d in group.torsion)


def relative_divisors(sub: IntMatrix, ambient: IntMatrix) -> list[int]:
    """Elementary divisors of the row lattice of ``sub`` inside that of ``ambient``.

    Rewrites the rows of ``sub`` in coordinates of an ambient basis and takes
    their Smith chain; the list has one entry per rank of the sublattice
    (all positive).  Raises ContainmentError when the row span of ``sub`` is
    not inside the row span of ``ambient``.
    """
    if sub.cols != ambient.cols:
        raise ValueError("sub and ambient must live in a common Z^r")
    amb = RowLattice(ambient)
    coords = []
    for i in range(sub.rows):
        c = amb.coords(sub.row(i))
        if c is None:
            raise ContainmentError(f"row {i} of the sublattice lies outside the ambient lattice")
        coords.append(c)
    return [d for d in snf_divisors(IntMatrix.from_rows(coords, cols=amb.rank)) if d]


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over the field with p elements."""
    check_prime(p)
    a = [[x % p for x in M.row(i)] for i in range(M.rows)]
    rank = 0
    rows, cols = M.rows, M.cols
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Small prime utilities
# ---------------------------------------------------------------------------


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the least strong pseudoprime to all 13 bases above (Sorenson and Webster,
# Math. Comp. 86 (2017)); below it the Miller-Rabin test on them is exact
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below MILLER_RABIN_LIMIT; ValueError above it.

    Small-prime division settles n < 41**2; beyond that it is deterministic
    Miller-Rabin on the first 13 prime bases.  Numbers with a prime factor
    <= 41 are rejected at any size.
    """
    if n <= 41:
        return n in _SMALL_PRIMES
    if any(n % q == 0 for q in _SMALL_PRIMES):
        return False
    if n < 41 * 41:
        return True
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large to test for primality (limit {MILLER_RABIN_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int):
    """ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of |n|, ascending.  prime_factors(0) is ()."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [i for i, flag in enumerate(sieve) if flag]
