"""Seeded random generators used by the property suites.

Type-A product data are sampled with a general character lattice: start from
an adjoint product plus a torus, extend the lattice upward by a small random
index subject to integral pairing with every coroot, then scramble the basis
with a random unimodular change of coordinates.
"""

from __future__ import annotations

import random
from typing import Optional

from .intlin import IntMatrix, RowLattice, dot, row_basis
from .rootdatum import RootDatum, adjoint, direct_sum, torus, validate


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo: int = -20, hi: int = 20) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(rng: random.Random, n: int, steps: int | None = None) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular matrix together with its exact inverse."""
    if steps is None:
        steps = rng.randint(8, 15)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    tinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n == 0:
            break
        kind = rng.randrange(3) if n >= 2 else 2
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                t[i][k] += c * t[j][k]
            for k in range(n):
                tinv[k][j] -= c * tinv[k][i]
        elif kind == 1:
            t[i], t[j] = t[j], t[i]
            for row in tinv:
                row[i], row[j] = row[j], row[i]
        else:
            t[i] = [-x for x in t[i]]
            for row in tinv:
                row[i] = -row[i]
    return IntMatrix.from_rows(t, cols=n), IntMatrix.from_rows(tinv, cols=n)


def _extend_lattice(rng: random.Random, base: RootDatum, blocks: list[tuple[int, int]]) -> Optional[RootDatum]:
    """Enlarge X by a finite index, keeping all coroot pairings integral.

    The extension vector is a multiple of a fundamental weight of one type-A
    block (denominator m+1 <= 7, so the index stays small) plus an integer
    mix across all coordinates, so admissibility is automatic.  Returns the
    datum re-expressed in a basis of the larger lattice.
    """
    r = base.rank
    offset, m = rng.choice(blocks)
    d = m + 1
    k = rng.randint(1, m)
    # k times the first fundamental weight of A_m, in root coordinates:
    # varpi_1 = (1/(m+1)) * sum_j (m+1-j) alpha_j
    u = [d * rng.randint(-2, 2) for _ in range(r)]
    for j in range(1, m + 1):
        u[offset + j - 1] += k * (m + 1 - j)
    if all(x % d == 0 for x in u):
        return None
    # basis of X' = X + Z(u/d): Hermite basis of d*X + Z u, divided by d
    gens = [[d * int(i == j) for j in range(r)] for i in range(r)] + [u]
    basis = row_basis(IntMatrix.from_rows(gens, cols=r))  # full rank: r rows
    big = RowLattice(basis)
    new_roots = []
    for root in base.roots:
        c = big.coords(tuple(d * x for x in root))
        if c is None:
            return None
        new_roots.append(c)
    new_coroots = []
    for cr in base.coroots:
        row = [dot(basis.row(i), cr) for i in range(r)]
        if any(x % d for x in row):
            return None
        new_coroots.append(tuple(x // d for x in row))
    return RootDatum(rank=r, roots=tuple(new_roots), coroots=tuple(new_coroots))


def random_type_a_datum(rng: random.Random, max_rank: int = 6) -> RootDatum:
    """A random valid datum with only type-A components and a general lattice."""
    for _ in range(50):
        r = rng.randint(1, max_rank)
        sizes = []
        remaining = rng.randint(0, r)
        while remaining:
            m = rng.randint(1, remaining)
            sizes.append(m)
            remaining -= m
        datum = torus(r)
        blocks = []  # (coordinate offset, block size)
        offset = 0
        for m in sizes:
            blocks.append((offset, m))
            offset += m
        if sizes:
            datum = adjoint("A", sizes[0])
            for m in sizes[1:]:
                datum = direct_sum(datum, adjoint("A", m))
            if r > sum(sizes):
                datum = direct_sum(datum, torus(r - sum(sizes)))
        if blocks and rng.random() < 0.7:
            extended = _extend_lattice(rng, datum, blocks)
            if extended is not None:
                datum = extended
        t, tinv = random_unimodular(rng, r)
        tinv_t = tinv.transpose()
        scrambled = RootDatum(
            rank=r,
            roots=tuple(t.apply(root) for root in datum.roots),
            coroots=tuple(tinv_t.apply(c) for c in datum.coroots),
        )
        if not validate(scrambled):
            return scrambled
    raise AssertionError("failed to sample a valid type-A datum")
