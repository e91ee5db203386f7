"""Root data: construction, validation, duality, components, weight lattices.

A root datum is a quadruple (X, roots, Y, coroots) of two rank-r lattices in
duality together with finite subsets in bijection.  Here X and Y are both
identified with Z^r via a fixed pair of dual bases, so the pairing is the
ordinary dot product: ``roots[i]`` holds X-coordinates, ``coroots[i]`` holds
Y-coordinates, and index i matches root with coroot.

Axioms checked by :func:`validate`: the pairing of a root with its own coroot
is 2, and each reflection ``x -> x - <x, a^vee> a`` permutes the root set
(dually for coroots).  Data are required to be reduced (no root is twice
another).

Cartan matrices follow the convention ``C[i][j] = <alpha_j, alpha_i^vee>``,
with Bourbaki Planche node numbering (Groupes et algebres de Lie, ch. VI),
so the j-th column of C lists the coordinates of the j-th simple root in the
simply connected realization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence

from .errors import NotARootSystemError
from .intlin import (
    FinAbGroup,
    IntMatrix,
    RowLattice,
    dot,
    quotient_group,
    row_basis,
    smith_normal_form,
    strict_int,
)

Vector = tuple[int, ...]


@dataclass(frozen=True)
class RootDatum:
    """Immutable root datum in a fixed pair of dual bases of X and Y."""

    rank: int
    roots: tuple[Vector, ...]
    coroots: tuple[Vector, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must match up index by index")
        for v in self.roots + self.coroots:
            if len(v) != self.rank:
                raise ValueError("root/coroot length must equal the rank")

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    def root_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.roots, cols=self.rank)

    def coroot_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.coroots, cols=self.rank)

    def pairing(self, i: int, j: int) -> int:
        """<roots[i], coroots[j]>."""
        return dot(self.roots[i], self.coroots[j])

    def root_index(self, vec: Sequence[int]) -> Optional[int]:
        vec = tuple(vec)
        return next((i for i, r in enumerate(self.roots) if r == vec), None)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RootDatum":
        """Inverse of :meth:`to_dict`; ValueError on any non-integer rank or entry."""
        return cls(
            rank=strict_int(data["rank"]),
            roots=tuple(tuple(strict_int(x) for x in r) for r in data["roots"]),
            coroots=tuple(tuple(strict_int(x) for x in c) for c in data["coroots"]),
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_axioms(datum: RootDatum) -> list[str]:
    """The full validator: every axiom, each reflection against every root."""
    v: list[str] = []
    roots, coroots = datum.roots, datum.coroots

    seen: dict[Vector, int] = {}
    for i, r in enumerate(roots):
        if r in seen:
            v.append(f"duplicate root at indices {seen[r]} and {i}")
        seen[r] = i
    if any(not any(r) for r in roots):
        v.append("zero vector listed as a root")

    for i in range(len(roots)):
        if dot(roots[i], coroots[i]) != 2:
            v.append(f"pairing <a, a^vee> != 2 at index {i}")

    root_idx = {r: i for i, r in enumerate(roots)}
    for i, r in enumerate(roots):
        j = root_idx.get(tuple(-x for x in r))
        if j is None:
            v.append(f"root set not closed under negation at index {i}")
        elif coroots[j] != tuple(-x for x in coroots[i]):
            v.append(f"coroot of -root[{i}] is not -coroot[{i}]")

    for i, r in enumerate(roots):
        double = tuple(2 * x for x in r)
        if double in root_idx:
            v.append(f"not reduced: root {root_idx[double]} = 2 * root {i}")

    # reflection stability: stop checking once the data is too broken
    if not v:
        root_set = set(roots)
        coroot_set = set(coroots)
        for i in range(len(roots)):
            a, av = roots[i], coroots[i]
            for x in roots:
                k = dot(x, av)
                if tuple(xx - k * aa for xx, aa in zip(x, a)) not in root_set:
                    v.append(f"reflection through root {i} does not stabilize the root set")
                    break
            for y in coroots:
                k = dot(a, y)
                if tuple(yy - k * aa for yy, aa in zip(y, av)) not in coroot_set:
                    v.append(f"dual reflection through coroot {i} does not stabilize the coroot set")
                    break
    return v


@lru_cache(maxsize=None)
def _violations(datum: RootDatum) -> tuple[str, ...]:
    return tuple(_check_axioms(datum))


def validate(datum: RootDatum) -> list[str]:
    """Check the root-datum axioms; return a list of violations (empty = ok)."""
    return list(_violations(datum))


def ensure_valid(datum: RootDatum) -> RootDatum:
    violations = _violations(datum)
    if violations:
        raise ValueError("invalid root datum: " + "; ".join(violations))
    return datum


# ---------------------------------------------------------------------------
# Cartan catalog (Bourbaki numbering)
# ---------------------------------------------------------------------------

_SERIES_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 2,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _check_series(series: str, rank: int):
    if series not in _SERIES_RANKS:
        raise ValueError(f"unknown series {series!r}")
    if not _SERIES_RANKS[series](rank):
        raise ValueError(f"unsupported rank {rank} for series {series}")


@lru_cache(maxsize=None)
def cartan_matrix(series: str, rank: int) -> IntMatrix:
    """Catalog Cartan matrix C[i][j] = <alpha_j, alpha_i^vee>, Bourbaki order."""
    _check_series(series, rank)
    n = rank
    c = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if series == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif series in ("B", "C"):
        for i in range(n - 2):
            edge(i, i + 1)
        if series == "B":
            # alpha_n short: <alpha_n, alpha_{n-1}^vee> = -1, <alpha_{n-1}, alpha_n^vee> = -2
            edge(n - 2, n - 1, -1, -2)
        else:
            edge(n - 2, n - 1, -2, -1)
    elif series == "D":
        if n == 2:
            pass  # two orthogonal A1 nodes
        else:
            for i in range(n - 3):
                edge(i, i + 1)
            edge(n - 3, n - 2)
            edge(n - 3, n - 1)
    elif series == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            edge(i, j)
        if n >= 7:
            edge(5, 6)
        if n == 8:
            edge(6, 7)
    elif series == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)  # alpha_3 short against alpha_2 long
        edge(2, 3)
    elif series == "G":
        edge(0, 1, -3, -1)  # alpha_1 short: <alpha_2, alpha_1^vee> = -3

    return IntMatrix.from_rows(c, cols=n)


@dataclass(frozen=True)
class CartanType:
    """Multiset of irreducible components, each a (series, rank) pair."""

    components: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for series, rank in self.components:
            _check_series(series, rank)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        return " x ".join(f"{s}{r}" for s, r in self.components)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _reflection_closure(simple_pairs: list[tuple[Vector, Vector]]) -> list[tuple[Vector, Vector]]:
    """All (root, coroot) pairs generated from simple pairs by simple reflections."""
    seen: dict[Vector, Vector] = {}
    queue: list[tuple[Vector, Vector]] = []
    for b, bv in simple_pairs:
        if b not in seen:
            seen[b] = bv
            queue.append((b, bv))
    while queue:
        b, bv = queue.pop()
        for a, av in simple_pairs:
            k = dot(b, av)
            nb = tuple(x - k * y for x, y in zip(b, a))
            if nb not in seen:
                m = dot(a, bv)
                nbv = tuple(x - m * y for x, y in zip(bv, av))
                seen[nb] = nbv
                queue.append((nb, nbv))
    return sorted(seen.items())


def _datum_from_pairs(rank: int, pairs: Iterable[tuple[Vector, Vector]]) -> RootDatum:
    pairs = list(pairs)
    return RootDatum(
        rank=rank,
        roots=tuple(p[0] for p in pairs),
        coroots=tuple(p[1] for p in pairs),
    )


@lru_cache(maxsize=None)
def simply_connected(series: str, rank: int) -> RootDatum:
    """Datum with Y spanned by the simple coroots (X is the weight lattice)."""
    c = cartan_matrix(series, rank)
    simples = [
        (c.column(j), tuple(int(i == j) for i in range(rank)))
        for j in range(rank)
    ]
    return _datum_from_pairs(rank, _reflection_closure(simples))


@lru_cache(maxsize=None)
def adjoint(series: str, rank: int) -> RootDatum:
    """Datum with X spanned by the simple roots (Y is the coweight lattice)."""
    c = cartan_matrix(series, rank)
    simples = [
        (tuple(int(i == j) for i in range(rank)), c.row(j))
        for j in range(rank)
    ]
    return _datum_from_pairs(rank, _reflection_closure(simples))


@lru_cache(maxsize=None)
def general_linear(n: int) -> RootDatum:
    """The GL_n datum: rank n, roots and coroots e_i - e_j."""
    if n < 1:
        raise ValueError("GL(n) needs n >= 1")
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = tuple(int(k == i) - int(k == j) for k in range(n))
                pairs.append((v, v))
    return _datum_from_pairs(n, sorted(pairs))


def torus(rank: int) -> RootDatum:
    if rank < 0:
        raise ValueError("torus rank must be nonnegative")
    return RootDatum(rank=rank, roots=(), coroots=())


def direct_sum(r1: RootDatum, r2: RootDatum) -> RootDatum:
    """Block sum: ranks add, roots and coroots embed with zero padding."""
    left = [(r + (0,) * r2.rank, c + (0,) * r2.rank) for r, c in zip(r1.roots, r1.coroots)]
    right = [((0,) * r1.rank + r, (0,) * r1.rank + c) for r, c in zip(r2.roots, r2.coroots)]
    return _datum_from_pairs(r1.rank + r2.rank, left + right)


def dual(datum: RootDatum) -> RootDatum:
    """Swap the two sides: (Y, coroots, X, roots).  An exact involution."""
    return RootDatum(rank=datum.rank, roots=datum.coroots, coroots=datum.roots)


_TYPE_TOKEN = re.compile(r"^([A-G])([0-9]+)$")


def _split_args(body: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in preset name")
        cur.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in preset name")
    parts.append("".join(cur).strip())
    return parts


@lru_cache(maxsize=None)
def preset(name: str) -> RootDatum:
    """Build a datum from a preset name.

    Grammar: ``SC(<type>)`` | ``AD(<type>)`` | ``GL(n)`` | ``Torus(r)`` |
    ``Sum(p1, p2, ...)`` where ``<type>`` is a series letter plus rank, e.g.
    A3, B2, G2, E8.
    """
    text = name.strip()
    m = re.match(r"^(SC|AD|GL|Torus|Sum)\s*\((.*)\)$", text, re.DOTALL)
    if not m:
        raise ValueError(f"cannot parse preset name {name!r}")
    head, body = m.group(1), m.group(2).strip()
    if head in ("SC", "AD"):
        tm = _TYPE_TOKEN.match(body)
        if not tm:
            raise ValueError(f"cannot parse type token {body!r} in {name!r}")
        series, rank = tm.group(1), int(tm.group(2))
        return simply_connected(series, rank) if head == "SC" else adjoint(series, rank)
    if head == "GL":
        if not body.isdigit():
            raise ValueError(f"GL needs an integer rank, got {body!r}")
        return general_linear(int(body))
    if head == "Torus":
        if not body.isdigit():
            raise ValueError(f"Torus needs an integer rank, got {body!r}")
        return torus(int(body))
    # Sum
    if not body:
        return torus(0)
    parts = _split_args(body)
    return reduce(direct_sum, (preset(p) for p in parts))


def is_preset_name(text: str) -> bool:
    return bool(re.match(r"^(SC|AD|GL|Torus|Sum)\s*\(", text.strip()))


# ---------------------------------------------------------------------------
# Simple systems
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple[int, ...]:
    """Indices of the positive roots under a deterministic generic functional.

    The functional is lexicographically weighted, ``w = (N^(r-1), ..., N, 1)``
    with ``N = 1 + max |coordinate|``; since every coordinate is smaller than
    N in absolute value it cannot vanish on a nonzero root, but the guard
    loop keeps bumping N just in case.
    """
    ensure_valid(datum)
    roots = datum.roots
    if not roots:
        return ()
    rank = datum.rank
    n_bound = 1 + max(abs(x) for r in roots for x in r)
    while True:
        w = [n_bound ** (rank - 1 - i) for i in range(rank)]
        vals = [dot(w, r) for r in roots]
        if all(vals):
            break
        n_bound += 1
    return tuple(i for i, v in enumerate(vals) if v > 0)


@lru_cache(maxsize=None)
def simple_system(datum: RootDatum) -> tuple[int, ...]:
    """Indices of a base of the root system, ascending.

    The simple roots are the positive roots (see :func:`positive_roots`)
    that are not sums of two positive roots.
    """
    roots = datum.roots
    positive = positive_roots(datum)
    pos_set = {roots[i] for i in positive}
    simple = []
    for i in positive:
        r = roots[i]
        decomposable = any(
            tuple(x - y for x, y in zip(r, roots[j])) in pos_set for j in positive if j != i
        )
        if not decomposable:
            simple.append(i)
    return tuple(simple)


@lru_cache(maxsize=None)
def root_coefficients(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Coordinates of every root over the simple system (integer vectors).

    Every root is the image of a simple root under a product of simple
    reflections, so a breadth-first search from the base (unit vectors)
    reaches all of them: reflecting beta in the i-th simple root subtracts
    <beta, alpha_i^vee> e_i from the coefficients of beta.
    """
    delta = simple_system(datum)
    roots, coroots = datum.roots, datum.coroots
    lookup = {r: i for i, r in enumerate(roots)}
    coeffs = {i: tuple(int(j == k) for j in range(len(delta))) for k, i in enumerate(delta)}
    queue = list(delta)
    for b in queue:
        beta, c = roots[b], coeffs[b]
        for k, a in enumerate(delta):
            m = dot(beta, coroots[a])
            if not m:
                continue
            j = lookup.get(tuple(x - m * y for x, y in zip(beta, roots[a])))
            if j is None:
                raise NotARootSystemError("simple reflection leaves the root set")
            if j not in coeffs:
                coeffs[j] = c[:k] + (c[k] - m,) + c[k + 1 :]
                queue.append(j)
    if len(coeffs) != datum.num_roots:
        raise NotARootSystemError("root outside the Weyl orbit of the base")
    return tuple(coeffs[i] for i in range(datum.num_roots))


# ---------------------------------------------------------------------------
# Irreducible components and type recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One irreducible component with its Bourbaki-ordered simple roots."""

    series: str
    rank: int
    root_indices: tuple[int, ...]
    simple_indices: tuple[int, ...]  # in Bourbaki node order

    @property
    def label(self) -> tuple[str, int]:
        return (self.series, self.rank)


def _first_match(
    pairing: list[list[int]], catalog: list[tuple[int, ...]], order: tuple[int, ...] = ()
) -> Optional[tuple[int, ...]]:
    """Lexicographically first node order whose pairing matrix is ``catalog``, or None."""
    a = len(order)
    if a == len(catalog):
        return order
    # a catalog row attached to an earlier position draws only that node's neighbours
    anchor = next((order[b] for b in range(a) if catalog[a][b]), None)
    for x in range(len(pairing)):
        if x in order or (anchor is not None and not pairing[anchor][x]):
            continue
        placed = order + (x,)
        if all(pairing[x][y] == catalog[a][b] and pairing[y][x] == catalog[b][a] for b, y in enumerate(placed)):
            found = _first_match(pairing, catalog, placed)
            if found is not None:
                return found
    return None


def _bourbaki_order(nodes: list[int], c) -> tuple[str, int, list[int]]:
    """Recognize one connected diagram and list its nodes in Bourbaki order.

    ``c(i, j)`` is the pairing <alpha_j, alpha_i^vee> between simple roots.
    The catalog entries of the diagram's rank are tried in the order
    A, C, B, D, E, F, G; the first whose Cartan matrix is the pairing matrix
    in some node order wins, with the lexicographically first such order.
    Raises NotARootSystemError when the diagram is not in the catalog.
    """
    k = len(nodes)
    pairing = [[c(i, j) for j in nodes] for i in nodes]
    rows = sorted(sorted(row) for row in pairing)
    det = IntMatrix.from_rows(pairing, cols=k).det()
    # A before D and C before B, so A3 = D3 comes out as A3 and B2 = C2 as C2
    for series in "ACBDEFG":
        if not _SERIES_RANKS[series](k):
            continue
        catalog = cartan_matrix(series, k)
        catalog_rows = [catalog.row(a) for a in range(k)]
        if sorted(sorted(row) for row in catalog_rows) != rows or catalog.det() != det:
            continue
        order = _first_match(pairing, catalog_rows)
        if order is not None:
            return (series, k, [nodes[x] for x in order])
    raise NotARootSystemError("diagram is not in the Cartan catalog")


@lru_cache(maxsize=None)
def components(datum: RootDatum) -> tuple[Component, ...]:
    """Partition of the roots into irreducible components with Cartan types.

    Read off the base: two simple roots lie in one component when their
    pairing is nonzero, and each root lies in the component of the first
    simple root in its support (the first nonzero entry of its
    :func:`root_coefficients` row), since the support of a root is
    connected.  Components are ordered by their smallest root index.  Each
    one carries its simple roots in Bourbaki node order: the order in which
    their pairing matrix is the catalog Cartan matrix, so a component
    outside the catalog raises NotARootSystemError.
    """
    delta = simple_system(datum)
    roots, coroots = datum.roots, datum.coroots
    # label each base column with the first column of its connected class
    label: dict[int, int] = {}
    for k in range(len(delta)):
        if k in label:
            continue
        label[k] = k
        stack = [k]
        while stack:
            a = stack.pop()
            for b in range(len(delta)):
                if b not in label and dot(roots[delta[b]], coroots[delta[a]]):
                    label[b] = k
                    stack.append(b)
    # insertion order is the order of each group's smallest root index
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(root_coefficients(datum)):
        groups.setdefault(label[next(k for k, c in enumerate(row) if c)], []).append(i)

    def pairing(i, j):
        return dot(roots[j], coroots[i])

    out = []
    for first, indices in groups.items():
        comp_simple = [delta[k] for k in range(len(delta)) if label[k] == first]
        series, rank, ordered = _bourbaki_order(comp_simple, pairing)
        out.append(Component(series=series, rank=rank, root_indices=tuple(indices), simple_indices=tuple(ordered)))
    return tuple(out)


def cartan_type(datum: RootDatum) -> CartanType:
    return CartanType(components=tuple(c.label for c in components(datum)))


# ---------------------------------------------------------------------------
# Lattice-theoretic predicates
# ---------------------------------------------------------------------------


def _base_rows(datum: RootDatum, vectors: Sequence[Vector]) -> IntMatrix:
    """The rows of ``vectors`` (the roots or the coroots) at the simple indices.

    For a valid datum the simple roots span Z.roots and the simple coroots
    span Z.coroots, so lattices and quotients can be taken on these |base|
    rows instead of on all the roots.
    """
    return IntMatrix.from_rows([vectors[i] for i in simple_system(datum)], cols=datum.rank)


@lru_cache(maxsize=None)
def root_lattice(datum: RootDatum) -> RowLattice:
    """The lattice Z.roots inside X."""
    return RowLattice(_base_rows(datum, datum.roots))


def is_semisimple(datum: RootDatum) -> bool:
    """True when the roots span a finite-index sublattice of X: the base has ``rank`` roots."""
    return len(simple_system(datum)) == datum.rank


@lru_cache(maxsize=None)
def x_mod_root_lattice(datum: RootDatum) -> FinAbGroup:
    """X / Z.roots as an abstract group."""
    return quotient_group(datum.rank, _base_rows(datum, datum.roots))


@lru_cache(maxsize=None)
def y_mod_coroot_lattice(datum: RootDatum) -> FinAbGroup:
    return quotient_group(datum.rank, _base_rows(datum, datum.coroots))


@lru_cache(maxsize=None)
def _weight_lattice_scaled(datum: RootDatum) -> tuple[IntMatrix, int]:
    """(rows of D * Lambda in X-coordinates, D) for the weight lattice Lambda.

    Lambda lives in the rational span of the roots: vectors pairing
    integrally with every coroot.  Row a of the returned matrix is D times
    the a-th fundamental weight, where D = |det P| clears denominators and
    P is the pairing matrix of the base.  With the Smith form U P V =
    diag(d_1, ..., d_n), D = d_1 ... d_n and D * P^-1 = V diag(D / d_i) U,
    all in integers.
    """
    delta = simple_system(datum)
    n = len(delta)
    if n == 0:
        return IntMatrix.zeros(0, datum.rank), 1
    p = IntMatrix.from_rows(
        [[dot(datum.roots[a], datum.coroots[b]) for b in delta] for a in delta], cols=n
    )
    snf = smith_normal_form(p)
    if not all(snf.divisors):
        raise NotARootSystemError("singular pairing matrix on a base")
    d = math.prod(snf.divisors)
    scaled_u = IntMatrix.from_rows(
        [[d // di * x for x in snf.U.row(i)] for i, di in enumerate(snf.divisors)], cols=n
    )
    return snf.V @ scaled_u @ _base_rows(datum, datum.roots), d


def weight_quotient_of_lattice(datum: RootDatum, sub_rows: IntMatrix) -> FinAbGroup:
    """Lambda / L for a sublattice L of the weight lattice, rows in X-coords."""
    lam, d = _weight_lattice_scaled(datum)
    if lam.rows == 0:
        if row_basis(sub_rows).rows:
            raise ValueError("nonzero sublattice but the weight lattice is zero")
        return FinAbGroup((), 0)
    big = RowLattice(lam)
    coords = []
    basis = row_basis(sub_rows)
    for i in range(basis.rows):
        scaled = tuple(d * x for x in basis.row(i))
        c = big.coords(scaled)
        if c is None:
            raise ValueError("sublattice is not inside the weight lattice")
        coords.append(c)
    return quotient_group(big.rank, IntMatrix.from_rows(coords, cols=big.rank))


def weight_lattice_quotients(datum: RootDatum, subset: Iterable[int]) -> FinAbGroup:
    """Lambda / Z.subset for a subset of root indices.

    Lambda is the weight lattice of the full root system: the dual of the
    coroot lattice inside the rational span of the roots.
    """
    ensure_valid(datum)
    idx = sorted(set(subset))
    for i in idx:
        if not 0 <= i < datum.num_roots:
            raise ValueError(f"root index {i} out of range")
    sub = IntMatrix.from_rows([datum.roots[i] for i in idx], cols=datum.rank)
    return weight_quotient_of_lattice(datum, sub)


def same_datum(a: RootDatum, b: RootDatum) -> bool:
    """Exact-coordinate equality up to reindexing of the (root, coroot) pairs."""
    return a.rank == b.rank and sorted(zip(a.roots, a.coroots)) == sorted(zip(b.roots, b.coroots))
