"""Definitional oracles: the prime classes by their subset-quantified definitions.

p is good when Z.roots / Z.subset has no p-torsion for any subset of the
roots, very good when the weight lattice modulo Z.subset has none, and
pretty good when neither X / Z.subset nor Y / Z.subset^vee has any.  These
brute-force oracles pin the fast criteria of :mod:`rootprimes.primes` to
those definitions on small data.

Every quotient above depends only on the lattice a subset spans, so both
passes enumerate lattices, not subsets, by one walk.  The lattices spanned
by L plus a subset of the vectors from index s on depend on the state
(L, s) alone, and such a state leads to (L, s + 1), which skips vector s,
and to (L joined with vector s, s + 1), which takes it.  Every subset is one
path of these steps from (zero lattice, 0), so a walk that visits each
state once, with one join each, finds exactly the lattices of all 2^n
subsets in at most #lattices * (n + 1) joins.  Each distinct lattice takes
one Smith form per quotient.

The class pass walks the coefficient rows over the base, a Z-basis of
Z.roots, in Z^|base|, of the positive roots only: any subset spans the
same lattice as a subset of positive roots (negating a generator changes
nothing).  For each lattice, with Hermite basis M, Z.roots / Z.subset is
presented by M, the weight lattice modulo Z.subset by M P (a root with row
c pairs with the simple coroots as c P) and X / Z.subset by M B (B the
simple roots in X), so one pass per datum yields the good, very-good and
X-side exponents together.  The coroot subsets range over exactly the root
subsets of the dual datum, so pretty good reads the X-side exponents of the
datum and of its dual.

The full sweep is the second tier, with no class reduction: it walks all
the roots in X and all the coroots in Y, so it covers every subset of each.

Both passes hold a Hermite basis as a tuple of row tuples, joined by
:func:`rootprimes.intlin._join` and keyed by those tuples, and take the
Smith forms straight from row lists; no IntMatrix is built per join.

No quotient depends on p, so each oracle computes one torsion exponent per
datum, the lcm of the torsion entries of every quotient it ranges over, and
reads every prime off it: p fails exactly when it divides the exponent.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import Sequence

from . import intlin
from .errors import TooLargeError
from .intlin import IntMatrix, check_prime, strict_int
from .rootdatum import (
    RootDatum,
    base_pairing,
    dual,
    ensure_valid,
    positive_roots,
    root_coefficients,
    simple_system,
)

# a Hermite basis as the tuple of its row tuples, the zero lattice as ()
Rows = tuple[tuple[int, ...], ...]


def _subset_rows(vectors: Sequence[Sequence[int]]) -> list[Rows]:
    """The Hermite bases of the spans of the subsets of ``vectors``, each distinct one once.

    A walk from the state (zero lattice, 0) that visits each (lattice
    number, next index) state once, with one join (see the module docstring).
    """
    join = intlin._join
    n = len(vectors)
    lattices: list[Rows] = [()]
    number = {(): 0}
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        lattice, s = stack.pop()
        if s == n:
            continue
        basis = lattices[lattice]
        joined = join(basis, vectors[s])
        taken = lattice
        if joined is not basis:
            taken = number.get(joined)
            if taken is None:
                taken = number[joined] = len(lattices)
                lattices.append(joined)
        for state in ((lattice, s + 1), (taken, s + 1)):
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return lattices


def _subset_lattices(vectors: Sequence[Sequence[int]], width: int) -> list[IntMatrix]:
    """:func:`_subset_rows` as IntMatrix bases of ``width`` columns."""
    return [IntMatrix(len(m), width, tuple(chain.from_iterable(m))) for m in _subset_rows(vectors)]


def _times(m: Rows, cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The row list of M times the matrix with columns ``cols``."""
    return [[sum(map(mul, row, col)) for col in cols] for row in m]


def _exponent(matrices, width: int) -> int:
    """lcm of the nonzero Smith divisors of row lists ``width`` wide: the exponent of their quotients' torsion."""
    return math.lcm(*{d for m in matrices for d in intlin._smith([list(r) for r in m], len(m), width) if d})


def _class_exponents(datum: RootDatum) -> tuple[int, int, int]:
    """(good, very-good, X-side) exponents of the datum: the Smith forms of M, M P and M B per class M."""
    simple = simple_system(datum)
    coefficients = root_coefficients(datum)
    pairing = list(zip(*base_pairing(datum).to_rows()))
    base = list(zip(*(datum.roots[a] for a in simple)))
    classes = _subset_rows([coefficients[k] for k in positive_roots(datum)])
    width = len(simple)
    return (
        _exponent(classes, width),
        _exponent((_times(m, pairing) for m in classes), width),
        _exponent((_times(m, base) for m in classes), datum.rank),
    )


def _full_sweep_exponent(datum: RootDatum) -> int:
    """lcm of the torsion of X / Z.subset and Y / Z.subset^vee over literally every subset."""
    return _exponent(_subset_rows(datum.roots) + _subset_rows(datum.coroots), datum.rank)


# (oracle kind, datum) -> the datum's torsion exponent for that oracle
_EXPONENTS: dict[tuple[str, RootDatum], int] = {}


def _fill_class_exponents(datum: RootDatum):
    """Store the three class oracles' exponents of the datum and of its dual, one class pass each."""
    co = dual(datum)
    good, very_good, side = _class_exponents(datum)
    co_good, co_very_good, co_side = _class_exponents(co) if co != datum else (good, very_good, side)
    pretty_good = math.lcm(side, co_side)
    _EXPONENTS.update({
        ("good", datum): good, ("very good", datum): very_good, ("pretty good", datum): pretty_good,
        ("good", co): co_good, ("very good", co): co_very_good, ("pretty good", co): pretty_good,
    })


def _gate_size(datum: RootDatum, exhaustive_limit: int):
    """TooLargeError when the datum has more roots than ``exhaustive_limit``, an int (see strict_int)."""
    if datum.num_roots > strict_int(exhaustive_limit):
        raise TooLargeError(
            f"{datum.num_roots} roots exceed the exhaustive limit {exhaustive_limit}"
        )


def _oracle(kind: str, datum: RootDatum, p: int, exhaustive_limit: int) -> bool:
    """Run the checks, then answer from the datum's exponent, computed on its first call."""
    check_prime(p)
    ensure_valid(datum)
    _gate_size(datum, exhaustive_limit)
    key = (kind, datum)
    exponent = _EXPONENTS.get(key)
    if exponent is None:
        if kind == "full sweep":
            _EXPONENTS[key] = _full_sweep_exponent(datum)
        else:
            _fill_class_exponents(datum)
        exponent = _EXPONENTS[key]
    return exponent % p != 0


def good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Good by definition: Z.roots / Z.subset has no p-torsion for any subset.

    The exponent comes from the class pass over the root-spanned lattices.
    """
    return _oracle("good", datum, p, exhaustive_limit)


def very_good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Very good by definition: the weight lattice modulo Z.subset has no p-torsion for any subset.

    The exponent comes from the class pass over the root-spanned lattices.
    """
    return _oracle("very good", datum, p, exhaustive_limit)


def pretty_good_bruteforce(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Pretty good by definition: X / Z.subset and Y / Z.subset^vee have no p-torsion for any subset.

    The exponent is the lcm of the X-side exponents of the class passes on
    the datum and on its dual.
    """
    return _oracle("pretty good", datum, p, exhaustive_limit)


def pretty_good_full_sweep(datum: RootDatum, p: int, exhaustive_limit: int = 12) -> bool:
    """Second-tier oracle: literally every subset of the roots and of the coroots, both quotients.

    Exponential in the root count; it validates the class pass on small
    data.  Each subset's lattice comes from the join chain, and each
    distinct lattice takes one Smith form.
    """
    return _oracle("full sweep", datum, p, exhaustive_limit)
