"""Prime classification for root data.

A prime is bad when it divides a highest-root coefficient; good otherwise;
very good when it is good and divides no n+1 over the type-A_n components;
pretty good when X modulo the span of any root subset and Y modulo the span
of the matching coroot subset are free of p-torsion.

The production pretty-good test uses the equivalent finite criterion (good,
plus p-torsion-freeness of X/Z.roots and Y/Z.coroots); the subset-quantified
definition is kept as a brute-force oracle.  Since the subset condition on
the X side depends only on the spanned lattice, and the coroot subsets range
over exactly the root subsets of the dual datum, the brute force enumerates
span-closure classes on each side independently.

No quotient depends on p, so each oracle computes one torsion exponent per
datum, the lcm of the torsion entries of every quotient it ranges over, and
reads every prime off it: p fails exactly when it divides the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

from .errors import TooLargeError
from .intlin import (
    IntMatrix,
    is_prime,
    p_torsion_free,
    quotient_group,
    row_basis,
    snf_divisors,
)
from .rootdatum import (
    RootDatum,
    bad_primes,
    components,
    dual,
    ensure_valid,
    highest_roots,
    positive_roots,
    root_lattice_quotient,
    weight_quotient_of_lattice,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)


@dataclass(frozen=True)
class PrimeReport:
    """Classification of one prime, plus the two center-smoothness bits."""

    p: int
    bad: bool
    good: bool
    very_good: bool
    pretty_good: bool
    center_smooth: bool
    dual_center_smooth: bool

    def __post_init__(self):
        if self.good == self.bad:
            raise ValueError("good must be the negation of bad")
        if self.very_good and not self.pretty_good:
            raise ValueError("very good implies pretty good")
        if self.pretty_good and not self.good:
            raise ValueError("pretty good implies good")
        if self.pretty_good and not (self.center_smooth and self.dual_center_smooth):
            raise ValueError("pretty good implies both center bits")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "bad": self.bad,
            "good": self.good,
            "very_good": self.very_good,
            "pretty_good": self.pretty_good,
            "center_smooth": self.center_smooth,
            "dual_center_smooth": self.dual_center_smooth,
        }


@dataclass(frozen=True)
class TorsionBound:
    """Every prime above the bound is pretty good for the datum."""

    bound: int


def _check_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def good(datum: RootDatum, p: int) -> bool:
    _check_prime(p)
    return p not in bad_primes(datum)


def failing_type_a_positions(datum: RootDatum, p: int) -> list[int]:
    """Positions in ``components(datum)`` of the type-A_n components with p | n+1."""
    return [ci for ci, c in enumerate(components(datum)) if c.series == "A" and (c.rank + 1) % p == 0]


def very_good(datum: RootDatum, p: int) -> bool:
    """Good, and p does not divide n+1 for any type-A_n component."""
    return good(datum, p) and not failing_type_a_positions(datum, p)


# ---------------------------------------------------------------------------
# Subset sweeps (brute-force oracles)
# ---------------------------------------------------------------------------


def _sublattice_classes(datum: RootDatum) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """Canonical bases of the lattices spanned by subsets of the roots.

    Any subset spans the same lattice as a subset of positive roots (negating
    a generator changes nothing), so the sweep runs over subsets of the
    positive roots and deduplicates by Hermite basis.  Each basis comes with
    the root indices of the first subset that spans it.  The zero lattice
    (empty subset) is included.
    """
    pos = positive_roots(datum)
    seen: set[IntMatrix] = set()
    npos = len(pos)
    for mask in range(1 << npos):
        subset = tuple(pos[k] for k in range(npos) if mask >> k & 1)
        basis = row_basis(IntMatrix.from_rows([datum.roots[i] for i in subset], cols=datum.rank))
        if basis not in seen:
            seen.add(basis)
            yield basis, subset


def _good_exponent(datum: RootDatum) -> int:
    subsets = (subset for _, subset in _sublattice_classes(datum))
    return math.lcm(*{d for subset in subsets for d in root_lattice_quotient(datum, subset).torsion})


def _very_good_exponent(datum: RootDatum) -> int:
    bases = (basis for basis, _ in _sublattice_classes(datum))
    return math.lcm(*{d for basis in bases for d in weight_quotient_of_lattice(datum, basis).torsion})


def _side_exponent(datum: RootDatum) -> int:
    """lcm of the torsion of X / Z.subset over every subset of the roots."""
    bases = (basis for basis, _ in _sublattice_classes(datum))
    return math.lcm(*{d for basis in bases for d in quotient_group(datum.rank, basis).torsion})


def _pretty_good_exponent(datum: RootDatum) -> int:
    return math.lcm(_side_exponent(datum), _side_exponent(dual(datum)))


def _full_sweep_exponent(datum: RootDatum) -> int:
    """lcm of the torsion of X / Z.subset and Y / Z.subset^vee over literally every subset.

    The matrices are built straight from the validated root and coroot rows.
    """
    n, r = datum.num_roots, datum.rank
    divisors: set[int] = set()
    for vectors in (datum.roots, datum.coroots):
        for mask in range(1 << n):
            rows = [vectors[i] for i in range(n) if mask >> i & 1]
            divisors.update(snf_divisors(IntMatrix(len(rows), r, tuple(chain.from_iterable(rows)))))
    divisors.discard(0)
    return math.lcm(*divisors)


def _gate_size(datum: RootDatum, exhaustive_limit: int):
    if datum.num_roots > exhaustive_limit:
        raise TooLargeError(
            f"{datum.num_roots} roots exceed the exhaustive limit {exhaustive_limit}"
        )


# (exponent function, datum) -> the datum's torsion exponent for that oracle
_EXPONENTS: dict[tuple[Callable[[RootDatum], int], RootDatum], int] = {}


def _oracle(exponent_of: Callable[[RootDatum], int], datum: RootDatum, p: int, exhaustive_limit: int) -> bool:
    """Run the checks, then answer from the datum's exponent, computed on its first call."""
    _check_prime(p)
    ensure_valid(datum)
    _gate_size(datum, exhaustive_limit)
    key = (exponent_of, datum)
    exponent = _EXPONENTS.get(key)
    if exponent is None:
        exponent = _EXPONENTS[key] = exponent_of(datum)
    return exponent % p != 0


def good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Brute-force good test: Z.roots / Z.subset has no p-torsion, all subsets.

    The exponent is computed once per datum and every prime read off it.
    """
    return _oracle(_good_exponent, datum, p, exhaustive_limit)


def very_good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Brute-force very-good test via weight-lattice quotients over all subsets.

    The exponent is computed once per datum and every prime read off it.
    """
    return _oracle(_very_good_exponent, datum, p, exhaustive_limit)


def pretty_good_bruteforce(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Pretty good by definition: sweep subset classes on both sides.

    The exponent is computed once per datum and every prime read off it.
    """
    return _oracle(_pretty_good_exponent, datum, p, exhaustive_limit)


def pretty_good_full_sweep(datum: RootDatum, p: int, exhaustive_limit: int = 12) -> bool:
    """Second-tier oracle: literally every subset of the roots, both quotients.

    Exponential in the root count; used to validate the closure-class
    reduction on small data.  The exponent is computed once per datum and
    every prime read off it.
    """
    return _oracle(_full_sweep_exponent, datum, p, exhaustive_limit)


# ---------------------------------------------------------------------------
# Production predicates
# ---------------------------------------------------------------------------


def pretty_good(datum: RootDatum, p: int) -> bool:
    """Good plus p-torsion-freeness of X/Z.roots and Y/Z.coroots.

    Equivalent to the subset-quantified definition; the equivalence is
    re-verified against :func:`pretty_good_bruteforce` by the test suite.
    """
    _check_prime(p)
    if not good(datum, p):
        return False
    return p_torsion_free(x_mod_root_lattice(datum), p) and p_torsion_free(
        y_mod_coroot_lattice(datum), p
    )


def center_smooth(datum: RootDatum, p: int) -> bool:
    """True when X/Z.roots has no p-torsion (the center's character group)."""
    _check_prime(p)
    return p_torsion_free(x_mod_root_lattice(datum), p)


def dual_center_smooth(datum: RootDatum, p: int) -> bool:
    _check_prime(p)
    return p_torsion_free(y_mod_coroot_lattice(datum), p)


def failing_prime_bound(datum: RootDatum) -> TorsionBound:
    """A bound above which every prime is pretty good.

    Any failing prime is bad (divides a highest-root coefficient) or divides
    an invariant factor of X/Z.roots or Y/Z.coroots, so the maximum of those
    numbers works.
    """
    candidates = [1]
    for h in highest_roots(datum):
        candidates.extend(h.coefficients)
    candidates.extend(x_mod_root_lattice(datum).torsion)
    candidates.extend(y_mod_coroot_lattice(datum).torsion)
    return TorsionBound(bound=max(candidates))


def report(datum: RootDatum, p: int) -> PrimeReport:
    """Full classification of one prime."""
    _check_prime(p)
    is_bad = p in bad_primes(datum)
    return PrimeReport(
        p=p,
        bad=is_bad,
        good=not is_bad,
        very_good=very_good(datum, p),
        pretty_good=pretty_good(datum, p),
        center_smooth=center_smooth(datum, p),
        dual_center_smooth=dual_center_smooth(datum, p),
    )
