"""Standardness classification and the type-A / very-good decomposition.

The classifier reduces every standardness flavor to one bit: characteristic
zero or pretty good.  The decomposition splits the component list of a datum
at a good prime into type-A blocks where the prime divides n+1 and very-good
blocks, and records whether the central torus is large enough to absorb the
type-A gluing.  The gluing check itself is the elementary-divisor criterion
for a wide integer matrix to surject onto a product of cyclic p-groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPrimeError
from .intlin import IntMatrix, check_prime, rank_mod_p, snf_divisors, strict_int
from .primes import bad_primes, failing_type_a_positions, pretty_good
from .rootdatum import RootDatum, components, ensure_valid, simple_system

STANDARD = "essentially standard (all four conditions hold)"
NOT_STANDARD = "not essentially standard"

SMOOTH = "all centralizers smooth"
NOT_SMOOTH = "non-smooth centralizer exists"


@dataclass(frozen=True)
class Decomposition:
    """Component split of a datum at a good prime."""

    torus_rank: int
    a_blocks: tuple[int, ...]  # ranks m with p | m+1, type A
    vg_blocks: tuple[tuple[str, int], ...]  # components very good at p
    witness_ok: bool  # torus_rank >= number of a_blocks

    def to_dict(self) -> dict:
        return {
            "torus_rank": self.torus_rank,
            "a_blocks": list(self.a_blocks),
            "vg_blocks": [{"series": s, "rank": r} for s, r in self.vg_blocks],
            "witness_ok": self.witness_ok,
        }


@dataclass(frozen=True)
class GluingCheck:
    """Two-route surjectivity certificate for the gluing matrix.

    ``surjective`` holds exactly when all elementary divisors are prime to p,
    equivalently when the mod-p reduction has full row rank; both routes are
    computed and compared.
    """

    matrix: IntMatrix
    exponents: tuple[int, ...]
    p: int
    divisors: tuple[int, ...]
    surjective: bool

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_rows(),
            "exponents": list(self.exponents),
            "p": self.p,
            "divisors": list(self.divisors),
            "surjective": self.surjective,
        }


def is_essentially_standard(datum: RootDatum, p: int) -> bool:
    """True when p is zero or pretty good; equivalent to every standardness flavor."""
    ensure_valid(datum)
    if p == 0:
        return True
    return pretty_good(datum, p)


def classify(datum: RootDatum, p: int) -> str:
    """Verdict string for characteristic p (0 allowed)."""
    return STANDARD if is_essentially_standard(datum, p) else NOT_STANDARD


def smoothness_verdict(datum: RootDatum, p: int) -> str:
    """The all-centralizers-smooth verdict, same bit as the classifier."""
    return SMOOTH if is_essentially_standard(datum, p) else NOT_SMOOTH


def decompose(datum: RootDatum, p: int) -> Decomposition:
    """Split the components at a good prime p.

    Raises BadPrimeError for bad p.  At a good prime every component failing
    very-goodness is forced to be type A with p dividing rank+1; anything
    else indicates an upstream bug.
    """
    check_prime(p)
    if p in bad_primes(datum):
        raise BadPrimeError(f"{p} is a bad prime for this datum")
    failing = failing_type_a_positions(datum, p)
    comps = components(datum)
    a_blocks = [comp.rank for ci, comp in enumerate(comps) if ci in failing]
    vg_blocks = [comp.label for ci, comp in enumerate(comps) if ci not in failing]
    torus_rank = datum.rank - len(simple_system(datum))
    return Decomposition(
        torus_rank=torus_rank,
        a_blocks=tuple(a_blocks),
        vg_blocks=tuple(vg_blocks),
        witness_ok=torus_rank >= len(a_blocks),
    )


def check_gluing(matrix: IntMatrix, exponents, p: int) -> GluingCheck:
    """Surjectivity of Z^r -> Z^n -> prod Z/p^{s_i} through an n x r matrix.

    With all exponents positive, the composite surjects exactly when the
    matrix surjects mod p, exactly when its n elementary divisors are all
    prime to p.  Both criteria are evaluated; disagreement raises.  An
    exponent that is not an int (a float, a bool) raises ValueError.
    """
    exponents = tuple(map(strict_int, exponents))
    if matrix.rows != len(exponents):
        raise ValueError("shape mismatch: one exponent per matrix row required")
    if matrix.cols < matrix.rows:
        raise ValueError("shape mismatch: matrix must have at least as many columns as rows")
    if any(e < 1 for e in exponents):
        raise ValueError("all exponents must be >= 1")
    check_prime(p)
    divisors = snf_divisors(matrix)
    via_divisors = all(d != 0 and d % p != 0 for d in divisors)
    via_rank = rank_mod_p(matrix, p) == matrix.rows
    if via_divisors != via_rank:
        raise AssertionError("elementary-divisor and mod-p-rank routes disagree")
    return GluingCheck(
        matrix=matrix,
        exponents=exponents,
        p=p,
        divisors=divisors,
        surjective=via_divisors,
    )
