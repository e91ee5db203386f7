"""The integer-only derivations in rootdatum against references kept here.

Root coefficients come from a breadth-first search along simple reflections,
the weight lattice from a Smith form of the base's pairing matrix, and the
quotients X/Z.roots, Y/Z.coroots from the simple rows only.  Each is checked
against a direct computation over all roots or over the rationals.
"""

import random
from fractions import Fraction

import pytest

from rootprimes import rootdatum
from rootprimes.errors import NotARootSystemError
from rootprimes.intlin import IntMatrix, RowLattice, quotient_group
from rootprimes.primes import report
from rootprimes.rootdatum import (
    RootDatum,
    _weight_lattice_scaled,
    dual,
    preset,
    root_coefficients,
    root_lattice,
    simple_system,
    validate,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from rootprimes.sampling import random_type_a_datum
from rootprimes.selftest import RANK8_PRESETS


def _data():
    base = [preset(name) for name in RANK8_PRESETS]
    rng = random.Random(2024)
    base += [random_type_a_datum(rng) for _ in range(30)]
    return base + [dual(d) for d in base]


DATA = _data()


def _rational_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def test_root_coefficients_rebuild_each_root_with_one_sign():
    for d in DATA:
        delta = simple_system(d)
        for root, coeffs in zip(d.roots, root_coefficients(d)):
            rebuilt = tuple(
                sum(c * d.roots[i][k] for c, i in zip(coeffs, delta)) for k in range(d.rank)
            )
            assert rebuilt == root
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_root_coefficients_reject_a_root_outside_the_weyl_orbit(monkeypatch):
    # +-4 lie outside the Weyl orbit of the base {2}; the validator, which
    # rejects this non-reduced datum, is switched off to reach the search
    stray = RootDatum(rank=1, roots=((2,), (-2,), (4,), (-4,)), coroots=((1,), (-1,), (1,), (-1,)))
    monkeypatch.setattr(rootdatum, "_check_axioms", lambda datum: [])
    try:
        with pytest.raises(NotARootSystemError, match="Weyl orbit"):
            root_coefficients(stray)
    finally:
        rootdatum._violations.cache_clear()


def test_quotients_on_the_base_equal_quotients_over_all_roots():
    for d in DATA:
        assert x_mod_root_lattice(d) == quotient_group(d.rank, d.root_matrix())
        assert y_mod_coroot_lattice(d) == quotient_group(d.rank, d.coroot_matrix())
        assert root_lattice(d).key() == RowLattice(d.root_matrix()).key()


def test_weight_lattice_matches_a_rational_inverse():
    for d in DATA:
        delta = simple_system(d)
        lam, scale = _weight_lattice_scaled(d)
        if not delta:
            assert (lam.rows, scale) == (0, 1)
            continue
        p = [[d.pairing(a, b) for b in delta] for a in delta]
        scale_ref = abs(IntMatrix.from_rows(p).det())
        p_inv = _rational_inverse(p)
        expected = []
        for a in range(len(delta)):
            row = [
                sum(p_inv[a][c] * scale_ref * d.roots[delta[c]][k] for c in range(len(delta)))
                for k in range(d.rank)
            ]
            assert all(f.denominator == 1 for f in row)
            expected.append([int(f) for f in row])
        assert scale == scale_ref
        assert lam.to_rows() == expected


def test_validate_then_report_runs_the_full_validator_once(monkeypatch):
    # reversing the pairs gives a datum no earlier test has put in the caches
    e6 = preset("SC(E6)")
    datum = RootDatum(rank=e6.rank, roots=e6.roots[::-1], coroots=e6.coroots[::-1])
    calls = []
    full = rootdatum._check_axioms

    def counting(d):
        calls.append(d)
        return full(d)

    monkeypatch.setattr(rootdatum, "_check_axioms", counting)
    assert validate(datum) == []
    report(datum, 3)
    assert calls.count(datum) == 1
