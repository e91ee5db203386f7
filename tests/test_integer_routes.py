"""The integer-only derivations in rootdatum against references kept here.

Positive roots come from the sign of the first nonzero coordinate, root
coefficients from a breadth-first search along simple reflections, the
weight quotient Lambda / L from pairing L with the simple coroots, and the
quotients X/Z.roots, Y/Z.coroots from the simple rows only.  Each is checked
against a weighted functional, a direct computation over all roots or one
over the rationals.  The derived record is checked to run the full
validator once per datum, and not at all on the dual of a valid datum.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from rootprimes import cli, rootdatum
from rootprimes.errors import NotARootSystemError
from rootprimes.intlin import IntMatrix, RowLattice, quotient_group
from rootprimes.primes import report
from rootprimes.rootdatum import (
    RootDatum,
    direct_sum,
    dual,
    general_linear,
    positive_roots,
    preset,
    root_coefficients,
    root_lattice,
    simple_system,
    torus,
    validate,
    weight_quotient_of_lattice,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from rootprimes.sampling import random_type_a_datum, random_unimodular
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
        rootdatum._DERIVED.pop(stray, None)


def test_quotients_on_the_base_equal_quotients_over_all_roots():
    for d in DATA:
        assert x_mod_root_lattice(d) == quotient_group(d.rank, d.root_matrix())
        assert y_mod_coroot_lattice(d) == quotient_group(d.rank, d.coroot_matrix())
        assert root_lattice(d).key() == RowLattice(d.root_matrix()).key()


def _weight_lattice_reference(d):
    """(D * Lambda, D) as the rows D * P^-1 * S, where P is the base's pairing
    matrix, S its simple roots and D = |det P|."""
    delta = simple_system(d)
    p = [[d.pairing(a, b) for b in delta] for a in delta]
    scale = abs(IntMatrix.from_rows(p, cols=len(delta)).det())
    p_inv = _rational_inverse(p)
    lam = []
    for a in range(len(delta)):
        row = [
            sum(p_inv[a][c] * scale * d.roots[delta[c]][k] for c in range(len(delta)))
            for k in range(d.rank)
        ]
        assert all(f.denominator == 1 for f in row)
        lam.append([int(f) for f in row])
    return RowLattice(IntMatrix.from_rows(lam, cols=d.rank)), scale


def test_weight_quotient_matches_a_rational_inverse():
    rng = random.Random(5)
    for d in DATA:
        big, scale = _weight_lattice_reference(d)
        n = d.num_roots
        for subset in [range(0), range(n)] + [rng.sample(range(n), rng.randint(1, n)) for _ in range(2) if n]:
            rows = [d.roots[i] for i in sorted(subset)]
            coords = [big.coords(tuple(scale * x for x in row)) for row in rows]
            expected = quotient_group(big.rank, IntMatrix.from_rows(coords, cols=big.rank))
            assert weight_quotient_of_lattice(d, IntMatrix.from_rows(rows, cols=d.rank)) == expected


def test_weight_quotient_rejects_rows_outside_the_span_of_the_roots():
    outside = ((general_linear(2), (1, 1)), (torus(2), (0, 1)), (preset("Sum(SC(A2), Torus(1))"), (1, 0, 1)))
    for d, row in outside:
        with pytest.raises(ValueError, match="not inside the weight lattice"):
            weight_quotient_of_lattice(d, IntMatrix.from_rows([row], cols=d.rank))


def _weighted_positive_roots(d):
    """Positive under the functional w = (N^(r-1), ..., N, 1), N = 1 + max |coordinate|."""
    if not d.roots:
        return ()
    n = 1 + max(abs(x) for r in d.roots for x in r)
    values = [sum(n ** (d.rank - 1 - k) * x for k, x in enumerate(r)) for r in d.roots]
    assert all(values)
    return tuple(i for i, v in enumerate(values) if v > 0)


def _rebased(d, rng):
    """The datum in a random basis of X: roots go to T r, coroots to T^-T c."""
    t, tinv = random_unimodular(rng, d.rank)
    tinv_t = tinv.transpose()
    return RootDatum(d.rank, tuple(t.apply(r) for r in d.roots), tuple(tinv_t.apply(c) for c in d.coroots))


def test_positive_roots_match_the_weighted_functional():
    rng = random.Random(6)
    small = [d for d in DATA if d.num_roots <= 48]
    for d in DATA + [_rebased(d, rng) for d in small]:
        assert positive_roots(d) == _weighted_positive_roots(d)
    assert positive_roots(torus(3)) == ()


def test_primes_on_a_wide_torus_factor_is_fast(tmp_path, capsys):
    # the weighted functional took N^(rank-1)-sized weights: about 12 s and
    # 270 MB at rank 50,000, where the sign rule takes well under a second
    wide = direct_sum(preset("SC(A1)"), torus(49_999))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide.to_dict()))
    start = time.perf_counter()
    assert cli.main(["primes", str(path)]) == 0
    elapsed = time.perf_counter() - start
    wide_out = capsys.readouterr().out
    assert cli.main(["primes", "Sum(SC(A1), Torus(1))"]) == 0
    assert wide_out == capsys.readouterr().out
    assert elapsed < 3


def _counting_validator(monkeypatch):
    calls = []
    full = rootdatum._check_axioms

    def counting(d):
        calls.append(d)
        return full(d)

    monkeypatch.setattr(rootdatum, "_check_axioms", counting)
    return calls


def test_validate_then_report_runs_the_full_validator_once(monkeypatch):
    # reversing the pairs gives a datum no earlier test has put in the memo
    e6 = preset("SC(E6)")
    datum = RootDatum(rank=e6.rank, roots=e6.roots[::-1], coroots=e6.coroots[::-1])
    calls = _counting_validator(monkeypatch)
    assert validate(datum) == []
    report(datum, 3)
    assert calls.count(datum) == 1


def test_the_dual_of_a_validated_datum_is_not_validated_again(monkeypatch):
    # rotating the pairs gives a datum no earlier test has put in the memo
    f4 = preset("SC(F4)")
    datum = RootDatum(f4.rank, f4.roots[1:] + f4.roots[:1], f4.coroots[1:] + f4.coroots[:1])
    calls = _counting_validator(monkeypatch)
    assert validate(datum) == []
    report(dual(datum), 3)
    assert calls == [datum]


def test_the_dual_of_an_invalid_datum_runs_the_full_validator(monkeypatch):
    # <(0,1), (2,1)> = 1 sends the root (0,1) to (-1,1), which is not a root
    datum = RootDatum(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), ((2, 1), (-2, -1), (0, 2), (0, -2)))
    expected = rootdatum._check_axioms(dual(datum))
    calls = _counting_validator(monkeypatch)
    assert validate(datum)
    assert validate(dual(datum)) == expected != []
    assert calls == [datum, dual(datum)]
