import math
import random
from itertools import combinations

import pytest

from rootprimes.errors import ContainmentError
from rootprimes.intlin import (
    MILLER_RABIN_LIMIT,
    FinAbGroup,
    IntMatrix,
    RowLattice,
    _join,
    hermite_normal_form,
    is_prime,
    join_row,
    p_torsion_free,
    prime_factors,
    primes_upto,
    quotient_group,
    rank_mod_p,
    relative_divisors,
    row_basis,
    smith_normal_form,
    snf_divisors,
    strict_matrix,
)
from rootprimes.sampling import random_int_matrix, random_unimodular


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(2))
    assert snf.divisors == (1, 1)


def test_snf_worked_example():
    # d1 = gcd of all entries = 2, d1*d2 = |det| = 8
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.divisors == (2, 4)
    assert snf.U @ m @ snf.V == IntMatrix.diagonal(snf.divisors, 2, 2)


def test_snf_empty():
    assert smith_normal_form(IntMatrix.from_rows([], cols=0)).divisors == ()
    assert smith_normal_form(IntMatrix.zeros(3, 0)).divisors == ()
    assert smith_normal_form(IntMatrix.zeros(2, 4)).divisors == (0, 0)


def test_snf_rank_deficient_zeros_last():
    m = IntMatrix.from_rows([[2, 4], [4, 8]])
    assert snf_divisors(m) == (2, 0)


@pytest.mark.parametrize("seed", range(40))
def test_snf_random_soundness(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    m = random_int_matrix(rng, rows, cols)
    snf = smith_normal_form(m)
    assert snf.U @ m @ snf.V == IntMatrix.diagonal(snf.divisors, rows, cols)
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
    for a, b in zip(snf.divisors, snf.divisors[1:]):
        assert (b % a == 0) if a else b == 0
    assert all(d >= 0 for d in snf.divisors)


def _determinantal_divisor(m, k):
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.at(i, j) for j in cols] for i in rows], cols=k)
            g = math.gcd(g, sub.det())
    return g


@pytest.mark.parametrize("seed", range(12))
def test_snf_determinantal_oracle(seed):
    rng = random.Random(1000 + seed)
    m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    divisors = [d for d in snf_divisors(m) if d]
    for k in range(1, min(m.rows, m.cols) + 1):
        expected = math.prod(divisors[:k]) if k <= len(divisors) else 0
        assert _determinantal_divisor(m, k) == expected


def test_hnf_reconstruction_and_canonical_shape():
    rng = random.Random(5)
    for _ in range(25):
        m = random_int_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -9, 9)
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert u.is_unimodular() or m.rows == 0
        pivots = []
        for i in range(h.rows):
            row = h.row(i)
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            p = nz[0]
            assert row[p] > 0
            assert all(0 <= h.at(k, p) < row[p] for k in range(i))
            pivots.append(p)
        assert pivots == sorted(pivots)


def test_hnf_preserves_row_lattice():
    rng = random.Random(6)
    urng = random.Random(60)
    for _ in range(20):
        m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6)
        lat = RowLattice(m)
        basis = row_basis(m)
        for i in range(m.rows):
            assert m.row(i) in lat
        u, _ = random_unimodular(urng, m.rows)
        assert RowLattice(basis).key() == lat.key() == RowLattice(u @ m).key()


def _hermite_inputs():
    """The seeded matrices of the two tests above, the empty matrix, zero rows and redundant generators."""
    rng = random.Random(5)
    out = [random_int_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -9, 9) for _ in range(25)]
    rng = random.Random(6)
    out += [random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6) for _ in range(20)]
    out += [
        IntMatrix.from_rows([], cols=0),
        IntMatrix.from_rows([], cols=3),
        IntMatrix.zeros(3, 4),
        IntMatrix.from_rows([[0, 0, 0], [2, 4, 6], [0, 0, 0]]),
        IntMatrix.from_rows([[2, 0], [4, 0], [2, 0]]),
        IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 2, 3], [0, 3, 3], [1, 5, 6]]),
    ]
    rng = random.Random(9)
    for _ in range(10):
        m = random_int_matrix(rng, 3, 4, -5, 5)
        mix = random_int_matrix(rng, 4, 3, -3, 3)
        out.append(IntMatrix.from_rows(m.to_rows() + (mix @ m).to_rows(), cols=4))
    return out


def test_row_basis_is_the_nonzero_hermite_rows():
    rng = random.Random(11)
    for m in _hermite_inputs():
        h, _ = hermite_normal_form(m)
        hermite_rows = [h.row(i) for i in range(h.rows) if any(h.row(i))]
        basis = row_basis(m)
        assert basis.cols == m.cols
        assert [basis.row(i) for i in range(basis.rows)] == hermite_rows
        lat = RowLattice(m)
        assert lat.basis == basis
        # coordinates over a basis are unique, so they must be the combination's coefficients
        for _ in range(5):
            c = [rng.randint(-4, 4) for _ in hermite_rows]
            vec = tuple(sum(ci * row[j] for ci, row in zip(c, hermite_rows)) for j in range(m.cols))
            assert lat.coords(vec) == tuple(c)
            probe = tuple(rng.randint(-6, 6) for _ in range(m.cols))
            inside = quotient_group(m.cols, IntMatrix.from_rows(hermite_rows + [probe], cols=m.cols)) == quotient_group(
                m.cols, basis
            )
            coords = lat.coords(probe)
            assert (coords is not None) == inside
            if coords is not None:
                assert tuple(sum(ci * row[j] for ci, row in zip(coords, hermite_rows)) for j in range(m.cols)) == probe


def _joined_inputs():
    """The 200 seeded matrices of the join-chain test, with repeated, negated, multiple and zero rows."""
    rng = random.Random(1117)
    for _ in range(200):
        cols = rng.randint(1, 6)
        rows = random_int_matrix(rng, rng.randint(1, 8), cols, -6, 6).to_rows()
        rows += [[-x for x in rows[0]], [3 * x for x in rows[-1]], [0] * cols]
        rng.shuffle(rows)
        yield IntMatrix.from_rows(rows, cols=cols)


def test_join_returns_its_input_when_the_row_is_in_the_lattice():
    for m in _joined_inputs():
        rows = ()
        for i in range(m.rows):
            joined = _join(rows, m.row(i))
            assert all(type(row) is tuple for row in joined)
            if joined == rows:
                assert joined is rows
            rows = joined
        basis = row_basis(m)
        assert rows == tuple(basis.row(i) for i in range(basis.rows))
        for i in range(m.rows):
            assert _join(rows, m.row(i)) is rows
            assert join_row(basis, m.row(i)) is basis


def test_row_basis_is_the_nonzero_hermite_rows_on_the_join_chain_matrices():
    for m in _joined_inputs():
        h, _ = hermite_normal_form(m)
        basis = row_basis(m)
        assert (basis.rows, basis.cols) == (sum(1 for i in range(h.rows) if any(h.row(i))), m.cols)
        assert [basis.row(i) for i in range(basis.rows)] == [h.row(i) for i in range(basis.rows)]


def _checked_join(rows, v):
    """``_join(rows, v)``, checked against the nonzero rows of the Hermite form of the rows plus v."""
    h, _ = hermite_normal_form(IntMatrix.from_rows([*rows, v], cols=len(v)))
    joined = _join(rows, v)
    assert joined == tuple(row for row in map(h.row, range(h.rows)) if any(row))
    # the input itself comes back exactly when the lattice is unchanged
    assert (joined is rows) == (joined == rows)
    return joined


def _triangular_basis(rng, diagonal):
    """The Hermite basis of an upper-triangular matrix with the given positive diagonal."""
    n = len(diagonal)
    m = [[0] * k + [d] + [rng.randint(-9, 9) for _ in range(n - k - 1)] for k, d in enumerate(diagonal)]
    basis = row_basis(IntMatrix.from_rows(m, cols=n))
    return tuple(map(basis.row, range(basis.rows)))


def test_join_takes_each_branch_like_the_hermite_form():
    rng = random.Random(1709)
    top_rereduced = 0
    for _ in range(60):
        n = rng.randint(4, 7)
        # an insert ahead of every row: the pivots below are found after it
        below = _triangular_basis(rng, [rng.randint(1, 5) for _ in range(n - 1)])
        rows = tuple((0, *row) for row in below)
        v = [-rng.randint(1, 6)] + [rng.randint(-9, 9) for _ in range(n - 1)]
        joined = _checked_join(rows, v)
        assert len(joined) == n and joined[0][0] == -v[0]
        # v[col] == 0 at the first pivot, then an insert between two rows
        rows = _triangular_basis(rng, [rng.randint(1, 5) for _ in range(n - 1)])
        rows = tuple((*row[:1], 0, *row[1:]) for row in rows)
        v = [0, rng.randint(1, 6)] + [rng.randint(-9, 9) for _ in range(n - 2)]
        joined = _checked_join(rows, v)
        assert len(joined) == n and joined[1][1] == v[1]
        # Euclid replaces a middle row, so the rows above it are reduced again
        # at its pivot and at every later one; v[0] == 0 at the first pivot
        d = rng.randint(2, 6)
        rows = _triangular_basis(rng, [rng.randint(1, 3), d] + [rng.randint(1, 4) for _ in range(n - 2)])
        v = [0, d * rng.randint(-3, 3) + rng.randint(1, d - 1)] + [rng.randint(-9, 9) for _ in range(n - 2)]
        joined = _checked_join(rows, v)
        assert len(joined) == len(rows) and joined[1][1] == math.gcd(d, v[1])
        top_rereduced += joined[0][2:] != rows[0][2:]
    assert top_rereduced > 0
    # negative leading entries, zero rows and repeats, chained from the zero lattice
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = ()
        for _ in range(8):
            v = [rng.randint(-6, 6) * (rng.random() < 0.6) for _ in range(n)]
            lead = next((x for x in v if x), 0)
            if lead > 0:
                v = [-x for x in v]
            for w in (v, [0] * n, [-x for x in v]):
                rows = _checked_join(rows, w)


def test_quotient_group_examples():
    assert quotient_group(2, IntMatrix.from_rows([[2, 0]], cols=2)) == FinAbGroup((2,), 1)
    assert quotient_group(1, IntMatrix.from_rows([[2]])) == FinAbGroup((2,), 0)
    assert quotient_group(2, IntMatrix.from_rows([], cols=2)) == FinAbGroup((), 2)


def test_quotient_group_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        quotient_group(3, IntMatrix.from_rows([[1, 2]], cols=2))


def test_quotient_group_invariant_under_row_operations():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols, -8, 8)
        u, _ = random_unimodular(rng, rows)
        assert quotient_group(cols, m) == quotient_group(cols, u @ m)


def test_p_torsion_free():
    assert not p_torsion_free(FinAbGroup((2, 4), 0), 2)
    assert p_torsion_free(FinAbGroup((3,), 0), 2)
    assert p_torsion_free(FinAbGroup((), 5), 7)
    with pytest.raises(ValueError, match="not prime"):
        p_torsion_free(FinAbGroup((), 0), 6)


def test_finabgroup_invariants():
    with pytest.raises(ValueError):
        FinAbGroup((1,), 0)
    with pytest.raises(ValueError):
        FinAbGroup((4, 2), 0)  # chain broken
    g = FinAbGroup((2, 6), 0)
    assert g.order() == 12
    assert FinAbGroup((2,), 3).order() is None
    assert g.p_part(2) == (2, 2)
    assert g.p_part(3) == (3,)


def test_relative_divisors_examples():
    z2 = IntMatrix.identity(2)
    assert relative_divisors(IntMatrix.from_rows([[2, 0], [0, 3]]), z2) == [1, 6]
    assert relative_divisors(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]])) == [2]
    full = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert relative_divisors(full, full) == [1, 1]


def test_relative_divisors_containment_error():
    with pytest.raises(ContainmentError):
        relative_divisors(IntMatrix.from_rows([[1, 0]], cols=2), IntMatrix.from_rows([[2, 0]], cols=2))


def test_relative_divisors_redundant_generators():
    sub = IntMatrix.from_rows([[2, 0], [4, 0], [2, 0]], cols=2)
    assert relative_divisors(sub, IntMatrix.identity(2)) == [2]


def test_rank_mod_p():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_mod_p(m, 2) == 1
    assert rank_mod_p(m, 3) == 1
    assert rank_mod_p(m, 5) == 2


def test_prime_utilities():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(0) == ()
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_the_sieve():
    sieve = set(primes_upto(10**5))
    assert all(is_prime(n) == (n in sieve) for n in range(-5, 10**5 + 1))


def test_is_prime_miller_rabin_range():
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    # strong pseudoprimes to the first 8 and 11 prime bases (Jaeschke)
    assert not is_prime(341550071728321) and not is_prime(3825123056546413051)
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    # the bound itself is a strong pseudoprime to all 13 bases: refused
    with pytest.raises(ValueError, match="too large"):
        is_prime(MILLER_RABIN_LIMIT)
    assert not is_prime(2 * MILLER_RABIN_LIMIT)  # a small factor decides at any size


def test_strict_matrix():
    assert strict_matrix([[1, 2], [3, 4]]) == IntMatrix.from_rows([[1, 2], [3, 4]])
    assert strict_matrix([], cols=3) == IntMatrix.zeros(0, 3)
    for bad in ([[1.7, 1]], [[True]], [["1"]]):
        with pytest.raises(ValueError, match="expected an integer"):
            strict_matrix(bad)
    for bad in ([1, 2], "[[1]]", [(1, 2)]):
        with pytest.raises(TypeError, match="expected a list"):
            strict_matrix(bad)


def test_int_matrix_rejects_entries_that_are_not_ints():
    for bad in (1.7, 2.0, True, False, "1"):
        with pytest.raises(ValueError, match="expected an integer"):
            IntMatrix.from_rows([[1, bad]])
        with pytest.raises(ValueError, match="expected an integer"):
            IntMatrix.diagonal([1, bad], 2, 2)
    assert IntMatrix.diagonal([3, -2], 2, 3) == IntMatrix.from_rows([[3, 0, 0], [0, -2, 0]])
    # products built inside the library skip the check and keep their shape
    a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert a @ IntMatrix.identity(2) == a
    assert a @ IntMatrix.zeros(2, 0) == IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)


def test_bareiss_determinant():
    rng = random.Random(8)
    # cross-check against cofactor expansion on small matrices
    def cofactor_det(m, rows, cols):
        if not rows:
            return 1
        total = 0
        i = rows[0]
        for pos, j in enumerate(cols):
            sub = cofactor_det(m, rows[1:], cols[:pos] + cols[pos + 1 :])
            total += (-1) ** pos * m.at(i, j) * sub
        return total

    for _ in range(20):
        n = rng.randint(0, 4)
        m = random_int_matrix(rng, n, n, -9, 9)
        assert m.det() == cofactor_det(m, tuple(range(n)), tuple(range(n)))
