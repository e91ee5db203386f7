import random

import pytest

from rootprimes.errors import BadPrimeError
from rootprimes.intlin import IntMatrix, primes_upto
from rootprimes.primes import report
from rootprimes.rootdatum import preset
from rootprimes.sampling import random_int_matrix
from rootprimes.standardness import (
    NOT_STANDARD,
    STANDARD,
    check_gluing,
    classify,
    decompose,
    is_essentially_standard,
    smoothness_verdict,
)


def test_classify_examples():
    for n in (2, 3, 5):
        assert classify(preset(f"GL({n})"), 2) == STANDARD
    assert classify(preset("SC(A1)"), 2) == NOT_STANDARD
    for name in ("SC(A1)", "AD(E7)", "GL(4)", "Torus(2)"):
        assert classify(preset(name), 0) == STANDARD


def test_classifier_matches_report():
    for name in ("SC(A1)", "AD(A2)", "GL(3)", "SC(G2)", "AD(F4)", "Sum(SC(A1), GL(2))"):
        datum = preset(name)
        for p in primes_upto(12):
            assert is_essentially_standard(datum, p) == report(datum, p).pretty_good


def test_smoothness_verdict_strings():
    assert smoothness_verdict(preset("GL(2)"), 2) == "all centralizers smooth"
    assert smoothness_verdict(preset("SC(A1)"), 2) == "non-smooth centralizer exists"


def test_decompose_examples():
    dec = decompose(preset("Sum(SC(A2), SC(C2))"), 3)
    assert dec.a_blocks == (2,)
    assert dec.vg_blocks == (("C", 2),)
    assert dec.torus_rank == 0
    assert not dec.witness_ok

    dec = decompose(preset("GL(3)"), 3)
    assert dec.a_blocks == (2,)
    assert dec.vg_blocks == ()
    assert dec.torus_rank == 1
    assert dec.witness_ok

    dec = decompose(preset("SC(G2)"), 5)
    assert dec.a_blocks == ()
    assert dec.vg_blocks == (("G", 2),)


def test_decompose_rejects_bad_prime():
    with pytest.raises(BadPrimeError):
        decompose(preset("SC(G2)"), 2)
    with pytest.raises(ValueError):
        decompose(preset("SC(A1)"), 4)


def test_decompose_partitions_components():
    for name in ("Sum(SC(A1), SC(A2), SC(B3))", "Sum(GL(2), GL(3))", "AD(D4)"):
        datum = preset(name)
        for p in (3, 5, 7):
            from rootprimes.primes import bad_primes
            if p in bad_primes(datum):
                continue
            dec = decompose(datum, p)
            from rootprimes.rootdatum import components
            assert len(dec.a_blocks) + len(dec.vg_blocks) == len(components(datum))
            for m in dec.a_blocks:
                assert (m + 1) % p == 0


def test_check_gluing_examples():
    g = check_gluing(IntMatrix.from_rows([[1]]), (1,), 2)
    assert g.surjective and g.divisors == (1,)
    g = check_gluing(IntMatrix.from_rows([[2]]), (1,), 2)
    assert not g.surjective
    g = check_gluing(IntMatrix.from_rows([[1, 0], [0, 3]]), (1, 1), 3)
    assert g.divisors == (1, 3) and not g.surjective


def test_check_gluing_shape_errors():
    with pytest.raises(ValueError, match="shape"):
        check_gluing(IntMatrix.from_rows([[1, 0]]), (1, 1), 2)
    with pytest.raises(ValueError, match="shape"):
        check_gluing(IntMatrix.from_rows([[1], [0]], cols=1), (1, 1), 2)
    with pytest.raises(ValueError, match="exponents"):
        check_gluing(IntMatrix.from_rows([[1, 0]]), (0,), 2)


def test_check_gluing_rejects_non_integer_exponents():
    m = IntMatrix.from_rows([[1, 0, 2], [0, 3, 1]])
    for exponents in ([1.5, 2.9], [True, 1], [1, "2"]):
        with pytest.raises(ValueError, match="expected an integer"):
            check_gluing(m, exponents, 5)


@pytest.mark.parametrize("seed", range(50))
def test_check_gluing_two_routes_random(seed):
    rng = random.Random(9000 + seed)
    n = rng.randint(1, 4)
    r = rng.randint(n, 6)
    m = random_int_matrix(rng, n, r, -9, 9)
    p = rng.choice((2, 3, 5))
    g = check_gluing(m, [rng.randint(1, 3) for _ in range(n)], p)
    # independent recomputation of the mod-p criterion
    from rootprimes.intlin import rank_mod_p
    assert g.surjective == (rank_mod_p(m, p) == n)


def test_classifier_invariant_under_separable_isogeny():
    from rootprimes.isogeny import adjoint_to_simply_connected, separable_at

    for n in range(1, 7):
        iso = adjoint_to_simply_connected("A", n)
        for p in (2, 3, 5, 7):
            if (n + 1) % p:
                assert separable_at(iso, p)
                assert is_essentially_standard(iso.source, p) == is_essentially_standard(iso.target, p)
