import pytest

from rootprimes.intlin import FinAbGroup, IntMatrix
from rootprimes.isogeny import (
    Isogeny,
    adjoint_to_simply_connected,
    cokernel,
    compose,
    identity_isogeny,
    separable_at,
    transfer_pretty_good,
    validate_isogeny,
)
from rootprimes.rootdatum import preset, torus


def _doubling_a1() -> Isogeny:
    return Isogeny(source=preset("AD(A1)"), target=preset("SC(A1)"), matrix=IntMatrix.from_rows([[2]]))


def test_validate_examples():
    assert validate_isogeny(_doubling_a1()) == []
    assert validate_isogeny(identity_isogeny(preset("SC(G2)"))) == []
    tripling = Isogeny(source=preset("AD(A1)"), target=preset("SC(A1)"), matrix=IntMatrix.from_rows([[3]]))
    assert any("bijection" in v for v in validate_isogeny(tripling))


def test_validate_catches_singular_and_shape():
    singular = Isogeny(source=torus(2), target=torus(2), matrix=IntMatrix.zeros(2, 2))
    assert any("singular" in v for v in validate_isogeny(singular))
    wrong = Isogeny(source=torus(2), target=torus(3), matrix=IntMatrix.zeros(3, 2))
    assert any("cokernel" in v or "shape" in v for v in validate_isogeny(wrong))


def test_validate_catches_coroot_mismatch():
    # a shear fixing the roots moves the coroots: the transpose condition fails
    datum = preset("Sum(AD(A1), Torus(1))")
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    iso = Isogeny(source=datum, target=datum, matrix=shear)
    assert any("coroot" in v for v in validate_isogeny(iso))
    # scaling by 2 throws the roots of SC(A1) outside the target root set
    sl2 = preset("SC(A1)")
    bad = Isogeny(source=sl2, target=sl2, matrix=IntMatrix.from_rows([[2]]))
    assert any("bijection" in v for v in validate_isogeny(bad))


def test_cokernel_examples():
    assert cokernel(_doubling_a1()) == FinAbGroup((2,), 0)
    assert cokernel(identity_isogeny(preset("GL(3)"))).is_trivial
    diag = Isogeny(source=torus(2), target=torus(2), matrix=IntMatrix.from_rows([[1, 0], [0, 3]]))
    assert cokernel(diag) == FinAbGroup((3,), 0)


def test_separable_at():
    iso = _doubling_a1()
    assert separable_at(iso, 3)
    assert not separable_at(iso, 2)
    assert separable_at(identity_isogeny(preset("SC(B2)")), 2)


def test_transfer_examples():
    iso = _doubling_a1()
    src, tgt, applies = transfer_pretty_good(iso, 3)
    assert applies and src and tgt
    src, tgt, applies = transfer_pretty_good(iso, 2)
    assert not applies and not src and not tgt
    src, tgt, applies = transfer_pretty_good(identity_isogeny(preset("GL(2)")), 2)
    assert applies and src == tgt


@pytest.mark.parametrize("n", range(1, 7))
def test_cartan_isogeny_family(n):
    iso = adjoint_to_simply_connected("A", n)
    assert validate_isogeny(iso) == []
    assert cokernel(iso).order() == n + 1
    for p in (2, 3, 5, 7):
        src, tgt, applies = transfer_pretty_good(iso, p)  # raises if the transfer law fails
        if (n + 1) % p:
            assert applies and src == tgt


def test_cokernel_orders_match_for_transpose():
    for series, rank in (("A", 3), ("B", 2), ("D", 4), ("G", 2)):
        iso = adjoint_to_simply_connected(series, rank)
        assert abs(iso.matrix.det()) == abs(iso.matrix.transpose().det())


def test_composition_multiplicative():
    negate = Isogeny(source=preset("AD(A1)"), target=preset("AD(A1)"), matrix=IntMatrix.from_rows([[-1]]))
    double = _doubling_a1()
    comp = compose(double, negate)
    assert validate_isogeny(comp) == []
    assert cokernel(comp).order() == cokernel(double).order() * cokernel(negate).order()
    t_a = Isogeny(source=torus(2), target=torus(2), matrix=IntMatrix.from_rows([[2, 0], [0, 1]]))
    t_b = Isogeny(source=torus(2), target=torus(2), matrix=IntMatrix.from_rows([[1, 1], [0, 3]]))
    both = compose(t_b, t_a)
    assert cokernel(both).order() == 6
    with pytest.raises(ValueError):
        compose(t_a, double)


def test_json_round_trip():
    iso = adjoint_to_simply_connected("G", 2)
    again = Isogeny.from_dict(iso.to_dict())
    assert again == iso


@pytest.mark.parametrize(
    "change",
    [{"matrix": [[1.9]]}, {"matrix": [[True]]}, {"matrix": [["1"]]}],
)
def test_from_dict_rejects_non_integer_matrices(change):
    data = {**_doubling_a1().to_dict(), **change}
    with pytest.raises(ValueError, match="expected an integer"):
        Isogeny.from_dict(data)
