import random
from itertools import permutations

import pytest

from rootprimes.errors import NotARootSystemError
from rootprimes.intlin import FinAbGroup, IntMatrix
from rootprimes.rootdatum import (
    RootDatum,
    cartan_matrix,
    cartan_type,
    components,
    direct_sum,
    dual,
    is_semisimple,
    preset,
    same_datum,
    simple_system,
    torus,
    validate,
    weight_lattice_quotients,
)
from rootprimes.sampling import random_unimodular
from rootprimes.selftest import RANK8_PRESETS

# classical root counts: the closed-form formulas are the independent oracle
# for the reflection-closure enumeration
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(2, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def test_validate_sl2():
    sl2 = preset("SC(A1)")
    assert validate(sl2) == []
    assert sorted(sl2.roots) == [(-2,), (2,)]
    assert sorted(sl2.coroots) == [(-1,), (1,)]


def test_validate_pairing_violation():
    bad = RootDatum(rank=1, roots=((1,),), coroots=((1,),))
    assert any("pairing" in v and "index 0" in v for v in validate(bad))


def test_validate_not_reduced():
    bad = RootDatum(
        rank=1,
        roots=((1,), (2,), (-1,), (-2,)),
        coroots=((2,), (1,), (-2,), (-1,)),
    )
    assert any("not reduced" in v for v in validate(bad))


def test_validate_broken_reflection():
    # removing the negatives of one root pair breaks closure
    bad = RootDatum(rank=2, roots=((1, -1),), coroots=((1, -1),))
    assert validate(bad)


def test_validate_reflection_only_violation():
    # pairings, negation closure, distinctness, and reducedness all hold,
    # but reflecting (1,1) through (1,0) lands outside the root set
    bad = RootDatum(
        rank=2,
        roots=((1, 0), (-1, 0), (1, 1), (-1, -1)),
        coroots=((2, 0), (-2, 0), (1, 1), (-1, -1)),
    )
    violations = validate(bad)
    assert violations
    assert all("reflection" in v for v in violations)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
@pytest.mark.parametrize("flavor", ["SC", "AD"])
def test_presets_valid_with_classical_counts(flavor, series, rank):
    datum = preset(f"{flavor}({series}{rank})")
    assert validate(datum) == []
    counts = ROOT_COUNTS[series]
    expected = counts[rank] if isinstance(counts, dict) else counts(rank)
    assert datum.num_roots == expected
    assert len(simple_system(datum)) == (rank if series != "D" or rank != 2 else 2)


def test_preset_gl_and_torus():
    gl2 = preset("GL(2)")
    assert validate(gl2) == []
    assert set(gl2.roots) == {(1, -1), (-1, 1)}
    assert set(gl2.coroots) == {(1, -1), (-1, 1)}
    t3 = preset("Torus(3)")
    assert t3.rank == 3 and t3.num_roots == 0


def test_preset_sc_a1_from_cartan():
    sc = preset("SC(A1)")
    assert set(sc.roots) == {(2,), (-2,)}
    assert set(sc.coroots) == {(1,), (-1,)}


def test_preset_errors():
    with pytest.raises(ValueError):
        preset("SC(E9)")
    with pytest.raises(ValueError):
        preset("GL(x)")
    with pytest.raises(ValueError):
        preset("totally unparseable")
    with pytest.raises(ValueError):
        preset("SC(H4)")
    with pytest.raises(ValueError):
        preset("Sum(SC(A1), SC(E9))")


def test_preset_sum_edge_cases():
    assert preset("Sum()") == torus(0)
    assert same_datum(preset("Sum(SC(A1))"), preset("SC(A1)"))
    nested = preset("Sum(Sum(SC(A1), Torus(1)), SC(A1))")
    assert nested.rank == 3 and nested.num_roots == 4


def test_weight_lattice_quotients_rejects_bad_indices():
    datum = preset("SC(A2)")
    with pytest.raises(ValueError, match="out of range"):
        weight_lattice_quotients(datum, [99])


def test_dual_involution_and_examples():
    for name in ("SC(A1)", "GL(2)", "SC(G2)", "Sum(SC(A2), Torus(1))"):
        datum = preset(name)
        assert dual(dual(datum)) == datum
    assert same_datum(dual(preset("SC(A1)")), preset("AD(A1)"))
    assert same_datum(dual(preset("GL(2)")), preset("GL(2)"))
    assert dual(torus(4)) == torus(4)


def test_direct_sum():
    s = preset("Sum(SC(A1), Torus(1))")
    assert s.rank == 2
    assert set(s.roots) == {(2, 0), (-2, 0)}
    assert same_datum(direct_sum(torus(0), preset("SC(G2)")), preset("SC(G2)"))
    both = preset("Sum(SC(A1), SC(A1))")
    assert both.rank == 2 and both.num_roots == 4


def test_components_examples():
    comps = components(preset("GL(3)"))
    assert [(c.series, c.rank) for c in comps] == [("A", 2)]
    assert len(comps[0].root_indices) == 6
    comps = components(preset("Sum(SC(A1), SC(G2))"))
    assert sorted(c.label for c in comps) == [("A", 1), ("G", 2)]
    assert components(preset("Torus(5)")) == ()


def test_components_of_direct_sum_union():
    rng = random.Random(11)
    names = ["SC(A2)", "AD(B2)", "GL(3)", "SC(G2)", "Torus(1)", "SC(D4)"]
    for _ in range(8):
        a, b = rng.choice(names), rng.choice(names)
        s = direct_sum(preset(a), preset(b))
        expected = sorted(
            [c.label for c in components(preset(a))] + [c.label for c in components(preset(b))]
        )
        assert sorted(c.label for c in components(s)) == expected


def test_recognition_normalizes_low_rank():
    assert cartan_type(preset("SC(D2)")).components == (("A", 1), ("A", 1))
    assert cartan_type(preset("SC(D3)")).components == (("A", 3),)
    # B2 and C2 are the same root system; the canonical label is C2
    assert cartan_type(preset("SC(B2)")).components == (("C", 2),)
    assert cartan_type(preset("AD(C2)")).components == (("C", 2),)


@pytest.mark.parametrize("series,rank", [t for t in ALL_TYPES if not (t[0] == "D" and t[1] < 4) and t != ("B", 2)])
def test_component_matrix_matches_catalog(series, rank):
    datum = preset(f"SC({series}{rank})")
    comps = components(datum)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.label == (series, rank)
    rebuilt = [
        [datum.pairing(comp.simple_indices[j], comp.simple_indices[i]) for j in range(rank)]
        for i in range(rank)
    ]
    assert IntMatrix.from_rows(rebuilt) == cartan_matrix(series, rank)


def test_simple_system_examples():
    sl2 = preset("SC(A1)")
    assert [sl2.roots[i] for i in simple_system(sl2)] == [(2,)]
    gl2 = preset("GL(2)")
    assert [gl2.roots[i] for i in simple_system(gl2)] == [(1, -1)]
    a2 = preset("SC(A2)")
    delta = simple_system(a2)
    assert len(delta) == 2
    pairing = sorted(a2.pairing(delta[i], delta[j]) for i in range(2) for j in range(2))
    assert pairing == [-1, -1, 2, 2]


def test_weight_lattice_quotients():
    for name in ("SC(A1)", "AD(A1)"):
        datum = preset(name)
        assert weight_lattice_quotients(datum, range(datum.num_roots)) == FinAbGroup((2,), 0)
    a2 = preset("SC(A2)")
    assert weight_lattice_quotients(a2, ()) == FinAbGroup((), 2)
    g2 = preset("SC(G2)")
    assert weight_lattice_quotients(g2, range(g2.num_roots)).is_trivial
    # cross-check: |det Cartan(G2)| = 1
    assert abs(cartan_matrix("G", 2).det()) == 1


def test_fundamental_group_orders_match_cartan_determinant():
    for series, rank in ALL_TYPES:
        datum = preset(f"SC({series}{rank})")
        lam = weight_lattice_quotients(datum, range(datum.num_roots))
        det = 1
        for s, r in cartan_type(datum).components:
            det *= abs(cartan_matrix(s, r).det())
        assert lam.order() == det


def test_is_semisimple():
    assert is_semisimple(preset("SC(A2)"))
    assert not is_semisimple(preset("GL(2)"))
    assert not is_semisimple(preset("Torus(1)"))


def test_json_round_trip():
    datum = preset("Sum(GL(2), SC(B3))")
    again = RootDatum.from_dict(datum.to_dict())
    assert again == datum


@pytest.mark.parametrize(
    "data",
    [
        {"rank": 1, "roots": [[1.7], [-2]], "coroots": [[True], [-1]]},
        {"rank": 1, "roots": [[2], [-2]], "coroots": [[True], [-1]]},
        {"rank": 1, "roots": [["2"], [-2]], "coroots": [[1], [-1]]},
        {"rank": 1.0, "roots": [[2], [-2]], "coroots": [[1], [-1]]},
        {"rank": "1", "roots": [[2], [-2]], "coroots": [[1], [-1]]},
        {"rank": True, "roots": [[2], [-2]], "coroots": [[1], [-1]]},
    ],
)
def test_from_dict_rejects_non_integers(data):
    with pytest.raises(ValueError, match="expected an integer"):
        RootDatum.from_dict(data)


def test_component_recognition_rejects_garbage():
    from rootprimes.rootdatum import _bourbaki_order

    # a 4-cycle is not a Dynkin diagram
    def cyc(i, j):
        if i == j:
            return 2
        return -1 if (i - j) % 4 in (1, 3) else 0

    with pytest.raises(NotARootSystemError):
        _bourbaki_order([0, 1, 2, 3], cyc)


def _first_catalog_order(datum, nodes, series, rank):
    """Brute force: the lexicographically least node order giving the catalog matrix."""
    catalog = cartan_matrix(series, rank)
    for order in permutations(sorted(nodes)):
        if all(
            datum.pairing(order[j], order[i]) == catalog.at(i, j)
            for i in range(rank)
            for j in range(rank)
        ):
            return order
    return None


def test_component_order_is_the_least_catalog_order():
    rng = random.Random(5)
    data = []
    for name in RANK8_PRESETS:
        datum = preset(name)
        if all(c.rank > 6 for c in components(datum)):
            continue
        t, tinv = random_unimodular(rng, datum.rank)
        tinv_t = tinv.transpose()
        moved = RootDatum(
            rank=datum.rank,
            roots=tuple(t.apply(r) for r in datum.roots),
            coroots=tuple(tinv_t.apply(c) for c in datum.coroots),
        )
        data += [(name, datum), (name, dual(datum)), (name, moved)]
    checked = 0
    for name, datum in data:
        for comp in components(datum):
            if comp.rank > 6:
                continue
            nodes = comp.simple_indices
            assert _first_catalog_order(datum, nodes, *comp.label) == nodes, (name, comp.label)
            # no series tried earlier (A, C, B, D, E, F, G) fits the diagram
            for series in "ACBDEFG"[: "ACBDEFG".index(comp.series)]:
                try:
                    earlier = _first_catalog_order(datum, nodes, series, comp.rank)
                except ValueError:  # the series has no entry of this rank
                    continue
                assert earlier is None, (name, comp.label, series)
            checked += 1
    assert checked > 150
