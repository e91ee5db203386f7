import copy
import random
from itertools import permutations

import pytest

from rootprimes import rootdatum
from rootprimes.errors import NotARootSystemError
from rootprimes.intlin import FinAbGroup, IntMatrix, dot, strict_int
from rootprimes.rootdatum import (
    Component,
    RootDatum,
    _bourbaki_order,
    cartan_matrix,
    cartan_type,
    components,
    direct_sum,
    dual,
    is_semisimple,
    preset,
    root_coefficients,
    root_lattice_quotient,
    same_datum,
    simple_system,
    torus,
    validate,
    weight_lattice_quotients,
)
from rootprimes.sampling import random_type_a_datum, random_unimodular
from rootprimes.subsystems import RootSubset
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


def test_root_lattice_quotient_rejects_bad_indices():
    datum = preset("SC(A2)")
    for bad in ([-1], [99], [0, datum.num_roots]):
        with pytest.raises(ValueError, match="out of range"):
            root_lattice_quotient(datum, bad)


def test_root_indices_must_be_ints():
    datum = preset("SC(A2)")
    for bad in ([True], [1.0], ["1"]):
        for parse in (root_lattice_quotient, weight_lattice_quotients, lambda d, i: RootSubset(d, frozenset(i))):
            with pytest.raises(ValueError, match="expected an integer"):
                parse(datum, bad)


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


def _generator_from_dict(data):
    """The earlier parse, one strict_int generator per row: the reference for from_dict's errors."""
    return RootDatum(
        rank=strict_int(data["rank"]),
        roots=tuple(tuple(strict_int(x) for x in r) for r in data["roots"]),
        coroots=tuple(tuple(strict_int(x) for x in c) for c in data["coroots"]),
    )


def _outcome(parse, data):
    try:
        return parse(data)
    except Exception as exc:  # the parity test compares whatever either route raises
        return type(exc), str(exc)


def test_from_dict_errors_match_the_generator_route():
    good = preset("Sum(GL(2), SC(B3))").to_dict()
    cases = [good]
    for bad in (1.7, True, "1", None, [1]):
        first = copy.deepcopy(good)
        first["roots"][0][0] = bad
        last = copy.deepcopy(good)
        last["coroots"][-1][-1] = bad
        both = copy.deepcopy(first)
        both["coroots"][-1][-1] = 2.5
        cases += [first, last, both]
    for row in (5, None, 1.5):
        for key, index in (("roots", 0), ("coroots", -1)):
            case = copy.deepcopy(good)
            case[key][index] = row
            cases.append(case)
    cases += [dict(good, roots="12"), dict(good, roots="ab"), dict(good, coroots="1")]
    cases += [dict(good, roots=[[1, "x"], 7]), dict(good, roots=[[1, 2], 7, [1.5]])]
    for data in cases:
        expected = _outcome(_generator_from_dict, data)
        assert _outcome(RootDatum.from_dict, data) == expected, data
    assert RootDatum.from_dict(good) == _generator_from_dict(good)


def test_component_recognition_rejects_garbage():
    # a 4-cycle is not a Dynkin diagram
    def cyc(i, j):
        if i == j:
            return 2
        return -1 if (i - j) % 4 in (1, 3) else 0

    with pytest.raises(NotARootSystemError):
        _bourbaki_order([0, 1, 2, 3], cyc)


def _rebased(datum, rng):
    """The datum in a random basis of X: roots go to T r, coroots to T^-T c."""
    t, tinv = random_unimodular(rng, datum.rank)
    tinv_t = tinv.transpose()
    return RootDatum(
        rank=datum.rank,
        roots=tuple(t.apply(r) for r in datum.roots),
        coroots=tuple(tinv_t.apply(c) for c in datum.coroots),
    )


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
        data += [(name, datum), (name, dual(datum)), (name, _rebased(datum, rng))]
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


# the sums that tests/test_base_routes.py adds to the rank-8 presets
SUMS = ("Sum(SC(E8), AD(A1))", "Sum(AD(F4), SC(D4))", "Sum(SC(D4), AD(D4), SC(F4))")


def _differential_data():
    """The presets and sums, each rebased, seeded type-A samples, and all their duals, once each."""
    rng = random.Random(31)
    named = [preset(name) for name in RANK8_PRESETS + SUMS]
    data = named + [_rebased(d, rng) for d in named] + [random_type_a_datum(rng) for _ in range(40)]
    return list(dict.fromkeys(data + [dual(d) for d in data]))


def _pairwise_base(d):
    """The earlier base search: the positive roots that are not a sum of two positive roots."""
    positive = [i for i, r in enumerate(d.roots) if next(x for x in r if x) > 0]
    pos_set = {d.roots[i] for i in positive}
    return tuple(
        i for i in positive
        if not any(tuple(x - y for x, y in zip(d.roots[i], d.roots[j])) in pos_set for j in positive if j != i)
    )


def _per_root_walk(d, simple):
    """The earlier search: every reached root against every simple root, one dot product each."""
    roots, coroots = d.roots, d.coroots
    lookup = {r: i for i, r in enumerate(roots)}
    coeffs = {i: tuple(int(j == k) for j in range(len(simple))) for k, i in enumerate(simple)}
    queue = list(simple)
    for b in queue:
        for k, a in enumerate(simple):
            m = dot(roots[b], coroots[a])
            if m:
                j = lookup[tuple(x - m * y for x, y in zip(roots[b], roots[a]))]
                if j not in coeffs:
                    c = coeffs[b]
                    coeffs[j] = c[:k] + (c[k] - m,) + c[k + 1 :]
                    queue.append(j)
    return tuple(coeffs[i] for i in range(len(roots)))


def _dot_components(d, simple, coefficients):
    """The earlier grouping and node order, each pairing of simple roots a dot product."""
    roots, coroots = d.roots, d.coroots
    label = {}
    for k in range(len(simple)):
        if k in label:
            continue
        label[k] = k
        stack = [k]
        while stack:
            a = stack.pop()
            for b in range(len(simple)):
                if b not in label and dot(roots[simple[b]], coroots[simple[a]]):
                    label[b] = k
                    stack.append(b)
    groups = {}
    for i, row in enumerate(coefficients):
        groups.setdefault(label[next(k for k, c in enumerate(row) if c)], []).append(i)
    comps = []
    for first, indices in groups.items():
        nodes = [simple[k] for k in range(len(simple)) if label[k] == first]
        series, n, ordered = _bourbaki_order(nodes, lambda i, j: dot(roots[j], coroots[i]))
        comps.append(Component(series, n, tuple(indices), tuple(ordered)))
    return tuple(comps)


def test_the_ordered_pass_matches_the_pairwise_search_and_the_per_root_walk():
    checked = 0
    for d in _differential_data():
        simple = _pairwise_base(d)
        coefficients = _per_root_walk(d, simple)
        assert simple_system(d) == simple
        assert root_coefficients(d) == coefficients
        assert components(d) == _dot_components(d, simple, coefficients)
        checked += 1
    assert checked == 378


def _negated(v):
    return tuple(-x for x in v)


def _corruptions(datum, rng, paired):
    """Seeded corruptions of one (root, coroot) pair of a valid datum.

    With ``paired`` the negative pair gets the negated change, and a shifted
    coroot moves along a coordinate where its root is zero, so the axioms on
    single pairs can still hold and only the reflections fail.
    """
    roots, coroots, rank = datum.roots, datum.coroots, datum.rank
    i, j = rng.sample(range(datum.num_roots), 2)
    neg = {i: roots.index(_negated(roots[i])), j: roots.index(_negated(roots[j]))}
    zeros = [k for k in range(rank) if not roots[i][k]]
    k = rng.choice(zeros) if paired and zeros else rng.randrange(rank)

    def edit(vectors, changes):
        out = list(vectors)
        for x, v in changes.items():
            out[x] = v
            if paired:
                out[neg[x]] = _negated(v)
        return tuple(out)

    kept = [x for x in range(datum.num_roots) if x != i and not (paired and x == neg[i])]
    summed = (tuple(a + b for a, b in zip(roots[i], roots[j])), tuple(a + b for a, b in zip(coroots[i], coroots[j])))
    extra = [summed] + ([tuple(map(_negated, summed))] if paired else [])
    shifted = tuple(c + int(x == k) for x, c in enumerate(coroots[i]))
    yield roots, edit(coroots, {i: _negated(coroots[i])})  # flipped coroot sign
    yield tuple(roots[x] for x in kept), tuple(coroots[x] for x in kept)  # dropped root
    yield roots, edit(coroots, {i: coroots[j], j: coroots[i]})  # swapped coroot pair
    yield edit(roots, {i: roots[j], j: roots[i]}), coroots  # swapped root pair
    yield roots, edit(coroots, {i: tuple(2 * x for x in coroots[i])})  # doubled coroot
    yield roots, edit(coroots, {i: shifted})  # coroot shifted by a unit vector
    yield roots + tuple(r for r, _ in extra), coroots + tuple(c for _, c in extra)  # appended sum of two roots


def test_fast_check_agrees_with_the_full_validator(monkeypatch):
    """validate() accepts a datum exactly when _check_axioms finds nothing, and
    otherwise returns _check_axioms's list."""
    full = rootdatum._check_axioms
    results = []
    monkeypatch.setattr(rootdatum, "_check_axioms", lambda d: results.append(full(d)) or results[-1])
    monkeypatch.setattr(rootdatum, "_DERIVED", {})

    def fast_accepts(d):
        # a fresh memo, so no stored dual vouches for d
        rootdatum._DERIVED.clear()
        results.clear()
        got = validate(d)
        if not results:
            assert got == [] and full(d) == []
            return True
        assert results == [got] and got
        return False

    valid = _differential_data()
    assert len(valid) == 378
    assert all(fast_accepts(d) for d in valid)
    rng = random.Random(32)
    rejected = 0
    for d in valid:
        if d.num_roots < 2:
            continue
        # paired corruptions run the full validator's reflection loop; above
        # 72 roots (E7, D8, B8, C8, E8) they would add about 11 s
        for paired in (False, True) if d.num_roots <= 72 else (False,):
            for roots, coroots in _corruptions(d, rng, paired):
                rejected += not fast_accepts(RootDatum(d.rank, roots, coroots))
    assert rejected > 4000
