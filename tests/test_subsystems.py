import random
from itertools import product

import pytest

from rootprimes.errors import NonTypeAError
from rootprimes.intlin import FinAbGroup, IntMatrix, RowLattice, quotient_group, relative_divisors
from rootprimes.rootdatum import components, preset, simple_system
from rootprimes.sampling import random_type_a_datum
from rootprimes.subsystems import (
    RootSubset,
    WeylElement,
    coxeter_closed_form_type_a,
    coxeter_element_type_a,
    coxeter_fixed_torsion,
    cross_out_node,
    highest_roots,
    reflection,
    span_closure,
)


def _root_lattice(datum):
    """Z.roots inside X, as the row lattice of the base."""
    return RowLattice(IntMatrix.from_rows([datum.roots[i] for i in simple_system(datum)], cols=datum.rank))


def _root_lattice_quotient(datum, indices):
    anchor = _root_lattice(datum)
    rows = [anchor.coords(datum.roots[i]) for i in indices]
    return quotient_group(anchor.rank, IntMatrix.from_rows(rows, cols=anchor.rank))


def test_span_closure_symmetry_and_idempotence():
    sl2 = preset("SC(A1)")
    one = RootSubset(sl2, frozenset({0}))
    closed = span_closure(one)
    assert closed.indices == frozenset(range(sl2.num_roots))
    g2 = preset("SC(G2)")
    everything = RootSubset(g2, frozenset(range(g2.num_roots)))
    assert span_closure(everything).indices == everything.indices
    again = span_closure(span_closure(one))
    assert again.indices == closed.indices
    # extensive: the subset is contained in its closure
    assert one.indices <= closed.indices


def test_span_closure_g2_long_roots():
    g2 = preset("SC(G2)")
    comp = components(g2)[0]
    # in Bourbaki order alpha_1 is short and alpha_2 long; the long simple
    # roots of the A2 subsystem are alpha_2 and 3*alpha_1 + alpha_2
    a1 = g2.roots[comp.simple_indices[0]]
    a2 = g2.roots[comp.simple_indices[1]]
    other_long = tuple(3 * x + y for x, y in zip(a1, a2))
    pair = frozenset({g2.root_index(a2), g2.root_index(other_long)})
    closed = span_closure(RootSubset(g2, pair))
    assert len(closed.indices) == 6
    # brute-force membership oracle over small integer combinations
    expected = set()
    for a, b in product(range(-4, 5), repeat=2):
        vec = tuple(a * x + b * y for x, y in zip(a2, other_long))
        idx = g2.root_index(vec)
        if idx is not None:
            expected.add(idx)
    assert closed.indices == frozenset(expected)
    # closure does not change the spanned lattice
    assert RootSubset(g2, pair).lattice().key() == closed.lattice().key()


def test_highest_roots_examples():
    assert highest_roots(preset("SC(A2)"))[0].coefficients == (1, 1)
    assert highest_roots(preset("SC(G2)"))[0].coefficients == (3, 2)
    assert highest_roots(preset("SC(C2)"))[0].coefficients == (2, 1)
    assert highest_roots(preset("SC(E8)"))[0].coefficients == (2, 3, 4, 6, 5, 4, 3, 2)
    assert highest_roots(preset("Torus(3)")) == ()


def test_highest_root_dominates():
    for name in ("SC(B3)", "AD(C4)", "SC(D4)", "SC(F4)"):
        datum = preset(name)
        h = highest_roots(datum)[0]
        assert all(c >= 1 for c in h.coefficients)


def test_cross_out_node_g2():
    g2 = preset("SC(G2)")
    sub = cross_out_node(g2, 0, 1)  # coefficient-2 node
    q = _root_lattice_quotient(g2, sub.sorted_indices)
    assert q.p_part(2) == (2,)
    # the subsystem is closed and symmetric
    assert span_closure(sub).indices == sub.indices
    assert all(g2.root_index(tuple(-x for x in g2.roots[i])) in sub.indices for i in sub.indices)


def test_cross_out_node_type_a_torsion_free():
    a4 = preset("SC(A4)")
    for node in range(4):
        sub = cross_out_node(a4, 0, node)
        assert _root_lattice_quotient(a4, sub.sorted_indices).is_trivial


def test_cross_out_node_c2():
    c2 = preset("SC(C2)")
    sub = cross_out_node(c2, 0, 0)  # coefficient-2 node in Bourbaki order
    q = _root_lattice_quotient(c2, sub.sorted_indices)
    assert q == FinAbGroup((2,), 0)


def test_cross_out_errors():
    with pytest.raises(ValueError, match="no roots"):
        cross_out_node(preset("Torus(2)"), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        cross_out_node(preset("SC(A2)"), 1, 0)


def test_reflection_examples():
    sl2 = preset("SC(A1)")
    alpha = sl2.root_index((2,))
    assert reflection(sl2, alpha).matrix.to_rows() == [[-1]]
    gl2 = preset("GL(2)")
    s = reflection(gl2, gl2.root_index((1, -1)))
    assert s.matrix.to_rows() == [[0, 1], [1, 0]]


def test_reflection_involutive_unimodular_permutes():
    for name in ("SC(B2)", "GL(3)", "AD(G2)"):
        datum = preset(name)
        for i in range(datum.num_roots):
            s = reflection(datum, i)
            assert s.matrix @ s.matrix == IntMatrix.identity(datum.rank)
            assert s.matrix.is_unimodular()
            assert s.permutes_roots(datum)


def test_coxeter_examples():
    assert coxeter_element_type_a(preset("SC(A1)")).matrix.to_rows() == [[-1]]
    assert coxeter_element_type_a(preset("GL(2)")).matrix.to_rows() == [[0, 1], [1, 0]]
    a2 = preset("SC(A2)")
    m = coxeter_element_type_a(a2).matrix
    assert m @ m @ m == IntMatrix.identity(2)
    assert m != IntMatrix.identity(2)
    # composed product equals the two simple reflection matrices multiplied
    delta = [i for i in simple_system(a2)]
    comp = components(a2)[0]
    expected = reflection(a2, comp.simple_indices[0]).matrix @ reflection(a2, comp.simple_indices[1]).matrix
    assert m == expected


def test_coxeter_rejects_non_type_a():
    with pytest.raises(NonTypeAError):
        coxeter_element_type_a(preset("SC(B2)"))
    with pytest.raises(NonTypeAError):
        coxeter_closed_form_type_a(preset("Sum(SC(A1), SC(G2))"))


def test_coxeter_fixed_torsion_examples():
    group, rel = coxeter_fixed_torsion(preset("SC(A1)"))
    assert group == FinAbGroup((2,), 0)
    assert rel == (1,)
    group, rel = coxeter_fixed_torsion(preset("GL(2)"))
    assert group == FinAbGroup((), 1)
    group, rel = coxeter_fixed_torsion(preset("AD(A1)"))
    assert group == FinAbGroup((2,), 0)
    assert rel == (2,)
    group, rel = coxeter_fixed_torsion(preset("Torus(3)"))
    assert group == FinAbGroup((), 3)
    assert rel == ()


def test_coinvariants_of_weyl_elements():
    # X/(s-1)X: the identity moves nothing, a reflection of SC(A1) is -1 on Z,
    # and the reflection of GL(2) swaps the coordinates
    assert WeylElement(IntMatrix.identity(3)).coinvariants() == FinAbGroup((), 3)
    assert reflection(preset("SC(A1)"), 0).coinvariants() == FinAbGroup((2,), 0)
    s = reflection(preset("GL(2)"), 0)
    assert s.moved_rows() == IntMatrix.from_rows([[-1, 1], [1, -1]])
    assert s.coinvariants() == FinAbGroup((), 1)


@pytest.mark.parametrize("seed", range(30))
def test_coxeter_closed_form_matches_composition(seed):
    rng = random.Random(3000 + seed)
    datum = random_type_a_datum(rng, max_rank=6)
    assert coxeter_element_type_a(datum).matrix == coxeter_closed_form_type_a(datum).matrix


@pytest.mark.parametrize("seed", range(30))
def test_coxeter_divisor_identity(seed):
    rng = random.Random(4000 + seed)
    datum = random_type_a_datum(rng, max_rank=6)
    group, rel = coxeter_fixed_torsion(datum)
    dual_side = relative_divisors(datum.coroot_matrix(), IntMatrix.identity(datum.rank))
    assert list(rel) == dual_side
    # consequence: X/(s-1)X has p-torsion whenever Y/Z.coroots does
    y_quot = quotient_group(datum.rank, datum.coroot_matrix())
    for p in (2, 3, 5):
        if any(d % p == 0 for d in y_quot.torsion):
            assert any(d % p == 0 for d in group.torsion)
