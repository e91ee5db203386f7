import json
import random

import pytest

from rootprimes.certificates import (
    BAD_PRIME_SUBSYSTEM,
    CENTER_TORSION,
    COXETER_TORSION,
    KINDS,
    PRETTY_GOOD_PROOF,
    Certificate,
    build_certificate,
    verify_certificate,
)
from rootprimes.intlin import primes_upto
from rootprimes.primes import report
from rootprimes.rootdatum import RootDatum, dual, preset
from rootprimes.sampling import random_unimodular
from rootprimes.selftest import RANK8_PRESETS


def test_branch_selection():
    assert build_certificate(preset("SC(A1)"), 2).kind == CENTER_TORSION
    assert build_certificate(preset("SC(G2)"), 2).kind == BAD_PRIME_SUBSYSTEM
    assert build_certificate(preset("GL(3)"), 5).kind == PRETTY_GOOD_PROOF
    assert build_certificate(preset("AD(A1)"), 2).kind == COXETER_TORSION
    assert build_certificate(preset("Sum(AD(A2), SC(C2))"), 3).kind == COXETER_TORSION


def test_center_branch_payload():
    cert = build_certificate(preset("SC(A1)"), 2)
    assert cert.payload["x_mod_root_lattice"] == {"torsion": [2], "free_rank": 0}
    assert verify_certificate(cert)


def test_bad_prime_branch_payload():
    cert = build_certificate(preset("SC(G2)"), 2)
    assert cert.payload["crossed_coefficient"] == 2
    assert verify_certificate(cert)


def test_round_trip_all_kinds():
    cases = [("GL(2)", 3), ("SC(A1)", 2), ("SC(G2)", 3), ("AD(A3)", 2)]
    for name, p in cases:
        cert = build_certificate(preset(name), p)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert verify_certificate(again)


def test_tampered_certificates_fail():
    cert = build_certificate(preset("SC(A1)"), 2)
    wrong_prime = Certificate(cert.kind, cert.datum, 3, cert.payload)
    assert not verify_certificate(wrong_prime)

    cert = build_certificate(preset("GL(2)"), 2)
    tampered = dict(cert.payload)
    tampered["x_mod_root_lattice"] = {"torsion": [2], "free_rank": 0}
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    cert = build_certificate(preset("SC(G2)"), 2)
    tampered = dict(cert.payload)
    tampered["subsystem"] = tampered["subsystem"][:-1]
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    cert = build_certificate(preset("AD(A1)"), 2)
    tampered = dict(cert.payload)
    tampered["weyl_matrix"] = [[2]]  # not unimodular, does not permute the roots
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    assert not verify_certificate(Certificate("no-such-kind", cert.datum, 2, {}))


def _minus_identity_certificate(name):
    """A coxeter-torsion certificate at p = 2 whose weyl_matrix is -I, with the right X/(-2)X."""
    datum = preset(name)
    r = datum.rank
    payload = {
        "side": "primary",
        "weyl_matrix": [[-int(i == j) for j in range(r)] for i in range(r)],
        "character_quotient": {"torsion": [2] * r, "free_rank": 0},
    }
    return Certificate(COXETER_TORSION, datum, 2, payload)


def test_a_weyl_witness_must_lie_in_the_weyl_group():
    # -I permutes the roots and X/(-2)X has 2-torsion, yet on these data -I is
    # not in W, and 2 is pretty good for all three
    for name in ("GL(2)", "GL(3)", "SC(A2)"):
        assert report(preset(name), 2).pretty_good, name
        assert not verify_certificate(_minus_identity_certificate(name)), name
    # -1 lies in the Weyl group of D4
    assert verify_certificate(_minus_identity_certificate("SC(D4)"))


def test_every_built_coxeter_certificate_verifies():
    built = 0
    for name in RANK8_PRESETS:
        for datum in (preset(name), dual(preset(name))):
            for p in primes_upto(29):
                cert = build_certificate(datum, p)
                if cert.kind == COXETER_TORSION:
                    built += 1
                    assert verify_certificate(cert), f"{name} at p={p}"
    assert built == 25


def test_a_torsion_that_is_not_a_list_fails_for_all_kinds():
    # {} and "" once iterated as the empty chain, so a trivial quotient verified
    certs = [build_certificate(preset(name), 2) for name in ("GL(2)", "SC(A1)", "SC(G2)", "AD(A1)")]
    assert [cert.kind for cert in certs] == [PRETTY_GOOD_PROOF, CENTER_TORSION, BAD_PRIME_SUBSYSTEM, COXETER_TORSION]
    assert certs[0].payload["x_mod_root_lattice"]["torsion"] == []
    for cert in certs:
        quotients = [key for key, value in cert.payload.items() if isinstance(value, dict)]
        assert quotients, cert.kind
        for key in quotients:
            for wrong in ({}, "", "2", {"2": 1}):
                payload = dict(cert.payload, **{key: dict(cert.payload[key], torsion=wrong)})
                assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, payload)), (cert.kind, key, wrong)


def test_pretty_good_kind_tracks_report():
    for name in ("SC(A2)", "AD(B2)", "GL(4)", "Sum(SC(A1), Torus(1))"):
        datum = preset(name)
        for p in primes_upto(12):
            cert = build_certificate(datum, p)
            assert (cert.kind == PRETTY_GOOD_PROOF) == report(datum, p).pretty_good
            assert verify_certificate(cert)


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        build_certificate(preset("SC(A1)"), 4)


# values of each JSON type other than the one a payload field holds
WRONG_TYPED = {
    int: ["3", 2.0, True, None, [2], {"value": 2}],
    str: [0, None, True, ["primary"], {"side": "primary"}],
    list: ["[0, 1]", 0, 1.5, None, True, {"0": 1}],
    dict: ['{"torsion": []}', 0, 1.5, None, False, [[], 0]],
}


def test_mutated_payloads_fail_for_all_kinds():
    rng = random.Random(7)
    names = ["SC(A1)", "AD(A1)", "GL(2)", "SC(G2)", "AD(A3)", "Sum(AD(A2), SC(C2))", "SC(B3)", "GL(4)"]
    pairs = [("SC(G2)", 2), ("AD(A1)", 2)] + [
        (rng.choice(names), rng.choice(primes_upto(7))) for _ in range(12)
    ]
    kinds = set()
    for name, p in pairs:
        cert = build_certificate(preset(name), p)
        kinds.add(cert.kind)
        assert verify_certificate(cert)
        for key, value in cert.payload.items():
            dropped = json.loads(cert.to_json())
            del dropped["payload"][key]
            assert not verify_certificate(Certificate.from_dict(dropped)), (name, p, key)
            for wrong in rng.sample(WRONG_TYPED[type(value)], 3):
                mutated = json.loads(cert.to_json())
                mutated["payload"][key] = wrong
                assert not verify_certificate(Certificate.from_dict(mutated)), (name, p, key, wrong)
    assert kinds == {PRETTY_GOOD_PROOF, CENTER_TORSION, BAD_PRIME_SUBSYSTEM, COXETER_TORSION}


def _reference_json(cert):
    """The certificate text as the stdlib's indenting encoder writes it."""
    return json.dumps(cert.to_dict(), indent=2, sort_keys=True)


def _rebased(d, rng):
    """The datum in a random basis of X: roots go to T r, coroots to T^-T c."""
    t, tinv = random_unimodular(rng, d.rank)
    tinv_t = tinv.transpose()
    return RootDatum(d.rank, tuple(t.apply(r) for r in d.roots), tuple(tinv_t.apply(c) for c in d.coroots))


def test_to_json_matches_the_stdlib_on_every_rank8_certificate():
    rng = random.Random(11)
    kinds = set()
    for name in RANK8_PRESETS:
        datum = _rebased(preset(name), rng)
        for d in (datum, dual(datum)):
            for p in primes_upto(29):
                cert = build_certificate(d, p)
                kinds.add(cert.kind)
                assert cert.to_json() == _reference_json(cert), (name, p)
    assert kinds == {PRETTY_GOOD_PROOF, CENTER_TORSION, BAD_PRIME_SUBSYSTEM, COXETER_TORSION}


def _random_json(rng, depth=0):
    """A random JSON value; containers nest at most four deep."""
    scalars = [
        lambda: rng.randint(-(2**70), 2**70),
        lambda: rng.randint(-3, 3),
        lambda: rng.choice([True, False, None]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([0.0, -0.0, 1e-300, 1e300, float("inf"), float("-inf"), float("nan")]),
        lambda: "".join(rng.choice('ab[],"\\{}: \u00e9\u263a\n') for _ in range(rng.randint(0, 6))),
    ]
    roll = rng.random()
    if depth < 3 and roll < 0.35:
        shape = rng.choice(["row", "matrix", "mixed"])
        if shape == "row":
            return [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        if shape == "matrix":
            cols = rng.randint(0, 3)
            return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rng.randint(0, 4))]
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if depth < 3 and roll < 0.5:
        keys = ["a", "b,", "[c]", "\u00e9", '"', ""]
        return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}
    return rng.choice(scalars)()


def test_to_json_matches_the_stdlib_on_fuzzed_payloads():
    rng = random.Random(5)
    datum = preset("SC(A1)")
    fixed = [[], [[]], [[], []], [[1], []], {}, {"x": {}}, [{}], [[{}], [{}]], [[[1]]], [[[]]]]
    fixed += [[1, [2]], [[1], 2], [[1], [2], 3], [[1, [2]], [3]], ["a,[b]"], [[1, "]"]]]
    fixed += [{2: "a", 1: [1]}, {None: [1]}, {False: 0, True: 1}, {2.5: {}, float("nan"): 0}]
    values = fixed + [_random_json(rng) for _ in range(3000)]
    for value in values:
        cert = Certificate(CENTER_TORSION, datum, 2, {"value": value, "in_a_list": [value, 2]})
        assert cert.to_json() == _reference_json(cert), value
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        Certificate(CENTER_TORSION, datum, 2, {(1, 2): 0}).to_json()


def test_to_json_never_enters_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python encoder ran")

    samples = [("SC(E8)", 5), ("AD(E8)", 7), ("GL(3)", 5), ("SC(A1)", 2), ("SC(G2)", 2), ("AD(A1)", 2)]
    certs = [build_certificate(preset(name), p) for name, p in samples]
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        _reference_json(certs[0])
    assert {cert.kind for cert in certs} == set(KINDS)
    for cert in certs:
        assert cert.to_json()


def test_from_dict_requires_objects_and_a_string_kind():
    cert = build_certificate(preset("SC(A1)"), 2)
    good = json.loads(cert.to_json())
    assert verify_certificate(Certificate.from_dict(good))

    as_pairs = dict(good, payload=[list(item) for item in good["payload"].items()])
    with pytest.raises(TypeError, match="expected an object"):
        Certificate.from_dict(as_pairs)
    for wrong in ([], "payload", None, 0):
        with pytest.raises(TypeError, match="expected an object"):
            Certificate.from_dict(dict(good, payload=wrong))
    for wrong in ([["rank", 1]], "datum", None):
        with pytest.raises(TypeError, match="expected an object"):
            Certificate.from_dict(dict(good, datum=wrong))
    for wrong in (list(good.items()), "certificate", None):
        with pytest.raises(TypeError, match="expected an object"):
            Certificate.from_dict(wrong)
    for wrong in (0, None, True, [CENTER_TORSION], {"kind": CENTER_TORSION}):
        with pytest.raises(TypeError, match="expected a string"):
            Certificate.from_dict(dict(good, kind=wrong))
