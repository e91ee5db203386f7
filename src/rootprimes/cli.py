"""Command-line front end.

Commands: validate, primes, certificate, classify, decompose, dual, sum,
snf, selftest.  Data arguments are preset names (``SC(A2)``, ``GL(3)``,
``Sum(SC(A1), Torus(1))``) or paths to JSON files with ``rank`` / ``roots``
/ ``coroots`` keys.  Output is pretty-printed JSON unless --text is given.

Exit codes: 0 ok, 1 mathematical negative (invalid datum, non-standard
characteristic, torsion witness), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce

from . import certificates, standardness
from .errors import BadPrimeError, RootPrimesError
from .intlin import IntMatrix, is_prime, primes_upto, smith_normal_form, strict_matrix
from .primes import failing_prime_bound, report
from .rootdatum import RootDatum, direct_sum, dual, is_preset_name, preset, validate

OK, NEGATIVE, USAGE = 0, 1, 2

# largest top of a ``primes`` sweep; the sieve allocates one byte per integer
MAX_SWEEP_PRIME = 10**6


class UsageError(Exception):
    pass


def _load_datum(arg: str) -> RootDatum:
    if is_preset_name(arg):
        try:
            return preset(arg)
        except (RecursionError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return RootDatum.from_dict(data)
        except (json.JSONDecodeError, KeyError, OSError, RecursionError, TypeError, ValueError) as exc:
            raise UsageError(f"cannot read datum from {arg}: {exc}") from exc
    raise UsageError(f"{arg!r} is neither a preset name nor an existing file")


def _load_matrix(arg: str) -> IntMatrix:
    try:
        if os.path.exists(arg):
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = arg
        return strict_matrix(json.loads(text))
    except (json.JSONDecodeError, OSError, RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read a matrix from {arg!r}: {exc}") from exc


def _parse_prime(text: str, allow_zero: bool = False) -> int:
    try:
        p = int(text)
    except ValueError as exc:
        raise UsageError(f"{text!r} is not an integer") from exc
    if allow_zero and p == 0:
        return 0
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not prime:
        raise UsageError(f"{p} is not prime")
    return p


def _emit(payload, as_json: bool, text_lines=None):
    if as_json or text_lines is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    datum = _load_datum(args.datum)
    violations = validate(datum)
    if not violations:
        print("ok")
        return OK
    for v in violations:
        print(v)
    return NEGATIVE


def cmd_primes(args) -> int:
    datum = _load_datum(args.datum)
    violations = validate(datum)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return NEGATIVE
    bound = failing_prime_bound(datum).bound
    top = max(args.max_prime if args.max_prime is not None else 23, bound)
    if top > MAX_SWEEP_PRIME:
        raise UsageError(f"sweep top {top} exceeds the limit {MAX_SWEEP_PRIME}")
    rows = [report(datum, p) for p in primes_upto(top)]
    payload = [r.to_dict() for r in rows]
    text = [
        " ".join(
            [f"p={r.p}", f"bad={r.bad}", f"good={r.good}", f"very_good={r.very_good}",
             f"pretty_good={r.pretty_good}", f"center_smooth={r.center_smooth}",
             f"dual_center_smooth={r.dual_center_smooth}",
             standardness.smoothness_verdict(datum, r.p)]
        )
        for r in rows
    ]
    _emit(payload, args.json, text)
    return OK


def cmd_certificate(args) -> int:
    datum = _load_datum(args.datum)
    p = _parse_prime(args.p)
    cert = certificates.build_certificate(datum, p)
    if not certificates.verify_certificate(cert):
        print("internal error: emitted certificate failed verification", file=sys.stderr)
        return NEGATIVE
    print(cert.to_json())
    return OK if cert.kind == certificates.PRETTY_GOOD_PROOF else NEGATIVE


def cmd_classify(args) -> int:
    datum = _load_datum(args.datum)
    p = _parse_prime(args.p, allow_zero=True)
    standard = standardness.is_essentially_standard(datum, p)
    payload = {
        "p": p,
        "essentially_standard": standard,
        "verdict": standardness.classify(datum, p),
        "centralizers": standardness.smoothness_verdict(datum, p),
    }
    _emit(payload, args.json, [f"p={p} {payload['verdict']}; {payload['centralizers']}"])
    return OK if standard else NEGATIVE


def cmd_decompose(args) -> int:
    datum = _load_datum(args.datum)
    p = _parse_prime(args.p)
    try:
        dec = standardness.decompose(datum, p)
    except BadPrimeError as exc:
        print(str(exc), file=sys.stderr)
        return NEGATIVE
    _emit(dec.to_dict(), True)
    return OK


def cmd_dual(args) -> int:
    datum = _load_datum(args.datum)
    _emit(dual(datum).to_dict(), True)
    return OK


def cmd_sum(args) -> int:
    data = [_load_datum(d) for d in args.data]
    _emit(reduce(direct_sum, data).to_dict(), True)
    return OK


def cmd_snf(args) -> int:
    matrix = _load_matrix(args.matrix)
    snf = smith_normal_form(matrix)
    payload = {
        "divisors": list(snf.divisors),
        "U": snf.U.to_rows(),
        "V": snf.V.to_rows(),
    }
    _emit(payload, True)
    return OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    return OK if run_all(deep=args.deep) else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootprimes",
        description="Exact lattice arithmetic for root data: prime classification, "
        "smoothness verdicts, and torsion certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, "check the root-datum axioms")
    p.add_argument("datum")

    p = add("primes", cmd_primes, "classify every prime up to the failing bound")
    p.add_argument("datum")
    p.add_argument("--max-prime", type=int, default=None,
                   help=f"sweep primes up to max(this, failing bound), at most {MAX_SWEEP_PRIME}; default 23")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--text", dest="json", action="store_false")

    p = add("certificate", cmd_certificate, "emit a machine-checkable certificate for (datum, p)")
    p.add_argument("datum")
    p.add_argument("p")

    p = add("classify", cmd_classify, "essentially-standard verdict for characteristic p (0 allowed)")
    p.add_argument("datum")
    p.add_argument("p")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--text", dest="json", action="store_false")

    p = add("decompose", cmd_decompose, "type-A / very-good block decomposition at a good prime")
    p.add_argument("datum")
    p.add_argument("p")

    p = add("dual", cmd_dual, "swap the two sides of a datum")
    p.add_argument("datum")

    p = add("sum", cmd_sum, "direct sum of two or more data")
    p.add_argument("data", nargs="+")

    p = add("snf", cmd_snf, "Smith normal form of an integer matrix (JSON rows or file)")
    p.add_argument("matrix")

    p = add("selftest", cmd_selftest, "run the acceptance suites")
    p.add_argument("--deep", action="store_true", help="raise the brute-force subset limit from 12 to 32")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (RootPrimesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
