"""One benchmark worker process: set up a workload, run its ops, check them, report.

bench/run.py starts it as ``python3 bench/worker.py CONFIG_JSON`` in a fresh
interpreter, so caches start empty.  The worker prints ``ready`` once set-up
is done (bench/run.py times set-up up to that line), then one JSON line with
the op latencies, the calibration samples, the failure count and its own
peak RSS.  With tracing on it also writes its spans and counters as JSON
lines when it ends.

The machine's speed drifts by tens of percent within seconds when other
processes share it, and the drift slows all interpreted code alike.  So
between ops the worker times a fixed loop of the benchmark's own
(:func:`calibration_loop`), before every op or, where ops take microseconds,
every ``calibrate_every_ns``; bench/run.py scales each op by the loop's
reference time over its time measured just before and after the op.

CONFIG_JSON keys: workload, seed, copy (which scrambled basis to draw),
ops (0 for a set-up-only worker), seconds (warm-sweep: time to sweep for),
sweeps (warm-sweep: a fixed number of sweeps instead), trace (0 or 1) and
spans (the file to write them to).  A cold-certify or oracle worker makes
one pass over its inputs.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import rootprimes  # noqa: E402

if not Path(rootprimes.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"rootprimes was imported from {rootprimes.__file__}, not from the checkout's src/")

from inputs import ORACLE_PRIMES, PRIMES, RANK8, SMALL, load_golden, scrambled  # noqa: E402
from rootprimes import (  # noqa: E402
    Certificate,
    IntMatrix,
    RootDatum,
    bad_primes,
    build_certificate,
    classify,
    components,
    dual,
    good_via_torsion,
    hermite_normal_form,
    highest_roots,
    preset,
    pretty_good_bruteforce,
    pretty_good_full_sweep,
    quotient_group,
    report,
    simple_system,
    smith_normal_form,
    smoothness_verdict,
    validate,
    verify_certificate,
    very_good_via_torsion,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from rootprimes.rootdatum import positive_roots  # noqa: E402

perf_ns = time.perf_counter_ns
ORACLE_LIMIT = 18  # the brute-force subset limit of selftest --deep
FULL_SWEEP_LIMIT = 12  # every subset of the roots, not just closure classes
PROBE_PRIME = 2


def calibration_loop() -> int:
    """Fixed interpreted work like the library's: integer row operations,
    tuple hashing, set lookups and Fraction arithmetic."""
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(8)] for i in range(24)]
    seen = set()
    for _ in range(4):
        for i in range(len(rows)):
            for k in range(i + 1, len(rows)):
                a, b = rows[i][i % 8] or 1, rows[k][i % 8]
                rows[k] = [(x * a - y * b) % 1000003 for x, y in zip(rows[k], rows[i])]
            seen.add(tuple(rows[i]))
        for r in rows:
            hash(tuple(tuple(r) for _ in range(8)))
            _ = tuple(r) in seen
    f = Fraction(1)
    for i in range(1, 300):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    return len(seen) + f.denominator % 7


class Calibration:
    """(time, duration) samples of :func:`calibration_loop`, in ns."""

    def __init__(self, every_ns: int):
        self.every_ns = every_ns
        self.samples: list[tuple[int, int]] = []
        self._last = 0

    def sample(self):
        # without collections, so the size of the library's heap cannot slow the loop
        gc.disable()
        try:
            start = perf_ns()
            calibration_loop()
            end = perf_ns()
        finally:
            gc.enable()
        self.samples.append((start, end - start))
        self._last = end

    def maybe(self):
        if perf_ns() - self._last >= self.every_ns:
            self.sample()


class Tracer:
    """Spans around the benchmark's calls into the library, kept in memory.

    A span is (name, start ns, end ns, parent span index, op id).  Calls are
    made through :meth:`call`, which only calls through while tracing is off.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._parent = None
        self._op = None

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_ns()
        out = fn(*args)
        self.spans.append([name, start, perf_ns(), self._parent, self._op])
        return out

    def timed(self, kind, op_id, body, *args):
        """Run one op (or the set-up or probe phase) as a span.

        Returns ((start ns, duration ns), result).
        """
        if self.on:
            self._op, self._parent = op_id, len(self.spans)
            self.spans.append([kind, 0, 0, None, op_id])
        start = perf_ns()
        try:
            out = body(self, *args)
        finally:
            end = perf_ns()
            if self.on:
                self.spans[self._parent][1:3] = start, end
                self._op = self._parent = None
        return (start, end - start), out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "value": value}) + "\n")
            fh.write(json.dumps({"counter": "intlin.max_bits", "value": self.max_bits}) + "\n")


# ---------------------------------------------------------------------------
# The library calls, one span each, in a fixed order
# ---------------------------------------------------------------------------


def load(tr, entry):
    _, side, data = entry
    datum = tr.call("rootdatum.from_dict", RootDatum.from_dict, data)
    if side == "dual":
        datum = tr.call("rootdatum.dual", dual, datum)
    return datum


def derive(tr, d):
    return {
        "violations": tr.call("rootdatum.validate", validate, d),
        "simple_system": tr.call("rootdatum.simple_system", simple_system, d),
        "components": tr.call("rootdatum.components", components, d),
        "highest_roots": tr.call("subsystems.highest_roots", highest_roots, d),
        "bad_primes": tr.call("primes.bad_primes", bad_primes, d),
        "x_mod_root_lattice": tr.call("rootdatum.x_mod_root_lattice", x_mod_root_lattice, d),
        "y_mod_coroot_lattice": tr.call("rootdatum.y_mod_coroot_lattice", y_mod_coroot_lattice, d),
    }


def certify(tr, d, p):
    """What the primes --text, certificate and classify commands compute at p."""
    rep = tr.call("primes.report", report, d, p)
    cert = tr.call("certificates.build", build_certificate, d, p)
    text = tr.call("certificates.to_json", cert.to_json)
    back = tr.call("certificates.from_json", Certificate.from_json, text)
    return {
        "report": rep,
        "cert": cert,
        "verified": tr.call("certificates.verify", verify_certificate, back),
        "classify": tr.call("standardness.classify", classify, d, p),
        "smoothness_verdict": tr.call("standardness.smoothness_verdict", smoothness_verdict, d, p),
    }


def sweep(tr, d, p):
    """One row of primes --text."""
    return {
        "report": tr.call("primes.report", report, d, p),
        "smoothness_verdict": tr.call("standardness.smoothness_verdict", smoothness_verdict, d, p),
    }


def oracle(tr, d, p):
    """The definitional subset sweeps next to the fast predicate."""
    out = {
        "good": tr.call("primes.good_via_torsion", good_via_torsion, d, p, ORACLE_LIMIT),
        "very_good": tr.call("primes.very_good_via_torsion", very_good_via_torsion, d, p, ORACLE_LIMIT),
        "pretty_good": tr.call("primes.pretty_good_bruteforce", pretty_good_bruteforce, d, p, ORACLE_LIMIT),
    }
    if d.num_roots <= FULL_SWEEP_LIMIT:
        out["pretty_good_full"] = tr.call(
            "primes.pretty_good_full_sweep", pretty_good_full_sweep, d, p, FULL_SWEEP_LIMIT
        )
    out["report"] = tr.call("primes.report", report, d, p)
    return out


# ---------------------------------------------------------------------------
# Checks against the golden verdicts
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, tr: Tracer):
        self.golden = load_golden()
        self.tr = tr
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def side(self, entry) -> dict:
        name, side, _ = entry
        return self.golden["presets"][name][side]

    def flags(self, rep) -> str:
        return "".join(str(int(getattr(rep, f))) for f in self.golden["flags"])

    def derived(self, entry, got) -> list[str]:
        g = self.side(entry)
        bad = []
        if got["violations"]:
            bad.append(f"validate: {got['violations'][:2]}")
        if sorted(got["bad_primes"]) != g["bad_primes"]:
            bad.append("bad_primes")
        for key in ("x_mod_root_lattice", "y_mod_coroot_lattice"):
            if got[key].to_dict() != g[key]:
                bad.append(key)
        return bad

    def at_prime(self, entry, p, got) -> list[str]:
        g = self.side(entry)["primes"][str(p)]
        pretty_good = int(g["report"][self.golden["flags"].index("pretty_good")])
        bad = []
        rep = got["report"]
        if rep.p != p or self.flags(rep) != g["report"]:
            bad.append(f"report {self.flags(rep)} != {g['report']}")
        if "smoothness_verdict" in got and got["smoothness_verdict"] != self.golden["smoothness_verdict"][pretty_good]:
            bad.append("smoothness_verdict")
        if "classify" in got and got["classify"] != self.golden["classify"][pretty_good]:
            bad.append("classify")
        if "cert" in got:
            cert = got["cert"]
            self.tr.counts["certificates.kind." + cert.kind] += 1
            if cert.kind != g["kind"]:
                bad.append(f"certificate kind {cert.kind} != {g['kind']}")
            elif {k: cert.payload.get(k) for k in g["payload"]} != g["payload"]:
                bad.append("certificate payload")
            if got["verified"] is not True:
                bad.append("certificate does not verify")
        for key in ("good", "very_good", "pretty_good"):
            if key in got and int(got[key]) != int(g["report"][self.golden["flags"].index(key)]):
                bad.append(f"oracle {key}")
        if "pretty_good_full" in got and int(got["pretty_good_full"]) != pretty_good:
            bad.append("oracle pretty_good_full")
        return bad

    def record(self, what, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(problems)}")


def checked(fn, *args):
    """Call fn; an exception becomes the problem list of a failed call."""
    try:
        return fn(*args), []
    except Exception as exc:  # any raise is a failed op, counted and reported
        return None, [f"{type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def preset_dict(name: str) -> dict:
    return preset(name).to_dict()


class Workload:
    """Inputs plus ops of one workload; ``covers`` names the call groups its ops make."""

    names: tuple = ()
    covers: set = set()
    calibrate_every_ns = 0

    def __init__(self, cfg, tr: Tracer, checker: Checker):
        self.cfg, self.tr, self.checker = cfg, tr, checker
        self.entries = scrambled(self.names, preset_dict, cfg["seed"], cfg["copy"])
        self.cal = Calibration(self.calibrate_every_ns)
        # op start and duration in ns, compact so that they barely move the peak RSS
        self.op_start, self.op_ns = array("q"), array("q")
        self.data: list = []  # (entry, datum, derived-ok) after the ops or set-up load them

    def setup(self):
        pass

    def derive_all(self):
        """Load and derive every datum, checking the derived data."""

        def body(tr):
            out = []
            for entry in self.entries:
                self.cal.maybe()
                try:
                    d = load(tr, entry)
                    out.append((entry, d, not self.checker.derived(entry, derive(tr, d))))
                except Exception as exc:  # the datum's ops are then never attempted
                    self.checker.record(f"set-up {entry[:2]}", [f"{type(exc).__name__}: {exc}"])
            return out

        _, self.data = self.tr.timed("setup", "setup", body)

    def run_op(self, op_id, what, body, *args):
        self.cal.maybe()
        try:
            (start, ns), got = self.tr.timed("op", op_id, body, *args)
        except Exception as exc:  # a raising op is a failed op
            self.checker.record(what, [f"{type(exc).__name__}: {exc}"])
            return None
        self.op_start.append(start)
        self.op_ns.append(ns)
        return got

    def prime_op(self, op_id, entry, d, ok, p, body):
        """One op on a datum derived in set-up (ok says its derived data checked out)."""
        got = self.run_op(op_id, (entry[:2], p), body, d, p)
        if got is not None:
            problems = [] if ok else ["derived data wrong"]
            self.checker.record((entry[:2], p), problems + self.checker.at_prime(entry, p, got))

    def probe(self):
        """Calls the ops do not make, outside op spans, so every layer is traced."""
        tr, check = self.tr, self.checker
        if "certify" not in self.covers:
            for entry, d, _ in self.data:
                self.cal.maybe()
                got, problems = checked(certify, tr, d, PROBE_PRIME)
                check.record(f"probe certify {entry[:2]}", problems or check.at_prime(entry, PROBE_PRIME, got))
        if "oracle" not in self.covers:
            for entry, d, _ in self.data:
                self.cal.maybe()
                if d.num_roots <= FULL_SWEEP_LIMIT:
                    got, problems = checked(oracle, tr, d, PROBE_PRIME)
                    check.record(f"probe oracle {entry[:2]}", problems or check.at_prime(entry, PROBE_PRIME, got))
        for _, d, _ in self.data:
            self.cal.maybe()
            for _ in range(5):
                tr.call("rootdatum.cache_hit", components, d)
                tr.call("rootdatum.hash", hash, d)
        for _, d, _ in self.data:
            self.cal.maybe()
            self.kernel_probe(d)

    def kernel_probe(self, d):
        matrices = [d.root_matrix(), d.coroot_matrix()]
        if "oracle" in self.covers:
            for side in (d, dual(d)):
                pos = [side.roots[i] for i in positive_roots(side)]
                for k in range(1, len(pos) + 1):
                    for rows in combinations(pos, k):
                        matrices.append(IntMatrix.from_rows(rows, cols=d.rank))
        tr = self.tr
        for m in matrices:
            _, u = tr.call("intlin.hnf", hermite_normal_form, m)
            snf = tr.call("intlin.snf", smith_normal_form, m)
            tr.call("intlin.quotient_group", quotient_group, d.rank, m)
            for t in (u, snf.U, snf.V):
                tr.max_bits = max(tr.max_bits, max((abs(x).bit_length() for x in t.entries), default=0))


class ColdCertify(Workload):
    names = RANK8
    covers = {"certify"}

    def measure(self):
        def body(tr, entry):
            d = load(tr, entry)
            derived = derive(tr, d)
            return d, derived, {p: certify(tr, d, p) for p in PRIMES}

        for op_id, entry in enumerate(self.entries):
            got = self.run_op(op_id, entry[:2], body, entry)
            if got is None:
                continue
            d, derived, per_prime = got
            problems = self.checker.derived(entry, derived)
            for p, out in per_prime.items():
                problems += self.checker.at_prime(entry, p, out)
            self.checker.record(entry[:2], problems)
            self.data.append((entry, d, not problems))


class WarmSweep(Workload):
    names = RANK8
    covers = {"sweep"}
    calibrate_every_ns = 100_000_000  # ops take tens of microseconds, the loop milliseconds

    def setup(self):
        self.derive_all()

    def one_sweep(self, op_id):
        for entry, d, ok in self.data:
            for p in PRIMES:
                self.prime_op(op_id, entry, d, ok, p, sweep)
                op_id += 1
        return op_id

    def measure(self):
        op_id = 0
        if "sweeps" in self.cfg:
            for _ in range(self.cfg["sweeps"]):
                op_id = self.one_sweep(op_id)
            return
        deadline = perf_ns() + int(self.cfg["seconds"] * 1e9)
        while perf_ns() < deadline:
            op_id = self.one_sweep(op_id)


class Oracle(Workload):
    names = SMALL
    covers = {"oracle"}

    def setup(self):
        self.derive_all()

    def measure(self):
        op_id = 0
        for entry, d, ok in self.data:
            for p in ORACLE_PRIMES:
                self.prime_op(op_id, entry, d, ok, p, oracle)
                op_id += 1


WORKLOAD_CLASSES = {"cold-certify": ColdCertify, "warm-sweep": WarmSweep, "oracle": Oracle}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    tr = Tracer(on=bool(cfg["trace"]))
    checker = Checker(tr)
    work = WORKLOAD_CLASSES[cfg["workload"]](cfg, tr, checker)
    work.cal.sample()
    work.setup()
    work.cal.sample()
    ready_ns = perf_ns()
    print("ready", flush=True)
    if cfg["ops"]:
        work.measure()
        work.cal.sample()
        if tr.on:
            tr.timed("probe", "probe", lambda _tr: work.probe())
            work.cal.sample()
            tr.write(Path(cfg["spans"]))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "op_start_ns": work.op_start.tolist(),
        "op_ns": work.op_ns.tolist(),
        "calibration_ns": work.cal.samples,
        "ready_ns": ready_ns,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "peak_rss_kb": peak_rss_kb,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
