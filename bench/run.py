"""The rootprimes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the library under src/ through
its public API.  Each workload runs in fresh single-threaded worker
processes (bench/worker.py), one at a time, so at most two processes run:
this runner and one worker.  The load is a closed loop with one caller.

Workloads (the reasons are in bench/inputs.py):

* cold-certify: one op is one datum (84 presets of rank <= 8 and their
  duals): from_dict, dual, validate, the derived data, then for every prime
  <= 30 report, build_certificate, a JSON round trip, verify_certificate,
  classify and smoothness_verdict.  A worker makes one pass over the 168
  data, and further passes run in new workers only while they fit in
  --seconds, so a run measures at least one whole pass.  More workers then
  only set up, until five set-ups are timed for the median setup_s.
* warm-sweep: set-up loads and derives the same 168 data; one op is report
  plus smoothness_verdict at one prime, sweeping the primes <= 30 as
  ``primes --text`` does.  Two workers each set up and then sweep for half
  of --seconds.
* oracle: one op is (datum, p), p in {2, 3, 5, 7}, over the 22 presets with
  at most 18 roots and their duals: the three subset oracles at limit 18, the
  full subset sweep when the datum has at most 12 roots, and report.  Its
  passes and set-ups run as for cold-certify.

--seed draws a unimodular change of basis for every datum, so no input is
value-equal to one a process has cached.  Every op is checked against the
golden verdicts in bench/golden.json.

Times are calibrated: each is scaled by CALIBRATION_REF_NS over the time of
the worker's calibration loop measured just before and after it (see
bench/worker.py); set-up, less the loop's own runs, by its mean time
during set-up.  On a shared machine whose speed drifts, this keeps runs
comparable; on an idle machine like the one the reference was taken on,
the factor is about 1.

With --trace 0 it prints the end-to-end metrics:

  setup_s       median, over the run's workers, of the time from starting a
                worker to its ready line: interpreter start, import, input
                generation and warm-up
  op_ms_p50     median op latency, as the mean of the ops ranked within
                5% of n of the median (see quantile())
  op_ms_p90     90th percentile op latency, likewise; at least 10 ops lie
                beyond it
  ops_per_s     ops per second of op time
  op_ok_ratio   ops that neither raised nor disagreed with the golden file,
                over ops attempted (1 - the failure ratio, which is 0 when
                all is well)
  peak_rss_mb   largest peak RSS (ru_maxrss) of a measuring worker

With --trace 1 it runs the ops once untraced and once traced (the same
inputs, in two workers), records a span around every library call, and
prints per-layer metrics named ``<module>.<call>``: ``.ms`` and ``.us`` are
the median self time per call, ``.calls`` the number of calls, plus the
count of each certificate kind, ``intlin.max_bits`` (the largest entry bit
length in the transforms that HNF and SNF return in the kernel probe, not
in their intermediates), ``trace.overhead_pct`` (traced minus untraced op
time) and ``trace.span_coverage`` (the share of op time inside layer
spans).  The kernel probe runs HNF, SNF and quotient_group on every
datum's root and coroot matrices, and in oracle also on every subset of
positive roots on each side, outside op spans.  Calls a workload's ops
never make run once per datum after the ops, also outside op spans, so
every workload reports every layer.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUPS = 5  # set-ups per cold or oracle run, for the median setup_s
WARM_WORKERS = 2  # each set-up derives all 168 data, about 12 s at reference speed
TRACE_SWEEPS = 10  # warm-sweep sweeps in each of the traced and untraced workers
RUN_LIMIT_S = 170  # every run ends within this, or fails
# the calibration loop's time on an idle Intel Xeon vCPU under Python 3.11.7
CALIBRATION_REF_NS = 2_500_000
QUANTILE_BAND = 0.05  # p50 and p90 average the ops ranked within 5% of n of them

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "ops/s",
    "op_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, unit); the value is the median self time per call
LAYER_TIMES = {
    "rootdatum.from_dict.ms": ("rootdatum.from_dict", "ms"),
    "rootdatum.dual.ms": ("rootdatum.dual", "ms"),
    "rootdatum.validate.ms": ("rootdatum.validate", "ms"),
    "rootdatum.simple_system.ms": ("rootdatum.simple_system", "ms"),
    "rootdatum.components.ms": ("rootdatum.components", "ms"),
    "rootdatum.x_mod_root_lattice.ms": ("rootdatum.x_mod_root_lattice", "ms"),
    "rootdatum.y_mod_coroot_lattice.ms": ("rootdatum.y_mod_coroot_lattice", "ms"),
    "rootdatum.cache_hit_us": ("rootdatum.cache_hit", "us"),
    "rootdatum.hash_us": ("rootdatum.hash", "us"),
    "subsystems.highest_roots.ms": ("subsystems.highest_roots", "ms"),
    "primes.bad_primes.ms": ("primes.bad_primes", "ms"),
    "primes.report.us": ("primes.report", "us"),
    "primes.good_via_torsion.ms": ("primes.good_via_torsion", "ms"),
    "primes.very_good_via_torsion.ms": ("primes.very_good_via_torsion", "ms"),
    "primes.pretty_good_bruteforce.ms": ("primes.pretty_good_bruteforce", "ms"),
    "primes.pretty_good_full_sweep.ms": ("primes.pretty_good_full_sweep", "ms"),
    "certificates.build.ms": ("certificates.build", "ms"),
    "certificates.to_json.ms": ("certificates.to_json", "ms"),
    "certificates.from_json.ms": ("certificates.from_json", "ms"),
    "certificates.verify.ms": ("certificates.verify", "ms"),
    "standardness.classify.ms": ("standardness.classify", "ms"),
    "standardness.smoothness_verdict.us": ("standardness.smoothness_verdict", "us"),
    "intlin.hnf.ms": ("intlin.hnf", "ms"),
    "intlin.snf.ms": ("intlin.snf", "ms"),
    "intlin.quotient_group.ms": ("intlin.quotient_group", "ms"),
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "primes.report.calls": "primes.report",
    "intlin.hnf.calls": "intlin.hnf",
    "intlin.snf.calls": "intlin.snf",
    "intlin.quotient_group.calls": "intlin.quotient_group",
}
# per-layer metrics that are counters written by the worker
LAYER_COUNTERS = (
    "certificates.kind.pretty-good-proof",
    "certificates.kind.center-torsion",
    "certificates.kind.bad-prime-subsystem",
    "certificates.kind.coxeter-torsion",
    "intlin.max_bits",
)
PHASES = ("op", "setup", "probe")  # spans that are not library calls


class BenchError(Exception):
    pass


def speed(loop_ns: list[int]) -> float:
    """Reference over measured time of the calibration loop."""
    return CALIBRATION_REF_NS * len(loop_ns) / sum(loop_ns)


def calibrated(samples):
    """Map (time, duration) in ns to the duration at the reference speed.

    The speed is taken from the calibration samples just before and just
    after the time.
    """
    times = [t for t, _ in samples]

    def scale(t: int, duration: float) -> float:
        i = bisect.bisect_right(times, t)
        return duration * speed([d for _, d in samples[max(i - 1, 0): i + 1]])

    return scale


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.spans = OUT / f"spans-{workload}-{seed}.jsonl"
        self.setups: list[float] = []
        self.results: list[dict] = []

    def worker(self, copy: int, ops: bool, trace: int = 0, **extra) -> dict | None:
        cfg = {"workload": self.workload, "seed": self.seed, "copy": copy, "ops": int(ops), "trace": trace}
        if trace:
            cfg["spans"] = str(self.spans)
        cfg.update(extra)
        env = dict(os.environ, PYTHONHASHSEED="0")  # the same string hashing in every worker
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        # a run that outlives RUN_LIMIT_S is killed, and then fails below
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"{self.workload} worker exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        samples = result["calibration_ns"]
        # set-up without the calibration loop's own runs, at the speed they measured
        during = [d for t, d in samples if t <= result["ready_ns"]]
        self.setups.append((setup - sum(during) / 1e9) * speed(during))
        scale = calibrated(samples)
        result["raw_op_s"] = sum(result["op_ns"]) / 1e9
        result["op_ns"] = [scale(start, ns) for start, ns in zip(result["op_start_ns"], result["op_ns"])]
        if ops:
            self.results.append(result)
        return result

    def measure(self, seconds: float):
        if self.workload == "warm-sweep":
            for copy in range(WARM_WORKERS):
                self.worker(copy, True, seconds=seconds / WARM_WORKERS)
            return
        # whole passes, each in a fresh worker, while another one fits
        copy, spent = 0, 0.0
        while True:
            result = self.worker(copy, True)
            copy += 1
            last = result["raw_op_s"]
            spent += last
            if spent + last > seconds:
                break
        while len(self.setups) < SETUPS:
            self.worker(copy, False)
            copy += 1

    def traced(self) -> dict:
        extra = {"sweeps": TRACE_SWEEPS} if self.workload == "warm-sweep" else {}
        plain = self.worker(0, True, **extra)
        traced = self.worker(0, True, trace=1, **extra)
        scale = calibrated(traced["calibration_ns"])
        return layer_metrics(self.spans, scale, sum(plain["op_ns"]), sum(traced["op_ns"]))


def quantile(ordered: list[float], q: float) -> float:
    """The q-quantile as the mean of the values ranked within QUANTILE_BAND of it.

    Op times are noisy by several percent each, so a single order statistic
    jumps whenever two ops near it swap ranks; the band mean does not.
    """
    n = len(ordered)
    lo, hi = round((q - QUANTILE_BAND) * n), round((q + QUANTILE_BAND) * n)
    if n - round(q * n) < 10:
        raise BenchError(f"only {n} ops, too few for a {q} quantile with ten beyond it")
    return statistics.fmean(ordered[lo:hi])


def end_to_end(runner: Runner) -> dict:
    lat = sorted(ns for r in runner.results for ns in r["op_ns"])
    n = len(lat)
    attempted = sum(r["attempted"] for r in runner.results)
    failed = sum(r["failed"] for r in runner.results)
    return {
        "setup_s": statistics.median(runner.setups),
        "op_ms_p50": quantile(lat, 0.5) / 1e6,
        "op_ms_p90": quantile(lat, 0.9) / 1e6,
        "ops_per_s": n / (sum(lat) / 1e9),
        "op_ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runner.results) / 1024,
    }


def layer_metrics(path: Path, scale, plain_ns: float, traced_ns: float) -> dict:
    spans, counters = [], {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] = rec["value"]
            else:
                spans.append(rec)
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    self_ns = defaultdict(list)
    op_ns = covered_ns = 0
    for i, s in enumerate(spans):
        if s["name"] == "op":
            op_ns += s["end"] - s["start"]
            covered_ns += child_ns[i]
        if s["name"] not in PHASES:
            self_ns[s["name"]].append(scale(s["start"], s["end"] - s["start"] - child_ns[i]))
    ns_per_unit = {"ms": 1e6, "us": 1e3}
    metrics = {}
    for metric, (name, unit) in LAYER_TIMES.items():
        if not self_ns[name]:
            raise BenchError(f"the traced run made no {name} call")
        metrics[metric] = (statistics.median(self_ns[name]) / ns_per_unit[unit], unit)
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = (len(self_ns[name]), "count")
    for name in LAYER_COUNTERS:
        metrics[name] = (counters.get(name, 0), "bits" if name.endswith("bits") else "count")
    metrics["trace.overhead_pct"] = (100 * (traced_ns - plain_ns) / plain_ns, "%")
    metrics["trace.span_coverage"] = (covered_ns / op_ns, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind, so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "rootprimes" / "__init__.py").is_file():
        print(f"no rootprimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics = runner.traced()
        else:
            runner.measure(args.seconds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(runner).items()}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runner.results)
    failed = sum(r["failed"] for r in runner.results)
    for r in runner.results:
        for err in r["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
