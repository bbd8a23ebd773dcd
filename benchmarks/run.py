"""Benchmark of the braidtiles package.

    python3 benchmarks/run.py --workload {verify,words,matrices,tiles} \
        --seed N --seconds 25 [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One run builds the workload's batch from the seed, times it pass
after pass for ``--seconds``, checks every answer against ground truth
outside the timed region, prints a table, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, rescaled to a nominal host speed by
``reference.py``; with ``--trace 1`` every other pass runs with spans
around the calls into each layer, and the metrics are the per-layer ones,
in wall-clock time.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # a traced run needs one untraced and one traced pass
HARD_STOP_S = 140  # a run must end within 180 s whatever the code's speed
SETUP_LAUNCHES = 3  # import timings per pass
# String hashing is salted per process, and the salt alone moved the paper
# suite's time by 8% from one process to the next; every run uses this one.
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("small_s", "s"),
    ("large_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

VERIFY_CHECKS = (
    "word-problem-agreement",
    "half-twist-relation",
    "half-twist-well-defined",
    "witness-half-twist-trivial",
    "witness-coxeter-certificate",
    "symplectic-well-defined",
    "chain-pairing-tridiagonal",
    "cabling-homomorphism",
    "cabling-blockwise-discrepancy",
    "tile-algebra",
    "abelianizations",
    "permutation-factorization-and-mirroring",
    "random-word-problem",
    "random-symplectic-images",
    "random-interchange",
    "random-wreath-multiplicative",
    "random-cabling",
    "random-factorization-mirroring",
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    out = []

    def add(names, unit="s"):
        out.extend((n, unit) for n in names)

    add(["braid.handle_reduce.calls", "braid.handle_reduce.letters"], "count")
    add(["braid.handle_reduce.self_s"] + [f"braid.handle_reduce.L{n}.self_s" for n in (200, 400, 800)])
    add(["braid.is_trivial.calls"], "count")
    add(["braid.is_trivial.self_s"] + [f"braid.is_trivial.L{n}.self_s" for n in (16, 32, 48, 64)])
    add(["braid.artin_action.calls"], "count")
    add(["braid.artin_action.self_s"])
    add(["braid.equal.calls", "linalg.matmul.calls", "linalg.matmul.mults"], "count")
    add(["linalg.matmul.self_s"])
    add(["linalg.inverse.calls"], "count")
    add(["linalg.inverse.self_s", "linalg.is_symplectic.self_s"])
    add(["linalg.snf.calls", "linalg.snf.cells"], "count")
    add(["linalg.snf.useful_rows_ratio"], "ratio")
    add(["linalg.snf.self_s"])
    add(["homs.braid_to_symplectic.calls", "homs.braid_to_symplectic.letters"], "count")
    add(["homs.braid_to_symplectic.self_s"] + [f"homs.braid_to_symplectic.g{g}.s" for g in (2, 5, 10, 20)])
    add([f"homs.{f}.self_s" for f in ("edge_transvection_image", "half_twist_image", "wreath_symplectic",
                                      "cabling_discrepancy")])
    add(["artin.presentation_from_graph.calls", "artin.presentation_from_graph.relators"], "count")
    add(["artin.presentation_from_graph.self_s", "artin.abelianization.self_s"]
        + [f"artin.abelianization.E{e}.s" for e in (9, 19, 39, 79)])
    add(["artin.coxeter_image.calls"], "count")
    add(["artin.coxeter_image.self_s", "artin.certify_nontrivial.self_s"])
    add([f"tiles.{f}.self_s" for f in ("parse", "format", "marked_graph_of", "enumerate")])
    add(["tiles.normal_form.calls", "tiles.normal_form.atoms"], "count")
    add(["tiles.normal_form.self_s"] + [f"tiles.normal_form.D{d}.s" for d in (100, 300, 900)])
    add(["tiles.deep_probe.failed"], "count")
    add([f"verify.{c}.s" for c in VERIFY_CHECKS] + ["cli.main.self_s"])
    layers = ("braid", "linalg", "homs", "artin", "tiles", "verify", "cli")
    add([f"{layer}.self_s" for layer in layers] + [f"{layer}.busy_s" for layer in layers])
    add(["trace.untraced_s", "trace.traced_s"])
    add(["trace.overhead_ratio"], "ratio")
    return tuple(out)


PER_LAYER = _per_layer()


def percentile(values, q: float) -> float:
    """Quantile q of the values, interpolated between neighbours (the
    ``inclusive`` method of ``statistics.quantiles``), so that two
    operations swapping ranks near the quantile do not make it jump."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(100 * q) - 1]


def import_times(launches: int) -> list[float]:
    """Seconds that ``import braidtiles`` takes in each of ``launches``
    fresh interpreters, at the nominal speed of ``reference``: each
    interpreter times ``reference.sample()`` a few times right after the
    import, and the import time is scaled by the median of those."""
    code = (
        "import sys, time, statistics; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import braidtiles; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "import reference; s = []\n"
        "for _ in range(15): a = time.perf_counter(); reference.sample(); s.append(time.perf_counter() - a)\n"
        "print(t * reference.NOMINAL_S / statistics.median(s))"
    )
    times = []
    for _ in range(launches):
        out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def deep_probe_failures() -> int:
    out = subprocess.run([sys.executable, str(HERE / "deep_probe.py")], capture_output=True, text=True,
                         check=True, timeout=120)
    return int(out.stdout.split()[-1])


class Batch:
    """Timings, digests and failures of one workload's operations, pass by
    pass.  Answers are checked against ground truth on the first pass and
    must be reproduced exactly on every later one."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.times: list[list[tuple[int, float]]] = [[] for _ in ops]  # (pass, seconds)
        self.spans: list[list[tuple[float, float]]] = [[] for _ in ops]  # (start, end), one a pass
        self.parts: dict[str, list[tuple[int, float]]] = {}
        self.digests: list = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def run_pass(self, tracer=None, probe=None) -> None:
        """One pass over the operations.  With a running ``reference.Probe``,
        the time its samples take is left out of the operation they
        interrupt."""
        p = self.passes
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = (p, i)
            start = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                error = exc
            end = time.perf_counter()
            spent = probe.spent_within(start, end) if probe is not None else 0.0
            self.times[i].append((p, end - start - spent))
            self.spans[i].append((start, end))
            if error is not None:
                self.attempted += 1
                self._fail(op, f"raised {error!r}")
                continue
            self._account(i, op, result, p)
        self.passes += 1

    def rescale(self, factor) -> None:
        """Replace every time t by ``t * factor(start, end)`` of its span."""
        self.times = [[(p, t * factor(*span)) for (p, t), span in zip(times, spans)]
                      for times, spans in zip(self.times, self.spans)]

    def _account(self, i: int, op, result, p: int) -> None:
        """A plain operation is one attempt.  A suite is one attempt per
        check, failed when the check failed; if the suite as a whole fails
        its ground truth or differs from the first pass while none of its
        checks failed, that counts as one failure of its own."""
        records = op.parts(result) if op.parts is not None else []
        for name, seconds, _ in records:
            self.parts.setdefault(name, []).append((p, seconds))
        self.attempted += max(len(records), 1)
        failed_checks = sum(failed for _, _, failed in records)
        self.failed += failed_checks
        digest = op.digest(result)
        if p == 0:
            self.digests[i] = digest
            if not op.check(result):
                self._fail(op, "answer differs from the ground truth", count=failed_checks == 0)
        elif digest != self.digests[i]:
            self._fail(op, "answer differs from the first pass", count=failed_checks == 0)

    def _fail(self, op, why: str, count: bool = True) -> None:
        if count:
            self.failed += 1
        print(f"FAILED {op.kind} [{op.tag}]: {why}", file=sys.stderr)

    def typical(self, passes) -> list[float]:
        """Each operation's median time over the given passes."""
        return [statistics.median(t for p, t in times if p in passes) for times in self.times]

    def typical_parts(self, passes) -> dict[str, float]:
        return {name: statistics.median(t for p, t in times if p in passes)
                for name, times in self.parts.items()}


def measure(batch: Batch, seconds: float, tracer=None, setup: list | None = None):
    """Run passes for about ``seconds``: at least ``MIN_PASSES``, then as
    many as end within half a pass of ``seconds``.  A ``reference.Probe``
    runs through every pass, and each operation's time is rescaled to the
    nominal speed of the host around it.  With a tracer, odd passes run
    traced and even ones untraced.  With a ``setup`` list, a few import timings are taken before the
    first pass and after each pass, so that they sample the whole run.

    Successive passes run on successive CPUs (one at a time; the process
    stays single-threaded), so that every run samples each CPU alike, and
    each operation's time is the median of its passes.  Returns the probe."""
    probe = reference.Probe()
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    try:
        if setup is not None:
            import_times(1)  # leaves the bytecode cache warm
            setup += import_times(SETUP_LAUNCHES)
        pass_start = time.perf_counter()
        while True:
            os.sched_setaffinity(0, {cpus[batch.passes % len(cpus)]})
            gc.collect()
            gc.freeze()  # the collector skips what exists now: the inputs, answers and harness
            traced = tracer is not None and batch.passes % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                probe.start()
                try:
                    batch.run_pass(tracer if traced else None, probe)
                finally:
                    probe.stop()
            if setup is not None:
                setup += import_times(SETUP_LAUNCHES)
            now = time.perf_counter()
            elapsed, last, pass_start = now - start, now - pass_start, now
            if batch.passes >= MIN_PASSES and elapsed + last / 2 >= seconds:
                break  # the next pass would end more than half a pass late
            if batch.passes >= 2 and elapsed * (batch.passes + 1) / batch.passes > HARD_STOP_S:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    batch.rescale(probe.factor)
    return probe


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end_metrics(batch: Batch, setup: list[float]) -> dict[str, float]:
    """Every timing starts from each operation's median pass, and set-up
    from the median import.  Class times are the class's operation count
    times the geometric mean of their times: a batch time in which no
    single input's cost, which the seed can swing threefold, outweighs the
    rest.  ``ops_per_s`` is operations over the plain sum of their times."""
    times = batch.typical(range(batch.passes))
    small = [t for t, op in zip(times, batch.ops) if not op.large]
    large = [t for t, op in zip(times, batch.ops) if op.large]
    small_s = len(small) * geometric_mean(small)
    large_s = len(large) * geometric_mean(large)
    return {
        "setup_s": statistics.median(setup),
        "small_s": small_s,
        "large_s": large_s,
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * percentile(times, 0.5),
        "latency_p90_ms": 1000 * percentile(times, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(batch: Batch, tracer, probe) -> dict[str, float]:
    """Layer totals over one execution of each operation: its median traced
    pass (the lower one of an even count), in wall-clock time less the
    probe's samples.  Per-check verify times come from the untraced passes,
    as does the base of the tracing overhead, which compares rescaled
    times, so that a change of host speed between passes does not show."""
    import spans

    untraced = range(0, batch.passes, 2)
    traced = range(1, batch.passes, 2)
    keep = {}
    for i, times in enumerate(batch.times):
        runs = sorted((t, p) for p, t in times if p in traced)
        keep[(runs[(len(runs) - 1) // 2][1], i)] = batch.ops[i].tag
    totals = spans.aggregate(tracer.spans, keep, probe.spent_within)
    rows = totals.get("linalg.snf.rows", 0)
    totals["linalg.snf.useful_rows_ratio"] = totals.get("linalg.snf.useful_rows", 0) / rows if rows else 0.0
    for name, seconds in batch.typical_parts(untraced).items():
        totals[f"verify.{name}.s"] = seconds
    totals["tiles.deep_probe.failed"] = deep_probe_failures()
    totals["trace.untraced_s"] = sum(batch.typical(untraced))
    totals["trace.traced_s"] = sum(batch.typical(traced))
    totals["trace.overhead_ratio"] = totals["trace.traced_s"] / totals["trace.untraced_s"]
    return {name: totals.get(name, 0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        args = sys.argv[1:] if argv is None else list(argv)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *args],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "words", "matrices", "tiles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; BENCHMARK.json's run_seconds, passed on every run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidtiles" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'braidtiles'}; run from a braidtiles checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidtiles
    import spans
    import workloads

    if Path(braidtiles.__file__).resolve().parent != SRC / "braidtiles":
        print(f"error: imported braidtiles from {braidtiles.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "matrices":
        ops = workloads.matrices(args.seed, with_e79=bool(args.trace))
    else:
        ops = workloads.BUILDERS[args.workload](args.seed)
    batch = Batch(ops)
    tracer = spans.Tracer() if args.trace else None
    setup: list[float] = []
    probe = measure(batch, args.seconds, tracer, None if args.trace else setup)

    if args.trace:
        values = per_layer_metrics(batch, tracer, probe)
        units = dict(PER_LAYER)
    else:
        values = end_to_end_metrics(batch, setup)
        units = dict(END_TO_END)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(ops)} operations "
          f"(the latency samples), {batch.passes} passes")
    print(f"  {'error_rate':<44} {batch.failed / batch.attempted:>14.6g} ratio "
          f"({batch.failed} of {batch.attempted} failed)")
    print(f"  {'reference sample, wall clock (median)':<44} "
          f"{1000 * statistics.median(probe.durations):>14.6g} ms (nominal {1000 * reference.NOMINAL_S:g})")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    metrics = {
        name: {"value": int(value) if units[name] == "count" else value, "unit": units[name]}
        for name, value in values.items()
    }
    print(json.dumps({"correct": batch.failed == 0, "attempted": batch.attempted, "failed": batch.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
