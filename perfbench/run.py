"""Run one benchmark workload against the package in ``src/`` and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The package is imported from
``src/`` of that checkout, never from an installed copy; without it the run
exits with code 2 and prints no result.

With ``--trace 0`` the run measures the end-to-end metrics, untraced: it
repeats the workload's pass of operations for ``--seconds`` (longer if the
tail percentile needs more samples), then re-runs one pass under the tracer
to check the counted model positions of every decode, re-runs the default
seed's pass to compare against ``expected.json``, and sets the workload up
again in fresh processes to take the median set-up time. Times are scaled
to a nominal machine speed measured by a reference loop next to each timed
call (see ``reference_s``); the unscaled figures are printed too.

With ``--trace 1`` it alternates untraced and traced passes for
``--seconds`` and reports per-layer metrics of the traced passes, per pass,
plus the tracing overhead. Spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed and 1 otherwise.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "reflectspec"
EXPECTED = HERE / "expected.json"
TRACE_DIR = HERE / "traces"

# setup_s is the median of this many set-ups: this process plus fresh ones.
SETUP_REPEATS = 7
# No measurement runs past this, whatever the tail percentile still needs.
MEASURE_LIMIT_S = 120.0
# The tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# Nominal wall time of one reference loop, in seconds: a round figure near
# its time on a shared 2-vCPU x86 cloud container. End-to-end times are
# reported at this machine speed; see ``reference_s``.
REFERENCE_S = 0.004


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import ``reflectspec`` from this checkout's ``src/`` or exit with 2."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    import reflectspec

    if Path(reflectspec.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported reflectspec from {reflectspec.__file__}", file=sys.stderr)
        sys.exit(2)


class Checks:
    """Operation counts, failures, and the first record of each operation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name}: {message}", file=sys.stderr)

    def run(self, i: int, tracer=None):
        """Run operation ``i`` and check it; return (seconds, outcome) or None."""
        from workloads import Abort

        try:
            elapsed, result = self.workload.run(i, tracer)
            outcome = self.workload.outcome(i, result)
        except Abort:
            raise
        except Exception:  # a raising operation is a counted failure
            self.attempted += 1
            self.fail(traceback.format_exc())
            return None
        self.attempted += outcome.attempted
        errors = list(outcome.errors)
        if self.first.setdefault(i, outcome.record) != outcome.record:
            errors.append(f"operation {i} gave a different output on a repeat")
        for message in errors:
            self.fail(message)
        return elapsed, outcome


def run_pass(checks: Checks, tracer=None):
    """One traced or untraced pass; return (seconds, tokens, steps, records)."""
    seconds = tokens = steps = 0
    records = []
    for i in range(len(checks.workload)):
        got = checks.run(i, tracer)
        if got is None:
            records.append(None)
            continue
        elapsed, outcome = got
        seconds += elapsed
        tokens += outcome.tokens
        steps += outcome.steps
        records.append(outcome.record)
    return seconds, tokens, steps, records


def checked_pass(checks: Checks):
    """A pass under the tracer, which checks every decode's counted positions.

    Returns (digest, mat) of the pass.
    """
    from spans import Tracer
    from workloads import digest

    tracer = Tracer()
    with tracer.installed():
        _, tokens, steps, records = run_pass(checks, tracer)
    return digest(records), (tokens / steps if steps else 0.0)


def gate(name: str, seed: int, checks: Checks, pass_digest: str, pass_mat: float) -> None:
    """Compare the default seed's pass with ``expected.json``.

    ``pass_digest`` and ``pass_mat`` describe this run's pass; at any other
    seed than the default, the default seed's pass is run here instead.
    """
    from workloads import WORKLOADS

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    default_seed = expected["default_seed"]
    if seed != default_seed:
        default_checks = Checks(WORKLOADS[name](default_seed))
        pass_digest, pass_mat = checked_pass(default_checks)
        checks.attempted += default_checks.attempted
        checks.failed += default_checks.failed
    want = expected["workloads"].get(name)
    print(f"# gate seed {default_seed}: digest {pass_digest} mat {pass_mat!r}")
    checks.attempted += 1
    if want is None or want != {"digest": pass_digest, "mat": pass_mat}:
        checks.fail(f"default-seed outputs differ from expected.json: {want}")


def _reference_loop() -> None:
    # The package's mix of work, without the package: list copies and
    # slices, a keyed hash, a seeded generator and a softmax over 64 values.
    ctx = list(range(600))
    for k in range(150):
        copy = list(ctx)
        _ = copy[k : k + 8] == copy[k + 1 : k + 9]
        h = hashlib.blake2b(digest_size=8)
        h.update(k.to_bytes(8, "little"))
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))
        logits = gen.uniform(-4.0, 4.0, size=64)
        e = np.exp(logits - logits.max())
        e /= e.sum()


def reference_s() -> float:
    """Median wall time of three runs of a fixed reference loop.

    The machine this benchmark is meant for is shared: its speed moves by a
    quarter and more for tens of seconds at a time, more than any bound
    worth having. Each timed call is therefore followed by the reference
    loop, which runs no package code, and reported at nominal speed:
    ``seconds * REFERENCE_S / reference_s()``. The run also prints the
    unscaled figures.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def setup_times(args, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh processes, scaled."""
    times = [first]
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb(workload) -> float:
    """Peak resident memory: this process, plus each sweep worker counted at
    the largest worker's peak (an upper bound, as forked workers share pages)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = getattr(workload, "jobs", 0)
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def measure(args, workload, setup_s: float):
    """The untraced run: end-to-end metrics."""
    checks = Checks(workload)
    tail_pct = workload.tail_pct
    min_samples = math.ceil(TAIL_BEYOND / (1 - tail_pct / 100))
    latencies: list[float] = []  # scaled to nominal speed
    raw: list[float] = []
    pass_rates: list[float] = []  # scaled tokens per second of each complete pass
    pass_tokens = pass_seconds = 0.0
    begin = time.perf_counter()
    i = 0
    while True:
        got = checks.run(i % len(workload))
        i += 1
        if got is not None:
            seconds = got[0] * REFERENCE_S / reference_s()
            raw.append(got[0])
            latencies.append(seconds)
            pass_seconds += seconds
            pass_tokens += got[1].tokens
        if i % len(workload) == 0:
            pass_rates.append(pass_tokens / pass_seconds if pass_seconds else 0.0)
            pass_tokens = pass_seconds = 0.0
        elapsed = time.perf_counter() - begin
        enough = elapsed >= args.seconds and len(latencies) >= min_samples and bool(pass_rates)
        if enough or elapsed >= MEASURE_LIMIT_S:
            break
    rss = peak_rss_mb(workload)
    pass_digest, mat = checked_pass(checks)
    gate(workload.name, args.seed, checks, pass_digest, mat)
    setups = setup_times(args, setup_s)

    n = len(latencies)
    beyond = n - math.ceil(n * tail_pct / 100)
    print(f"# {workload.name}: {n} timed operations in {len(pass_rates)} complete passes; "
          f"tail p{tail_pct} has {beyond} beyond it")
    if beyond < TAIL_BEYOND:
        print(f"# warning: fewer than {TAIL_BEYOND} samples beyond p{tail_pct}")
    print(f"# setup_s samples: {[round(s, 4) for s in setups]}")
    if raw:
        print(f"# unscaled: decode_ms_p50 {1e3 * statistics.median(raw):.2f}, decode_ms_tail "
              f"{1e3 * percentile(raw, tail_pct):.2f}, machine at "
              f"{statistics.median(latencies) / statistics.median(raw):.3f} of nominal speed")
    metrics = {
        "tok_s": (statistics.median(pass_rates) if pass_rates else 0.0, "tok/s"),
        "decode_ms_p50": (1e3 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "decode_ms_tail": (1e3 * percentile(latencies, tail_pct) if latencies else 0.0, "ms"),
        "mat": (mat, "tok/verify"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return checks, metrics


def measure_traced(args, workload):
    """The traced run: per-layer metrics of traced passes, interleaved with
    untraced passes whose throughput gives the tracing overhead."""
    from spans import Tracer, layer_metrics

    # Both halves of a traced sweep run in-process, so overhead compares
    # like with like.
    if hasattr(workload, "jobs"):
        workload.jobs = 1
    checks = Checks(workload)
    tracer = Tracer()
    plain = [0.0, 0]
    traced = [0.0, 0]
    passes = 0
    records = None
    begin = time.perf_counter()
    while True:
        seconds, tokens, _, _ = run_pass(checks)
        plain[0] += seconds
        plain[1] += tokens
        with tracer.installed():
            seconds, tokens, steps, records_now = run_pass(checks, tracer)
        traced[0] += seconds
        traced[1] += tokens
        passes += 1
        records = records or records_now
        if time.perf_counter() - begin >= min(args.seconds, MEASURE_LIMIT_S):
            break
    from workloads import digest

    mat = tracer.counts["tokens"] / tracer.counts["steps"] if tracer.counts["steps"] else 0.0
    gate(workload.name, args.seed, checks, digest(records), mat)
    metrics = layer_metrics(tracer, passes, workload.corpus_encode_s)
    plain_tok_s = plain[1] / plain[0] if plain[0] else 0.0
    traced_tok_s = traced[1] / traced[0] if traced[0] else 0.0
    metrics["trace.tok_s_untraced"] = (plain_tok_s, "tok/s")
    metrics["trace.tok_s_traced"] = (traced_tok_s, "tok/s")
    overhead = 100.0 * (1 - traced_tok_s / plain_tok_s) if plain_tok_s else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    path = TRACE_DIR / f"{workload.name}.jsonl"
    tracer.write(path)
    print(f"# {workload.name}: {passes} traced passes, {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    return checks, metrics


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS, Abort

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    setup_s *= REFERENCE_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.trace:
            checks, metrics = measure_traced(args, workload)
        else:
            checks, metrics = measure(args, workload, setup_s)
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    # Reported here and through the result's attempted/failed fields only:
    # it is 0 on a correct program, so it cannot carry a relative bound.
    print(f"error_rate: {checks.failed / max(checks.attempted, 1)!r} ratio "
          f"({checks.failed} of {checks.attempted} operations)")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
