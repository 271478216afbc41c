"""gausskl benchmark: two workloads, end-to-end metrics, traced per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

gausskl is used two ways, and each workload is one of them.  Both run in one
closed loop with one caller: each operation starts when the previous one
returns.  They are built from four operation pools (bench_workloads.py):

  campaign-closed  check_prop3 chunks over dims 1-8 and condition targets
                   1-1e4, check_prop2 over block structures of total dim <= 8.
  campaign-mc      check_prop1 and check_c1 at dims 1-3, n = 1e5.
  kl-dense         kl_gaussian at m = 256, 512 and kl_gap_diagonal at m = 512
                   on pre-certified cond-100 pairs, plus near-equal pairs
                   Sy = c*Sx (m = 6, 64; cond 1e4; c = 1 + 2**-k, k = 10..40).
  cli-files        cli.main: kl on CSV files at m = 64, 512 (half with a
                   diagonal reference) and gen at m = 512.

  campaigns  70% campaign-closed and campaign-mc, 30% the other two pools.
  kl         70% kl-dense and cli-files, 30% the two campaign pools.

Every run prints every end-to-end metric, so each workload also gives the
other use a minority share of its time.  The time is cut into rounds of
ROUND_S seconds and every pool gets its share of each round: load from other
processes on a shared machine comes in bursts, and spreading every metric's
samples over the whole run keeps a burst from landing on one metric.
Set-up time is measured in fresh subprocesses spread over the rounds; peak
RSS is read after the workload's own pools are built and warmed up.

With ``--trace 1`` only the workload's own pools run, in whole passes: half
the time untraced, half traced.  The per-layer metrics come from the traced
half and the overhead from comparing the two halves.

Settings fixed here and printed with each result: OpenBLAS pinned to one
thread (on two cores the default two threads were slower and noisier), plus
nproc and the Python, numpy, scipy and OpenBLAS versions.  The last line of
stdout is the JSON result; a run without gausskl sources exits 2 without one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = HERE / "setup_probe.py"

# Share of each round per pool; the workload's own pools come first.
WORKLOADS = {
    "campaigns": {"campaign-closed": 0.35, "campaign-mc": 0.35, "kl-dense": 0.1, "cli-files": 0.2},
    "kl": {"kl-dense": 0.3, "cli-files": 0.4, "campaign-closed": 0.15, "campaign-mc": 0.15},
}
OWN_POOLS = 2
ROUND_S = 2.0
SETUP_REPEATS = 5
TRACE_SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60

SETUP_OP = SimpleNamespace(kind="setup", trials=1)

RATES = {"p3_trials_per_s": "p3", "p2_trials_per_s": "p2",
         "p1_trials_per_s": "p1", "c1_trials_per_s": "c1"}
LATENCIES = {"kl_m256_ms": "kl_m256", "kl_m512_ms": "kl_m512", "gap_m512_ms": "gap_m512",
             "cli_kl_m64_ms": "cli_kl_m64", "cli_kl_m512_ms": "cli_kl_m512",
             "cli_gen_m512_ms": "cli_gen_m512"}


class Record:
    """Per-operation times, and failures against attempts."""

    def __init__(self):
        self.by_op = defaultdict(dict)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, op, elapsed, reason):
        self.attempted += 1
        self.by_op[op.kind].setdefault(id(op), (op.trials, []))[1].append(elapsed)
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{op.kind}: {reason}")

    def times(self, kind):
        return [t for _, times in self.by_op[kind].values() for t in times]

    def pass_seconds(self, kind):
        """Trials, seconds and operations in one pass over the kind's operations.

        The seconds are the sum of each operation's mean time, so a partial
        last pass does not tilt a kind that mixes cheap and dear operations
        (dim 1 and dim 8, diagonal and full references).  Means, not
        medians: on a shared machine the load comes in regimes of tens of
        seconds that slow Python-heavy code up to 1.7x, and a median flips
        between the two regimes where a mean moves in proportion.
        """
        per_op = self.by_op[kind].values()
        return (sum(trials for trials, _ in per_op),
                sum(statistics.fmean(times) for _, times in per_op), len(per_op))


def execute(op, record, tracer=None, index=0):
    if tracer is not None:
        tracer.op = index
    start = perf_counter()
    try:
        out = op.call()
        elapsed = perf_counter() - start
        reason = op.check(out)
    except Exception as exc:  # an operation that raises is a failed operation
        elapsed = perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"
    record.add(op, elapsed, reason)


def warm_up(family):
    """One untimed call of each kind, so first-call set-up is not timed."""
    seen = set()
    for op in family.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # every operation also runs timed, which records the failure
                pass


def run_passes(families, seconds, record, tracer=None):
    """Whole passes over the pools until ``seconds`` have passed; returns (passes, elapsed)."""
    start = perf_counter()
    passes = index = 0
    while True:
        for family in families:
            for op in family.ops:
                execute(op, record, tracer, index)
                index += 1
        passes += 1
        if perf_counter() - start >= seconds:
            return passes, perf_counter() - start


def run_interleaved(families, shares, seconds, record, probe):
    """Rounds of ROUND_S seconds; each pool gets its share of every round.

    A pool whose operation overran its share runs less in the next round,
    so the shares hold over the run.  The set-up probes are spread over the
    rounds too.  Each pool then finishes its first pass, so every operation
    has a timed sample.
    """
    rounds = max(1, round(seconds / ROUND_S))
    quantum = seconds / rounds
    probes_at = Counter(i * rounds // SETUP_REPEATS for i in range(SETUP_REPEATS))
    cursor = Counter()
    spent = Counter()
    for r in range(rounds):
        for _ in range(probes_at[r]):
            probe()
        for name, family in families.items():
            while spent[name] < (r + 1) * quantum * shares[name]:
                start = perf_counter()
                execute(family.ops[cursor[name] % len(family.ops)], record)
                spent[name] += perf_counter() - start
                cursor[name] += 1
    for name, family in families.items():
        while cursor[name] < len(family.ops):
            execute(family.ops[cursor[name]], record)
            cursor[name] += 1


def run_probe(spec_path, importtime=False):
    """One fresh interpreter: wall seconds, the probe's report, and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(PROBE), str(spec_path)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    wall = perf_counter() - start
    report = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    return wall, report, proc.stderr


def import_seconds(stderr: str) -> float:
    """Cumulative import time of the gausskl package from -X importtime output."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "gausskl":
            return int(fields[1]) * 1e-6
    raise ValueError("no gausskl line in -X importtime output")


def tail(values):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g} {1e3 * statistics.quantiles(values, n=1000)[int(q * 10) - 1]:.3f} ms"
    return "no percentile with 10 samples beyond it"


def near_equal_summary(family):
    """Largest relative error, negative results, pairs checked.

    With no pair checked (every call raised) the error counts as infinite.
    """
    errs = [e for e, _ in family.near_equal.values()]
    negatives = sum(neg for _, neg in family.near_equal.values())
    return max(errs, default=math.inf), negatives, len(errs)


def end_to_end(record, families, setup_times, peak_rss_mb):
    metrics = {}
    for name, kind in RATES.items():
        trials, seconds, _ = record.pass_seconds(kind)
        metrics[name] = (trials / seconds, "1/s")
    for name, kind in LATENCIES.items():
        _, seconds, ops = record.pass_seconds(kind)
        metrics[name] = (1e3 * seconds / ops, "ms")
    worst, _, _ = near_equal_summary(families["kl-dense"])
    # Bits lost, log2(1 + err/eps), is 0 for an exact result; the linear
    # error spans orders of magnitude between seeds, its logarithm does not.
    worst = min(worst, sys.float_info.max)
    metrics["kl_near_equal_err_max"] = (math.log2(1.0 + worst / sys.float_info.epsilon), "bits")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def print_summary(record, families):
    for kind in sorted(record.by_op):
        times = record.times(kind)
        trials, seconds, ops = record.pass_seconds(kind)
        print(f"  {kind}: {ops} distinct operations ({trials} trials), n={len(times)}, "
              f"mean {1e3 * seconds / ops:.3f} ms, median {1e3 * statistics.median(times):.3f} ms, "
              f"{tail(times)}")
    if "kl-dense" in families:
        worst, negatives, pairs = near_equal_summary(families["kl-dense"])
        print(f"  near_equal: max relative error {worst:.3e}; {negatives} of {pairs} pairs "
              f"gave a negative KL (inside the 1e-10 nats tolerance, so not counted as failed)")
    for reason in record.reasons[:10]:
        print(f"  FAILED {reason}")


def settings(args):
    import numpy
    import scipy
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas}


def build_own(args, gk, bw, workdir):
    """The workload's own pools, and the set-up probe spec for its first operation."""
    names = list(WORKLOADS[args.workload])[:OWN_POOLS]
    own = {name: bw.build(name, gk, args.seed, workdir) for name in names}
    # A campaign user's first operation is a p3 chunk; a CLI user's a `kl` call.
    first = next(family.first_op for family in own.values() if family.first_op)
    spec = workdir / "first_op.json"
    spec.write_text(json.dumps(first))
    return own, spec


def untraced(args, gk, bw, workdir):
    record = Record()
    families, spec = build_own(args, gk, bw, workdir)
    for family in families.values():
        warm_up(family)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in WORKLOADS[args.workload]:
        if name not in families:
            families[name] = bw.build(name, gk, args.seed, workdir)
            warm_up(families[name])
    setup_times = []

    def probe():
        wall, report, stderr = run_probe(spec)
        setup_times.append(wall)
        record.add(SETUP_OP, wall, None if report else f"set-up probe failed: {stderr[-300:]}")

    run_interleaved(families, WORKLOADS[args.workload], args.seconds, record, probe)
    print_summary(record, families)
    return record, end_to_end(record, families, setup_times, peak_rss_mb)


def traced(args, gk, bw, workdir):
    import bench_trace as bt
    record = Record()
    own, spec = build_own(args, gk, bw, workdir)
    imports, first_ops = [], []
    for _ in range(TRACE_SETUP_REPEATS):
        wall, report, stderr = run_probe(spec, importtime=True)
        record.add(SETUP_OP, wall, None if report else f"set-up probe failed: {stderr[-300:]}")
        if report:
            imports.append(import_seconds(stderr))
            first_ops.append(report["first_op_s"])
    families = list(own.values())
    for family in families:
        warm_up(family)
    plain_passes, plain_s = run_passes(families, args.seconds / 2.0, record)
    tracer = bt.Tracer()
    with tracer.installed(gk):
        traced_passes, traced_s = run_passes(families, args.seconds / 2.0, record, tracer)
    units = traced_passes * sum(op.trials for family in families for op in family.ops)
    metrics = bt.layer_metrics(tracer, units)
    metrics["setup.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    metrics["setup.first_op_s"] = (statistics.median(first_ops) if first_ops else 0.0, "s")
    overhead = (traced_s / traced_passes) / (plain_s / plain_passes) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    print(f"  traced {len(tracer.spans)} spans over {traced_passes} passes "
          f"({units} trials or operations); overhead {100 * overhead:.1f}%")
    print_summary(record, own)
    return record, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausskl" / "__init__.py").is_file():
        print(f"error: gausskl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gausskl
    import gausskl.cli  # noqa: F401  (the package does not import its CLI)
    import bench_workloads as bw

    print("settings: " + json.dumps(settings(args)))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        record, metrics = (traced if args.trace else untraced)(args, gausskl, bw, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    result = {"correct": record.failed == 0, "attempted": record.attempted,
              "failed": record.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
