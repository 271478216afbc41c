"""Checks of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q

* The tracer wraps every public function and sees the per-trial call counts
  derived by hand for each campaign, and tracing changes no report bit.
* The near-equal generator is exact where it claims to be, its series
  reference agrees with 50-digit mpmath, and its matrices survive the CSV
  round trip.
* The independent references agree with the package on generic inputs.
* One short run per mode prints exactly the metrics BENCHMARK.json lists.
"""

import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench_inputs as bi  # noqa: E402
import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402
import gausskl  # noqa: E402
import gausskl.cli  # noqa: E402,F401

TRIALS = 3

# Per-trial calls: validate_spd, cholesky, numpy.linalg.cholesky,
# solve_triangular, and one more function with its count.
COUNTS = {
    "p3 dim 4": (lambda: gausskl.check_prop3(TRIALS, 4, 11, 1e4),
                 (4, 4, 8, 4), ("divergence.kl_gaussian", 2)),
    "p2 [2,2]": (lambda: gausskl.check_prop2([2, 2], TRIALS, 12),
                 (7, 8, 15, 8), ("divergence.kl_gaussian", 4)),
    "p1 dim 2": (lambda: gausskl.check_prop1(TRIALS, 2, 13, 10_000),
                 (6, 5, 11, 5), ("estimators.mc_kl", 1)),
    "c1 dim 2": (lambda: gausskl.check_c1(TRIALS, 2, 14, 10_000),
                 (6, 4, 10, 5), ("estimators.mc_kl", 2)),
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_traced_counts_per_trial_and_identical_reports(case):
    campaign, (certs, chols, np_chols, solves), (other, other_count) = COUNTS[case]
    plain = campaign()
    tracer = bt.Tracer()
    with tracer.installed(gausskl):
        traced = campaign()
    again = campaign()

    calls = {name: a[0] for name, a in bt.summarize(tracer.spans).items()}
    assert calls["linalg.validate_spd"] == certs * TRIALS
    assert calls["linalg.cholesky"] == chols * TRIALS
    assert calls[bt.NP_CHOLESKY] == np_chols * TRIALS
    assert calls[bt.SOLVE_TRIANGULAR] == solves * TRIALS
    assert calls[other] == other_count * TRIALS
    assert not tracer.errors
    for report in (traced, again):
        assert report == plain
        assert report.to_json() == plain.to_json()
        assert report.worst_margin.hex() == plain.worst_margin.hex()


def test_tracer_rebinds_every_public_function_and_restores_it():
    def public_functions():
        found = {}
        for name, mod in list(sys.modules.items()):
            if name == "gausskl" or name.startswith("gausskl."):
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__.startswith("gausskl.")
                            and obj.__module__.split(".")[1] in bt.MODULES):
                        found[(name, attr)] = obj
        return found

    def boundary():
        return [np.linalg.cholesky, gausskl.linalg.solve_triangular,
                gausskl.estimators.solve_triangular]

    before, before_boundary = public_functions(), boundary()
    tracer = bt.Tracer()
    with tracer.installed(gausskl):
        during = public_functions()
        assert during.keys() == before.keys()
        assert all(during[key].__wrapped__ is fn for key, fn in before.items())
        for cls_name, meth in bt.METHODS:
            assert hasattr(getattr(gausskl, cls_name).__dict__[meth], "__wrapped__")
        assert all(now.__wrapped__ is was for now, was in zip(boundary(), before_boundary))
        # Boundary calls outside a package call are not recorded.
        np.linalg.cholesky(np.eye(2))
        assert not tracer.spans
    assert public_functions() == before
    assert all(now is was for now, was in zip(boundary(), before_boundary))


def test_self_time_excludes_children():
    spans = [("a", 0.0, 10.0, -1, 0, 0.0), ("b", 1.0, 4.0, 0, 0, 0.0),
             ("c", 2.0, 3.0, 1, 0, 0.0), ("b", 5.0, 6.0, 0, 0, 0.0)]
    agg = bt.summarize(spans)
    assert agg["a"][2] == pytest.approx(6.0)
    assert agg["b"][2] == pytest.approx(3.0)
    assert agg["c"][2] == pytest.approx(1.0)


def _mp_kl(sx, sy):
    with mpmath.workdps(50):
        x, y = mpmath.matrix(sx.tolist()), mpmath.matrix(sy.tolist())
        ratio = x ** -1 * y
        tr = sum(ratio[i, i] for i in range(sx.shape[0]))
        return (tr - mpmath.log(mpmath.det(ratio)) - sx.shape[0]) / 2


@pytest.mark.parametrize("k", [10, 20, 27, 28, 33, 40])
def test_near_equal_reference_matches_mpmath(k):
    rng = np.random.default_rng(k)
    sx, sy, exact = bi.near_equal_pair(rng, 6, 1e4, k)
    reference = _mp_kl(sx, sy)
    assert abs(exact - float(reference)) <= 1e-12 * float(reference)
    if k <= 53 - bi.NEAR_EQUAL_BITS:
        # c * sx is exact, so the pair's divergence is 0.5 m (c - 1 - ln c).
        assert np.array_equal(sy - sx, sx * 2.0 ** -k)
        with mpmath.workdps(50):
            c = 1 + mpmath.mpf(2) ** -k
            closed = 3 * (c - 1 - mpmath.log(c))
        assert abs(exact - float(closed)) <= 1e-14 * exact


@pytest.mark.parametrize("dim", [6, 64])
def test_near_equal_pairs_are_exact_in_scaling_and_csv(dim, tmp_path):
    rng = np.random.default_rng(dim)
    for k in bw.NEAR_EQUAL_KS:
        sx, sy, exact = bi.near_equal_pair(rng, dim, 1e4, k)
        c = 1.0 + 2.0 ** -k
        assert np.array_equal(sy / c, sx)
        assert exact > 0.0
        for name, a in (("x", sx), ("y", sy)):
            path = tmp_path / f"{name}.csv"
            gausskl.write_matrix_csv(path, a)
            assert np.array_equal(gausskl.read_matrix_csv(path), a)
            bi.write_csv(path, a)
            assert np.array_equal(gausskl.read_matrix_csv(path), a)


def test_references_agree_with_the_package_on_generic_pairs():
    rng = np.random.default_rng(5)
    sx, sy = bi.random_spd(rng, 32, 100.0), bi.random_spd(rng, 32, 100.0)
    assert np.linalg.cond(sx) == pytest.approx(100.0, rel=1e-6)
    kl = gausskl.kl_gaussian(gausskl.validate_spd(sx), gausskl.validate_spd(sy))
    assert kl == pytest.approx(bi.kl_reference(sx, sy), rel=1e-11)
    lx = np.exp(rng.uniform(-2.0, 2.0, 32))
    rep = gausskl.kl_gap_diagonal(gausskl.DiagSpectrum.from_variances(lx), gausskl.validate_spd(sy))
    assert rep.bound == pytest.approx(bi.diag_bound_reference(lx, sy), rel=1e-12)
    assert rep.gap == pytest.approx(bi.gap_reference(sy), rel=1e-9)
    assert bi.excess_series(1e-3) == pytest.approx(1e-3 - math.log1p(1e-3), rel=1e-12)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_exactly_the_listed_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "campaigns", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == listed
