import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_triangular

import gausskl
from gausskl import (
    BuildError,
    DimensionMismatch,
    GaussianModel,
    MixtureModel,
    SpreadTooLarge,
    build_matched_mixture,
    kl_gaussian,
    mc_kl,
    random_spd,
    validate_spd,
)
from gausskl import estimators
from gausskl.divergence import LN_2PI
from gausskl.estimators import _quad_form
from gausskl.harness import derive_seed

from oracles import log_uniform_spectrum, normal_log_pdf

# Fresh-interpreter prelude: loads() lists the package's extension modules executed so far.
LOADS = ("import importlib.machinery, sys\n"
         "_created, _create = [], importlib.machinery.ExtensionFileLoader.create_module\n"
         "importlib.machinery.ExtensionFileLoader.create_module = (\n"
         "    lambda self, spec: _created.append(spec.name) or _create(self, spec))\n"
         "def loads():\n"
         "    return [n.split('.')[-1] for n in _created if n.startswith('gausskl.')]\n")


def std_normal(dim=1):
    return GaussianModel(validate_spd(np.eye(dim)))


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        assert std_normal().log_density_batch(np.array([[0.0]]))[0] == pytest.approx(
            -0.9189385332046727, abs=1e-12)

    def test_standard_normal_at_one(self):
        assert std_normal().log_density_batch(np.array([[1.0]]))[0] == pytest.approx(
            -1.4189385332046727, abs=1e-12)

    def test_degenerate_mixture_equals_gaussian(self):
        cov = validate_spd([[2.0, 0.4], [0.4, 1.0]])
        gaussian = GaussianModel(cov)
        degenerate = MixtureModel(weight=0.5, scale_one=1.0, scale_two=1.0, covariance=cov)
        points = np.random.default_rng(3).standard_normal((20, 2))
        np.testing.assert_allclose(degenerate.log_density_batch(points),
                                   gaussian.log_density_batch(points), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 12])
    def test_quadratic_form_matches_reduction(self, dim):
        # Rows accumulated one by one are np.sum's own order up to 7 terms; from
        # 8 on numpy sums pairwise, so the two differ by rounding at most.
        cov = random_spd(dim, dim, 100.0)
        points = np.random.default_rng(dim).standard_normal((5000, dim))
        u = solve_triangular(cov.lower, points.T, lower=True)
        reference = np.sum(u * u, axis=0)
        if dim <= 7:
            np.testing.assert_array_equal(_quad_form(cov, points), reference)
        else:
            np.testing.assert_allclose(_quad_form(cov, points), reference,
                                       rtol=2 * dim * np.finfo(float).eps, atol=0)

    def test_mixture_far_tail_is_finite(self):
        m = build_matched_mixture(validate_spd([[1.0]]), 0.5, 0.5)
        assert math.isfinite(m.log_density_batch(np.array([[60.0]]))[0])

    def test_mixture_infinite_coordinate_has_zero_density(self):
        # Both components' log densities are -inf there, so their difference
        # is NaN; the log-sum must still be -inf, as np.logaddexp gives.  The
        # factor's solve forms 0 * inf where it has a zero below the diagonal
        # (a diagonal covariance), and inf - inf where signs cancel; the
        # quadratic form is still +inf, and for a Gaussian too, as it is where
        # a finite coordinate's solve overflows.  A NaN coordinate still gives NaN.
        one = build_matched_mixture(validate_spd([[1.0]]), 0.5, 0.5)
        np.testing.assert_array_equal(
            one.log_density_batch(np.array([[np.inf], [-np.inf]])), [-np.inf, -np.inf])
        points = np.array([[np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [-np.inf, np.inf],
                           [np.inf, np.nan], [1.0, 2.0]])
        for cov in (random_spd(2, 3, 10.0), validate_spd(np.diag([2.0, 0.5]))):
            for model in (build_matched_mixture(cov, 0.3, 0.7), GaussianModel(cov)):
                values = model.log_density_batch(points)
                np.testing.assert_array_equal(values[:4], [-np.inf] * 4)
                assert math.isnan(values[4]) and math.isfinite(values[5])
        narrow = validate_spd(np.diag([0.5, 2.0]))  # 1.5e308 / sqrt(0.5) overflows
        for model in (build_matched_mixture(narrow, 0.3, 0.7), GaussianModel(narrow)):
            np.testing.assert_array_equal(model.log_density_batch(np.array([[1.5e308, 0.0]])),
                                          [-np.inf])

    @pytest.mark.parametrize("build", [GaussianModel,
                                       lambda cov: build_matched_mixture(cov, 0.3, 0.7)],
                             ids=["gaussian", "mixture"])
    def test_in_place_kernel_leaves_caller_arrays_alone(self, build):
        # The densities are formed in place, but never in the caller's points or q.
        model = build(random_spd(3, 5, 100.0))
        points = np.random.default_rng(5).standard_normal((1000, 3))
        q = np.geomspace(1e-6, 1e6, 1000)
        kept_points, kept_q = points.tobytes(), q.tobytes()
        batch, density = model.log_density_batch(points), model._log_density(q)
        assert points.tobytes() == kept_points and q.tobytes() == kept_q
        assert model.log_density_batch(points).tobytes() == batch.tobytes()
        assert model._log_density(q).tobytes() == density.tobytes()
        assert points.tobytes() == kept_points and q.tobytes() == kept_q

    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("spread", [1e-6, 0.3, 0.9, 1 - 1e-6])
    def test_mixture_log_sum_matches_logaddexp(self, w, spread):
        # Quadratic forms from 0 to 1e6 sweep the component gap a - b through
        # zero and out to where one component underflows.  Both forms add
        # log1p(exp(-|a - b|)) to max(a, b), so ulps are counted at the larger
        # of the result and its two terms: where the sum crosses zero, its own
        # ulp is below the rounding of either term.
        cov = random_spd(3, 11, 10.0)
        m = build_matched_mixture(cov, w, spread)
        q = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 20_000)])
        base = 3 * LN_2PI + cov.log_det
        a = math.log(w) - 0.5 * (base + 3 * math.log(m.scale_one) + q / m.scale_one)
        b = math.log1p(-w) - 0.5 * (base + 3 * math.log(m.scale_two) + q / m.scale_two)
        reference = np.logaddexp(a, b)
        hi = np.maximum(a, b)
        scale = np.maximum.reduce([np.abs(reference), np.abs(hi), reference - hi])
        assert np.all(np.abs(m._log_density(q) - reference) <= 4 * np.spacing(scale))


def integral(model) -> float:
    """Quadrature of a scalar model's density, independent of the package.

    Piecewise over breakpoints at 0 and +-{1, 4, 10, 40} sigma_c of every
    component, with no absolute tolerance, so a component far narrower than
    the other is still resolved.
    """
    variance = float(model.covariance.entries[0, 0])
    scales = ((model.scale_one, model.scale_two) if isinstance(model, MixtureModel)
              else (1.0,))
    sigmas = [math.sqrt(c * variance) for c in scales]
    cuts = sorted({0.0} | {sign * k * s for s in sigmas for k in (1, 4, 10, 40)
                           for sign in (-1, 1)})
    cuts = [u for u in cuts if abs(u) <= 40 * max(sigmas)]

    def density(u):
        return math.exp(model.log_density_batch(np.array([[u]]))[0])

    return sum(quad(density, a, b, epsabs=0, limit=200)[0] for a, b in zip(cuts, cuts[1:]))


class TestNormalization:
    @pytest.mark.parametrize("build", [
        lambda: GaussianModel(validate_spd([[2.3]])),
        lambda: build_matched_mixture(validate_spd([[1.7]]), 0.3, 0.8),
    ], ids=["gaussian", "mixture"])
    def test_scalar_density_integrates_to_one(self, build):
        assert abs(integral(build()) - 1.0) <= 1e-6

    @pytest.mark.parametrize("variance", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("spread", [0.1, 0.9, 1 - 1e-6])
    def test_mixture_integrates_to_one_across_scales(self, variance, w, spread):
        model = build_matched_mixture(validate_spd([[variance]]), w, spread)
        assert abs(integral(model) - 1.0) <= 1e-6

    @pytest.mark.parametrize("variance", [1e-8, 1.0, 1e8])
    def test_gaussian_integrates_to_one_across_scales(self, variance):
        assert abs(integral(GaussianModel(validate_spd([[variance]]))) - 1.0) <= 1e-6

    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    def test_dim1_and_dim2_accept_same_parameters(self, w):
        # a narrow component is valid input at every dimension
        spread = 1 - 1e-6
        one = build_matched_mixture(validate_spd([[1.0]]), w, spread)
        two = build_matched_mixture(validate_spd(np.eye(2)), w, spread)
        assert (one.scale_one, one.scale_two) == (two.scale_one, two.scale_two)

    def test_import_loads_no_scipy_integrate_linalg_or_thread_pool(self):
        # The package has no runtime quadrature; only the tests integrate.  Its BLAS comes
        # from scipy's _fblas extension file, without scipy's package, executed at the
        # first solve, and no LAPACK file is loaded at any m; a p3 campaign, whose
        # references are diagonal, needs no solve.  Its one
        # pool thread is started by a Monte Carlo campaign, not by the import, and
        # concurrent.futures is imported there too: it loads logging, and the lazy
        # import keeps that cost out of the benchmark's setup_s.  numpy.random, argparse
        # and json are imported at the first draw, parser and report.
        src = str(Path(gausskl.__file__).resolve().parents[1])
        code = LOADS + (
            "import gausskl, gausskl.cli, threading\n"
            "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy, scipy\n"
            "for name in ('numpy.random', 'argparse', 'json', 'concurrent.futures', 'logging'):\n"
            "    assert name not in sys.modules, name\n"
            "assert threading.active_count() == 1\n"
            "gausskl.check_prop3(3, 4, 1, 100.0)\n"
            "assert loads() == [], loads()\n"
            "for m in (64, 65):\n"
            "    sx, sy = gausskl.random_spd(m, 1, 10.0), gausskl.random_spd(m, 2, 10.0)\n"
            "    gausskl.kl_gaussian(sx, sy)\n"
            "    assert loads() == ['_fblas'], (m, loads())\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_first_solve_under_contention_loads_blas_once(self):
        # A paired c1 campaign makes the process's first solves on two threads at once:
        # _fblas is executed once, and the report has the bits of a process that solved
        # before.  Then, in a fresh interpreter, threads released together by a barrier
        # ask for _fblas at once.
        src = str(Path(gausskl.__file__).resolve().parents[1])
        prelude = LOADS + (
            "import threading\n"
            "sys.setswitchinterval(1e-6)  # a thread switch at every chance\n"
            "from gausskl import check_c1, linalg\n")
        campaign = (
            "report = check_c1(2, 2, 17, 20_000)\n"
            "assert loads() == ['_fblas'], loads()\n"
            "print(report.to_json())\n")
        race = (
            "barrier, got = threading.Barrier(4), []\n"
            "def first():\n"
            "    barrier.wait(60)\n"
            "    got.append(linalg._extension('_fblas'))\n"
            "threads = [threading.Thread(target=first) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(60)\n"
            "assert len(got) == 4 and len(set(map(id, got))) == 1, got\n"
            "assert loads() == ['_fblas'], loads()\n")
        procs = [subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
                 for code in (campaign, race)]
        assert [p.returncode for p in procs] == [0, 0], [p.stderr for p in procs]
        estimators.solve_triangular(np.eye(2), np.ones((2, 1)))  # this process has solved
        assert procs[0].stdout.strip() == gausskl.check_c1(2, 2, 17, 20_000).to_json()


class TestSample:
    def test_deterministic(self):
        g = std_normal(2)
        np.testing.assert_array_equal(g.sample(1000, 7), g.sample(1000, 7))
        m = build_matched_mixture(validate_spd(np.eye(2)), 0.4, 0.6)
        np.testing.assert_array_equal(m.sample(1000, 7), m.sample(1000, 7))

    def test_gaussian_sample_covariance(self):
        draws = std_normal(2).sample(100_000, seed=11)
        cov = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_seed_changes_draws(self):
        g = std_normal(2)
        assert not np.array_equal(g.sample(100, 1), g.sample(100, 2))


class TestMatchedMixture:
    def test_component_scales(self):
        m = build_matched_mixture(validate_spd([[1.0]]), 0.5, 0.5)
        var1 = m.scale_one * float(m.covariance.entries[0, 0])
        var2 = m.scale_two * float(m.covariance.entries[0, 0])
        assert var1 == pytest.approx(0.5, abs=1e-12)
        assert var2 == pytest.approx(1.5, abs=1e-12)
        # mixing identity: 0.5 * 0.5 + 0.5 * 1.5 = 1
        assert m.weight * var1 + (1 - m.weight) * var2 == pytest.approx(1.0, abs=1e-12)
        # the density is that of the two scaled components
        for u in (0.0, 0.7, -2.5, 6.0):
            expected = math.log(0.5 * math.exp(normal_log_pdf(u, 0.5))
                                + 0.5 * math.exp(normal_log_pdf(u, 1.5)))
            assert m.log_density_batch(np.array([[u]]))[0] == pytest.approx(expected, abs=1e-12)

    def test_overall_covariance_identity(self):
        for seed in range(30):
            target = random_spd(3, derive_seed(seed, 0), 50.0)
            rng = np.random.default_rng(derive_seed(seed, 1))
            w = rng.uniform(0.1, 0.9)
            s = rng.uniform(0.05, 0.95)
            m = build_matched_mixture(target, w, s)
            lower = m.covariance.lower
            combined = (w * m.scale_one * (lower @ lower.T)
                        + (1 - w) * m.scale_two * (lower @ lower.T))
            assert np.max(np.abs(combined - target.entries)) <= 1e-10 * max(
                1.0, np.max(np.abs(target.entries)))
            np.testing.assert_array_equal(m.covariance.entries, target.entries)

    @pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
    def test_sampled_covariance_matches_target(self, n):
        # the 4-standard-error band shrinks at the 1/sqrt(n) rate
        target = validate_spd([[1.0, 0.3], [0.3, 2.0]])
        m = build_matched_mixture(target, 0.35, 0.7)
        draws = m.sample(n, seed=5)
        prods = draws[:, :, None] * draws[:, None, :]
        mean = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - target.entries) <= 4.0 * se)

    def test_small_spread_is_nearly_gaussian(self):
        target = validate_spd([[1.0]])
        m = build_matched_mixture(target, 0.5, 1e-6)
        est = mc_kl(m, GaussianModel(target), 100_000, seed=13)
        assert abs(est.value) <= 4.0 * est.std_error

    def test_weight_boundaries_rejected(self):
        target = validate_spd([[1.0]])
        for w in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(BuildError):
                build_matched_mixture(target, w, 0.5)

    def test_spread_bounds(self):
        target = validate_spd([[1.0]])
        with pytest.raises(SpreadTooLarge):
            build_matched_mixture(target, 0.5, 1.0)
        with pytest.raises(SpreadTooLarge):
            build_matched_mixture(target, 0.5, 2.5)
        with pytest.raises(BuildError):
            build_matched_mixture(target, 0.5, 0.0)
        with pytest.raises(BuildError):
            build_matched_mixture(target, 0.5, -0.1)

    @pytest.mark.parametrize("w", [5e-324, 0.5, 1 - 2 ** -53])
    def test_second_scale_is_at_least_one(self, w):
        # Only the first component can collapse: scale_two = 1 + spread*w/(1-w) >= 1
        # for every accepted (w, spread), so no spread is refused on its account.
        target = validate_spd([[1.0]])
        for spread in (5e-324, 1e-6, 0.5, 1 - 2 ** -53):
            m = build_matched_mixture(target, w, spread)
            assert m.scale_one > 0.0 and m.scale_two >= 1.0
        with pytest.raises(SpreadTooLarge, match="to 0.0"):
            build_matched_mixture(target, w, 1.0)


class TestMcKl:
    def test_deterministic(self):
        py = GaussianModel(validate_spd([[1.0, 0.5], [0.5, 1.0]]))
        px = std_normal(2)
        a = mc_kl(py, px, 10_000, seed=3)
        b = mc_kl(py, px, 10_000, seed=3)
        assert a == b

    def test_same_model_estimates_zero(self):
        g = GaussianModel(validate_spd([[1.3, 0.2], [0.2, 0.9]]))
        est = mc_kl(g, g, 50_000, seed=21)
        assert abs(est.value) <= 4.0 * est.std_error

    def test_worked_gaussian_pair(self):
        py = GaussianModel(validate_spd([[1.0, 0.5], [0.5, 1.0]]))
        est = mc_kl(py, std_normal(2), 1_000_000, seed=40)
        assert abs(est.value - 0.14384103622589045) <= 4.0 * est.std_error

    def test_mixture_versus_gaussian_strictly_positive(self):
        target = validate_spd([[1.0]])
        m = build_matched_mixture(target, 0.5, 0.5)
        est = mc_kl(m, std_normal(1), 1_000_000, seed=8)
        assert est.value >= -4.0 * est.std_error
        assert est.value > 0.0

    def test_std_error_definition(self):
        py = GaussianModel(validate_spd([[2.0]]))
        px = std_normal(1)
        n, seed = 5000, 17
        est = mc_kl(py, px, n, seed)
        draws = py.sample(n, seed)
        log_ratio = py.log_density_batch(draws) - px.log_density_batch(draws)
        assert est.value == float(np.mean(log_ratio))
        assert est.std_error == float(np.std(log_ratio, ddof=1) / math.sqrt(n))
        assert est.n_samples == n and est.seed == seed

    def test_mixture_dominates_matched_gaussian_divergence(self):
        # 100 random (target, w, spread) configs at dims 1..3: the sampled
        # mixture divergence from a diagonal Gaussian reference stays above
        # the closed form for the Gaussian with the same covariance
        for run in range(100):
            dim = 1 + run % 3
            lx = log_uniform_spectrum(dim, derive_seed(run, 10), 0.1, 10.0)
            target = random_spd(dim, derive_seed(run, 11), 10.0)
            rng = np.random.default_rng(derive_seed(run, 12))
            m = build_matched_mixture(target, rng.uniform(0.2, 0.8),
                                      rng.uniform(0.1, 0.9))
            est = mc_kl(m, GaussianModel(lx.as_matrix()), 20_000,
                        seed=derive_seed(run, 13))
            floor = kl_gaussian(lx.as_matrix(), target)
            assert est.value >= floor - 4.0 * est.std_error

    def test_oracle_agreement_rate(self):
        # Gaussian pairs, dims 1..4: at least 99 of 100 runs inside the band
        hits = 0
        for run in range(100):
            dim = 1 + run % 4
            sx = random_spd(dim, derive_seed(run, 0), 20.0)
            sy = random_spd(dim, derive_seed(run, 1), 20.0)
            est = mc_kl(GaussianModel(sy), GaussianModel(sx), 100_000,
                        seed=derive_seed(run, 2))
            if abs(est.value - kl_gaussian(sx, sy)) <= 4.0 * est.std_error:
                hits += 1
        assert hits >= 99

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mc_kl(std_normal(), std_normal(), 99, seed=1)
        with pytest.raises(DimensionMismatch):
            mc_kl(std_normal(1), std_normal(2), 1000, seed=1)


def kernel_pair(kinds, dim):
    # Models of the requested kinds on distinct random covariances.
    def model(kind, index):
        cov = random_spd(dim, derive_seed(dim, index), 20.0)
        return (GaussianModel(cov) if kind == "gaussian"
                else build_matched_mixture(cov, 0.3 + 0.2 * index, 0.6))
    return model(kinds[0], 0), model(kinds[1], 1)


def materialized(py, px, n, seed):
    # The definition: both densities evaluated at the sampled points.
    draws = py.sample(n, seed)
    log_ratio = py.log_density_batch(draws) - px.log_density_batch(draws)
    return float(np.mean(log_ratio)), float(np.std(log_ratio, ddof=1) / math.sqrt(n))


KINDS = [("mixture", "gaussian"), ("gaussian", "gaussian"), ("mixture", "mixture"),
         ("gaussian", "mixture")]


class TestWhitenedKernel:
    # mc_kl scores py.sample's draws from their normals, block by block.
    N = 10_007  # not a multiple of the block

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("kinds", KINDS, ids="-".join)
    def test_matches_materialized_definition(self, kinds, dim):
        py, px = kernel_pair(kinds, dim)
        est = mc_kl(py, px, self.N, seed=29)
        value, std_error = materialized(py, px, self.N, seed=29)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kinds", KINDS, ids="-".join)
    def test_bit_identical_reruns(self, kinds):
        py, px = kernel_pair(kinds, 3)
        assert mc_kl(py, px, self.N, seed=5) == mc_kl(py, px, self.N, seed=5)

    @pytest.mark.parametrize("block", [1, 7, N])
    @pytest.mark.parametrize("kinds", [("mixture", "gaussian"), ("gaussian", "mixture")],
                             ids="-".join)
    def test_block_size_does_not_change_the_estimate(self, monkeypatch, kinds, block):
        # Not bit for bit: BLAS may pick a different kernel for each block width.
        py, px = kernel_pair(kinds, 3)
        reference = mc_kl(py, px, self.N, seed=31)
        monkeypatch.setattr(estimators, "_BLOCK", block)
        est = mc_kl(py, px, self.N, seed=31)
        assert est.value == pytest.approx(reference.value, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(reference.std_error, rel=1e-12, abs=0)
