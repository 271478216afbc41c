import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

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
    random_diag_spectrum,
    random_spd,
    validate_spd,
)
from gausskl.harness import derive_seed

from oracles import normal_log_pdf


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

    def test_mixture_far_tail_is_finite(self):
        m = build_matched_mixture(validate_spd([[1.0]]), 0.5, 0.5)
        assert math.isfinite(m.log_density_batch(np.array([[60.0]]))[0])


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

    def test_import_does_not_load_scipy_integrate(self):
        # the package has no runtime quadrature; only the tests integrate
        src = str(Path(gausskl.__file__).resolve().parents[1])
        code = ("import gausskl, gausskl.cli, sys; "
                "assert 'scipy.integrate' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


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
            lx = random_diag_spectrum(dim, derive_seed(run, 10), 0.1, 10.0)
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
