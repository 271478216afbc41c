import math
import warnings

import numpy as np
import pytest

from gausskl import (
    DiagSpectrum,
    DimensionMismatch,
    GaussianModel,
    NonPositiveVariance,
    diagonal_lower_bound,
    gaussian_entropy,
    kl_diagonal,
    kl_gap_diagonal,
    kl_gaussian,
    kl_scalar,
    mc_kl,
    random_diag_spectrum,
    random_spd,
    validate_spd,
)
from gausskl.harness import CLOSED_FORM_TOL, derive_seed

from oracles import det2, entropy_quad, excess_series, kl_scalar_quad, total_correlation


def spectrum(*variances):
    return DiagSpectrum.from_variances(list(variances))


class TestKlScalar:
    def test_equal_variances_exact_zero(self):
        for v in (1e-6, 0.3, 1.0, 7.5, 1e6):
            assert kl_scalar(v, v) == 0.0

    def test_worked_values_against_quadrature(self):
        # frozen from the quadrature oracle, which agrees to ~1e-10
        assert kl_scalar(1.0, 4.0) == pytest.approx(0.8068528194400546, abs=1e-12)
        assert kl_scalar(1.0, 4.0) == pytest.approx(kl_scalar_quad(1.0, 4.0), abs=1e-6)
        assert kl_scalar(4.0, 1.0) == pytest.approx(0.3181471805599453, abs=1e-12)
        assert kl_scalar(4.0, 1.0) == pytest.approx(kl_scalar_quad(4.0, 1.0), abs=1e-6)

    def test_non_positive_variance(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveVariance):
                kl_scalar(bad, 1.0)
            with pytest.raises(NonPositiveVariance):
                kl_scalar(1.0, bad)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = np.exp(rng.uniform(-3, 3, size=2))
            assert kl_scalar(c * a, c * b) == pytest.approx(kl_scalar(a, b), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            a, b = np.exp(rng.uniform(-7, 7, size=2))
            assert kl_scalar(a, b) >= 0.0

    def test_near_equal_variances_against_series(self):
        # var_y = 1 + 2**-k: the r - ln(r) - 1 form returns 0.0 at k = 30
        for k in range(10, 31):
            expected = 0.5 * excess_series(2.0 ** -k)
            assert kl_scalar(1.0, 1.0 + 2.0 ** -k) == pytest.approx(expected, rel=1e-6, abs=0)

    def test_extreme_variance_ratios(self):
        # var_y / var_x - 1 rounds to -1, and at 1e-400 the ratio underflows;
        # the intended +inf comes without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (1e-17, 1e-40, 1e-300):
                expected = 0.5 * (r - math.log(r) - 1.0)
                assert kl_scalar(1.0, r) == pytest.approx(expected, rel=1e-15)
            assert kl_scalar(1e200, 1e-200) == pytest.approx(200 * math.log(10) - 0.5, rel=1e-13)
            assert kl_scalar(1e-200, 1e200) == math.inf


class TestKlDiagonal:
    def test_equal_spectra_exact_zero(self):
        lx = spectrum(0.3, 2.0, 17.0)
        assert kl_diagonal(lx, lx) == 0.0

    def test_worked_values(self):
        assert kl_diagonal(spectrum(1, 1), spectrum(1, 4)) == pytest.approx(
            0.8068528194400546, abs=1e-12)
        assert kl_diagonal(spectrum(1, 4), spectrum(2, 8)) == pytest.approx(
            0.3068528194400546, abs=1e-12)

    @staticmethod
    def mixed_branch_pair():
        # near-equal coordinates (|u| < 0.5) interleaved with 1e+-200 ones
        # (|u| >= 0.5), so both branches of the excess switch run in one call
        k = np.arange(10, 31)
        near_x = np.geomspace(1e-100, 1e100, k.size)
        far_x = np.resize([1e200, 1e-200, 1e200], k.size)
        far_y = np.resize([1e-200, 1e-190, 1.0], k.size)
        vx = np.column_stack([near_x, far_x]).ravel()
        vy = np.column_stack([near_x * (1.0 + 2.0 ** -k), far_y]).ravel()
        return DiagSpectrum.from_variances(vx), DiagSpectrum.from_variances(vy)

    def test_equals_scalar_sum_exactly(self):
        pairs = [(random_diag_spectrum(m, derive_seed(seed, 0)),
                  random_diag_spectrum(m, derive_seed(seed, 1)))
                 for m, seeds in ((6, range(50)), (512, range(3))) for seed in seeds]
        pairs.append(self.mixed_branch_pair())
        for lx, ly in pairs:
            expected = sum(kl_scalar(float(a), float(b))
                           for a, b in zip(lx.variances, ly.variances))
            assert math.isfinite(expected)
            assert kl_diagonal(lx, ly) == expected

    def test_matches_dense_path(self):
        for seed in range(50):
            lx = random_diag_spectrum(4, derive_seed(seed, 2))
            ly = random_diag_spectrum(4, derive_seed(seed, 3))
            dense = kl_gaussian(lx.as_matrix(), ly.as_matrix())
            assert kl_diagonal(lx, ly) == pytest.approx(dense, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_diagonal(spectrum(1, 2), spectrum(1, 2, 3))


class TestKlGaussian:
    def test_identical_near_zero(self):
        # exactly +0.0: the unit-diagonal solve gives M = I bit for bit
        for dim in (*range(1, 9), 64, 512):
            a = random_spd(dim, dim * 11, 100.0)
            for copy in (a, validate_spd(2.0 ** 300 * a.entries),
                         validate_spd(2.0 ** -300 * a.entries)):
                kl = kl_gaussian(copy, copy)
                assert kl == 0.0 and math.copysign(1.0, kl) == 1.0

    def test_worked_example_against_determinant_arithmetic(self):
        sx = validate_spd(np.eye(2))
        sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        # tr = 2 and m = 2 cancel, leaving -0.5 * ln det(Sy)
        expected = -0.5 * math.log(det2([[1.0, 0.5], [0.5, 1.0]]))
        assert expected == pytest.approx(0.14384103622589045, abs=1e-15)
        assert kl_gaussian(sx, sy) == pytest.approx(expected, abs=1e-9)

    def test_worked_example_against_monte_carlo(self):
        sx = validate_spd(np.eye(2))
        sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        est = mc_kl(GaussianModel(sy), GaussianModel(sx), 1_000_000, seed=2024)
        assert abs(kl_gaussian(sx, sy) - est.value) <= 4.0 * est.std_error

    def test_diagonal_pair_matches_scalar_sum(self):
        sx = validate_spd(np.diag([1.0, 4.0]))
        sy = validate_spd(np.diag([2.0, 8.0]))
        expected = kl_scalar(1.0, 2.0) + kl_scalar(4.0, 8.0)
        assert kl_gaussian(sx, sy) == pytest.approx(expected, abs=1e-10)
        assert kl_gaussian(sx, sy) == pytest.approx(0.3068528194400546, abs=1e-10)

    def test_nonnegativity_sweep(self):
        # 10000 random pairs across dims 1..8
        count = 0
        for seed in range(1250):
            for dim in range(1, 9):
                sx = random_spd(dim, derive_seed(seed, 2 * dim), 100.0)
                sy = random_spd(dim, derive_seed(seed, 2 * dim + 1), 100.0)
                assert kl_gaussian(sx, sy) >= 0.0
                count += 1
        assert count == 10_000

    def test_scaled_copy_sweep(self):
        # Sy = (1 + 2**-k) Sx exactly: Sx has 26-bit entries, so the product
        # fits in 53 bits for k <= 27, and KL = 0.5 * m * excess(2**-k).
        negatives, worst = 0, 0.0
        for dim in (*range(1, 9), 64):
            raw = random_spd(dim, derive_seed(dim, 40), 1e4).entries
            mant, expo = np.frexp(raw)
            base = np.ldexp(np.round(mant * 2.0 ** 26) / 2.0 ** 26, expo)
            for j in (-490, -200, -2, 0, 2, 200, 490):
                sx_raw = np.ldexp(base, j)
                sx = validate_spd(sx_raw)
                for k in range(10, 28):
                    kl = kl_gaussian(sx, validate_spd((1.0 + 2.0 ** -k) * sx_raw))
                    exact = 0.5 * dim * excess_series(2.0 ** -k)
                    negatives += kl < 0.0
                    worst = max(worst, abs(kl - exact) / exact)
        assert negatives == 0
        assert worst <= 1e-3

    def test_extreme_variance_ratios(self):
        # M_ii^2 - 1 rounds to -1 (KL stays finite) or overflows (KL is +inf)
        sx, sy = validate_spd(np.eye(3)), validate_spd(1e-40 * np.eye(3))
        assert kl_gaussian(sx, sy) == pytest.approx(
            1.5 * (1e-40 - math.log(1e-40) - 1.0), rel=1e-15)
        assert kl_gaussian(sy, sx) == pytest.approx(
            1.5 * (1e40 - math.log(1e40) - 1.0), rel=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = kl_gaussian(validate_spd(1e-300 * np.eye(2)), validate_spd(1e300 * np.eye(2)))
            # A pivot ratio dy_i / dx_i that overflows: +inf, never NaN, also
            # where the overflowing ratio dy_j / dx_i meets a zero entry of M.
            overflowing = [kl_gaussian(validate_spd(np.diag(vx)), validate_spd(np.diag(vy)))
                           for vx, vy in (([1e-320], [1e300]),
                                          ([1e-320, 1.0], [1e300, 1.0]),
                                          ([1.0, 1e-320], [1e300, 1.0]))]
            # dy_0 / dx_1 overflows for S = diag(8e307, 5e-324), yet KL(S, S) = +0.0
            wide = validate_spd(np.diag([8e307, 5e-324]))
            same = kl_gaussian(wide, wide)
        assert huge == math.inf
        assert overflowing == [math.inf] * 3
        assert same == 0.0 and math.copysign(1.0, same) == 1.0

    def test_scalar_path_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            # ratios up to e^6; the 1e-12 absolute tolerance needs kl << 1e3
            vx, vy = np.exp(rng.uniform(-3, 3, size=2))
            dense = kl_gaussian(validate_spd([[vx]]), validate_spd([[vy]]))
            assert dense == pytest.approx(kl_scalar(vx, vy), abs=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            dim = 1 + trial % 6
            sx = random_spd(dim, derive_seed(trial, 4), 50.0)
            sy = random_spd(dim, derive_seed(trial, 5), 50.0)
            a = rng.standard_normal((dim, dim))
            while np.linalg.cond(a) > 100.0:
                a = rng.standard_normal((dim, dim))
            base = kl_gaussian(sx, sy)
            moved = kl_gaussian(validate_spd(a @ sx.entries @ a.T),
                                validate_spd(a @ sy.entries @ a.T))
            assert abs(moved - base) <= 1e-8 * max(1.0, abs(base))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_gaussian(validate_spd(np.eye(2)), validate_spd(np.eye(3)))


class TestDiagonalLowerBound:
    def test_matched_diagonals_zero(self):
        lx = spectrum(1, 1)
        sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        assert diagonal_lower_bound(lx, sy) == 0.0

    def test_worked_value(self):
        lx = spectrum(1, 1)
        sy = validate_spd([[2.0, 0.3], [0.3, 1.0]])
        assert diagonal_lower_bound(lx, sy) == pytest.approx(0.1534264097200273, abs=1e-12)
        # per-coordinate scalar terms, checked against the quadrature oracle
        assert diagonal_lower_bound(lx, sy) == pytest.approx(
            kl_scalar_quad(1.0, 2.0) + kl_scalar_quad(1.0, 1.0), abs=1e-6)

    def test_depends_only_on_diagonal(self):
        lx = spectrum(1, 1)
        dense = diagonal_lower_bound(lx, validate_spd([[2.0, 0.3], [0.3, 1.0]]))
        plain = diagonal_lower_bound(lx, validate_spd(np.diag([2.0, 1.0])))
        assert dense == plain

    def test_equals_kl_diagonal_of_target_diagonal(self):
        for dim in (*range(1, 9), 64, 512):
            for seed in range(3):
                lx = random_diag_spectrum(dim, derive_seed(seed, 12))
                sy = random_spd(dim, derive_seed(seed, 13), 1e4)
                assert diagonal_lower_bound(lx, sy) == kl_diagonal(lx, sy.diagonal())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diagonal_lower_bound(spectrum(1, 1, 1), validate_spd(np.eye(2)))


class TestKlGapDiagonal:
    def test_diagonal_target_gap_vanishes(self):
        for seed in range(100):
            dim = 1 + seed % 6
            lx = random_diag_spectrum(dim, derive_seed(seed, 6))
            sy = validate_spd(np.diag(random_diag_spectrum(dim, derive_seed(seed, 7)).variances))
            rep = kl_gap_diagonal(lx, sy)
            assert abs(rep.kl_exact - rep.bound) <= 1e-10
            assert rep.gap >= 0.0

    def test_worked_gap(self):
        lx = spectrum(1, 1)
        sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        rep = kl_gap_diagonal(lx, sy)
        assert rep.bound == 0.0
        assert rep.gap == pytest.approx(0.14384103622589045, abs=1e-9)

    def test_positive_gap_for_correlated_target(self):
        lx = spectrum(1, 1)
        rep = kl_gap_diagonal(lx, validate_spd([[2.0, 0.3], [0.3, 1.0]]))
        assert rep.bound == pytest.approx(0.1534264097200273, abs=1e-12)
        assert rep.gap > 0.0

    def test_gap_nonnegative_random(self):
        for seed in range(500):
            dim = 1 + seed % 8
            lx = random_diag_spectrum(dim, derive_seed(seed, 8))
            sy = random_spd(dim, derive_seed(seed, 9), 1000.0)
            rep = kl_gap_diagonal(lx, sy)
            assert rep.kl_exact - rep.bound >= -1e-10
            assert rep.gap >= 0.0

    def test_diagonal_target_gap_is_exactly_zero(self):
        # The subtraction route rounded this case to a tiny negative gap.
        lx = random_diag_spectrum(6, derive_seed(2, 0))
        d = random_diag_spectrum(6, derive_seed(2, 1))
        rep = kl_gap_diagonal(lx, validate_spd(np.diag(d.variances)))
        assert rep.gap == 0.0
        assert math.copysign(1.0, rep.gap) == 1.0
        assert rep.kl_exact == rep.bound

    def test_wide_variance_sweep_matches_total_correlation(self):
        # lx spans [1e-8, 1e8], far past VARIANCE_RANGE: the divergence reaches
        # ~1e8 nats, yet the gap keeps the closed-form tolerance.
        for seed in range(2000):
            dim = 1 + seed % 8
            lx = random_diag_spectrum(dim, derive_seed(seed, 10), 1e-8, 1e8)
            sy = random_spd(dim, derive_seed(seed, 11), 1e4)
            rep = kl_gap_diagonal(lx, sy)
            assert rep.gap >= 0.0
            assert abs(rep.gap - total_correlation(sy.entries)) <= CLOSED_FORM_TOL
            assert kl_gap_diagonal(lx, validate_spd(np.diag(np.diag(sy.entries)))).gap == 0.0


class TestGaussianEntropy:
    def test_standard_normal_against_quadrature(self):
        h = gaussian_entropy(validate_spd([[1.0]]))
        assert h == pytest.approx(1.4189385332046727, abs=1e-12)
        assert h == pytest.approx(entropy_quad(1.0), abs=1e-9)

    def test_additive_over_independent_coordinates(self):
        h2 = gaussian_entropy(validate_spd(np.eye(2)))
        assert h2 == pytest.approx(2 * 1.4189385332046727, abs=1e-12)

    def test_two_dimensional_monte_carlo(self):
        # -E[ln p] under the model itself
        model = GaussianModel(validate_spd(np.eye(2)))
        draws = model.sample(200_000, seed=31)
        lp = model.log_density_batch(draws)
        se = lp.std(ddof=1) / math.sqrt(lp.size)
        assert abs(-lp.mean() - gaussian_entropy(model.covariance)) <= 4.0 * se

    def test_log_variance_shift(self):
        h = gaussian_entropy(validate_spd([[math.e ** 2]]))
        assert h == pytest.approx(1.4189385332046727 + 1.0, abs=1e-12)
        assert h == pytest.approx(entropy_quad(math.e ** 2), abs=1e-9)
