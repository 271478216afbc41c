import dataclasses
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
from gausskl import divergence, linalg
from gausskl.harness import CLOSED_FORM_TOL, _generators, derive_seed
from gausskl.linalg import _factor, _random_symmetric

from oracles import (covariance_mpmath, det2, diagonal_sum_reference, entropy_quad,
                     excess_series, kl_determinant_route, kl_factors_column_reference,
                     kl_factors_longdouble, kl_factors_reference, kl_mpmath, kl_scalar_quad,
                     log_uniform_spectrum, total_correlation, weakly_correlated)


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
        # exactly +0.0: the unit-diagonal solves give M = I bit for bit, the
        # later row blocks' products and solves too (m > 64)
        for dim in (*range(1, 9), 64, 65, 129, 130, 512):
            a = random_spd(dim, dim * 11, 100.0)
            for copy in (a, validate_spd(2.0 ** 300 * a.entries),
                         validate_spd(2.0 ** -300 * a.entries)):
                kl = kl_gaussian(copy, copy)
                assert kl == 0.0 and math.copysign(1.0, kl) == 1.0

    @pytest.mark.parametrize("m", [*range(1, 9), 63, 64, 65, 127, 128, 129, 512])
    def test_self_divergence_is_plus_zero_as_a_stack(self, m):
        # KL(S, S) is exactly +0.0 in every slice, either side of each 64-row block
        # boundary: dense factors at cond 1e2..1e10 and scales 2**+-300, then diagonal ones.
        scales = (1.0, 2.0 ** 300, 2.0 ** -300)
        dense = [validate_spd(scale * random_spd(m, derive_seed(m, 40 + i), cond).entries)
                 for i, cond in enumerate((1e2, 1e6, 1e10)) for scale in scales]
        diagonal = [random_diag_spectrum(m, derive_seed(m, 50 + i)).as_matrix() for i in range(3)]
        for stack in (dense, diagonal):
            lower = np.stack([s.lower for s in stack])
            values = divergence._kl(lower, lower)
            assert values.tolist() == [0.0] * len(stack)
            assert np.all(np.copysign(1.0, values) == 1.0)

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

    @pytest.mark.parametrize("m", [65, 129, 200])
    def test_solve_blocks_against_determinant_route(self, m):
        # Across the kernel's 64-row blocks, against tr(Sx^-1 Sy) and
        # LU log-determinants of the stored matrices, for a dense and a
        # diagonal reference.
        sy = random_spd(m, derive_seed(m, 70), 100.0)
        for sx in (random_spd(m, derive_seed(m, 71), 100.0),
                   random_diag_spectrum(m, derive_seed(m, 72)).as_matrix()):
            assert kl_gaussian(sx, sy) == pytest.approx(
                kl_determinant_route(sx.entries, sy.entries), rel=1e-10)

    def test_diagonal_pair_matches_scalar_sum(self):
        sx = validate_spd(np.diag([1.0, 4.0]))
        sy = validate_spd(np.diag([2.0, 8.0]))
        expected = kl_scalar(1.0, 2.0) + kl_scalar(4.0, 8.0)
        assert kl_gaussian(sx, sy) == pytest.approx(expected, abs=1e-10)
        assert kl_gaussian(sx, sy) == pytest.approx(0.3068528194400546, abs=1e-10)

    def test_nonnegativity_sweep(self):
        # 10000 random pairs across dims 1..8: per dim, the 1250 pairs
        # random_spd(dim, derive_seed(seed, 2 * dim + k), 100.0), k = 0, 1, drawn,
        # factored and scored as stacks, with random_spd's and kl_gaussian's
        # bits, as public calls on every 50th pair show.
        count = 0
        for dim in range(1, 9):
            seeds = [[derive_seed(seed, 2 * dim + k) for seed in range(1250)] for k in (0, 1)]
            sx, sy = (_factor(_random_symmetric(dim, _generators(s), 100.0)) for s in seeds)
            values = divergence._kl(sx, sy)
            assert np.all(values >= 0.0)
            count += values.size
            for t in range(0, 1250, 50):
                assert values[t] == kl_gaussian(*(random_spd(dim, s[t], 100.0) for s in seeds))
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
            lx = log_uniform_spectrum(dim, derive_seed(seed, 10), 1e-8, 1e8)
            sy = random_spd(dim, derive_seed(seed, 11), 1e4)
            rep = kl_gap_diagonal(lx, sy)
            assert rep.gap >= 0.0
            assert abs(rep.gap - total_correlation(sy.entries)) <= CLOSED_FORM_TOL
            assert kl_gap_diagonal(lx, validate_spd(np.diag(np.diag(sy.entries)))).gap == 0.0

    def test_gap_matches_mpmath(self):
        # Weak correlations live in the factor's off-diagonal entries, not in its
        # pivots: the gap keeps them, relative to the 60-digit total correlation.
        subjects = [weakly_correlated(m, rho, seed) for m in (2, 3, 5, 8, 16)
                    for rho in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9) for seed in range(2)]
        subjects += [random_spd(m, derive_seed(seed, m), cond).entries for m in (2, 3, 5, 8, 16)
                     for cond in (1e2, 1e4) for seed in range(2)]
        for i, sy in enumerate(subjects):
            m = len(sy)
            gap = kl_gap_diagonal(random_diag_spectrum(m, derive_seed(5, i)), validate_spd(sy)).gap
            gap_true = kl_mpmath(np.diag(np.diag(sy)), sy)
            assert abs(gap - gap_true) <= 1e-14 * gap_true, i

        # L22 = sqrt(1 - 1e-18) rounds to 1: only L21 carries the correlation.
        rep = kl_gap_diagonal(spectrum(1, 1), validate_spd([[1.0, 1e-9], [1e-9, 1.0]]))
        assert rep.gap == rep.kl_exact == pytest.approx(5e-19, rel=1e-15, abs=0.0)

    def test_gap_matches_mpmath_at_the_ends_of_the_double_range(self):
        # Each factor row is divided by its pivot before it is squared, so no
        # square underflows, and none overflows.
        subjects = [weakly_correlated(m, rho, seed) * scale for scale in (1e-300, 1e306)
                    for m in (2, 5, 8) for rho in (1e-1, 1e-5, 1e-9) for seed in range(2)]
        for i, sy in enumerate(subjects):
            gap = kl_gap_diagonal(spectrum(*[1.0] * len(sy)), validate_spd(sy)).gap
            gap_true = kl_mpmath(np.diag(np.diag(sy)), sy)
            assert abs(gap - gap_true) <= 1e-13 * gap_true, i

        # Subnormal variances: the squares of the factor's entries all underflow
        # to 0, but the ratios to the pivots keep the correlation.
        sy = np.array([[1e-320, 5e-324], [5e-324, 1e-320]])
        gap = kl_gap_diagonal(spectrum(1, 1), validate_spd(sy)).gap
        assert abs(gap - kl_mpmath(np.diag(np.diag(sy)), sy)) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("m", [1, 8, 65, 512])
    def test_o_m_kernels_read_no_matrix(self, m):
        # The bound, the gap and diagonal() read only the certified diagonals,
        # so NaN-filled m x m arrays leave every bit of them unchanged.
        lx = random_diag_spectrum(m, derive_seed(m, 12))
        sy = random_spd(m, derive_seed(m, 13), 100.0)
        nan = np.full((m, m), np.nan)
        blind = dataclasses.replace(sy, entries=nan, lower=nan)
        rep, rep_blind = kl_gap_diagonal(lx, sy), kl_gap_diagonal(lx, blind)
        for field in ("kl_exact", "bound", "gap"):
            assert getattr(rep_blind, field).hex() == getattr(rep, field).hex()
        assert diagonal_lower_bound(lx, blind).hex() == diagonal_lower_bound(lx, sy).hex()
        assert blind.diagonal().variances.tobytes() == sy.diagonal().variances.tobytes()


class TestStackedKernels:
    # The (T, m, m) kernels behind kl_gaussian and diagonal_lower_bound give
    # every slice the bits of the single-matrix call and of the single-matrix
    # reference formula (tests/oracles.py), which sums M's squares block by
    # block in row-major order and the diagonal terms left to right.
    @pytest.mark.parametrize("m,t", [(m, 12) for m in range(1, 9)]
                             + [(64, 3), (65, 2), (65, 3), (128, 2), (129, 2), (130, 2),
                                (130, 3), (200, 2), (512, 2)])
    def test_stack_equals_single_matrix_calls(self, m, t):
        sx = [random_spd(m, derive_seed(m, i), 1e4) for i in range(t)]
        sy = [random_spd(m, derive_seed(m, t + i), 1e4) for i in range(t)]
        lx = [random_diag_spectrum(m, derive_seed(m, 2 * t + i)) for i in range(t)]
        for ref in (sx, [d.as_matrix() for d in lx]):
            stacked = divergence._kl(np.stack([a.lower for a in ref]),
                                     np.stack([b.lower for b in sy]))
            assert [v.hex() for v in stacked.tolist()] == [
                kl_gaussian(a, b).hex() for a, b in zip(ref, sy)] == [
                kl_factors_reference(a.lower, b.lower).hex() for a, b in zip(ref, sy)]
        sums = divergence._diagonal_sum(np.stack([d.variances for d in lx]),
                                        np.stack([np.diag(b.entries) for b in sy]))
        assert [v.hex() for v in sums.tolist()] == [
            diagonal_lower_bound(d, b).hex() for d, b in zip(lx, sy)] == [
            diagonal_sum_reference(d.variances, np.diag(b.entries)).hex() for d, b in zip(lx, sy)]

    @pytest.mark.parametrize("m", [*range(1, 65), 65, 71, 128, 130, 193, 200, 256, 449, 512])
    def test_row_and_column_references_agree(self, m):
        # The row-block reference (the kernel's bits) and the column-block one, each held to
        # a long-double forward substitution: a right-side and a left-side solve, summed in
        # different orders.  Measured on these draws at one OpenBLAS thread: row at most 3 ulp
        # off it (at m = 21, 27 and 51; 1 past 64), column at most 5 (at m = 449).
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is no wider than double here")
        for i in range(2):
            sy = random_spd(m, derive_seed(m, 80 + i), 1e4)
            for sx in (random_spd(m, derive_seed(m, 90 + i), 1e4),
                       random_diag_spectrum(m, derive_seed(m, 100 + i)).as_matrix()):
                true = kl_factors_longdouble(sx.lower, sy.lower)
                row = kl_factors_reference(sx.lower, sy.lower)
                column = kl_factors_column_reference(sx.lower, sy.lower)
                assert abs(row - true) <= 3 * np.spacing(true), (row, true)
                assert abs(column - true) <= 5 * np.spacing(true), (column, true)

    def test_overflow_in_the_last_row_block_as_a_stack(self):
        # m = 130 is three row blocks.  A pivot ratio dy / dx of 1e310 in the last
        # one, under dense correlations, gives +inf in its own slice with no NaN
        # and no warning; the other slices keep their single-matrix bits.
        m = 130
        sx = random_spd(m, derive_seed(m, 60), 1e4)
        raw_y = random_spd(m, derive_seed(m, 61), 1e4).entries.copy()
        raw_y[-1] *= 1e150
        raw_y[:, -1] *= 1e150
        tiny_x = sx.entries.copy()
        tiny_x[-1], tiny_x[:, -1] = 0.0, 0.0
        tiny_x[-1, -1] = 1e-320
        sy, tiny = validate_spd(raw_y), validate_spd(tiny_x)
        pairs = [(sx, sy), (tiny, sy), (sy, sy)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = divergence._kl(np.stack([a.lower for a, _ in pairs]),
                                    np.stack([b.lower for _, b in pairs]))
            singles = [kl_gaussian(a, b) for a, b in pairs]
        assert not np.any(np.isnan(values))
        assert values[1] == math.inf and math.copysign(1.0, values[2]) == 1.0
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in singles]
        assert math.isfinite(values[0]) and values[2] == 0.0

    def test_extreme_variance_ratios_as_stacks(self):
        # TestKlGaussian::test_extreme_variance_ratios, one stack per dimension:
        # an overflowing pivot ratio gives +inf in its own slice, with no
        # warning and no NaN, and leaves the other slices alone.
        pairs = {1: [([1e-320], [1e300]), ([1.0], [1e-40])],
                 2: [([1e-300] * 2, [1e300] * 2), ([1e-320, 1.0], [1e300, 1.0]),
                     ([1.0, 1e-320], [1e300, 1.0]), ([8e307, 5e-324], [8e307, 5e-324])]}
        expected = {1: [math.inf, 0.5 * (1e-40 - math.log(1e-40) - 1.0)],
                    2: [math.inf, math.inf, math.inf, 0.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, dims in pairs.items():
                lx = np.stack([validate_spd(np.diag(vx)).lower for vx, _ in dims])
                ly = np.stack([validate_spd(np.diag(vy)).lower for _, vy in dims])
                values = divergence._kl(lx, ly)
                assert not np.any(np.isnan(values))
                assert values.tolist() == pytest.approx(expected[m], rel=1e-15)
                assert values.tolist() == [kl_gaussian(validate_spd(np.diag(vx)),
                                                       validate_spd(np.diag(vy)))
                                           for vx, vy in dims]


class TestBlockSolveAccuracy:
    # _kl solves each 64-row block against its diagonal block from the right and
    # sums M block by block; the result is held to the column-block all-solve
    # formula (oracles.kl_factors_column_reference), which solves from the left
    # and sums in column-major order, to mpmath and to a long-double solve.

    @pytest.mark.parametrize("m", [65, 128, 129, 256, 512])
    def test_within_bound_of_the_all_solve_formula(self, m):
        # Measured at most 5.0 eps relative over m = 65..512 in steps of 29, cond 1e2..1e10,
        # 4 pairs each.
        for cond in (1e2, 1e6, 1e10):
            for p in range(2):
                sx = random_spd(m, derive_seed(m, 700 + p), cond)
                sy = random_spd(m, derive_seed(m, 800 + p), cond)
                kl, solved = kl_gaussian(sx, sy), kl_factors_column_reference(sx.lower, sy.lower)
                assert abs(kl - solved) <= 16 * np.finfo(float).eps * solved, (cond, p)

    @pytest.mark.parametrize("m,cond", [(65, 1e2), (65, 1e6), (65, 1e10), (96, 1e6), (96, 1e10)])
    def test_mpmath_error_as_the_all_solve_formula(self, m, cond):
        # Relative errors 1.3e-16, 9.1e-13 and 1.7e-8 at m = 65 (1, 1 and 0 ulp off the
        # all-solve formula), 1.2e-12 and 6.4e-9 at m = 96 (2 and 4 ulp off it).
        sx, sy = (random_spd(m, derive_seed(m, 500 + i), cond) for i in (0, 1))
        true = kl_mpmath(sx.entries, sy.entries, 40)
        kl, solved = kl_gaussian(sx, sy), kl_factors_column_reference(sx.lower, sy.lower)
        assert abs(kl - true) <= abs(solved - true) + 4 * np.spacing(true)

    @pytest.mark.parametrize("m", [65, 130])
    def test_factor_columns_scaled_by_2_to_the_500(self, m):
        # Columns scaled by 2**500 and 2**-500 in turn: M's entries move by up to 2**±1000
        # and the row-normalized factors' by their columns' scaling ratios, so the result
        # is +inf where M's squares overflow, as the all-solve formula's is, else finite;
        # never NaN, no warning.
        lx = random_spd(m, derive_seed(m, 50), 1e4).lower
        ly = random_spd(m, derive_seed(m, 51), 1e4).lower
        d = 2.0 ** np.where(np.arange(m) % 2 == 0, 500, -500)
        pairs = [(lx * d, ly * d), (lx * d, ly / d), (lx * d, ly), (lx, ly * d), (lx, ly)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = divergence._kl(np.stack([a for a, _ in pairs]),
                                    np.stack([b for _, b in pairs]))
        with np.errstate(over="ignore"):
            solved = [kl_factors_column_reference(a, b) for a, b in pairs]
        assert not np.any(np.isnan(values))
        assert [math.isinf(v) for v in values] == [math.isinf(v) for v in solved] == [
            True, True, False, False, False]
        assert np.all(np.abs(values[2:] - solved[2:]) <= 16 * np.finfo(float).eps * values[2:])

    @staticmethod
    def row_scaled(m, k, p):
        # Pair p's factors at dimension m, each row scaled by its own power of two in 2^±k.
        rng = np.random.default_rng(derive_seed(m, 3000 + k + p))
        return [random_spd(m, derive_seed(m, 1000 * q + p), 1e4).lower
                * 2.0 ** rng.integers(-k, k + 1, size=(m, 1)) for q in (1, 2)]

    def test_row_scaled_factors(self):
        # Rows scaled by powers of two: dividing both factors' rows by dx cancels Lx's
        # scalings, and the intermediates are partial sums of M's entries, so the result is
        # +inf exactly where the divergence exceeds the double range and otherwise within
        # 1e-12 of the reference; never NaN, and no warning.
        def values(pairs):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return divergence._kl(np.stack([a for a, _ in pairs]),
                                      np.stack([b for _, b in pairs])).tolist()

        def agree(value, true):
            return value == true if math.isinf(true) else abs(value - true) <= 1e-12 * true

        # Opposite scalings by 2^±500: M's diagonal, and so the divergence, overflows.
        for m in (8, 64, 65, 130):
            lx, ly = (random_spd(m, derive_seed(m, 50 + q), 1e4).lower for q in (0, 1))
            d = 2.0 ** np.where(np.arange(m) % 2 == 0, 500, -500)[:, None]
            assert values([(lx * d, ly / d)]) == [math.inf], m
        # Independent scalings: mpmath on the factors' exact covariances at m = 2..8, the
        # long-double forward substitution, whose exponent range holds M, at m = 65 and 130.
        wide = np.finfo(np.longdouble).nmant >= 63
        for m in [*range(2, 9), *((65, 130) if wide else ())]:
            for k in (100, 250, 510):
                pairs = [self.row_scaled(m, k, p) for p in range(9 if m <= 8 else 4)]
                for (lx, ly), value in zip(pairs, values(pairs)):
                    true = (kl_mpmath(covariance_mpmath(lx), covariance_mpmath(ly)) if m <= 8
                            else kl_factors_longdouble(lx, ly))
                    assert agree(value, true), (m, k, value, true)


class TestDiagonalReference:
    # When every lx slice is diagonal, _kl takes M = b = Ly / dx and makes no solve: a
    # solve against the identity subtracts only 0 * M terms, so the bits are the solve's.

    @staticmethod
    def diagonal(m, seed):
        return random_diag_spectrum(m, derive_seed(m, seed)).as_matrix().lower

    @staticmethod
    def recording(monkeypatch):
        # _kl reads dtrsm off the BLAS extension module once per row block.
        calls, blas = [], linalg._extension("_fblas")
        monkeypatch.setattr(blas, "dtrsm",
                            lambda *a, dtrsm=blas.dtrsm: calls.append(1) or dtrsm(*a))
        return calls

    @pytest.mark.parametrize("m", [*range(1, 9), 64, 65, 130])
    def test_matches_the_solve_references_bit_for_bit(self, monkeypatch, m):
        # Dense subjects at cond 1e2 and 1e10, the reference itself (+0.0) and a diagonal subject.
        calls = self.recording(monkeypatch)
        lx = [self.diagonal(m, 300 + i) for i in range(4)]
        ly = [random_spd(m, derive_seed(m, 310), 1e2).lower,
              random_spd(m, derive_seed(m, 311), 1e10).lower, lx[2], self.diagonal(m, 312)]
        values = divergence._kl(np.stack(lx), np.stack(ly))
        assert [v.hex() for v in values.tolist()] == [
            kl_factors_reference(a, b).hex() for a, b in zip(lx, ly)]
        assert values[2] == 0.0 and math.copysign(1.0, values[2]) == 1.0
        assert calls == []

    @pytest.mark.parametrize("m", [4, 64, 130])
    @pytest.mark.parametrize("dense", [0, 1, 2])
    def test_one_off_diagonal_nonzero_solves_every_slice(self, monkeypatch, m, dense):
        # A single off-diagonal nonzero in one slice of three: one solve per slice and
        # row block, and every slice keeps its reference's bits.
        calls = self.recording(monkeypatch)
        lx = [self.diagonal(m, 320 + i) for i in range(3)]
        lx[dense] = lx[dense].copy()
        lx[dense][-1, 0] = lx[dense][-1, -1]
        ly = [random_spd(m, derive_seed(m, 330 + i), 1e4).lower for i in range(3)]
        values = divergence._kl(np.stack(lx), np.stack(ly))
        assert [v.hex() for v in values.tolist()] == [
            kl_factors_reference(a, b).hex() for a, b in zip(lx, ly)]
        assert len(calls) == 3 * -(-m // 64)

    def test_overflowing_column_ratio_is_never_nan(self):
        # A subnormal first pivot under a row of variance 2**1000: Ly's column 0 divided by
        # that pivot overflows, but against the identity M = Ly / dx = Ly is finite, and so
        # is the divergence: mpmath gives 5.357543035931337e+300.
        c = 0.5 * 2.0 ** -30
        sy = validate_spd(np.array([[2.0 ** -1060, c, 0.0], [c, 2.0 ** 1000, 0.0],
                                    [0.0, 0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kl_gaussian(validate_spd(np.eye(3)), sy)
        true = 5.357543035931337e+300
        assert abs(value - true) <= 2 * np.spacing(true), value


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
