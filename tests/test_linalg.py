import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gausskl import (
    AsymmetryExceedsTolerance,
    GaussianModel,
    MatrixParseError,
    MixtureModel,
    NonPositiveVariance,
    NotPositiveDefinite,
    NotSquare,
    build_matched_mixture,
    check_prop2,
    derive_seed,
    kl_gaussian,
    mc_kl,
    random_diag_spectrum,
    random_spd,
    read_matrix_csv,
    validate_spd,
    write_matrix_csv,
)
from gausskl import estimators, linalg
from gausskl.linalg import MAX_DIM, DiagSpectrum
from oracles import sign_fixed_symmetric


class TestValidateSpd:
    def test_identity_accepted(self):
        a = validate_spd(np.eye(2))
        assert a.dim == 2
        np.testing.assert_array_equal(a.entries, np.eye(2))

    def test_correlated_matrix_accepted(self):
        # leading minors 1 and 0.75 are both positive
        a = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        assert a.dim == 2

    def test_indefinite_rejected(self):
        # determinant 1*1 - 2*2 = -3 < 0
        with pytest.raises(NotPositiveDefinite):
            validate_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            validate_spd(np.ones((2, 3)))
        with pytest.raises(NotSquare):
            validate_spd(np.ones(4))
        with pytest.raises(NotSquare):
            validate_spd(np.zeros((0, 0)))

    def test_small_asymmetry_averaged(self):
        raw = np.array([[1.0, 0.5 + 4e-9], [0.5, 1.0]])
        a = validate_spd(raw)
        assert a.entries[0, 1] == a.entries[1, 0] == pytest.approx(0.5 + 2e-9, abs=1e-15)

    def test_large_asymmetry_rejected(self):
        raw = np.array([[1.0, 0.5 + 1e-6], [0.5, 1.0]])
        with pytest.raises(AsymmetryExceedsTolerance):
            validate_spd(raw)

    def test_overflowing_asymmetry_rejected(self):
        # 1e308 - (-1e308) overflows: an infinite asymmetry, raised without a RuntimeWarning.
        with pytest.raises(AsymmetryExceedsTolerance, match="relative asymmetry inf"):
            validate_spd([[1e308, 1e308], [-1e308, 1e308]])

    def test_non_finite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_spd([[1.0, np.nan], [np.nan, 1.0]])

    def test_diagonal_route_takes_only_a_positive_finite_diagonal(self, monkeypatch):
        # Zeros only off a positive, finite diagonal: the spectrum route, no factorization.
        # Anything else, NaN, inf, zero or negative variances included, takes the
        # Cholesky route and is judged there.
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or original(a))
        a = validate_spd([[2.0, -0.0], [-0.0, 3.0]])
        assert calls == [] and a.entries.tobytes() == np.diag([2.0, 3.0]).tobytes()
        for diag in ([np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(NotPositiveDefinite):
                validate_spd(np.diag(diag))
        assert len(calls) == 2  # NaN and inf fail the finiteness check before factoring
        for raw in ([[2.0, 1e-300], [1e-300, 3.0]], [[2.0, 1e-9], [-1e-9, 3.0]]):
            validate_spd(raw)
        assert len(calls) == 4

    def test_oversize_dimension_rejected(self):
        with pytest.raises(ValueError):
            validate_spd(np.eye(513))

    def test_entries_near_overflow_certify(self):
        # raw + raw.T overflows above about 9e307; the average must not
        for raw in ([[1e308]], [[1.5e308, 1e307], [1e307, 1.2e308]]):
            a = validate_spd(raw)
            np.testing.assert_array_equal(a.entries, raw)
            assert np.all(np.isfinite(a.lower)) and math.isfinite(a.log_det)

    def test_entries_are_read_only(self):
        a = validate_spd(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0
        with pytest.raises(ValueError):
            a.lower[0, 0] = 5.0

    def test_input_array_is_not_frozen_or_aliased(self):
        raw = np.eye(2)
        a = validate_spd(raw)
        raw[0, 0] = 5.0
        assert a.entries[0, 0] == 1.0


class TestFactoredOnce:
    def test_one_factorization_per_certification_none_per_divergence(self, monkeypatch):
        calls = []
        original = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        sx = validate_spd(np.diag([1.0, 4.0, 2.0]))  # a spectrum: never factored
        assert len(calls) == 0
        sy = random_spd(3, 5, 100.0)
        assert len(calls) == 1
        kl_gaussian(sx, sy)
        kl_gaussian(sy, sx)
        assert len(calls) == 1
        DiagSpectrum.from_variances([1.0, 4.0, 2.0]).as_matrix()
        sy.diagonal().as_matrix()
        assert len(calls) == 1
        validate_spd(sy.entries)
        assert len(calls) == 2

    @pytest.mark.parametrize("dims", [[2, 2], [3, 3, 2]])
    def test_prop2_trial_factors_blocks_sy_and_marginals_only(self, monkeypatch, dims):
        # Per trial: each reference block, sy and each marginal of sy.  The
        # two block-diagonal matrices are assembled from those factors.  A
        # stacked call factors as many matrices as its leading dimension.
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(len(a) if a.ndim == 3 else 1) or original(a))
        trials = 3
        check_prop2(dims, trials, 1)
        assert sum(calls) == trials * (2 * len(dims) + 1)

    def test_one_triangular_solve_per_row_block(self, monkeypatch):
        # One solve per 64-row block of M, ceil(m / 64), no inverse and no
        # factorization; against a diagonal reference, no solve either (the
        # package loads no LAPACK file: see test_estimators' import test).
        pairs = [(m, sx, random_spd(m, 9, 100.0)) for m in (4, 64, 65, 130)
                 for sx in (random_spd(m, 8, 100.0), random_diag_spectrum(m, 8).as_matrix())]
        solves, blas = [], linalg._extension("_fblas")
        monkeypatch.setattr(blas, "dtrsm",
                            lambda *a, dtrsm=blas.dtrsm: solves.append(1) or dtrsm(*a))
        chols, chol = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: chols.append(1) or chol(a))
        for m, sx, sy in pairs:
            solves.clear()
            kl_gaussian(sx, sy)
            diagonal = np.count_nonzero(sx.lower) == m
            assert (len(solves), len(chols)) == ((0, 0) if diagonal else (-(-m // 64), 0))

    def test_monte_carlo_estimate_solves_once_and_forms_no_points(self, monkeypatch):
        # One d x d solve whitens px against py; no sample matrix, no (d, n) solve.
        py = build_matched_mixture(random_spd(3, 4, 10.0), 0.4, 0.5)
        px = GaussianModel(random_spd(3, 5, 10.0))
        solves, solve = [], estimators.solve_triangular

        def recording(a, b):
            solves.append(("solve_triangular", b.shape))
            return solve(a, b)

        monkeypatch.setattr(estimators, "solve_triangular", recording)

        def never(*args, **kwargs):
            raise AssertionError("mc_kl materialized its draws")

        for cls in (GaussianModel, MixtureModel):
            monkeypatch.setattr(cls, "sample", never)
            monkeypatch.setattr(cls, "log_density_batch", never)
        mc_kl(py, px, 20_000, seed=3)
        assert solves == [("solve_triangular", (3, 3))]


PARITY_DIMS = [1, 2, 3, 8, 17, 65, 200]


class TestLapack:
    # linalg.solve_triangular makes BLAS calls of its own; they must give scipy's
    # solve_triangular (LAPACK dtrtrs) bits, bit for bit.
    @staticmethod
    def systems(m):
        # Factors at scales far from 1, against each other in both orders (square full and
        # diagonal right-hand sides), and against 1 to 8193 columns, C- and F-ordered, also
        # with a row of +inf, -inf, NaN or 1e308.
        for seed, scale in enumerate((1e-300, 1e-3, 1.0, 1e3, 1e300)):
            a = validate_spd(scale * random_spd(m, seed, 100.0).entries).lower
            for b in (random_spd(m, seed + 50, 10.0).lower,
                      random_diag_spectrum(m, seed).as_matrix().lower):
                yield a, b
                yield b, a
            rng = np.random.default_rng(seed)
            for k in (1, 2, 3, 7, 8193):
                b = rng.standard_normal((m, k))
                yield a, b
                yield a, np.asfortranarray(b)  # _quad_form's points.T
                for value in (math.inf, -math.inf, math.nan, 1e308):
                    c = b.copy()
                    c[m // 2] = value
                    yield a, c

    @pytest.mark.parametrize("m", PARITY_DIMS)
    def test_solve_triangular_matches_scipy_bit_for_bit(self, m):
        for a, b in self.systems(m):
            expected = scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False)
            x = linalg.solve_triangular(a, b)
            assert x.shape == expected.shape
            assert x.tobytes() == expected.tobytes(), (m, b.shape)

    def test_parity_holds_at_two_openblas_threads(self):
        # OpenBLAS threads large trsv and trsm calls (and dtrtrs): the same check in a
        # fresh interpreter whose OpenBLAS runs two threads.
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(linalg.__file__).resolve().parents[1])}
        code = ("import test_linalg\nfor m in test_linalg.PARITY_DIMS:\n"
                "    test_linalg.TestLapack().test_solve_triangular_matches_scipy_bit_for_bit(m)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_positional_signatures_the_kernel_relies_on(self):
        # divergence._kl passes dtrsm's flags by position; scipy's f2py docstring
        # names the order (any scipy >= 1.10 is allowed).
        signature = linalg._extension("_fblas").dtrsm.__doc__.splitlines()[0].split(" = ")[1]
        assert signature == "dtrsm(alpha,a,b,[side,lower,trans_a,diag,overwrite_b])"

    def test_zero_pivot_raises(self):
        # dtrtrs's rule, for one column and several: an exact zero pivot (-0.0 too) is
        # singular, a NaN pivot is not.
        a = np.tril(np.ones((3, 3)))
        for k in (1, 2):
            for pivot in (0.0, -0.0):
                a[1, 1] = pivot
                with pytest.raises(np.linalg.LinAlgError):
                    linalg.solve_triangular(a, np.ones((3, k)))
            a[1, 1] = math.nan
            expected = scipy.linalg.solve_triangular(a, np.ones((3, k)), lower=True,
                                                     check_finite=False)
            assert linalg.solve_triangular(a, np.ones((3, k))).tobytes() == expected.tobytes()


class TestCholesky:
    def test_diagonal_factor(self):
        f = validate_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(f.lower, np.diag([2.0, 3.0]), rtol=0, atol=1e-15)
        # det = 4 * 9 = 36
        assert f.log_det == pytest.approx(3.58351893845611, abs=1e-12)

    def test_identity_factor(self):
        f = validate_spd(np.eye(5))
        np.testing.assert_array_equal(f.lower, np.eye(5))
        assert f.log_det == 0.0

    def test_log_det_from_2x2_determinant(self):
        # det [[1,.5],[.5,1]] = 0.75 by the textbook formula
        f = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        assert f.log_det == pytest.approx(math.log(0.75), abs=1e-12)
        assert f.log_det == pytest.approx(-0.2876820724517809, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_reconstruction(self, dim):
        for seed in range(40):
            a = random_spd(dim, seed, 100.0)
            rebuilt = a.lower @ a.lower.T
            err = np.linalg.norm(rebuilt - a.entries) / np.linalg.norm(a.entries)
            assert err <= 1e-10
            assert np.all(np.diag(a.lower) > 0.0)
            assert np.array_equal(a.lower, np.tril(a.lower))

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_log_det_scaling(self, c):
        for seed in range(20):
            a = random_spd(4, seed, 50.0)
            scaled = validate_spd(c * a.entries)
            expected = a.log_det + 4 * math.log(c)
            assert scaled.log_det == pytest.approx(expected, abs=1e-9)


class TestRandomSpd:
    def test_deterministic(self):
        a = random_spd(3, 42, 10.0)
        b = random_spd(3, 42, 10.0)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_one_dimensional(self):
        for seed in (0, 1, 99):
            a = random_spd(1, seed, 1.0)
            assert a.entries[0, 0] > 0.0

    def test_output_validates(self):
        a = random_spd(4, 7, 100.0)
        validate_spd(a.entries)

    def test_many_seeds_validate(self):
        # 1000 seeds spread over dims 1..8
        for seed in range(1000):
            dim = 1 + seed % 8
            a = random_spd(dim, seed, 10.0 ** (seed % 5))
            assert a.dim == dim  # validate_spd already ran inside

    def test_spectrum_within_condition_target(self):
        cond = 100.0
        for seed in range(20):
            a = random_spd(6, seed, cond)
            eigs = np.linalg.eigvalsh(a.entries)
            assert eigs.min() >= 1.0 / math.sqrt(cond) * (1 - 1e-9)
            assert eigs.max() <= math.sqrt(cond) * (1 + 1e-9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_spd(0, 1, 10.0)
        with pytest.raises(ValueError):
            random_spd(2, 1, 0.5)

    @pytest.mark.parametrize("cond", [math.nan, math.inf])
    def test_non_finite_condition_target(self, cond):
        with pytest.raises(ValueError, match=f"must be finite and >= 1, got {cond}"):
            random_spd(2, 1, cond)

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e300, sys.float_info.max])
    @pytest.mark.parametrize("dim", [1, 2, 8, 64, 512])
    def test_draws_are_exactly_symmetric_and_finite(self, dim, cond):
        # The invariant that lets random_spd and the campaigns factor their draws
        # without validate_spd's finiteness and asymmetry scans.
        rngs = [np.random.default_rng(derive_seed(dim, t)) for t in range(2 if dim > 64 else 5)]
        a = linalg._random_symmetric(dim, rngs, cond)
        assert a.shape == (len(rngs), dim, dim)
        assert np.array_equal(a, a.swapaxes(-1, -2))
        assert np.all(np.isfinite(a))

    def test_seed_range_is_numpy_s(self):
        # Seeds reach np.random.default_rng as given: above 2**64 is accepted,
        # a negative seed is a ValueError.
        a = random_spd(3, 2 ** 64 + 5, 10.0)
        np.testing.assert_array_equal(a.entries, random_spd(3, 2 ** 64 + 5, 10.0).entries)
        with pytest.raises(ValueError):
            random_spd(3, -1, 10.0)

    @pytest.mark.parametrize("cond", [1.0, 1e4])
    @pytest.mark.parametrize("n", [1, 4, 25])
    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_draws_equal_the_sign_fixed_reference_bit_for_bit(self, dim, n, cond):
        # Flipping a column of q flips both factors of its term in q diag(e) q.T, so the
        # draws need no sign fix to be the Haar-conjugated ones.
        seeds = [derive_seed(dim, t) for t in range(n)]
        a = linalg._random_symmetric(dim, [np.random.default_rng(s) for s in seeds], cond)
        assert a.tobytes() == sign_fixed_symmetric(dim, seeds, cond).tobytes()


class TestInPlaceDraws:
    # Each generator fills its own row or slab, in generator order, with the draws
    # default_rng(seed) gives for random(dim) and then standard_normal((dim, dim)).
    @staticmethod
    def streams(n):
        seeds = [derive_seed(17, i) for i in range(n)]
        return seeds, [np.random.default_rng(s) for s in seeds]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_log_uniform_rows_are_each_generators_uniforms(self, n, dim):
        seeds, rngs = self.streams(n)
        rows = linalg._log_uniform(dim, rngs, -2.0, 3.0)
        assert rows.shape == (n, dim)
        for s, row, rng in zip(seeds, rows, rngs):
            ref = np.random.default_rng(s)
            assert row.tobytes() == np.exp(-2.0 + 5.0 * ref.random(dim)).tobytes()
            assert rng.random() == ref.random()  # each stream is left where the reference is

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_random_symmetric_slabs_are_each_generators_normals(self, monkeypatch, n, dim):
        drawn, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda g: drawn.append(g.copy()) or qr(g))
        seeds, rngs = self.streams(n)
        linalg._random_symmetric(dim, rngs, 100.0)
        (slabs,) = drawn
        assert slabs.shape == (n, dim, dim)
        for s, slab, rng in zip(seeds, slabs, rngs):
            ref = np.random.default_rng(s)
            ref.random(dim)  # the eigenvalues come first
            assert slab.tobytes() == ref.standard_normal((dim, dim)).tobytes()
            assert rng.random() == ref.random()


class TestDiagSpectrum:
    def test_positive_variances_required(self):
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([1.0, 0.0])
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([1.0, -2.0])
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([])

    def test_spectrum_built_directly_is_checked(self):
        # The check runs where a spectrum is built, not first at as_matrix().
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum(dim=2, variances=np.array([-1.0, 1.0]))
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum(dim=2, variances=np.array([np.nan, 1.0]))
        with pytest.raises(NonPositiveVariance, match="dim = 3"):
            DiagSpectrum(dim=3, variances=np.array([1.0, 2.0]))

    def test_as_matrix_round_trip(self):
        lx = DiagSpectrum.from_variances([2.0, 3.0])
        m = lx.as_matrix()
        np.testing.assert_array_equal(m.entries, np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(m.diagonal().variances, lx.variances)

    def test_spectrum_routes_equal_cholesky_route_bit_for_bit(self):
        # as_matrix and validate_spd of a diagonal take square roots; the reference
        # factors the same matrix with numpy's Cholesky.  Variances over the whole
        # positive double range, subnormals included; tobytes() compares every bit,
        # zero signs included, and log_det is compared by its hex form.
        rng = np.random.default_rng(17)
        for k in range(400):
            dim = 1 + k % 8 if k % 20 else int(rng.integers(9, MAX_DIM + 1))
            v = np.exp(rng.uniform(math.log(5e-324), math.log(1.7e308), size=dim))
            sym = np.diag(v)
            dense = linalg._certified(sym, linalg._factor(sym))
            for fast in (DiagSpectrum.from_variances(v).as_matrix(), validate_spd(np.diag(v))):
                assert fast.dim == dense.dim
                assert fast.entries.tobytes() == dense.entries.tobytes()
                assert fast.lower.tobytes() == dense.lower.tobytes()
                assert fast.variances.tobytes() == dense.variances.tobytes()
                assert np.diag(fast.lower).tobytes() == np.diag(dense.lower).tobytes()
                assert fast.relative_off_squares.tobytes() == dense.relative_off_squares.tobytes()
                assert fast.log_det.hex() == dense.log_det.hex()
                assert not fast.entries.flags.writeable and not fast.lower.flags.writeable

    @pytest.mark.parametrize("m", [1, 8, 65, 512])
    def test_certified_diagonals(self, m):
        # variances is a read-only contiguous copy of the entries' diagonal,
        # relative_off_squares the row sums of squares of lower's strict-lower
        # rows divided by their pivots (diag(lower)), and log_det keeps the bits
        # of the sum over diag(lower).  Taking the row sums leaves lower numpy's
        # factor, bit for bit.
        v = np.exp(np.random.default_rng(m).uniform(-30.0, 30.0, size=m))
        dense, diagonal = random_spd(m, m, 1e4).entries, DiagSpectrum.from_variances(v)
        for a in (validate_spd(dense), diagonal.as_matrix()):
            assert a.lower.tobytes() == np.linalg.cholesky(a.entries).tobytes()
            assert a.variances.tobytes() == np.diag(a.entries).tobytes()
            strict = np.tril(a.lower, -1) / np.diag(a.lower)[:, None]
            assert a.relative_off_squares.tobytes() == np.einsum("ij,ij->i", strict,
                                                                 strict).tobytes()
            for vector in (a.variances, a.relative_off_squares):
                assert vector.flags.c_contiguous and not vector.flags.writeable
            assert not hasattr(a, "pivots")  # the pivots are diag(lower), not stored again
            assert a.log_det.hex() == (2.0 * float(np.sum(np.log(np.diag(a.lower))))).hex()

    def test_as_matrix_rejects_dimension_above_max(self):
        lx = DiagSpectrum.from_variances(np.ones(MAX_DIM + 1))
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            lx.as_matrix()


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        a = random_spd(5, 3, 1000.0)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, a.entries)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, a.entries)

    def test_blank_lines_ignored(self, tmp_path):
        # the whitespace-only line would be a one-column row to loadtxt alone
        path = tmp_path / "m.csv"
        path.write_text("1,0\n\n \t \n0,1\n")
        np.testing.assert_array_equal(read_matrix_csv(path), np.eye(2))

    def test_writer_bytes_match_repr_oracle(self, tmp_path):
        a = np.array([[-0.0, 5e-324, 1e300, -1e-300],
                      [1.0 / 3.0, -2.5, 1e-300, -1e300],
                      [0.0, 2.0 ** -1074 * 3, 123456789.0, 0.1]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, a)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)
        assert path.read_bytes() == expected.encode("ascii")
        back = read_matrix_csv(path)
        assert back.tobytes() == a.tobytes()  # -0.0 and the subnormals survive

    def test_underscore_numerals_rejected(self, tmp_path):
        # Python's float() accepts "1_000"; matrix files do not
        path = tmp_path / "m.csv"
        path.write_text("1_000,0\n0,1\n")
        with pytest.raises(MatrixParseError, match="m.csv"):
            read_matrix_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1,2\n")
        with pytest.raises(MatrixParseError):
            read_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,zebra\n0,1\n")
        with pytest.raises(MatrixParseError):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        for text in ("\n", "", " \n\t\n"):
            path.write_text(text)
            with pytest.raises(MatrixParseError, match="no numeric rows"):
                read_matrix_csv(path)
