import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from gausskl import (
    AsymmetryExceedsTolerance,
    MatrixParseError,
    NonPositiveVariance,
    NotPositiveDefinite,
    NotSquare,
    check_prop2,
    derive_seed,
    kl_gaussian,
    random_spd,
    read_matrix_csv,
    validate_spd,
    write_matrix_csv,
)
from gausskl import divergence
from gausskl.linalg import MAX_DIM, DiagSpectrum, _block_diagonal


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

    def test_non_finite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_spd([[1.0, np.nan], [np.nan, 1.0]])

    def test_oversize_dimension_rejected(self):
        with pytest.raises(ValueError):
            validate_spd(np.eye(513))

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
        sx = validate_spd(np.diag([1.0, 4.0, 2.0]))
        assert len(calls) == 1
        sy = random_spd(3, 5, 100.0)
        assert len(calls) == 2
        kl_gaussian(sx, sy)
        kl_gaussian(sy, sx)
        assert len(calls) == 2
        DiagSpectrum.from_variances([1.0, 4.0, 2.0]).as_matrix()
        sy.diagonal().as_matrix()
        assert len(calls) == 2

    @pytest.mark.parametrize("dims", [[2, 2], [3, 3, 2]])
    def test_prop2_trial_factors_blocks_sy_and_marginals_only(self, monkeypatch, dims):
        # Per trial: each reference block, sy and each marginal of sy.  The
        # two block-diagonal matrices are assembled from those factors.
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or original(a))
        trials = 3
        check_prop2(dims, trials, 1)
        assert len(calls) == trials * (2 * len(dims) + 1)

    def test_one_triangular_solve_per_divergence(self, monkeypatch):
        sx, sy = random_spd(4, 8, 100.0), random_spd(4, 9, 100.0)
        solves, chols = [], []
        solve, chol = divergence.solve_triangular, np.linalg.cholesky
        monkeypatch.setattr(divergence, "solve_triangular",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: chols.append(1) or chol(a))
        kl_gaussian(sx, sy)
        assert (len(solves), len(chols)) == (1, 0)


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


class TestDiagSpectrum:
    def test_positive_variances_required(self):
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([1.0, 0.0])
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([1.0, -2.0])
        with pytest.raises(NonPositiveVariance):
            DiagSpectrum.from_variances([])

    def test_as_matrix_round_trip(self):
        lx = DiagSpectrum.from_variances([2.0, 3.0])
        m = lx.as_matrix()
        np.testing.assert_array_equal(m.entries, np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(m.diagonal().variances, lx.variances)

    def test_as_matrix_equals_validate_spd_bit_for_bit(self):
        # Variances over 300 decades; tobytes() compares every bit, zero signs
        # included, and log_det is compared by its hex form.
        rng = np.random.default_rng(17)
        for k in range(300):
            dim = 1 + k % 8 if k % 20 else int(rng.integers(9, MAX_DIM + 1))
            v = np.exp(rng.uniform(math.log(1e-150), math.log(1e150), size=dim))
            fast, dense = DiagSpectrum.from_variances(v).as_matrix(), validate_spd(np.diag(v))
            assert fast.dim == dense.dim
            assert fast.entries.tobytes() == dense.entries.tobytes()
            assert fast.lower.tobytes() == dense.lower.tobytes()
            assert fast.log_det.hex() == dense.log_det.hex()
            assert not fast.entries.flags.writeable and not fast.lower.flags.writeable

    def test_as_matrix_rejects_dimension_above_max(self):
        lx = DiagSpectrum.from_variances(np.ones(MAX_DIM + 1))
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            lx.as_matrix()


class TestBlockDiagonal:
    def test_equals_dense_assembly(self):
        # Entries and factor equal scipy's block_diag of the blocks' arrays
        # bit for bit; log_det agrees with refactoring the dense matrix.
        structures = [[1], [1, 1], [2, 2], [1, 2], [3, 3, 2], [4, 1, 3, 2], [8, 5]]
        for seed, dims in enumerate(structures):
            blocks = [random_spd(d, derive_seed(seed, i), 1e4) for i, d in enumerate(dims)]
            blocks.append(DiagSpectrum.from_variances([1e-3, 7.0, 1e3]).as_matrix())
            assembled = _block_diagonal(blocks)
            entries = block_diag(*[b.entries for b in blocks])
            dense = validate_spd(entries)
            assert assembled.dim == sum(dims) + 3
            assert assembled.entries.tobytes() == entries.tobytes()
            assert assembled.lower.tobytes() == block_diag(*[b.lower for b in blocks]).tobytes()
            # relative to the size of the log-pivot terms, so a log_det near 0 is fine
            scale = 2.0 * np.abs(np.log(np.diag(dense.lower))).sum()
            assert abs(assembled.log_det - dense.log_det) <= 1e-12 * scale
            assert not assembled.entries.flags.writeable
            assert not assembled.lower.flags.writeable

    def test_rejects_dimension_above_max(self):
        half = DiagSpectrum.from_variances(np.ones(MAX_DIM // 2)).as_matrix()
        assert _block_diagonal([half, half]).dim == MAX_DIM
        one = validate_spd([[1.0]])
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            _block_diagonal([half, half, one])


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
