"""Dense symmetric positive-definite matrix kernels.

Covariance matrices enter as raw arrays and get certified by
:func:`validate_spd`, which keeps the Cholesky factor it computes: every
consumer reads that one factor.  Explicit matrix inversion is never used;
every application of an inverse goes through triangular solves against the
factor (scipy's ``solve_triangular``, imported here for the whole package),
which is the numerically robust route for ill-conditioned input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular  # noqa: F401  (re-exported to divergence, estimators)

from .errors import (
    AsymmetryExceedsTolerance,
    MatrixParseError,
    NonPositiveVariance,
    NotPositiveDefinite,
    NotSquare,
)

# Relative asymmetry treated as roundoff noise and averaged away; anything
# larger is rejected as a user error rather than silently repaired.
ASYMMETRY_TOL = 1e-8

# Dense O(m^3) kernels; desk-scale verification does not need more.
MAX_DIM = 512


@dataclass(frozen=True)
class SpdMatrix:
    """A certified symmetric positive-definite covariance matrix.

    Three routes build one, and only :func:`validate_spd` factors;
    :meth:`DiagSpectrum.as_matrix` takes a spectrum's square roots, and the
    block-diagonal assembly places certified blocks and their factors on the
    diagonal.  ``lower`` is the lower-triangular Cholesky factor (``lower @
    lower.T`` reconstructs ``entries``) and ``log_det`` the log-determinant,
    ``2 * sum(log(diag(lower)))``.  Both arrays are read-only.
    """

    dim: int
    entries: np.ndarray
    lower: np.ndarray
    log_det: float

    def diagonal(self) -> "DiagSpectrum":
        """The diagonal variances as a spectrum (always positive for SPD)."""
        return DiagSpectrum.from_variances(np.diag(self.entries))


@dataclass(frozen=True)
class DiagSpectrum:
    """A vector of strictly positive variances (a diagonal covariance)."""

    dim: int
    variances: np.ndarray

    @classmethod
    def from_variances(cls, variances) -> "DiagSpectrum":
        v = np.atleast_1d(np.array(variances, dtype=float))  # a fresh copy, frozen below
        if v.ndim != 1 or v.size == 0:
            raise NonPositiveVariance("variance spectrum must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise NonPositiveVariance(
                f"all variances must be finite and > 0, got min {v.min()!r}"
            )
        v.flags.writeable = False
        return cls(dim=v.size, variances=v)

    def as_matrix(self) -> SpdMatrix:
        """Embed the spectrum as a diagonal SpdMatrix, certified in O(m) without factoring.

        The factor is the diagonal of square roots; every field equals what
        :func:`validate_spd` returns for ``np.diag(variances)``, bit for bit.
        """
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds supported maximum {MAX_DIM}")
        return _certified(np.diag(self.variances), np.diag(np.sqrt(self.variances)))


def validate_spd(raw) -> SpdMatrix:
    """Certify a raw square array as symmetric positive definite.

    Asymmetry within ``ASYMMETRY_TOL`` (relative, with an absolute floor of 1)
    is averaged away as ``(raw + raw.T) / 2``; larger asymmetry is an error.
    Positive definiteness is decided by a Cholesky factorization, which the
    result keeps: LAPACK fails on any pivot that is not positive, so a
    returned factor has a positive diagonal and a finite log-determinant.

    Raises
    ------
    NotSquare
        If ``raw`` is not a 2-D square array.
    AsymmetryExceedsTolerance
        If relative asymmetry is above ``ASYMMETRY_TOL``.
    NotPositiveDefinite
        If factorization fails (non-finite entries included).
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise NotPositiveDefinite("matrix has non-finite entries")

    # One expression, so no (m, m) temporary outlives it.
    worst = float((np.abs(arr - arr.T) / np.maximum(1.0, np.abs(arr))).max())
    if worst > ASYMMETRY_TOL:
        raise AsymmetryExceedsTolerance(
            f"relative asymmetry {worst:.3e} exceeds tolerance {ASYMMETRY_TOL:.1e}"
        )

    sym = 0.5 * (arr + arr.T)
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return _certified(sym, lower)


def _certified(entries: np.ndarray, lower: np.ndarray) -> SpdMatrix:
    # The one SpdMatrix constructor; both arrays are fresh, so frozen in place.
    entries.flags.writeable = False
    lower.flags.writeable = False
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return SpdMatrix(dim=entries.shape[0], entries=entries, lower=lower, log_det=log_det)


def _block_diagonal(blocks: list[SpdMatrix]) -> SpdMatrix:
    # Assembled without factoring: the factor of a block-diagonal matrix is
    # the block diagonal of the blocks' factors.
    dim = sum(b.dim for b in blocks)
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
    entries, lower = np.zeros((dim, dim)), np.zeros((dim, dim))
    start = 0
    for b in blocks:
        block = slice(start, start + b.dim)
        entries[block, block] = b.entries
        lower[block, block] = b.lower
        start += b.dim
    return _certified(entries, lower)


def _random_symmetric(dim: int, seed: int, condition_target: float) -> np.ndarray:
    # The exactly symmetric draw behind random_spd, before certification.
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} exceeds supported maximum {MAX_DIM}")
    if condition_target < 1.0:
        raise ValueError(f"condition_target must be >= 1, got {condition_target}")

    rng = np.random.default_rng(seed)
    half_log = 0.5 * math.log(condition_target)
    eigs = np.exp(rng.uniform(-half_log, half_log, size=dim))
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # Sign-fix the columns so q is Haar-distributed rather than QR-biased.
    q = q * np.sign(np.diag(r))
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def random_spd(dim: int, seed: int, condition_target: float) -> SpdMatrix:
    """Reproducible random SPD matrix with a prescribed conditioning target.

    Eigenvalues are drawn log-uniformly from
    ``[1/sqrt(condition_target), sqrt(condition_target)]`` and conjugated by a
    Haar-random orthogonal matrix, so ill-conditioning is exercised evenly in
    log space.  Deterministic in ``(dim, seed, condition_target)``.
    """
    return validate_spd(_random_symmetric(dim, seed, condition_target))


def read_matrix_csv(path) -> np.ndarray:
    """Parse a headerless CSV matrix file into a raw (unvalidated) array.

    One row per line, comma-separated decimal entries, read by numpy's
    ``loadtxt``.  Whitespace-only lines are ignored.  Raises MatrixParseError
    on empty, ragged, or non-numeric input (underscore numerals included).
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise MatrixParseError(f"{path}: no numeric rows found")
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write a matrix as headerless CSV with 17 significant digits per entry.

    17 digits make the double-precision round-trip lossless.
    """
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)), fmt="%.17g", delimiter=",")
