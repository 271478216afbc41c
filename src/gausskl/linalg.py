"""Dense symmetric positive-definite matrix kernels.

Covariance matrices from outside the package (files, user arrays) enter as
raw arrays and get certified by :func:`validate_spd`, which keeps the Cholesky
factor it computes (a diagonal matrix's factor is its square roots, taken
without factoring): every consumer reads that one factor.  The package's own
draws are exactly symmetric and finite, so they are only factored.  An inverse
is applied through BLAS triangular solves on the factor, never formed:
:func:`solve_triangular` calls ``dtrsv`` for one column and ``dtrsm`` for
several, as OpenBLAS's LAPACK solve does, so the bits are scipy's but a small
solve runs on the calling thread, not OpenBLAS's pool; ``divergence._kl``
calls ``dtrsm`` once per 64-row block.  The routines come from scipy's
``_fblas`` extension file, executed once, at the first solve: its OpenBLAS
reads ``OPENBLAS_*`` then, not at import, and scipy's package is never imported.
The kernels take (T, m, m) stacks, so a campaign factors a chunk of trials
per LAPACK call; the public functions are stacks of one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

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


def _extension_spec(name: str):
    # scipy.linalg's f2py BLAS file (_fblas), found without running scipy's
    # __init__; its private module name ends in `name`, as its init symbol is PyInit_<name>.
    spec = importlib.util.find_spec("scipy")
    base = os.path.join(spec.submodule_search_locations[0] if spec else "", "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            return importlib.util.spec_from_file_location(f"{__package__}.{name}", base + suffix)
    raise ImportError(f"scipy's {name} extension not found: no {base}<suffix> for any of "
                      f"{importlib.machinery.EXTENSION_SUFFIXES}")


_EXTENSION_SPECS = {"_fblas": _extension_spec("_fblas")}
_extensions: dict = {}
_extension_lock = threading.Lock()  # c1's two threads reach their first solve together


def _extension(name: str):
    # The module of _EXTENSION_SPECS[name], executed once, at first use.  CPython lists a
    # single-phase extension in sys.modules as it loads; its private name is dropped again.
    with _extension_lock:
        if name not in _extensions:
            spec = _EXTENSION_SPECS[name]
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(spec.name, None)
            _extensions[name] = module
        return _extensions[name]


def solve_triangular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a C-ordered lower-triangular ``a``; ``b`` is kept.

    Makes the BLAS calls that scipy's ``solve_triangular(a, b, lower=True)``
    makes through OpenBLAS's LAPACK solve, so the bits are scipy's: ``dtrsv``
    for one column (it divides by the pivots), ``dtrsm`` for several (it
    multiplies by their reciprocals).  No finiteness check: certified factors
    are finite.  Raises ``numpy.linalg.LinAlgError`` at a zero pivot; a NaN
    pivot passes, as in LAPACK.
    """
    if not a.diagonal().all():
        raise np.linalg.LinAlgError("singular triangular matrix: a zero pivot")
    blas = _extension("_fblas")
    if b.shape[1] == 1:
        return blas.dtrsv(a.T, b[:, 0], lower=0, trans=1)[:, None]
    return blas.dtrsm(1.0, a.T, b, side=0, lower=0, trans_a=1)


@dataclass(frozen=True)
class SpdMatrix:
    """A certified symmetric positive-definite covariance matrix.

    Two routes build one: :func:`validate_spd` factors, and :meth:`DiagSpectrum.as_matrix`
    takes a spectrum's square roots.  ``lower`` is the lower-triangular Cholesky factor
    (``lower @ lower.T`` reconstructs ``entries``), ``variances`` a contiguous copy of
    ``entries``' diagonal, ``relative_off_squares[i]`` the sum of
    ``(lower[i, :i] / lower[i, i])**2``, and ``log_det`` is ``2 * sum(log(diag(lower)))``.
    All are read-only.
    """

    dim: int
    entries: np.ndarray
    lower: np.ndarray
    log_det: float
    variances: np.ndarray
    relative_off_squares: np.ndarray

    def diagonal(self) -> "DiagSpectrum":
        """The diagonal variances as a spectrum (always positive for SPD)."""
        return DiagSpectrum(dim=self.dim, variances=self.variances)


@dataclass(frozen=True)
class DiagSpectrum:
    """A vector of strictly positive variances (a diagonal covariance), checked when built."""

    dim: int
    variances: np.ndarray

    def __post_init__(self):
        v = self.variances
        if v.ndim != 1 or v.size == 0 or v.size != self.dim:
            raise NonPositiveVariance(f"variance spectrum must be a non-empty 1-D vector of "
                                      f"dim = {self.dim} entries, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise NonPositiveVariance(f"all variances must be finite and > 0, got min {v.min()!r}")

    @classmethod
    def from_variances(cls, variances) -> "DiagSpectrum":
        v = np.atleast_1d(np.array(variances, dtype=float))  # a fresh copy, frozen below
        v.flags.writeable = False
        return cls(dim=v.size, variances=v)

    def as_matrix(self) -> SpdMatrix:
        """Embed the spectrum as a diagonal SpdMatrix, certified in O(m) without factoring.

        The factor is the diagonal of square roots; every field equals what
        :func:`validate_spd` returns for ``np.diag(variances)``, bit for bit.
        """
        _check_dim(self.dim)
        return _certified(np.diag(self.variances), _diag_lower(self.variances))


def _diag_lower(v: np.ndarray) -> np.ndarray:
    # Factors of diagonal covariances, one positive spectrum per row of v (not checked here).
    out = np.zeros(v.shape + v.shape[-1:])
    np.einsum("...ii->...i", out)[...] = np.sqrt(v)  # a writable view of the diagonals
    return out


def validate_spd(raw) -> SpdMatrix:
    """Certify a square array from outside the package as symmetric positive definite.

    A square array whose only nonzeros are a positive, finite diagonal is a
    spectrum: it is certified in O(m) by :meth:`DiagSpectrum.as_matrix`, never
    factored, and every field equals the Cholesky route's bit for bit (a
    ``-0.0`` off the diagonal is written as ``+0.0``).  Any other array has
    asymmetry within ``ASYMMETRY_TOL`` (relative, with an absolute floor of 1)
    averaged away as ``(raw + raw.T) / 2``, halving first where the sum
    overflows; larger asymmetry is an error.  Positive definiteness is decided
    by a Cholesky factorization, which the result keeps: LAPACK fails on any
    pivot that is not positive, so a returned factor has a positive diagonal
    and a finite log-determinant.

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
    d = np.diagonal(arr)
    if np.count_nonzero(arr != 0) == d.size and 0.0 < d.min() and d.max() < math.inf:  # NaN fails
        return DiagSpectrum.from_variances(d).as_matrix()
    _check_dim(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    with np.errstate(over="ignore"):  # a difference that overflows is an infinite asymmetry
        worst = float((np.abs(arr - arr.T) / np.maximum(1.0, np.abs(arr))).max())
    if worst > ASYMMETRY_TOL:
        raise AsymmetryExceedsTolerance(
            f"relative asymmetry {worst:.3e} exceeds tolerance {ASYMMETRY_TOL:.1e}"
        )

    with np.errstate(over="ignore"):
        sym = 0.5 * (arr + arr.T)
    big = np.isinf(sym)  # the sum overflowed: halve first (halving all would lose subnormals)
    sym[big] = 0.5 * arr[big] + 0.5 * arr.T[big]
    return _certified(sym, _factor(sym))


def _factor(sym: np.ndarray) -> np.ndarray:
    # Cholesky factors of a symmetric matrix or stack: the package's one factorization call.
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc


def _certified(entries: np.ndarray, lower: np.ndarray) -> SpdMatrix:
    # The one SpdMatrix constructor; both arrays are fresh, so frozen in place.  Its vectors are
    # taken while in cache.  The row sums skip the unit diagonal by zeroing it, not by cancelling.
    variances, pivots = np.diagonal(entries).copy(), np.diagonal(lower)
    ratios = lower / pivots[:, None]  # divided before squaring: no square underflows or overflows
    np.fill_diagonal(ratios, 0.0)
    relative_off_squares = np.einsum("ij,ij->i", ratios, ratios)
    for a in (entries, lower, variances, relative_off_squares):
        a.flags.writeable = False
    return SpdMatrix(dim=entries.shape[0], entries=entries, lower=lower, variances=variances,
                     relative_off_squares=relative_off_squares,
                     log_det=2.0 * float(np.sum(np.log(pivots))))


def _log_uniform(dim: int, rngs: list[np.random.Generator], log_lo: float,
                 log_hi: float) -> np.ndarray:
    # dim draws log-uniform in [exp(log_lo), exp(log_hi)], one row per generator.
    _check_integer("dim", dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    _check_dim(dim)  # the first draw of every random matrix and spectrum: refuse before drawing
    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), here on a stack of rows drawn in place.
    u = np.empty((len(rngs), dim))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return np.exp(log_lo + (log_hi - log_lo) * u)


def _random_symmetric(dim: int, rngs: list[np.random.Generator],
                      condition_target: float) -> np.ndarray:
    # random_spd's draws, one per generator, each exactly symmetric (a averaged with its
    # transpose) and finite (|entries| <= sqrt(condition_target) < 1.4e154): factored, not scanned.
    _check_condition(condition_target)

    half_log = 0.5 * math.log(condition_target)
    eigs = _log_uniform(dim, rngs, -half_log, half_log)
    g = np.empty((len(rngs), dim, dim))
    for rng, slab in zip(rngs, g):  # each generator's draw written in place
        rng.standard_normal(out=slab)
    q, _ = np.linalg.qr(g)
    # No column sign fix: it flips both q factors of a term of q diag(e) q.T, a bitwise no-op.
    a = (q * eigs[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (a + a.swapaxes(-1, -2))


def _check_integer(name: str, value: int) -> None:
    # A count or dimension is an integer, numpy's included; a bool is not one.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_DIM}")


def _check_condition(condition_target: float) -> None:
    if not 1.0 <= condition_target < math.inf:  # also rejects NaN
        raise ValueError(f"condition_target must be finite and >= 1, got {condition_target}")


def random_spd(dim: int, seed: int, condition_target: float) -> SpdMatrix:
    """Reproducible random SPD matrix with a prescribed conditioning target.

    Eigenvalues are drawn log-uniformly from
    ``[1/sqrt(condition_target), sqrt(condition_target)]`` and conjugated by a
    Haar-random orthogonal matrix, so ill-conditioning is exercised evenly in
    log space.  Deterministic in ``(dim, seed, condition_target)``.
    """
    sym = _random_symmetric(dim, [np.random.default_rng(seed)], condition_target)[0]
    return _certified(sym, _factor(sym))


def read_matrix_csv(path) -> np.ndarray:
    """Parse a headerless CSV matrix file into a raw (unvalidated) array.

    One row per line, comma-separated decimal entries; whitespace-only lines and a leading
    UTF-8 byte-order mark are ignored.
    More than ``MAX_DIM`` rows, or a first row of more than ``MAX_DIM`` fields, raise
    ValueError before numpy's ``loadtxt`` parses any.  Input that is not UTF-8 text, and
    empty, ragged or non-numeric input (underscore numerals included), raise MatrixParseError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            rows = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:  # not UTF-8 text: a UTF-16 export, say
        raise MatrixParseError(f"{path}: {exc}") from exc
    if not rows:
        raise MatrixParseError(f"{path}: no numeric rows found")
    _check_dim(max(len(rows), rows[0].count(",") + 1))
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write a matrix as headerless CSV with 17 significant digits per entry.

    17 digits make the double-precision round-trip lossless.
    """
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)), fmt="%.17g", delimiter=",")
