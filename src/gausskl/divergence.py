"""Closed-form divergence and entropy kernels for zero-mean Gaussians.

All results are in nats.  Zero mean is a global modeling assumption of this
package; means never appear in any signature.

The central quantity is the Gaussian-vs-Gaussian divergence

    KL(y || x) = 0.5 * [ tr(Sy Sx^-1) - ln det(Sy Sx^-1) - m ]

(summed as terms that are each >= 0 in floating point, so it never cancels
below zero) together with its scalar reduction and the diagonal comparison
bound: when the reference covariance Sx is diagonal, the divergence is
bounded below by the sum of per-coordinate scalar terms built from the
diagonal of Sy, with equality when Sy is itself diagonal.

Every divergence here applies one vectorized kernel, the excess
u - ln(1 + u) >= 0, to its diagonal terms; per-coordinate variance terms are
summed left to right, so a diagonal divergence is its scalar sum bit for bit.
The kernels take stacks and give each slice the bits of the single-matrix
call; the public functions are stacks of one through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import DiagSpectrum, SpdMatrix, _extension

# Divergences are measured in nats (natural log) throughout; callers convert.
Nats = float

LN_2PI = math.log(2.0 * math.pi)

_SOLVE_BLOCK = 64  # rows of M per block in _kl


@dataclass(frozen=True)
class GapReport:
    """Exact divergence, its diagonal lower bound, and their gap.

    ``gap`` is computed directly, not as a difference, and ``kl_exact`` is
    ``bound + gap``.
    """

    kl_exact: Nats
    bound: Nats
    gap: float


def _excess(u: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    # u - ln(1 + u): ln(1 + u) from u itself where |u| < 0.5, else the caller's
    # log_ratio (overwritten), which stays finite where u rounds to -1 or overflows.
    return u - np.log1p(u, out=log_ratio, where=np.abs(u) < 0.5)


def _diagonal_sum(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    # Per spectrum (last axis), left to right: np.sum would switch to pairwise.
    with np.errstate(over="ignore"):  # an overflowing u gives the intended +inf
        u = (vy - vx) / vx
    terms = 0.5 * _excess(u, np.log(vy) - np.log(vx))
    return np.cumsum(terms, axis=-1)[..., -1]


def _kl(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    # kl_gaussian over (T, m, m) stacks of factors, one value per slice.
    (t, m, _), b = lx.shape, _SOLVE_BLOCK
    dx, dy = np.diagonal(lx, axis1=1, axis2=2).copy(), np.diagonal(ly, axis1=1, axis2=2).copy()
    # M = a^-1 b for the row-normalized a = Lx / dx and b = Ly / dx (both rows divided by dx),
    # 64 rows at a time.  Row block i:k takes w = b[i:k, :k] less a[i:k, :i] M[:i, :k], one
    # matmul per nonzero 64-column tile of M (about m^3/3 flops), then solves a[i:k, i:k]
    # M[i:k, :k] = w in place by one unit-diagonal BLAS dtrsm per slice.  It runs on w's
    # F-ordered view, as M[i:k, :k].T a[i:k, i:k].T = w.T, with positional arguments (side=1,
    # lower=0, trans_a=0, diag=1, overwrite_b=1): 50 keyword calls took 73 us at m = 4, these
    # 32 us.  M is kept while a later block reads it, and its strict lower part's squares are
    # summed in cache, one BLAS dot per slice and block.  The intermediates are a, b and
    # partial sums of M's entries, so one overflows only where M does.
    squares = 0.0
    with np.errstate(over="ignore"):  # an overflowing ratio gives the intended +inf
        # Every lx slice diagonal (its pivots are > 0)?  A nonzero subdiagonal, an O(m) read,
        # spares a dense stack the full count (0.26 ms at m = 512, 5-9% of the kernel).
        # Then a is the identity and M = b: a solve against it subtracts only 0 * M terms
        # from b, so this is its bits wherever b is finite; where b overflows, the solve's
        # 0 * inf gives NaN and this +inf.
        dense = np.count_nonzero(np.diagonal(lx, -1, 1, 2)) or np.count_nonzero(lx) != t * m
        mat = np.empty(ly.shape) if dense and m > b else None
        for i in range(0, m, b):
            k = min(i + b, m)
            w = ly[:, i:k, :k] / dx[:, i:k, None]
            if dense:
                a = lx[:, i:k, :k] / dx[:, i:k, None]
                for r in range(0, i, b):  # M is lower: tile r is zero above row r
                    w[:, :, r:r + b] -= a[:, :, r:i] @ mat[:, r:i, r:r + b]
                dtrsm = _extension("_fblas").dtrsm
                for a_s, w_s in zip(a[:, :, i:].swapaxes(1, 2), w.swapaxes(1, 2)):
                    dtrsm(1.0, a_s, w_s, 1, 0, 0, 1, 1)
                if k < m:
                    mat[:, i:k, :k] = w
            off = w.reshape(t, -1)
            off[:, i::k + 1] = 0.0  # the strict lower part of M's rows i:k
            squares = squares + (off[:, None, :] @ off[:, :, None])[:, 0, 0]
        u = (dy - dx) / dx * (dy / dx + 1.0)
    return 0.5 * (squares + _excess(u, 2.0 * (np.log(dy) - np.log(dx))).sum(axis=-1))


def kl_scalar(var_x: float, var_y: float) -> Nats:
    """Divergence between zero-mean scalar Gaussians with the given variances.

    Returns 0.5 * [u - ln(1 + u)] with u = var_y / var_x - 1, taken as
    ``(var_y - var_x) / var_x`` so it does not cancel near equal variances.
    """
    return kl_diagonal(DiagSpectrum.from_variances([var_x]), DiagSpectrum.from_variances([var_y]))


def kl_diagonal(lx: DiagSpectrum, ly: DiagSpectrum) -> Nats:
    """Divergence between zero-mean Gaussians with diagonal covariances.

    Accumulated as the left-to-right sum of per-coordinate scalar terms, so it
    equals ``sum(kl_scalar(vx, vy) for ...)`` bit for bit.
    """
    if lx.dim != ly.dim:
        raise DimensionMismatch(f"spectrum dims differ: {lx.dim} != {ly.dim}")
    return float(_diagonal_sum(lx.variances, ly.variances))


def kl_gaussian(sx: SpdMatrix, sy: SpdMatrix) -> Nats:
    """Divergence between zero-mean Gaussians with covariances sx and sy.

    With the stored factors Lx, Ly and M = Lx^-1 Ly (lower triangular),
    tr(Sy Sx^-1) = ||M||_F^2 and ln det(Sy Sx^-1) = sum ln M_ii^2, so

        KL = 0.5 * [ sum_{i>j} M_ij^2 + sum_i (u_i - ln(1 + u_i)) ],

    u_i = M_ii^2 - 1 = ((dy_i - dx_i) / dx_i) (dy_i / dx_i + 1) for the
    factor diagonals dx, dy.  Every term is >= 0 in floating point.  M = a^-1 b for
    the factors' rows divided by dx, a = Lx / dx and b = Ly / dx: a's unit diagonal
    is never divided by, and sx == sy makes a and b the same array, so it gives +0.0.
    The intermediates are a, b and partial sums of M's entries, so one overflows only
    where M does.  M is formed 64 rows at a time: a GEMM over the nonzero tiles of the
    rows above (about m^3/3 flops), then one unit-diagonal BLAS triangular solve
    against the 64 x 64 diagonal block (64^2 flops per column of the block's rows); no
    inverse is formed.  At m = 512 that is 44 MFLOP of tiles and 9.4 MFLOP of solves.
    Each block's squares are summed while in cache.  A diagonal sx makes a the
    identity, so M = b with no solve (the solve's bits wherever b is finite).  An
    overflowing pivot ratio dy_i / dx_i gives +inf, never NaN.
    """
    if sx.dim != sy.dim:
        raise DimensionMismatch(f"covariance dims differ: {sx.dim} != {sy.dim}")
    return float(_kl(sx.lower[None], sy.lower[None])[0])


def diagonal_lower_bound(lx: DiagSpectrum, sy: SpdMatrix) -> Nats:
    """Lower bound on KL(y || x) for Gaussian x with diagonal covariance lx.

    Only the diagonal of sy enters: the bound is the per-coordinate scalar
    divergence sum built from sy's stored ``variances``.  It holds for every
    distribution y with covariance sy, not just Gaussian y.
    """
    if lx.dim != sy.dim:
        raise DimensionMismatch(f"spectrum dim {lx.dim} != matrix dim {sy.dim}")
    return float(_diagonal_sum(lx.variances, sy.variances))


def kl_gap_diagonal(lx: DiagSpectrum, sy: SpdMatrix) -> GapReport:
    """Gaussian divergence against a diagonal reference, and its bound gap.

    The gap does not depend on lx: it is the total correlation of y,
    0.5 * (sum ln Sy_ii - ln det Sy) (Hadamard's inequality).  As
    Sy_ii / L_ii^2 = 1 + sum_{j<i} (L_ij / L_ii)^2, it is summed here as
    0.5 * sum log1p(relative_off_squares_i) over sy's stored row sums: every
    term is >= 0 and relative-accurate, so correlations far below eps are kept
    at any scale of sy, and the gap is +0.0 for a diagonal sy.  O(m), reading
    no m x m array.
    """
    bound = diagonal_lower_bound(lx, sy)
    gap = 0.5 * float(np.sum(np.log1p(sy.relative_off_squares)))
    return GapReport(kl_exact=bound + gap, bound=bound, gap=gap)


def gaussian_entropy(cov: SpdMatrix) -> Nats:
    """Differential entropy of a zero-mean Gaussian with covariance cov.

    Returns 0.5 * m * ln(2*pi*e) + 0.5 * log_det.
    """
    return 0.5 * cov.dim * (LN_2PI + 1.0) + 0.5 * cov.log_det
