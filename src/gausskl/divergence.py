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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import DiagSpectrum, SpdMatrix, solve_triangular

# Divergences are measured in nats (natural log) throughout; callers convert.
Nats = float

LN_2PI = math.log(2.0 * math.pi)


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


def _diagonal_sum(vx: np.ndarray, vy: np.ndarray) -> Nats:
    # Summed left to right: np.sum would switch to pairwise summation.
    with np.errstate(over="ignore"):  # an overflowing u gives the intended +inf
        u = (vy - vx) / vx
    terms = 0.5 * _excess(u, np.log(vy) - np.log(vx))
    return float(np.cumsum(terms)[-1])


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
    return _diagonal_sum(lx.variances, ly.variances)


def kl_gaussian(sx: SpdMatrix, sy: SpdMatrix) -> Nats:
    """Divergence between zero-mean Gaussians with covariances sx and sy.

    With the stored factors Lx, Ly and M = Lx^-1 Ly (lower triangular),
    tr(Sy Sx^-1) = ||M||_F^2 and ln det(Sy Sx^-1) = sum ln M_ii^2, so

        KL = 0.5 * [ sum_{i>j} M_ij^2 + sum_i (u_i - ln(1 + u_i)) ],

    u_i = M_ii^2 - 1 = ((dy_i - dx_i) / dx_i) (dy_i / dx_i + 1) for the
    factor diagonals dx, dy.  Every term is >= 0 in floating point.  The strict
    lower part of M comes from one unit-diagonal solve of the
    column-normalized factors, which never divides: sx == sy gives +0.0.  An
    overflowing pivot ratio dy_i / dx_i gives +inf, never NaN.
    """
    if sx.dim != sy.dim:
        raise DimensionMismatch(f"covariance dims differ: {sx.dim} != {sy.dim}")
    dx, dy = sx.lower.diagonal(), sy.lower.diagonal()
    n = solve_triangular(sx.lower / dx, sy.lower / dy, lower=True,
                         unit_diagonal=True, check_finite=False)
    with np.errstate(over="ignore"):  # an overflowing ratio gives the intended +inf
        n *= dy  # both scalings are finite, so a zero entry stays zero (no 0 * inf)
        n /= dx[:, None]
        u = (dy - dx) / dx * (dy / dx + 1.0)
    np.fill_diagonal(n, 0.0)  # the strict lower part of M
    off = n.ravel("K")
    return 0.5 * (float(off @ off) + float(_excess(u, 2.0 * (np.log(dy) - np.log(dx))).sum()))


def diagonal_lower_bound(lx: DiagSpectrum, sy: SpdMatrix) -> Nats:
    """Lower bound on KL(y || x) for Gaussian x with diagonal covariance lx.

    Only the diagonal of sy enters: the bound is the per-coordinate scalar
    divergence sum built from sy's diagonal terms.  It holds for every
    distribution y with covariance sy, not just Gaussian y.
    """
    if lx.dim != sy.dim:
        raise DimensionMismatch(f"spectrum dim {lx.dim} != matrix dim {sy.dim}")
    return _diagonal_sum(lx.variances, np.diag(sy.entries))


def kl_gap_diagonal(lx: DiagSpectrum, sy: SpdMatrix) -> GapReport:
    """Gaussian divergence against a diagonal reference, and its bound gap.

    The gap does not depend on lx: it is the total correlation of y,
    0.5 * (sum ln Sy_ii - ln det Sy) (Hadamard's inequality), summed here as
    ln(sqrt(Sy_ii) / L_ii) over the stored factor L of sy.  LAPACK computes
    each pivot as sqrt(Sy_ii - s) with s >= 0, so every term is >= 0 in
    floating point: the gap is never negative, and +0.0 for a diagonal sy.
    O(m) given the certified sy.
    """
    bound = diagonal_lower_bound(lx, sy)
    gap = float(np.sum(np.log(np.sqrt(np.diag(sy.entries)) / np.diag(sy.lower))))
    return GapReport(kl_exact=bound + gap, bound=bound, gap=gap)


def gaussian_entropy(cov: SpdMatrix) -> Nats:
    """Differential entropy of a zero-mean Gaussian with covariance cov.

    Returns 0.5 * m * ln(2*pi*e) + 0.5 * log_det.
    """
    return 0.5 * cov.dim * (LN_2PI + 1.0) + 0.5 * cov.log_det
