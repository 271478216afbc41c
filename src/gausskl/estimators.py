"""Sampling-based oracle layer: exact-density models and a Monte Carlo KL estimator.

Two model families, both zero-mean and both with exactly evaluable log
densities:

* Gaussian with a certified covariance, read through its stored factor.
* Two-component Gaussian mixture whose components are scaled copies of a
  target covariance, engineered so the overall covariance equals the target
  exactly (zero-mean components make covariances additive).  Both components
  share the target's factor, scaled.  For any positive spread the mixture is
  genuinely non-Gaussian, which makes it a tractable witness family for
  divergence inequalities that range over all distributions with a
  prescribed covariance.

Both models are normalized by construction: the Gaussian's log density uses
the certified factor's log-determinant, and the mixture is a convex
combination of two normalized scaled Gaussians.

The estimator evaluates the divergence definition directly: a sample average
of ``log p_y - log p_x`` under draws from ``p_y``.  A draw is x = sqrt(s) Ly z
with s the drawn component's scale (1 for a Gaussian), so both log densities
come from the block-drawn normals z alone: q_y = s|z|^2, q_x = s|Lx^-1 Ly z|^2.
It shares no code path with the closed forms in :mod:`gausskl.divergence`, so
each side can serve as the other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .divergence import LN_2PI, Nats
from .errors import BuildError, DimensionMismatch, SpreadTooLarge
from .linalg import SpdMatrix, solve_triangular

_BLOCK = 8192  # draws per mc_kl block, so that a block's temporaries stay in cache


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian with a certified covariance."""

    covariance: SpdMatrix

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def log_density_batch(self, points: np.ndarray) -> np.ndarray:
        return self._log_density(_quad_form(self.covariance, points))

    def _log_density(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.add(self.dim * LN_2PI + self.covariance.log_det, q, out=out)
        return np.multiply(out, -0.5, out=out)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws as L @ z for standard-normal z (numpy PCG64 generator)."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, self.dim))
        return z @ self.covariance.lower.T


@dataclass(frozen=True)
class MixtureModel:
    """Zero-mean two-component Gaussian mixture with prescribed covariance.

    Component one has covariance ``scale_one * covariance`` and weight
    ``weight``, component two ``scale_two * covariance``.  ``covariance`` is
    the exact overall covariance when
    ``weight * scale_one + (1 - weight) * scale_two == 1``.
    """

    weight: float
    scale_one: float
    scale_two: float
    covariance: SpdMatrix

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def log_density_batch(self, points: np.ndarray) -> np.ndarray:
        return self._log_density(_quad_form(self.covariance, points))

    def _log_density(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # One quadratic form q against the target's factor serves both
        # components: component c has quadratic form q / scale_c and
        # log-determinant log_det + m * ln(scale_c).  Max-shifted log-sum of the
        # two weighted densities (5x np.logaddexp's speed): far-tail points stay finite.
        # In place: into out (which may be q, so b is formed first) and a scratch for b, a - b.
        base = self.dim * LN_2PI + self.covariance.log_det
        scratch = np.empty((2,) + q.shape)
        b = np.divide(q, self.scale_two, out=scratch[0])
        a = np.divide(q, self.scale_one, out=out)
        for x, log_weight, scale in ((a, math.log(self.weight), self.scale_one),
                                     (b, math.log1p(-self.weight), self.scale_two)):
            x += base + self.dim * math.log(scale)  # ln w_c - 0.5 * (... + q / scale_c)
            np.subtract(log_weight, np.multiply(x, 0.5, out=x), out=x)
        with np.errstate(invalid="ignore"):  # a - b is NaN where both are -inf; fmin makes it 0
            d = np.abs(np.subtract(a, b, out=scratch[1]), out=scratch[1])
            np.log1p(np.exp(np.fmin(np.negative(d, out=d), 0.0, out=d), out=d), out=d)
            return np.add(np.maximum(a, b, out=a), d, out=a)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Per draw: one uniform picks the component c, then sqrt(scale_c) L @ z.

        The generator emits the n component-selection uniforms first, then a
        single (n, dim) standard-normal block shared by both components.
        """
        rng = np.random.default_rng(seed)
        pick_one = rng.random(n) < self.weight
        z = rng.standard_normal((n, self.dim))
        sd = np.where(pick_one, math.sqrt(self.scale_one), math.sqrt(self.scale_two))
        return (z @ self.covariance.lower.T) * sd[:, None]


DensityModel = Union[GaussianModel, MixtureModel]


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance.

    ``std_error`` is the sample standard deviation of the per-point log-ratio
    divided by sqrt(n_samples).  Identical (models, n, seed) inputs give a
    bit-identical estimate.
    """

    value: Nats
    std_error: float
    n_samples: int
    seed: int


def _quad_form(cov: SpdMatrix, points: np.ndarray) -> np.ndarray:
    q = _sum_squares(solve_triangular(cov.lower, points.T))
    # Without a NaN coordinate, a NaN q comes from 0 * inf or inf - inf in the
    # solve, at an infinite coordinate or an overflow: the point is infinitely far.
    nan = np.isnan(q)
    q[nan] = np.where(np.isnan(points[nan]).any(axis=1), np.nan, np.inf)
    return q


def _sum_squares(u: np.ndarray) -> np.ndarray:
    # Squares of a (d, n) array summed row by row, not one reduction per point.
    total = np.square(u[0])
    for row in u[1:]:
        total += np.square(row)
    return total


def build_matched_mixture(target: SpdMatrix, w: float, spread: float) -> MixtureModel:
    """Two-component mixture whose overall covariance equals ``target`` exactly.

    Components are scaled copies of the target:

        S1 = (1 - spread) * target
        S2 = (1 + spread * w / (1 - w)) * target

    so that w*S1 + (1-w)*S2 = target identically.  Any spread in (0, 1) keeps
    both components SPD and makes the mixture non-Gaussian.  The construction
    is deterministic in (target, w, spread).
    """
    if not (0.0 < w < 1.0):
        raise BuildError(f"mixture weight must lie strictly in (0, 1), got {w!r}")
    if not (spread > 0.0 and math.isfinite(spread)):
        raise BuildError(f"spread must lie strictly in (0, 1), got {spread!r}")
    scale_one = 1.0 - spread
    scale_two = 1.0 + spread * w / (1.0 - w)
    if scale_one <= 0.0:  # scale_two >= 1 for every w in (0, 1) and spread > 0
        raise SpreadTooLarge(f"spread {spread!r} drives a component scale to {scale_one!r}")
    return MixtureModel(weight=w, scale_one=scale_one, scale_two=scale_two,
                        covariance=target)


def mc_kl(py: DensityModel, px: DensityModel, n: int, seed: int) -> McEstimate:
    """Monte Carlo divergence estimate: mean of log p_y - log p_x under p_y.

    Scored in place, 8192 draws at a time, with the bits of the unfused expressions.
    """
    if py.dim != px.dim:
        raise DimensionMismatch(f"model dims differ: {py.dim} != {px.dim}")
    if n < 100:
        raise ValueError(f"n must be >= 100 for a usable standard error, got {n}")
    whiten = solve_triangular(px.covariance.lower, py.covariance.lower)
    rng = np.random.default_rng(seed)
    pick_one = rng.random(n) < py.weight if isinstance(py, MixtureModel) else None
    scales = None if pick_one is None else np.array([py.scale_two, py.scale_one])
    log_ratio = np.empty(n)
    for start in range(0, n, _BLOCK):
        z = rng.standard_normal((min(_BLOCK, n - start), py.dim)).T
        qy, qx = _sum_squares(z), _sum_squares(z * whiten[0, 0] if py.dim == 1 else whiten @ z)
        if scales is not None:  # each draw's component scale; a Gaussian's is 1
            s = scales.take(pick_one[start:start + _BLOCK].view(np.uint8))
            qy *= s
            qx *= s
        py._log_density(qy, out=log_ratio[start:start + _BLOCK])
        log_ratio[start:start + _BLOCK] -= px._log_density(qx, out=qx)
    mean = log_ratio.sum() / n
    # np.mean, then np.std(ddof=1)'s steps in place on log_ratio: the same bits.
    log_ratio -= mean
    variance = np.square(log_ratio, out=log_ratio).sum() / (n - 1)
    return McEstimate(value=float(mean), std_error=float(np.sqrt(variance) / math.sqrt(n)),
                      n_samples=n, seed=seed)
