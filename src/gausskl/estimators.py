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
of ``log p_y - log p_x`` under draws from ``p_y``.  It shares no code path
with the closed forms in :mod:`gausskl.divergence`, so each side can serve as
the other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .divergence import LN_2PI, Nats
from .errors import BuildError, DimensionMismatch, SpreadTooLarge
from .linalg import SpdMatrix, solve_triangular


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian with a certified covariance."""

    covariance: SpdMatrix

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def log_density_batch(self, points: np.ndarray) -> np.ndarray:
        quad_form = _quad_form(self.covariance, points)
        return -0.5 * (self.dim * LN_2PI + self.covariance.log_det + quad_form)

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
        # One solve against the target's factor serves both components:
        # component c has quadratic form q / scale_c and log-determinant
        # log_det + m * ln(scale_c).  Max-shifted log-sum of the two weighted
        # densities, so a far-tail point where one component underflows
        # stays finite.
        quad_form = _quad_form(self.covariance, points)
        base = self.dim * LN_2PI + self.covariance.log_det
        s1, s2 = self.scale_one, self.scale_two
        a = math.log(self.weight) - 0.5 * (base + self.dim * math.log(s1) + quad_form / s1)
        b = math.log1p(-self.weight) - 0.5 * (base + self.dim * math.log(s2) + quad_form / s2)
        return np.logaddexp(a, b)

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
    u = solve_triangular(cov.lower, points.T, lower=True, check_finite=False)
    return np.sum(u * u, axis=0)


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
    if scale_one <= 0.0 or scale_two <= 0.0:
        raise SpreadTooLarge(
            f"spread {spread!r} drives a component scale to {min(scale_one, scale_two)!r}"
        )
    return MixtureModel(weight=w, scale_one=scale_one, scale_two=scale_two,
                        covariance=target)


def mc_kl(py: DensityModel, px: DensityModel, n: int, seed: int) -> McEstimate:
    """Monte Carlo divergence estimate: mean of log p_y - log p_x under p_y."""
    if py.dim != px.dim:
        raise DimensionMismatch(f"model dims differ: {py.dim} != {px.dim}")
    if n < 100:
        raise ValueError(f"n must be >= 100 for a usable standard error, got {n}")
    draws = py.sample(n, seed)
    log_ratio = py.log_density_batch(draws) - px.log_density_batch(draws)
    value = float(np.mean(log_ratio))
    std_error = float(np.std(log_ratio, ddof=1) / math.sqrt(n))
    return McEstimate(value=value, std_error=std_error, n_samples=n, seed=seed)
