"""Randomized property campaigns over the divergence inequalities.

Each check draws many random instances, measures the slack of one inequality
plus its equality case, and reports violations instead of raising.  A trial
violates when its slack falls below -tolerance; equality cases are folded into
the same rule by using ``-|deviation|`` as their slack.  Closed-form checks
use an absolute tolerance of 1e-10 nats; Monte Carlo checks fold a
4-standard-error band into the slack and use tolerance 0, which puts the
two-sided failure probability per check around 0.006%.

Per-trial randomness derives from the master seed through a fixed counter
scheme (splitmix64), so campaigns are reproducible and trials are independent
enough to parallelize.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag

from .divergence import diagonal_lower_bound, kl_diagonal, kl_gaussian
from .estimators import build_gaussian, build_matched_mixture, mc_kl
from .linalg import DiagSpectrum, SpdMatrix, random_spd, validate_spd

CLOSED_FORM_TOL = 1e-10
MC_BAND_STDERRS = 4.0

# Variance scales drawn log-uniformly from this range stress the log/trace
# kernels while staying well inside double-precision viability.
VARIANCE_RANGE = (1e-3, 1e3)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Mix a seed with a counter index into a fresh 64-bit seed.

    splitmix64 finalizer applied to ``seed + (index + 1) * golden_gamma``.
    This is the documented scheme tying every per-trial generator back to the
    campaign master seed.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one campaign: violation count and worst observed slack."""

    proposition: str
    trials: int
    violations: int
    worst_margin: float
    config_digest: str

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def random_diag_spectrum(dim: int, seed: int,
                         lo: float = VARIANCE_RANGE[0],
                         hi: float = VARIANCE_RANGE[1]) -> DiagSpectrum:
    """Diagonal covariance with variances log-uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(math.log(lo), math.log(hi), size=dim))
    return DiagSpectrum.from_variances(v)


def _random_scaled_spd(dim: int, seed: int, condition_target: float) -> SpdMatrix:
    # Conditioning from random_spd, overall variance scale log-uniform in
    # VARIANCE_RANGE drawn from a derived stream.
    rng = np.random.default_rng(derive_seed(seed, 0))
    scale = math.exp(rng.uniform(math.log(VARIANCE_RANGE[0]), math.log(VARIANCE_RANGE[1])))
    base = random_spd(dim, derive_seed(seed, 1), condition_target)
    return validate_spd(scale * base.entries)


def check_prop3(trials: int, dim: int, master_seed: int,
                condition_target: float) -> PropertyReport:
    """Gap of the diagonal bound for Gaussian pairs: nonnegative, zero when diagonal.

    Per trial: random diagonal reference spectrum and random SPD sy; the slack
    is the dense divergence minus the bound.  The same trial then replaces sy
    by its diagonal and requires the gap to vanish within tolerance.  The
    slack is a difference of two independent routes on purpose:
    :func:`kl_gap_diagonal` is nonnegative by construction, so it would test
    nothing here.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    violations = 0
    worst = math.inf
    for t in range(trials):
        t_seed = derive_seed(master_seed, t)
        lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
        sy = random_spd(dim, derive_seed(t_seed, 1), condition_target)
        sx = lx.as_matrix()

        slack = kl_gaussian(sx, sy) - diagonal_lower_bound(lx, sy)

        sy_diag = validate_spd(np.diag(np.diag(sy.entries)))
        slack_eq = -abs(kl_gaussian(sx, sy_diag) - diagonal_lower_bound(lx, sy_diag))

        if slack < -CLOSED_FORM_TOL or slack_eq < -CLOSED_FORM_TOL:
            violations += 1
        worst = min(worst, slack, slack_eq)
    digest = (f"prop=p3 trials={trials} dim={dim} condition_target={condition_target:g} "
              f"lx_range=[{VARIANCE_RANGE[0]:g},{VARIANCE_RANGE[1]:g}] "
              f"tol={CLOSED_FORM_TOL:g} master_seed={master_seed} scheme=splitmix64")
    return PropertyReport("p3", trials, violations, worst, digest)


def check_prop2(block_dims: Sequence[int], trials: int, master_seed: int,
                condition_target: float = 100.0) -> PropertyReport:
    """Joint Gaussian divergence dominates the sum over independent blocks.

    Per trial: a block-diagonal reference built from independent random SPD
    blocks and a full random SPD sy of the total dimension.  The slack is the
    joint divergence minus the sum of marginal-block divergences, where each
    sy marginal is the corresponding principal submatrix.  The equality case
    re-runs the comparison with sy restricted to its block diagonal.
    """
    dims = [int(d) for d in block_dims]
    if len(dims) < 2:
        raise ValueError(f"need at least two blocks, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"block dims must be positive, got {dims}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = sum(dims)
    offsets = np.cumsum([0] + dims)

    violations = 0
    worst = math.inf
    for t in range(trials):
        t_seed = derive_seed(master_seed, t)
        blocks = [random_spd(d, derive_seed(t_seed, i), condition_target)
                  for i, d in enumerate(dims)]
        sx = validate_spd(block_diag(*[b.entries for b in blocks]))
        sy = random_spd(total, derive_seed(t_seed, len(dims)), condition_target)

        sub = [validate_spd(sy.entries[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]])
               for i in range(len(dims))]
        marginal_sum = sum(kl_gaussian(blocks[i], sub[i]) for i in range(len(dims)))
        slack = kl_gaussian(sx, sy) - marginal_sum

        sy_bd = validate_spd(block_diag(*[s.entries for s in sub]))
        slack_eq = -abs(kl_gaussian(sx, sy_bd) - marginal_sum)

        if slack < -CLOSED_FORM_TOL or slack_eq < -CLOSED_FORM_TOL:
            violations += 1
        worst = min(worst, slack, slack_eq)
    digest = (f"prop=p2 blocks={'x'.join(str(d) for d in dims)} trials={trials} "
              f"condition_target={condition_target:g} tol={CLOSED_FORM_TOL:g} "
              f"master_seed={master_seed} scheme=splitmix64")
    return PropertyReport("p2", trials, violations, worst, digest)


def check_prop1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Among distributions with a given covariance, the Gaussian one is closest.

    Per trial: Gaussian reference x with random SPD covariance and a matched
    mixture y with random target covariance.  The Monte Carlo estimate of
    KL(y || x) must not fall below the closed-form divergence of the Gaussian
    with y's covariance by more than the 4-standard-error band; the band is
    folded into the slack, so the tolerance is 0.  Sampled evidence on the
    mixture witness family, not a proof over all distributions.
    """
    _require_mc_args(trials, n_samples)
    violations = 0
    worst = math.inf
    for t in range(trials):
        t_seed = derive_seed(master_seed, t)
        sx = _random_scaled_spd(dim, derive_seed(t_seed, 0), condition_target=10.0)
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1), condition_target=10.0)
        rng = np.random.default_rng(derive_seed(t_seed, 2))
        w = rng.uniform(0.2, 0.8)
        spread = rng.uniform(0.1, 0.9)

        y = build_matched_mixture(sy, w, spread)
        x = build_gaussian(sx)
        est = mc_kl(y, x, n_samples, derive_seed(t_seed, 3))
        slack = est.value - kl_gaussian(sx, sy) + MC_BAND_STDERRS * est.std_error

        if slack < 0.0:
            violations += 1
        worst = min(worst, slack)
    digest = (f"prop=p1 trials={trials} dim={dim} n_samples={n_samples} "
              f"family=matched-mixture w=[0.2,0.8] spread=[0.1,0.9] "
              f"band={MC_BAND_STDERRS:g}se master_seed={master_seed} scheme=splitmix64")
    return PropertyReport("p1", trials, violations, worst, digest)


def check_c1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Full diagonal bound against sampled non-Gaussian y, plus its equality case.

    Per trial: diagonal Gaussian reference, matched mixture y with a random
    (generally non-diagonal) target covariance; the Monte Carlo divergence
    must stay above the diagonal lower bound within the 4-standard-error
    band.  The equality case draws a Gaussian y with diagonal covariance and
    requires the estimate to match the bound inside the same band.
    """
    _require_mc_args(trials, n_samples)
    violations = 0
    worst = math.inf
    for t in range(trials):
        t_seed = derive_seed(master_seed, t)
        lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1), condition_target=10.0)
        rng = np.random.default_rng(derive_seed(t_seed, 2))
        w = rng.uniform(0.2, 0.8)
        spread = rng.uniform(0.1, 0.9)

        x = build_gaussian(lx.as_matrix())
        y = build_matched_mixture(sy, w, spread)
        est = mc_kl(y, x, n_samples, derive_seed(t_seed, 3))
        slack = est.value - diagonal_lower_bound(lx, sy) + MC_BAND_STDERRS * est.std_error

        ly = random_diag_spectrum(dim, derive_seed(t_seed, 4))
        y_eq = build_gaussian(ly.as_matrix())
        est_eq = mc_kl(y_eq, x, n_samples, derive_seed(t_seed, 5))
        slack_eq = (MC_BAND_STDERRS * est_eq.std_error
                    - abs(est_eq.value - kl_diagonal(lx, ly)))

        if slack < 0.0 or slack_eq < 0.0:
            violations += 1
        worst = min(worst, slack, slack_eq)
    digest = (f"prop=c1 trials={trials} dim={dim} n_samples={n_samples} "
              f"family=matched-mixture w=[0.2,0.8] spread=[0.1,0.9] "
              f"band={MC_BAND_STDERRS:g}se master_seed={master_seed} scheme=splitmix64")
    return PropertyReport("c1", trials, violations, worst, digest)


def _require_mc_args(trials: int, n_samples: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
