"""Randomized property campaigns over the divergence inequalities.

Each check is a per-trial function that draws one random instance and
returns the slack of its inequality plus, where there is one, the slack of
its equality case, ``-|deviation|``.  One driver runs it over the trials and
reports violations instead of raising: a trial violates when any of its
slacks falls below -tolerance, and the worst margin is the minimum over all
slacks, equality cases included.  Closed-form checks use an absolute
tolerance of 1e-10 nats; Monte Carlo checks fold a 4-standard-error band into
the slack and use tolerance 0, which puts the two-sided failure probability
per check around 0.006%.

Per-trial randomness derives from the master seed through a fixed counter
scheme (splitmix64), so campaigns are reproducible and trials are independent
enough to parallelize.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import diagonal_lower_bound, kl_diagonal, kl_gaussian
from .estimators import GaussianModel, MixtureModel, build_matched_mixture, mc_kl
from .linalg import (DiagSpectrum, SpdMatrix, _block_diagonal, _random_symmetric, random_spd,
                     validate_spd)

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
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(math.log(lo), math.log(hi), size=dim))
    return DiagSpectrum.from_variances(v)


def _random_scaled_spd(dim: int, seed: int, condition_target: float) -> SpdMatrix:
    # Conditioning from random_spd's draw, overall variance scale log-uniform
    # in VARIANCE_RANGE drawn from a derived stream; certified once.
    rng = np.random.default_rng(derive_seed(seed, 0))
    scale = math.exp(rng.uniform(math.log(VARIANCE_RANGE[0]), math.log(VARIANCE_RANGE[1])))
    return validate_spd(scale * _random_symmetric(dim, derive_seed(seed, 1), condition_target))


def _block_dims(block_dims: Sequence[int]) -> list[int]:
    # The p2 block list as ints; check_prop2 and the CLI share these checks.
    dims = [int(d) for d in block_dims]
    if len(dims) < 2:
        raise ValueError(f"need at least two blocks, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"block dims must be positive, got {dims}")
    return dims


def _campaign(prop: str, trials: int, master_seed: int, tol: float, settings: str,
              trial: Callable[[int], tuple[float, ...]]) -> PropertyReport:
    """Run ``trial`` on every per-trial seed and fold its slacks into a report."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    violations = 0
    worst = math.inf
    for t in range(trials):
        slacks = trial(derive_seed(master_seed, t))
        # any(), not min(slacks) < -tol: a NaN first slack must not hide the rest.
        if any(s < -tol for s in slacks):
            violations += 1
        worst = min(worst, *slacks)
    digest = f"prop={prop} {settings} master_seed={master_seed} scheme=splitmix64"
    return PropertyReport(prop, trials, violations, worst, digest)


def _mc_campaign(prop: str, trials: int, dim: int, master_seed: int, n_samples: int,
                 trial: Callable[[int], tuple[float, ...]]) -> PropertyReport:
    # The 4-standard-error band is folded into each slack, so the tolerance
    # is 0.  A bad ``trials`` is left to _campaign, which reports it first.
    if trials >= 1 and n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    settings = (f"trials={trials} dim={dim} n_samples={n_samples} family=matched-mixture "
                f"w=[0.2,0.8] spread=[0.1,0.9] band={MC_BAND_STDERRS:g}se")
    return _campaign(prop, trials, master_seed, 0.0, settings, trial)


def _matched_mixture(sy: SpdMatrix, t_seed: int) -> MixtureModel:
    # Mixture weight and spread come from the trial's third derived stream.
    rng = np.random.default_rng(derive_seed(t_seed, 2))
    return build_matched_mixture(sy, w=rng.uniform(0.2, 0.8), spread=rng.uniform(0.1, 0.9))


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
    def trial(t_seed: int) -> tuple[float, float]:
        lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
        sy = random_spd(dim, derive_seed(t_seed, 1), condition_target)
        sx = lx.as_matrix()

        slack = kl_gaussian(sx, sy) - diagonal_lower_bound(lx, sy)

        sy_diag = sy.diagonal().as_matrix()
        slack_eq = -abs(kl_gaussian(sx, sy_diag) - diagonal_lower_bound(lx, sy_diag))
        return slack, slack_eq

    settings = (f"trials={trials} dim={dim} condition_target={condition_target:g} "
                f"lx_range=[{VARIANCE_RANGE[0]:g},{VARIANCE_RANGE[1]:g}] "
                f"tol={CLOSED_FORM_TOL:g}")
    return _campaign("p3", trials, master_seed, CLOSED_FORM_TOL, settings, trial)


def check_prop2(block_dims: Sequence[int], trials: int, master_seed: int,
                condition_target: float = 100.0) -> PropertyReport:
    """Joint Gaussian divergence dominates the sum over independent blocks.

    Per trial: a block-diagonal reference built from independent random SPD
    blocks and a full random SPD sy of the total dimension.  The slack is the
    joint divergence minus the sum of marginal-block divergences, where each
    sy marginal is the corresponding principal submatrix.  The equality case
    re-runs the comparison with sy restricted to its block diagonal.
    """
    dims = _block_dims(block_dims)
    total = sum(dims)
    offsets = np.cumsum([0] + dims)

    def trial(t_seed: int) -> tuple[float, float]:
        blocks = [random_spd(d, derive_seed(t_seed, i), condition_target)
                  for i, d in enumerate(dims)]
        sx = _block_diagonal(blocks)
        sy = random_spd(total, derive_seed(t_seed, len(dims)), condition_target)

        sub = [validate_spd(sy.entries[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]])
               for i in range(len(dims))]
        marginal_sum = sum(kl_gaussian(blocks[i], sub[i]) for i in range(len(dims)))
        slack = kl_gaussian(sx, sy) - marginal_sum

        sy_bd = _block_diagonal(sub)
        slack_eq = -abs(kl_gaussian(sx, sy_bd) - marginal_sum)
        return slack, slack_eq

    settings = (f"blocks={'x'.join(str(d) for d in dims)} trials={trials} "
                f"condition_target={condition_target:g} tol={CLOSED_FORM_TOL:g}")
    return _campaign("p2", trials, master_seed, CLOSED_FORM_TOL, settings, trial)


def check_prop1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Among distributions with a given covariance, the Gaussian one is closest.

    Per trial: Gaussian reference x with random SPD covariance and a matched
    mixture y with random target covariance.  The Monte Carlo estimate of
    KL(y || x) must not fall below the closed-form divergence of the Gaussian
    with y's covariance by more than the 4-standard-error band; the band is
    folded into the slack, so the tolerance is 0.  Sampled evidence on the
    mixture witness family, not a proof over all distributions.
    """
    def trial(t_seed: int) -> tuple[float]:
        sx = _random_scaled_spd(dim, derive_seed(t_seed, 0), condition_target=10.0)
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1), condition_target=10.0)
        est = mc_kl(_matched_mixture(sy, t_seed), GaussianModel(sx), n_samples,
                    derive_seed(t_seed, 3))
        slack = est.value - kl_gaussian(sx, sy) + MC_BAND_STDERRS * est.std_error
        return (slack,)

    return _mc_campaign("p1", trials, dim, master_seed, n_samples, trial)


def check_c1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Full diagonal bound against sampled non-Gaussian y, plus its equality case.

    Per trial: diagonal Gaussian reference, matched mixture y with a random
    (generally non-diagonal) target covariance; the Monte Carlo divergence
    must stay above the diagonal lower bound within the 4-standard-error
    band.  The equality case draws a Gaussian y with diagonal covariance and
    requires the estimate to match the bound inside the same band.
    """
    def trial(t_seed: int) -> tuple[float, float]:
        lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1), condition_target=10.0)
        x = GaussianModel(lx.as_matrix())
        est = mc_kl(_matched_mixture(sy, t_seed), x, n_samples, derive_seed(t_seed, 3))
        slack = est.value - diagonal_lower_bound(lx, sy) + MC_BAND_STDERRS * est.std_error

        ly = random_diag_spectrum(dim, derive_seed(t_seed, 4))
        est_eq = mc_kl(GaussianModel(ly.as_matrix()), x, n_samples, derive_seed(t_seed, 5))
        slack_eq = (MC_BAND_STDERRS * est_eq.std_error
                    - abs(est_eq.value - kl_diagonal(lx, ly)))
        return slack, slack_eq

    return _mc_campaign("c1", trials, dim, master_seed, n_samples, trial)
