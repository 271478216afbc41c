"""Randomized property campaigns over the divergence inequalities.

Each check returns, per trial, the slack of its inequality plus, where there
is one, the slack of its equality case, ``-|deviation|``.  ``_campaign`` folds
them into a report instead of raising: a trial violates when any of its
slacks falls below -tolerance; the worst margin is the first minimum among
the slacks that are not NaN.
Closed-form checks use an absolute tolerance of 1e-10 nats; Monte Carlo
checks fold a 4-standard-error band into the slack and use tolerance 0, which
puts the two-sided failure probability per check around 0.006%.

Per-trial seeds derive from the master seed by a counter scheme (splitmix64),
as uint64 arrays a chunk at a time (``_CHUNK_ELEMENTS`` matrix entries at
most).  Every stream is numpy's ``default_rng`` stream of its seed.  ``p3`` and
``p2`` hash a chunk's generators in one pass (:func:`_generators`), draw each
trial from its own streams and score the chunk as (T, m, m) stacks through the
kernels of the single-matrix API, one stacked ``_kl`` call per shape, so
reports are bit-identical whatever the chunking.

``p1`` and ``c1`` hand :func:`_mc_campaign` each trial's independent ``mc_kl``
calls (one for ``p1``, two for ``c1``).  It runs a trial's two calls at once:
the first on the caller's thread, the second on one pool thread per campaign
call, started at its first pair and joined when the call returns or raises,
under the caller's ``np.errstate``.  numpy releases the GIL while it draws
normals and in its ufunc loops, so the pair overlaps on two cores.  A lone
call runs inline.  Each call owns its generator, so the bits do not depend on
the pairing.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import _diagonal_sum, _kl, diagonal_lower_bound, kl_diagonal, kl_gaussian
from .estimators import GaussianModel, McEstimate, MixtureModel, build_matched_mixture, mc_kl
from .linalg import (DiagSpectrum, SpdMatrix, _certified, _check_dim, _check_integer,
                     _diag_lower, _factor, _log_uniform, _random_symmetric)

CLOSED_FORM_TOL = 1e-10
MC_BAND_STDERRS = 4.0

# Variance scales drawn log-uniformly from this range stress the log/trace
# kernels while staying well inside double-precision viability.
VARIANCE_RANGE = (1e-3, 1e3)
_LOG_VARIANCE_RANGE = tuple(math.log(v) for v in VARIANCE_RANGE)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK_ELEMENTS = 2 ** 16  # trials * dim**2 per chunk (at least one trial) bounds its stacks


def derive_seed(seed: int | np.ndarray, index: int | np.ndarray) -> int | np.ndarray:
    """Mix a seed with a counter index into a fresh 64-bit seed.

    splitmix64 finalizer applied to ``seed + (index + 1) * golden_gamma``.
    This is the documented scheme tying every per-trial generator back to the
    campaign master seed.  Each argument is an integer (Python or numpy, any sign
    and size) or an integer-dtype array, taken modulo 2**64; a float raises
    TypeError.  Arrays broadcast as uint64, whose arithmetic wraps silently; a
    campaign chunk derives its trial and stream seeds as such arrays.
    """
    seed, index = [v.astype(np.uint64, copy=False) if getattr(v, "ndim", 0) and
                   v.dtype.kind in "iu" else operator.index(v) & _MASK64 for v in (seed, index)]
    z = (seed + ((index + 1) * _GOLDEN & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_constants(init: int, mult: int, uses: int) -> tuple[np.ndarray, np.ndarray]:
    # A SeedSequence hash use xors its constant into a word, multiplies the
    # constant by ``mult``, then the word by the new constant: the k-th use
    # reads init * mult**k whatever the data.  (uses, 1) xor and multiply columns.
    col = np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(uses + 1)],
                   dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


# numpy.random.bit_generator's INIT_A/MULT_A (pool mixing), INIT_B/MULT_B
# (generate_state) and MIX_MULT_L/MIX_MULT_R, for its pool of four words.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul  # uint32 arrays wrap modulo 2**32
    return words ^ (words >> 16)


@functools.cache  # defined at the first draw: subclassing ISeedSequence imports numpy.random
def _seed_words() -> type:
    class SeedWords(np.random.bit_generator.ISeedSequence):
        # Hands PCG64 the four uint64 words SeedSequence(seed).generate_state(4, uint64) gives.
        # A subclass, not a registered one: PCG64 checks a virtual subclass 0.3 us slower.
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _generators(seeds: np.ndarray) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each 64-bit seed, hashed in one pass.

    Computes numpy's ``SeedSequence`` pool mixing and ``generate_state(4,
    uint64)`` for all seeds at once as uint32 array operations; PCG64 then
    seeds itself from those words, so every stream is bit-identical to
    ``default_rng``'s.  A seed of at most 64 bits is at most two entropy words.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0], pool[1] = s & 0xFFFFFFFF, s >> 32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):  # each word, hashed, is mixed into the other three
        dst, uses = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_XOR[uses], _POOL_MUL[uses])
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL)
    # Word pairs little-endian, as numpy views them: word 2j is the low half.
    state = np.ascontiguousarray(((words[1::2].astype(np.uint64) << 32) | words[::2]).T)
    seed_words = _seed_words()
    return [np.random.Generator(np.random.PCG64(seed_words(w))) for w in state]


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
        import json  # not at import: kl never writes a report
        return json.dumps(self.as_dict())


def random_diag_spectrum(dim: int, seed: int) -> DiagSpectrum:
    """Diagonal covariance with variances log-uniform in ``VARIANCE_RANGE``."""
    return DiagSpectrum.from_variances(
        _log_uniform(dim, [np.random.default_rng(seed)], *_LOG_VARIANCE_RANGE)[0])


def _random_scaled_spd(dim: int, seed: int) -> SpdMatrix:
    # random_spd's draw at condition target 10, overall variance scale log-uniform
    # in VARIANCE_RANGE drawn from a derived stream; factored once.
    rng = np.random.default_rng(derive_seed(seed, 0))
    scale = math.exp(rng.uniform(*_LOG_VARIANCE_RANGE))
    sym = scale * _random_symmetric(dim, [np.random.default_rng(derive_seed(seed, 1))], 10.0)[0]
    return _certified(sym, _factor(sym))


def _block_dims(block_dims: Sequence[int]) -> list[int]:
    # The p2 block list as ints; check_prop2 and the CLI share these checks.
    raw = list(block_dims)  # one pass, so an iterator is read once
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) or
               isinstance(d, float) and d.is_integer() for d in raw):  # np.float64 is a float
        raise ValueError(f"block dims must be integers, got {raw}")
    dims = [int(d) for d in raw]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"need at least two positive block dims, got {dims}")
    _check_dim(sum(dims))  # before any block is drawn
    return dims


def _check_counts(trials: int, dim: int) -> None:
    # A campaign's trial count and dimension are integers (a bool is not one), checked before
    # any draw; dim < 1 is left to the draws.
    _check_integer("trials", trials)
    _check_integer("dim", dim)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _campaign(prop: str, trials: int, master_seed: int, tol: float, settings: str, dim: int,
              chunk: Callable[[np.ndarray], Sequence[Sequence[float]]]) -> PropertyReport:
    """Run ``chunk`` on the per-trial seeds and fold its rows of slacks into a report."""
    _check_counts(trials, dim)
    step = max(1, _CHUNK_ELEMENTS // max(dim, 1) ** 2)  # dim < 1 is left to the draws
    violations = 0
    worst = math.inf
    for start in range(0, trials, step):
        seeds = derive_seed(master_seed, np.arange(start, min(start + step, trials)))
        rows = np.asarray(chunk(seeds), dtype=float)
        violations += int(np.count_nonzero((rows < -tol).any(axis=1)))  # a NaN never violates
        kept = rows[~np.isnan(rows)]  # in trial order; argmin takes the first of equal minima
        if kept.size:
            worst = min(worst, float(kept[kept.argmin()]))  # replaced only when strictly lower
    digest = f"prop={prop} {settings} master_seed={master_seed} scheme=splitmix64"
    return PropertyReport(prop, int(trials), violations, worst, digest)


def _mc_campaign(prop: str, trials: int, dim: int, master_seed: int, n_samples: int,
                 trial: Callable[[int], tuple[list[tuple], Callable]]) -> PropertyReport:
    """Fold Monte Carlo trials, running a trial's two ``mc_kl`` calls at once.

    ``trial(t_seed)`` draws a trial's inputs and returns its ``mc_kl`` argument
    tuples and a function from their estimates to its slacks.  A pair of calls
    runs on the caller's thread and on one pool thread per campaign call,
    started at its first pair and joined when the call returns or raises; a
    lone call runs inline.
    """
    # The 4-standard-error band is folded into each slack, so the tolerance is 0.
    _check_counts(trials, dim)  # reported before n_samples, as _campaign would
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    settings = (f"trials={trials} dim={dim} n_samples={n_samples} family=matched-mixture "
                f"w=[0.2,0.8] spread=[0.1,0.9] band={MC_BAND_STDERRS:g}se")
    pool = None

    def estimates(calls: list[tuple]) -> list[McEstimate]:
        nonlocal pool
        if len(calls) < 2:
            return [mc_kl(*c) for c in calls]
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor  # loads logging, so not at import
            # A new thread starts with numpy's default error state (per thread before numpy 2.0,
            # a context variable from 2.0 on): the pool thread enters its caller's for good.
            caller = np.errstate(**np.geterr(), call=np.geterrcall())
            pool = ThreadPoolExecutor(1, "gausskl-mc", initializer=caller.__enter__)
        try:
            second = pool.submit(mc_kl, *calls[1])
        except RuntimeError:  # no thread to be had; once shut down, every later submit fails too
            pool.shutdown(cancel_futures=True)
            return [mc_kl(*c) for c in calls]
        return [mc_kl(*calls[0]), second.result()]  # the caller's error comes first

    def chunk(seeds: np.ndarray) -> list[tuple[float, ...]]:
        return [slacks(*estimates(calls)) for calls, slacks in map(trial, seeds.tolist())]

    try:
        return _campaign(prop, trials, master_seed, 0.0, settings, dim, chunk)
    finally:
        if pool is not None:
            pool.shutdown()  # joins the pool thread


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
    def chunk(seeds: np.ndarray) -> np.ndarray:
        n = len(seeds)
        rngs = _generators(derive_seed(seeds, np.arange(2, dtype=np.uint64)[:, None]).ravel())
        vx = _log_uniform(dim, rngs[:n], *_LOG_VARIANCE_RANGE)
        sy = _random_symmetric(dim, rngs[n:], condition_target)
        vy = np.diagonal(sy, axis1=1, axis2=2)
        lx = _diag_lower(vx)
        bound = _diagonal_sum(vx, vy)  # also the bound for sy's diagonal
        # Both routes in one stack: against sy, then against its diagonal.
        kl = _kl(np.concatenate([lx, lx]), np.concatenate([_factor(sy), _diag_lower(vy)]))
        return np.stack([kl[:n] - bound, -np.abs(kl[n:] - bound)], axis=1)

    settings = (f"trials={trials} dim={dim} condition_target={condition_target:g} "
                f"lx_range=[{VARIANCE_RANGE[0]:g},{VARIANCE_RANGE[1]:g}] "
                f"tol={CLOSED_FORM_TOL:g}")
    return _campaign("p3", trials, master_seed, CLOSED_FORM_TOL, settings, dim, chunk)


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

    def chunk(seeds: np.ndarray) -> np.ndarray:
        # Stream i draws reference block i, the last stream sy.  The blocks of one size are
        # drawn, factored and scored against sy's marginals as one stack.
        n = len(seeds)
        streams = np.arange(len(dims) + 1, dtype=np.uint64)[:, None]
        rngs = _generators(derive_seed(seeds, streams).ravel())
        sy = _random_symmetric(total, rngs[len(dims) * n:], condition_target)
        lx, sub = np.zeros((2, n, total, total))  # block-diagonal factors: reference, marginals
        kls = np.empty((len(dims), n))
        for d in dict.fromkeys(dims):
            idx = [i for i, e in enumerate(dims) if e == d]
            draws = [g for i in idx for g in rngs[i * n:(i + 1) * n]]
            ref = _factor(_random_symmetric(d, draws, condition_target))
            marg = _factor(np.concatenate([sy[:, a:a + d, a:a + d] for a in offsets[idx]]))
            kls[idx] = _kl(ref, marg).reshape(len(idx), n)
            for a, r, s in zip(offsets[idx], ref.reshape(-1, n, d, d), marg.reshape(-1, n, d, d)):
                lx[:, a:a + d, a:a + d], sub[:, a:a + d, a:a + d] = r, s
        marginal_sum = sum(kls)  # in block order
        kl = _kl(np.concatenate([lx, lx]), np.concatenate([_factor(sy), sub]))
        return np.stack([kl[:n] - marginal_sum, -np.abs(kl[n:] - marginal_sum)], axis=1)

    settings = (f"blocks={'x'.join(str(d) for d in dims)} trials={trials} "
                f"condition_target={condition_target:g} tol={CLOSED_FORM_TOL:g}")
    return _campaign("p2", trials, master_seed, CLOSED_FORM_TOL, settings, total, chunk)


def check_prop1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Among distributions with a given covariance, the Gaussian one is closest.

    Per trial: Gaussian reference x with random SPD covariance and a matched
    mixture y with random target covariance.  The Monte Carlo estimate of
    KL(y || x) must not fall below the closed-form divergence of the Gaussian
    with y's covariance by more than the 4-standard-error band; the band is
    folded into the slack, so the tolerance is 0.  Sampled evidence on the
    mixture witness family, not a proof over all distributions.
    """
    def trial(t_seed: int):
        sx = _random_scaled_spd(dim, derive_seed(t_seed, 0))
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1))
        calls = [(_matched_mixture(sy, t_seed), GaussianModel(sx), n_samples,
                  derive_seed(t_seed, 3))]

        def slacks(est: McEstimate) -> tuple[float]:
            return (est.value - kl_gaussian(sx, sy) + MC_BAND_STDERRS * est.std_error,)

        return calls, slacks

    return _mc_campaign("p1", trials, dim, master_seed, n_samples, trial)


def check_c1(trials: int, dim: int, master_seed: int, n_samples: int) -> PropertyReport:
    """Full diagonal bound against sampled non-Gaussian y, plus its equality case.

    Per trial: diagonal Gaussian reference, matched mixture y with a random
    (generally non-diagonal) target covariance; the Monte Carlo divergence
    must stay above the diagonal lower bound within the 4-standard-error
    band.  The equality case draws a Gaussian y with diagonal covariance and
    requires the estimate to match the bound inside the same band.
    """
    def trial(t_seed: int):
        lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
        sy = _random_scaled_spd(dim, derive_seed(t_seed, 1))
        ly = random_diag_spectrum(dim, derive_seed(t_seed, 4))
        x = GaussianModel(lx.as_matrix())
        calls = [(_matched_mixture(sy, t_seed), x, n_samples, derive_seed(t_seed, 3)),
                 (GaussianModel(ly.as_matrix()), x, n_samples, derive_seed(t_seed, 5))]

        def slacks(est: McEstimate, est_eq: McEstimate) -> tuple[float, float]:
            slack = est.value - diagonal_lower_bound(lx, sy) + MC_BAND_STDERRS * est.std_error
            slack_eq = (MC_BAND_STDERRS * est_eq.std_error
                        - abs(est_eq.value - kl_diagonal(lx, ly)))
            return slack, slack_eq

        return calls, slacks

    return _mc_campaign("c1", trials, dim, master_seed, n_samples, trial)
