"""Benchmark inputs and independent references, built from numpy alone.

Nothing here imports gausskl: the matrices the benchmark feeds the program
and the answers it checks them against come from separate code, so a defect
in the package cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np

# Near-equal pairs keep Sx to this many significant bits so that c * Sx,
# with c = 1 + 2**-k, is exact for k up to 53 - NEAR_EQUAL_BITS.
NEAR_EQUAL_BITS = 26


def random_spd(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """Exactly symmetric SPD matrix, eigenvalues log-uniform in [cond**-0.5, cond**0.5].

    The extreme eigenvalues are pinned to the ends of the range so every
    matrix has condition number ``cond`` up to roundoff.
    """
    half = 0.5 * math.log(cond)
    logs = rng.uniform(-half, half, size=dim)
    if dim > 1:
        logs[0], logs[1] = -half, half
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    a = (q * np.exp(logs)) @ q.T
    return 0.5 * (a + a.T)


def round_significand(a: np.ndarray, bits: int) -> np.ndarray:
    """Round every entry to ``bits`` significant bits (exactly representable)."""
    mant, expo = np.frexp(a)
    return np.ldexp(np.round(mant * 2.0 ** bits) / 2.0 ** bits, expo)


def kl_reference(sx: np.ndarray, sy: np.ndarray) -> float:
    """KL(N(0, sy) || N(0, sx)) from the eigenvalues of the whitened sy.

    With sx = L L^T, the eigenvalues mu of L^-1 sy L^-T give
    KL = 0.5 * sum(mu - ln mu - 1).
    """
    lower = np.linalg.cholesky(sx)
    w = np.linalg.solve(lower, sy)
    white = np.linalg.solve(lower, w.T)
    mu = np.linalg.eigvalsh(0.5 * (white + white.T))
    return 0.5 * float(np.sum(mu - np.log(mu) - 1.0))


def diag_bound_reference(lx: np.ndarray, sy: np.ndarray) -> float:
    """0.5 * sum(r - ln r - 1) with r = diag(sy) / lx."""
    r = np.diag(sy) / lx
    return 0.5 * float(np.sum(r - np.log(r) - 1.0))


def gap_reference(sy: np.ndarray) -> float:
    """Gap of the diagonal bound, -0.5 * ln det corr(sy) (Hadamard's inequality)."""
    s = 1.0 / np.sqrt(np.diag(sy))
    sign, logdet = np.linalg.slogdet(sy * s[:, None] * s[None, :])
    if sign <= 0:
        raise ValueError("correlation matrix is not positive definite")
    return -0.5 * float(logdet)


def excess_series(u: float) -> float:
    """u - ln(1 + u) for |u| < 0.5, summed as u^2/2 - u^3/3 + ... without cancellation."""
    total = 0.0
    power = u
    for n in range(2, 200):
        power *= -u
        term = -power / n
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
    raise ValueError(f"series for u={u!r} did not converge")


def near_equal_pair(rng: np.random.Generator, dim: int, cond: float, k: int):
    """Pair (sx, sy) with sy = fl(c * sx), c = 1 + 2**-k, and its exact KL.

    sx is rounded to NEAR_EQUAL_BITS significant bits.  The residual
    E = sy - c * sx is computed exactly (both subtractions are exact by
    Sterbenz's lemma); it is zero when k <= 53 - NEAR_EQUAL_BITS.  The exact
    divergence of the stored pair is then 0.5 * sum(f(delta + a_i)), with
    f(u) = u - ln(1 + u), delta = 2**-k and a_i the eigenvalues of the
    whitened residual; for E = 0 that is 0.5 * m * (c - 1 - ln c).
    """
    sx = round_significand(random_spd(rng, dim, cond), NEAR_EQUAL_BITS)
    sx = np.triu(sx) + np.triu(sx, 1).T
    delta = 2.0 ** -k
    c = 1.0 + delta
    sy = c * sx
    if not np.array_equal(sy / c, sx):
        raise AssertionError(f"(c * sx) / c != sx for dim={dim} k={k}")
    residual = (sy - sx) - sx * delta
    if np.any(residual):
        lower = np.linalg.cholesky(sx)
        w = np.linalg.solve(lower, residual)
        white = np.linalg.solve(lower, w.T)
        shifts = np.linalg.eigvalsh(0.5 * (white + white.T))
        exact = 0.5 * sum(excess_series(delta + a) for a in shifts)
    else:
        exact = 0.5 * dim * excess_series(delta)
    return sx, sy, exact


def write_csv(path, matrix: np.ndarray) -> None:
    """Headerless CSV with 17 significant digits (a lossless round trip)."""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
