"""Independent numerical oracles used across the test suite.

Everything here evaluates definitions directly (quadrature of densities,
hand-rolled 2x2 determinants, LU log-determinants, 60-digit mpmath) and
deliberately shares no code with the package under test.  The exceptions are the per-trial
campaign references at the end: they draw their instances through the
package's single-matrix public API, trial by trial, as the reference for
the chunked campaigns; the Monte Carlo ones call ``mc_kl`` one after the other.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import block_diag, solve_triangular
from scipy.linalg.blas import dtrsm

from gausskl import (DiagSpectrum, GaussianModel, build_matched_mixture, derive_seed,
                     diagonal_lower_bound, kl_diagonal, kl_gaussian, mc_kl, random_diag_spectrum,
                     random_spd, validate_spd)
from gausskl.harness import MC_BAND_STDERRS, VARIANCE_RANGE


def normal_log_pdf(u: float, var: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * var) - 0.5 * u * u / var


def kl_scalar_quad(var_x: float, var_y: float) -> float:
    """Quadrature of p_y * ln(p_y / p_x) over [-40*sigma, 40*sigma]."""
    sigma = math.sqrt(max(var_x, var_y))

    def integrand(u):
        lpy = normal_log_pdf(u, var_y)
        lpx = normal_log_pdf(u, var_x)
        return math.exp(lpy) * (lpy - lpx)

    value, _ = quad(integrand, -40.0 * sigma, 40.0 * sigma,
                    points=[-4.0 * sigma, 0.0, 4.0 * sigma], limit=200)
    return value


def entropy_quad(var: float) -> float:
    """Quadrature of -p * ln(p) for a zero-mean scalar Gaussian."""
    sigma = math.sqrt(var)

    def integrand(u):
        lp = normal_log_pdf(u, var)
        return -math.exp(lp) * lp

    value, _ = quad(integrand, -40.0 * sigma, 40.0 * sigma,
                    points=[-4.0 * sigma, 0.0, 4.0 * sigma], limit=200)
    return value


def det2(m) -> float:
    """2x2 determinant by the textbook formula."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def total_correlation(s) -> float:
    """-0.5 * ln det corr(s), the log-determinant taken by LU (numpy slogdet)."""
    s = np.asarray(s, dtype=float)
    d = np.sqrt(np.diag(s))
    sign, log_det = np.linalg.slogdet(s / np.outer(d, d))
    assert sign > 0
    return -0.5 * log_det


def kl_determinant_route(sx, sy) -> float:
    """0.5 * [tr(Sx^-1 Sy) - ln det Sy + ln det Sx - m], solved and taken by LU (numpy)."""
    sx, sy = np.asarray(sx, dtype=float), np.asarray(sy, dtype=float)
    (sign_x, log_det_x), (sign_y, log_det_y) = np.linalg.slogdet(sx), np.linalg.slogdet(sy)
    assert sign_x > 0 and sign_y > 0
    trace = float(np.trace(np.linalg.solve(sx, sy)))
    return 0.5 * (trace - log_det_y + log_det_x - len(sx))


def kl_mpmath(sx, sy, dps: int = 60) -> float:
    """0.5 * [tr(Sx^-1 Sy) - m - ln det Sy + ln det Sx] of the given floats, at dps digits.

    Taken from the dps-digit Cholesky factors Lx, Ly of the given entries, each
    matrix averaged with its transpose first (the trace is unchanged; the
    determinants move by the asymmetry squared): tr(Sx^-1 Sy) = ||Lx^-1 Ly||_F^2,
    the solve by forward substitution, and ln det S = 2 sum ln diag(L).  About
    m^3 / 2 operations, a tenth of an inverse's, so m = 65 takes under a second.
    """
    with mpmath.workdps(dps):
        mats = [mpmath.matrix(np.asarray(s).tolist()) for s in (sx, sy)]
        # tol=0: no absolute floor on the pivots, so any scale factors
        lx, ly = (mpmath.cholesky((a + a.T) / 2, tol=0) for a in mats)
        m = lx.rows
        lx_rows = [[lx[i, j] for j in range(i + 1)] for i in range(m)]
        x = [[mpmath.mpf(0)] * m for _ in range(m)]  # Lx^-1 Ly, lower triangular
        for i in range(m):
            for c in range(i + 1):
                above = mpmath.fdot(lx_rows[i][c:i], [x[r][c] for r in range(c, i)])
                x[i][c] = (ly[i, c] - above) / lx_rows[i][i]
        trace = mpmath.fsum(v * v for row in x for v in row)
        log_ratio = mpmath.fsum(mpmath.log(ly[i, i]) - mpmath.log(lx[i, i]) for i in range(m))
        return float((trace - m) / 2 - log_ratio)


def covariance_mpmath(lower, dps: int = 60) -> np.ndarray:
    """L L^T of a double factor at dps digits, as an array of mpmath numbers for kl_mpmath.

    Each entry is a sum of exact products, so a factor whose rows are scaled far
    outside the double range keeps its covariance, and kl_mpmath's Cholesky
    factor of it is the given factor to about dps digits.
    """
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(v) for v in row] for row in np.asarray(lower, dtype=float).tolist()]
        return np.array([[mpmath.fdot(a, b) for b in rows] for a in rows], dtype=object)


def weakly_correlated(m: int, rho: float, seed: int) -> np.ndarray:
    """A subject covariance with variances over e^+-3 and correlations rho * U(-1, 1).

    Symmetric only to 1 ulp: ``rho * (r + r.T) * s[:, None] * s[None, :]``
    scales entry ``[i, j]`` by ``s[i]`` then ``s[j]`` and ``[j, i]`` in the other
    order, so the two may differ in the last bit (``weakly_correlated(2, 1e-9, 1)``
    has 3.5912118424804553e-09 above the diagonal, 3.591211842480455e-09 below).
    ``kl_mpmath`` averages each matrix with its transpose before factoring it;
    ``validate_spd`` averages such asymmetry away too.  Its correlations round
    out of the pivots of its Cholesky factor once rho is below about 1e-8.
    """
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(-3.0, 3.0, m))
    r = np.triu(rng.uniform(-1.0, 1.0, (m, m)), 1)
    s = np.sqrt(v)
    sy = rho * (r + r.T) * s[:, None] * s[None, :]
    sy[np.diag_indices(m)] = v
    return sy


def log_uniform_spectrum(dim: int, seed: int, lo: float, hi: float) -> DiagSpectrum:
    """dim variances log-uniform in [lo, hi], from ``np.random.default_rng(seed)``.

    ``random_diag_spectrum``'s draw over a range other than ``VARIANCE_RANGE``,
    bit for bit what it gave for such a range when it took one.
    """
    rng = np.random.default_rng(seed)
    return DiagSpectrum.from_variances(np.exp(rng.uniform(math.log(lo), math.log(hi), size=dim)))


def sign_fixed_symmetric(dim: int, seeds: list, condition_target: float) -> np.ndarray:
    """``linalg._random_symmetric``'s draws as first written, one per seed, stacked.

    From each ``np.random.default_rng(seed)``: dim eigenvalues log-uniform in
    ``[1/sqrt(c), sqrt(c)]``, then a (dim, dim) standard normal matrix.  Its QR's
    ``q``, with each column multiplied by the sign of ``r``'s pivot (a Haar ``q``),
    conjugates the eigenvalues, and the result is averaged with its transpose.
    """
    half_log = 0.5 * math.log(condition_target)
    rngs = [np.random.default_rng(s) for s in seeds]
    eigs = np.exp(np.array([rng.uniform(-half_log, half_log, size=dim) for rng in rngs]))
    q, r = np.linalg.qr(np.array([rng.standard_normal((dim, dim)) for rng in rngs]))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    a = (q * eigs[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (a + a.swapaxes(-1, -2))


def excess_series(u: float) -> float:
    """u - ln(1 + u) by its alternating Taylor series, for |u| <= 2**-10."""
    assert abs(u) <= 2.0 ** -10
    return math.fsum((-u) ** n / n for n in range(2, 40))


def excess_terms(u, log_ratio):
    """u - ln(1 + u) elementwise: log1p(u) where |u| < 0.5, else log_ratio."""
    return u - np.where(np.abs(u) < 0.5, np.log1p(u), log_ratio)


def diagonal_sum_reference(vx, vy) -> float:
    """0.5 * sum_i excess(vy_i / vx_i - 1), added left to right in Python."""
    vx, vy = np.asarray(vx, dtype=float), np.asarray(vy, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = 0.5 * excess_terms((vy - vx) / vx, np.log(vy) - np.log(vx))
    return sum(terms.tolist())


def kl_factors_reference(lx, ly) -> float:
    """KL(y || x) from Cholesky factors by the row-block formula, every block solved.

    M = Lx^-1 Ly = a^-1 b for the factors' rows divided by dx, a = Lx / dx and
    b = Ly / dx, 64 rows at a time: W, rows i:k of b less numpy matmuls of a's rows
    with M's nonzero 64-column tiles above (M is zero above its diagonal), then
    M[i:k, :k] = a[i:k, i:k]^-1 W by scipy's BLAS ``dtrsm`` on W's transpose
    (side right, upper, no transpose, unit diagonal).  Each block's strict lower
    part's squares are added, one dot product per block in row-major order.  A
    stacked kernel must reproduce it bit for bit.  BLAS's bits depend on its
    operands' layouts at partial tiles, so every operand has the kernel's shape
    and strides.
    """
    dx, dy = np.diag(lx).copy(), np.diag(ly).copy()
    m = len(lx)
    mat, squares = np.empty((m, m)), 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(0, m, 64):
            k = min(i + 64, m)
            a, w = lx[i:k, :k] / dx[i:k, None], ly[i:k, :k] / dx[i:k, None]
            for r in range(0, i, 64):
                w[:, r:r + 64] -= a[:, r:i] @ mat[r:i, r:r + 64]
            w = dtrsm(1.0, a[:, i:].T, w.T, side=1, lower=0, trans_a=0, diag=1).T
            mat[i:k, :k] = w
            w[:, i:][np.diag_indices(k - i)] = 0.0
            off = w.ravel()
            squares += float(off @ off)
        u = (dy - dx) / dx * (dy / dx + 1.0)
        terms = excess_terms(u, 2.0 * (np.log(dy) - np.log(dx)))
    return 0.5 * (squares + float(terms.sum()))


def kl_factors_column_reference(lx, ly) -> float:
    """KL(y || x) from N = a^-1 b, solved by column blocks: the all-solve formula.

    a = Lx / dx and b = Ly / dy are the column-normalized factors.  Block
    j:j+64 of N's columns by scipy ``solve_triangular`` (a left-side solve)
    against a[j:, j:] on rows j:, so every flop is in the solve.  M = N * dy / dx
    (rows by dx), its strict lower part's squares summed by one dot product in
    column-major order, and the diagonal excess terms by ``np.sum``.  It shares
    no normalization, solve or summation order with ``kl_factors_reference``.
    """
    dx, dy = np.diag(lx).copy(), np.diag(ly).copy()
    a, n = lx / dx, ly / dy
    for j in range(0, len(a), 64):
        n[j:, j:j + 64] = solve_triangular(a[j:, j:], n[j:, j:j + 64], lower=True,
                                           unit_diagonal=True, check_finite=False)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n *= dy
        n /= dx[:, None]
        u = (dy - dx) / dx * (dy / dx + 1.0)
        terms = excess_terms(u, 2.0 * (np.log(dy) - np.log(dx)))
    np.fill_diagonal(n, 0.0)
    off = n.ravel("F")
    return 0.5 * (float(off @ off) + float(terms.sum()))


def kl_factors_longdouble(lx, ly) -> float:
    """KL(y || x) from Cholesky factors by forward substitution in ``np.longdouble``.

    M = Lx^-1 Ly row by row, then its strict lower part's squares and the diagonal
    terms u - 2 ln|d| (d = M_ii, u = d^2 - 1), all in long double.  Where that is
    the x87 format, its 11 more mantissa bits make it a truer reference than either
    double formula, and its exponent range holds every product of double entries, so
    the result is +inf exactly where the divergence exceeds the double range.  The
    diagonal term is not taken from log1p(u), which a pivot ratio below 2^-32 would
    round to log1p(-1).
    """
    lx, ly = np.asarray(lx, dtype=np.longdouble), np.asarray(ly, dtype=np.longdouble)
    m = len(lx)
    x = np.zeros((m, m), dtype=np.longdouble)
    for i in range(m):
        x[i, :i + 1] = (ly[i, :i + 1] - lx[i, :i] @ x[:i, :i + 1]) / lx[i, i]
    d = np.diagonal(x).copy()
    np.fill_diagonal(x, 0.0)
    total = np.sum(x * x) + np.sum(d * d - 1.0 - 2.0 * np.log(np.abs(d)))
    with np.errstate(over="ignore"):
        return float(np.float64(0.5 * total))


def p3_trial(dim: int, t_seed: int, condition_target: float) -> tuple:
    """One check_prop3 trial, drawn and scored through the single-matrix API."""
    lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
    sy = random_spd(dim, derive_seed(t_seed, 1), condition_target)
    sx = lx.as_matrix()

    slack = (kl_factors_reference(sx.lower, sy.lower)
             - diagonal_sum_reference(lx.variances, np.diag(sy.entries)))

    sy_diag = sy.diagonal().as_matrix()
    slack_eq = -abs(kl_factors_reference(sx.lower, sy_diag.lower)
                    - diagonal_sum_reference(lx.variances, np.diag(sy_diag.entries)))
    return slack, slack_eq


def p2_trial(dims: list, t_seed: int, condition_target: float) -> tuple:
    """One check_prop2 trial, drawn and scored through the single-matrix API."""
    offsets = np.cumsum([0] + dims)
    blocks = [random_spd(d, derive_seed(t_seed, i), condition_target)
              for i, d in enumerate(dims)]
    lx = block_diag(*[b.lower for b in blocks])
    sy = random_spd(sum(dims), derive_seed(t_seed, len(dims)), condition_target)

    sub = [validate_spd(sy.entries[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]])
           for i in range(len(dims))]
    marginal_sum = sum(kl_factors_reference(blocks[i].lower, sub[i].lower)
                       for i in range(len(dims)))
    slack = kl_factors_reference(lx, sy.lower) - marginal_sum

    ly_bd = block_diag(*[s.lower for s in sub])
    slack_eq = -abs(kl_factors_reference(lx, ly_bd) - marginal_sum)
    return slack, slack_eq


def scaled_spd(dim: int, seed: int):
    """random_spd at condition target 10 times a scale log-uniform in VARIANCE_RANGE.

    The scale is drawn from ``derive_seed(seed, 0)``'s stream, the matrix from
    ``derive_seed(seed, 1)``'s; the product is certified by ``validate_spd``.
    """
    rng = np.random.default_rng(derive_seed(seed, 0))
    scale = math.exp(rng.uniform(*(math.log(v) for v in VARIANCE_RANGE)))
    return validate_spd(scale * random_spd(dim, derive_seed(seed, 1), 10.0).entries)


def matched_mixture(sy, t_seed: int):
    """The trial's mixture witness: weight, then spread, from derive_seed(t_seed, 2)'s stream."""
    rng = np.random.default_rng(derive_seed(t_seed, 2))
    return build_matched_mixture(sy, w=rng.uniform(0.2, 0.8), spread=rng.uniform(0.1, 0.9))


def p1_trial(dim: int, t_seed: int, n_samples: int) -> tuple:
    """One check_prop1 trial, drawn through the public API and estimated inline."""
    sx = scaled_spd(dim, derive_seed(t_seed, 0))
    sy = scaled_spd(dim, derive_seed(t_seed, 1))
    est = mc_kl(matched_mixture(sy, t_seed), GaussianModel(sx), n_samples, derive_seed(t_seed, 3))
    return (est.value - kl_gaussian(sx, sy) + MC_BAND_STDERRS * est.std_error,)


def c1_trial(dim: int, t_seed: int, n_samples: int) -> tuple:
    """One check_c1 trial: its two mc_kl calls one after the other, in the caller's thread."""
    lx = random_diag_spectrum(dim, derive_seed(t_seed, 0))
    sy = scaled_spd(dim, derive_seed(t_seed, 1))
    x = GaussianModel(lx.as_matrix())
    est = mc_kl(matched_mixture(sy, t_seed), x, n_samples, derive_seed(t_seed, 3))
    slack = est.value - diagonal_lower_bound(lx, sy) + MC_BAND_STDERRS * est.std_error

    ly = random_diag_spectrum(dim, derive_seed(t_seed, 4))
    est_eq = mc_kl(GaussianModel(ly.as_matrix()), x, n_samples, derive_seed(t_seed, 5))
    return slack, MC_BAND_STDERRS * est_eq.std_error - abs(est_eq.value - kl_diagonal(lx, ly))


def fold_slacks(rows, tol: float) -> tuple:
    """(violations, worst margin) of per-trial rows of slacks, in trial order.

    A trial violates when any slack is below -tol (a NaN slack never does);
    the worst margin is Python's min over the slacks in trial order, so a NaN
    never becomes worst and the first of two equal zeros stays.
    """
    violations, worst = 0, math.inf
    for slacks in rows:
        violations += any(s < -tol for s in slacks)
        worst = min(worst, *slacks)
    return violations, worst
