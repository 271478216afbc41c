"""Independent numerical oracles used across the test suite.

Everything here evaluates definitions directly (quadrature of densities,
hand-rolled 2x2 determinants, LU log-determinants) and deliberately shares
no code with the package under test.
"""

import math

import numpy as np
from scipy.integrate import quad


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


def excess_series(u: float) -> float:
    """u - ln(1 + u) by its alternating Taylor series, for |u| <= 2**-10."""
    assert abs(u) <= 2.0 ** -10
    return math.fsum((-u) ** n / n for n in range(2, 40))
