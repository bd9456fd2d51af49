"""Reference computations the benchmark checks mixkde's outputs against.

Nothing here calls mixkde: kernels, their integrals, window sums, oracles and
long-run variances are written out again from their definitions, summed with
math.fsum or integrated by a rule of the benchmark's own, so a fault in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ndtr

SQRT_2PI = math.sqrt(2.0 * math.pi)
# The program treats the Gaussian kernel as supported on |u| <= 8.
RADIUS = {"gaussian": 8.0, "epanechnikov": 1.0, "triangular": 1.0, "uniform": 1.0}
# Pieces on which each compact kernel is a polynomial, for Gauss-Legendre rules.
PIECES = {
    "epanechnikov": ((-1.0, 1.0),),
    "triangular": ((-1.0, 0.0), (0.0, 1.0)),
    "uniform": ((-1.0, 1.0),),
}
_GL_NODES, _GL_WEIGHTS = leggauss(64)


def kernel(family: str, u: np.ndarray) -> np.ndarray:
    """K(u) on |u| <= radius; callers pass only points inside the window."""
    if family == "gaussian":
        return np.exp(-0.5 * u * u) / SQRT_2PI
    if family == "epanechnikov":
        return 0.75 * (1.0 - u * u)
    if family == "triangular":
        return 1.0 - np.abs(u)
    return np.full(u.shape, 0.5)


def kernel_cdf(family: str, u: np.ndarray) -> np.ndarray:
    """G_K(u) = integral of K up to u, for |u| <= radius."""
    if family == "gaussian":
        return ndtr(u)
    if family == "epanechnikov":
        return 0.5 + 0.75 * u - 0.25 * u**3
    if family == "triangular":
        return np.where(u <= 0.0, 0.5 * (1.0 + u) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)
    return 0.5 * (u + 1.0)


def density_sum(sorted_xs: np.ndarray, family: str, h: float, x: float) -> float:
    """fsum of K((X_i - x)/h) over the window |X_i - x| <= radius * h."""
    r = RADIUS[family] * h
    lo = int(np.searchsorted(sorted_xs, x - r, side="left"))
    hi = int(np.searchsorted(sorted_xs, x + r, side="right"))
    return math.fsum(kernel(family, (sorted_xs[lo:hi] - x) / h))


def cdf_sum(sorted_xs: np.ndarray, family: str, h: float, x: float) -> float:
    """fsum of G_K((x - X_i)/h): 1 for each X_i below the window, G_K inside it."""
    r = RADIUS[family] * h
    lo = int(np.searchsorted(sorted_xs, x - r, side="left"))
    hi = int(np.searchsorted(sorted_xs, x + r, side="right"))
    return lo + math.fsum(kernel_cdf(family, (x - sorted_xs[lo:hi]) / h))


def normal_pdf(x, s: float):
    return np.exp(-0.5 * (np.asarray(x) / s) ** 2) / (s * SQRT_2PI)


def normal_cdf(x: float, s: float) -> float:
    return 0.5 * math.erfc(-x / (s * math.sqrt(2.0)))


def expected_density(family: str, s: float, h: float, x) -> np.ndarray:
    """E f_n(x) under an N(0, s^2) marginal.

    For the Gaussian kernel this is the N(0, s^2 + h^2) density in closed
    form; for the compact kernels a 64-node Gauss-Legendre rule on each piece
    where K is a polynomial, which is exact to rounding for these integrands.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if family == "gaussian":
        return normal_pdf(x, math.sqrt(s * s + h * h))
    total = np.zeros(x.size)
    for a, b in PIECES[family]:
        u = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS * kernel(family, u)
        total += normal_pdf(x[:, None] + h * u[None, :], s) @ w
    return total


def expected_cdf(family: str, s: float, h: float, x: float) -> float:
    """E F_n(x) = integral K(v) F(x - h v) dv under an N(0, s^2) marginal."""
    if family == "gaussian":
        return normal_cdf(x, math.sqrt(s * s + h * h))
    total = []
    for a, b in PIECES[family]:
        u = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS * kernel(family, u)
        total.extend(wi * normal_cdf(x - h * ui, s) for ui, wi in zip(u, w))
    return math.fsum(total)


def ar1_correlations(phi: float) -> list[float]:
    """phi^k for k >= 1 until |phi|^k drops below 1e-18."""
    out = []
    rho = phi
    while abs(rho) >= 1e-18:
        out.append(rho)
        rho *= phi
    return out


def ma_correlations(weights) -> list[float]:
    w = [float(v) for v in weights]
    norm = math.fsum(v * v for v in w)
    return [math.fsum(w[j] * w[j + k] for j in range(len(w) - k)) / norm for k in range(1, len(w))]


def long_run_variance_at_zero(correlations) -> float:
    """sigma_LR^2(0) = 1/4 + (1/pi) sum_k arcsin rho_k (Sheppard's formula)."""
    return 0.25 + math.fsum(math.asin(r) for r in correlations) / math.pi


def long_run_variance(correlations, z: float) -> float:
    """F(1-F) + 2 sum_k [Phi_2(z, z; rho_k) - F^2] at standardized level z.

    Each covariance is integral_0^rho exp(-z^2/(1+r)) / (2 pi sqrt(1-r^2)) dr,
    the derivative of the bivariate normal CDF in its correlation, integrated
    adaptively in r rather than by the program's fixed rule in arcsin r.
    """
    f = normal_cdf(z, 1.0)
    covs = []
    for rho in correlations:
        val, _ = quad(
            lambda r: math.exp(-z * z / (1.0 + r)) / math.sqrt(1.0 - r * r),
            0.0, rho, epsabs=1e-14, epsrel=1e-13,
        )
        covs.append(val / (2.0 * math.pi))
    return f * (1.0 - f) + 2.0 * math.fsum(covs)
