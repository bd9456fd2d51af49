"""Kernel families, their integrated forms, and the constants the limits use.

Four classical second-order kernels are provided. A compact kernel's K and
G_K are its polynomial pieces, which the window sums and the oracle use too;
the Gaussian keeps its closed forms, its G_K being scipy.special's ndtr as
mixkde.processes loads it, without the scipy.special package. Constants are
stored in closed form, so every normalization downstream is bit-stable; the
test suite checks the stored numbers against adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .processes import ndtr
from .util import _real_points

# Beyond 8 standard deviations the Gaussian kernel is below 1.3e-15 of its
# peak; windowed evaluation treats it as compactly supported at this radius.
GAUSSIAN_TAIL_RADIUS = 8.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# exp(-u^2/2) underflows to 0 from |u| = 38.6 on; |u| is clipped here first
# so that u^2 stays finite
_GAUSSIAN_CLIP = 40.0


class PolyPiece(NamedTuple):
    """One piece lo <= u <= hi on which a kernel is a polynomial in u.

    Coefficients run in ascending powers of u: `density` is K(u) and `cdf`
    is G_K(-u), the integrated kernel as the CDF estimate uses it, with
    u = (X_i - x)/h.
    """

    lo: float
    hi: float
    density: tuple[float, ...]
    cdf: tuple[float, ...]


@dataclass(frozen=True)
class KernelSpec:
    """A kernel and the analytic constants consumed by the limit theorems.

    Every family is a symmetric probability density, so no field records its
    symmetry or its unit mass. abs_first_moment is the integral of |u| K(u),
    used by first-order bias bounds. lipschitz_const is None when the kernel
    has no finite Lipschitz constant (the uniform kernel jumps at its support
    edge); callers that need smoothness must treat None as "not Lipschitz"
    and refuse. pieces covers the support of a compact kernel with polynomial
    pieces, in increasing u; it is None for the Gaussian.
    """

    family: str
    abs_first_moment: float
    l2_norm_sq: float
    sup_norm: float
    support_radius: float
    lipschitz_const: float | None
    pieces: tuple[PolyPiece, ...] | None = None

    @property
    def effective_radius(self) -> float:
        """Window radius for truncated evaluation; finite for every family."""
        return min(self.support_radius, GAUSSIAN_TAIL_RADIUS)


GAUSSIAN = KernelSpec(
    family="gaussian",
    abs_first_moment=math.sqrt(2.0 / math.pi),
    l2_norm_sq=1.0 / (2.0 * math.sqrt(math.pi)),
    sup_norm=1.0 / _SQRT_2PI,
    support_radius=math.inf,
    # sup |K'| is attained at u = 1: phi(1) = e^{-1/2}/sqrt(2 pi).
    lipschitz_const=math.exp(-0.5) / _SQRT_2PI,
)

EPANECHNIKOV = KernelSpec(
    family="epanechnikov",
    abs_first_moment=0.375,
    l2_norm_sq=0.6,
    sup_norm=0.75,
    support_radius=1.0,
    lipschitz_const=1.5,
    pieces=(PolyPiece(-1.0, 1.0, (0.75, 0.0, -0.75), (0.5, -0.75, 0.0, 0.25)),),
)

TRIANGULAR = KernelSpec(
    family="triangular",
    abs_first_moment=1.0 / 3.0,
    l2_norm_sq=2.0 / 3.0,
    sup_norm=1.0,
    support_radius=1.0,
    lipschitz_const=1.0,
    pieces=(
        PolyPiece(-1.0, 0.0, (1.0, 1.0), (0.5, -1.0, -0.5)),
        PolyPiece(0.0, 1.0, (1.0, -1.0), (0.5, -1.0, 0.5)),
    ),
)

UNIFORM = KernelSpec(
    family="uniform",
    abs_first_moment=0.5,
    l2_norm_sq=0.5,
    sup_norm=0.5,
    support_radius=1.0,
    lipschitz_const=None,
    pieces=(PolyPiece(-1.0, 1.0, (0.5,), (0.5, -0.5)),),
)

FAMILIES: dict[str, KernelSpec] = {
    "gaussian": GAUSSIAN,
    "epanechnikov": EPANECHNIKOV,
    "triangular": TRIANGULAR,
    "uniform": UNIFORM,
}


def kernel_from_name(name: str) -> KernelSpec:
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown kernel family {name!r}; expected one of: {known}") from None


def horner(coefs, u: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients coefs at each u."""
    out = np.full(u.shape, coefs[-1])
    for c in coefs[-2::-1]:
        out *= u
        out += c
    return out


def _from_pieces(pieces: tuple[PolyPiece, ...], u, form: str, below: float, above: float):
    """The pieces' `form` polynomial at a float array u; `below` left of the support, `above` right of it."""
    # clipped first, so that +-inf reaches Horner's rule as a support edge
    v = np.clip(u, pieces[0].lo, pieces[-1].hi)
    out = horner(getattr(pieces[0], form), v)
    for piece in pieces[1:]:
        np.copyto(out, horner(getattr(piece, form), v), where=v >= piece.lo)
    np.copyto(out, below, where=u < pieces[0].lo)
    np.copyto(out, above, where=u > pieces[-1].hi)
    return out if out.ndim else float(out)


def evaluate(kernel: KernelSpec, u):
    """K(u) for a scalar or array argument (util._real_points); exactly zero outside the support."""
    u = _real_points(u)
    if kernel.pieces is not None:
        return _from_pieces(kernel.pieces, u, "density", 0.0, 0.0)
    u = np.clip(u, -_GAUSSIAN_CLIP, _GAUSSIAN_CLIP)
    out = np.exp(-0.5 * np.square(u)) / _SQRT_2PI
    return out if out.ndim else float(out)


def kernel_cdf(kernel: KernelSpec, u):
    """G_K(u) = integral of K over (-inf, u], u as for evaluate; the cdf pieces hold G_K(-u)."""
    u = _real_points(u)
    if kernel.pieces is not None:
        return _from_pieces(kernel.pieces, -u, "cdf", 1.0, 0.0)
    out = ndtr(u)
    return out if out.ndim else float(out)

