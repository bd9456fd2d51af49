"""Kernel constants against quadrature oracles, plus shape properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mixkde.kernels import (
    FAMILIES,
    GAUSSIAN_TAIL_RADIUS,
    evaluate,
    kernel_cdf,
    kernel_from_name,
)

ALL_FAMILIES = sorted(FAMILIES)
COMPACT_FAMILIES = ["epanechnikov", "triangular", "uniform"]
LIPSCHITZ_FAMILIES = ["gaussian", "epanechnikov", "triangular"]

# frozen closed forms; the quadrature tests below recompute them independently
EXPECTED_L2 = {
    "gaussian": 1.0 / (2.0 * math.sqrt(math.pi)),
    "epanechnikov": 0.6,
    "triangular": 2.0 / 3.0,
    "uniform": 0.5,
}
EXPECTED_SUP = {
    "gaussian": 1.0 / math.sqrt(2.0 * math.pi),
    "epanechnikov": 0.75,
    "triangular": 1.0,
    "uniform": 0.5,
}
EXPECTED_ABS_FIRST_MOMENT = {
    "gaussian": math.sqrt(2.0 / math.pi),
    "epanechnikov": 0.375,
    "triangular": 1.0 / 3.0,
    "uniform": 0.5,
}


def _domain(kernel):
    r = kernel.support_radius
    return (-10.0, 10.0) if math.isinf(r) else (-r, r)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_unit_mass_by_quadrature(family):
    kernel = kernel_from_name(family)
    lo, hi = _domain(kernel)
    mass, err = quad(lambda u: evaluate(kernel, u), lo, hi, epsabs=1e-12)
    assert err < 1e-8
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_l2_norm_sq_matches_quadrature(family):
    kernel = kernel_from_name(family)
    lo, hi = _domain(kernel)
    val, err = quad(lambda u: evaluate(kernel, u) ** 2, lo, hi, epsabs=1e-12)
    assert err < 1e-10
    assert kernel.l2_norm_sq == pytest.approx(val, abs=1e-8)
    assert kernel.l2_norm_sq == pytest.approx(EXPECTED_L2[family], abs=0.0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_abs_first_moment_matches_quadrature(family):
    kernel = kernel_from_name(family)
    lo, hi = _domain(kernel)
    # split at 0 so |u| stays smooth on each panel
    left, _ = quad(lambda u: -u * evaluate(kernel, u), lo, 0.0, epsabs=1e-12)
    right, _ = quad(lambda u: u * evaluate(kernel, u), 0.0, hi, epsabs=1e-12)
    assert kernel.abs_first_moment == pytest.approx(left + right, abs=1e-8)
    assert kernel.abs_first_moment == pytest.approx(
        EXPECTED_ABS_FIRST_MOMENT[family], abs=0.0
    )


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sup_norm_attained(family):
    kernel = kernel_from_name(family)
    us = np.linspace(-2.0, 2.0, 20001)
    vals = evaluate(kernel, us)
    assert float(np.max(vals)) == pytest.approx(EXPECTED_SUP[family], abs=1e-8)
    assert float(np.max(vals)) <= kernel.sup_norm + 1e-15


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_l2_bounded_by_sup_times_l1(family):
    kernel = kernel_from_name(family)
    # every family has unit L1 norm
    assert kernel.l2_norm_sq <= kernel.sup_norm + 1e-15


def test_pointwise_examples():
    assert evaluate(kernel_from_name("gaussian"), 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
    )
    assert evaluate(kernel_from_name("epanechnikov"), 0.0) == 0.75
    assert evaluate(kernel_from_name("epanechnikov"), 1.5) == 0.0
    assert evaluate(kernel_from_name("triangular"), 0.5) == 0.5
    assert evaluate(kernel_from_name("uniform"), 0.25) == 0.5


@pytest.mark.parametrize("family", COMPACT_FAMILIES)
def test_exact_zero_outside_support(family):
    kernel = kernel_from_name(family)
    r = kernel.support_radius
    for u in (r + 1e-12, -r - 1e-12, r + 5.0, -r - 5.0):
        assert evaluate(kernel, u) == 0.0


def test_cdf_midpoint_and_limits():
    for family in ALL_FAMILIES:
        kernel = kernel_from_name(family)
        assert kernel_cdf(kernel, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert kernel_cdf(kernel, math.inf) == 1.0
        assert kernel_cdf(kernel, -math.inf) == 0.0


def test_cdf_closed_form_values():
    # uniform: G(u) = (u + 1)/2 inside the support, so G(0.25) = 0.625
    assert kernel_cdf(kernel_from_name("uniform"), 0.25) == pytest.approx(0.625, abs=1e-15)
    # epanechnikov: G(u) = 1/2 + 3u/4 - u^3/4
    assert kernel_cdf(kernel_from_name("epanechnikov"), 0.5) == pytest.approx(
        0.5 + 0.375 - 0.03125, abs=1e-15
    )
    # triangular: G(u) = (1 + u)^2/2 for u <= 0
    assert kernel_cdf(kernel_from_name("triangular"), -0.5) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cdf_matches_quadrature_of_kernel(family):
    kernel = kernel_from_name(family)
    lo = -GAUSSIAN_TAIL_RADIUS if math.isinf(kernel.support_radius) else -kernel.support_radius
    for u in (-0.9, -0.3, 0.2, 0.7, 1.0):
        val, err = quad(lambda t: evaluate(kernel, t), lo, u, epsabs=1e-12)
        assert err < 1e-8
        assert kernel_cdf(kernel, u) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_cdf_monotone(family, a, b):
    kernel = kernel_from_name(family)
    lo, hi = sorted((a, b))
    assert kernel_cdf(kernel, lo) <= kernel_cdf(kernel, hi) + 1e-15


@pytest.mark.parametrize("family", ALL_FAMILIES)
@given(u=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_kernel_symmetric(family, u):
    kernel = kernel_from_name(family)
    assert evaluate(kernel, u) == pytest.approx(evaluate(kernel, -u), abs=1e-15)


@pytest.mark.parametrize("family", LIPSCHITZ_FAMILIES)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_lipschitz_bound(family, a, b):
    kernel = kernel_from_name(family)
    gap = abs(evaluate(kernel, a) - evaluate(kernel, b))
    assert gap <= kernel.lipschitz_const * abs(a - b) + 1e-12


@pytest.mark.parametrize("family", COMPACT_FAMILIES)
def test_polynomial_pieces_tile_the_support(family):
    """The pieces define K and G_K; the tests above check them against quadrature."""
    kernel = kernel_from_name(family)
    pieces = kernel.pieces
    assert pieces[0].lo == -kernel.support_radius and pieces[-1].hi == kernel.support_radius
    assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))
    assert kernel_from_name("gaussian").pieces is None


def test_uniform_flagged_not_lipschitz():
    assert kernel_from_name("uniform").lipschitz_const is None


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cdf_derivative_matches_kernel(family):
    """Central difference of G_K reproduces K away from support kinks."""
    kernel = kernel_from_name(family)
    rng = np.random.default_rng(42)
    us = rng.uniform(-2.0, 2.0, size=200)
    # the uniform kernel jumps at |u| = 1; the difference quotient is not
    # meaningful within eps of the jump
    us = us[np.abs(np.abs(us) - 1.0) > 1e-3]
    eps = 1e-7
    approx = (kernel_cdf(kernel, us + eps) - kernel_cdf(kernel, us - eps)) / (2.0 * eps)
    assert np.max(np.abs(approx - evaluate(kernel, us))) < 1e-6


def test_effective_radius():
    assert kernel_from_name("gaussian").effective_radius == GAUSSIAN_TAIL_RADIUS
    for family in COMPACT_FAMILIES:
        kernel = kernel_from_name(family)
        assert kernel.effective_radius == kernel.support_radius


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown kernel family"):
        kernel_from_name("cosine")


def test_evaluate_vectorized():
    kernel = kernel_from_name("triangular")
    out = evaluate(kernel, np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert out.tolist() == [0.0, 0.5, 1.0, 0.5, 0.0]


def test_gaussian_evaluate_far_out_raises_no_warning():
    kernel = kernel_from_name("gaussian")
    far = [1e200, -1e200, math.inf, -math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [evaluate(kernel, u) for u in far] == [0.0] * 4
        assert evaluate(kernel, np.array(far)).tolist() == [0.0] * 4
    # bit for bit the closed form inside the clip, 0 beyond it
    us = np.linspace(-45.0, 45.0, 9001)
    with np.errstate(under="ignore"):
        want = np.exp(-0.5 * np.square(us)) / math.sqrt(2.0 * math.pi)
    assert np.array_equal(evaluate(kernel, us), want)
