"""Compact-kernel window sums against math.fsum of their terms.

The reference sums the defining terms of each window exactly: the window is
every X_i with x - h <= X_i <= x + h (bisected the way the estimator does),
the terms are the kernel's closed forms from mixkde.kernels, and the CDF adds
one for every X_i below the window.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixkde.estimator import (
    Grid,
    _cdf_window_sums,
    _kernel_window_sums,
    cdf_estimate,
    density_estimate,
)
from mixkde.kernels import evaluate, kernel_cdf, kernel_from_name
from mixkde.processes import ProcessModel, SamplePath

COMPACT = ("epanechnikov", "triangular", "uniform")
TOL = 1e-9  # in density units (sum / (n h)) or CDF units (sum / n)


def _window(xs, h, x):
    return int(np.searchsorted(xs, x - h, side="left")), int(np.searchsorted(xs, x + h, side="right"))


def _fsum_density(xs, kernel, h, x):
    lo, hi = _window(xs, h, x)
    # inside the window |u| <= 1 up to rounding; clipping keeps the uniform
    # kernel's closed edge
    return math.fsum(evaluate(kernel, np.clip((xs[lo:hi] - x) / h, -1.0, 1.0)))


def _fsum_cdf(xs, kernel, h, x):
    lo, hi = _window(xs, h, x)
    return lo + math.fsum(kernel_cdf(kernel, (x - xs[lo:hi]) / h))


@pytest.fixture(scope="module")
def normals():
    return np.random.default_rng(20260814).standard_normal(2**20)


@pytest.mark.parametrize("family", COMPACT)
@pytest.mark.parametrize("form", ["density", "cdf"])
def test_large_n_small_h_matches_fsum(normals, family, form):
    """n = 2^20 with h = n^-delta down to delta = 0.9, on shifted data too.

    Prefix sums of raw X, X^2 over the whole sample lose about n eps |X|^2 / h^2
    to rounding; at delta = 0.9, or with the data moved to 1e3, that is larger
    than the density itself.
    """
    kernel = kernel_from_name(family)
    n = normals.size
    sampled = range(0, 1601, 40)
    for shift in (0.0, 10.0, 1e3):
        path = SamplePath(values=normals + shift, model=ProcessModel(family="iid"), seed=0)
        xs = np.sort(path.values)
        grid = Grid(shift - 2.0, shift + 2.0, 1601)
        pts = grid.points
        for delta in (0.3, 0.5, 0.7, 0.9):
            h = n**-delta
            if form == "density":
                got = density_estimate(path, kernel, h, grid).values
                want = [_fsum_density(xs, kernel, h, pts[i]) / (n * h) for i in sampled]
            else:
                got = cdf_estimate(path, kernel, h, grid).values
                want = [min(1.0, _fsum_cdf(xs, kernel, h, pts[i]) / n) for i in sampled]
            err = max(abs(got[i] - w) for i, w in zip(sampled, want))
            assert err <= TOL, f"shift {shift}, delta {delta}: error {err:.3g} against fsum"


@given(
    n=st.integers(1, 2000),
    m=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([0.0, -3.7, 10.0, 1e3, -1e3]),
    log_h=st.floats(-3.0, 0.5),
    ties=st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example(n=300, m=5, seed=2, shift=0.0, log_h=math.log10(0.4), ties=False)  # direct
@example(n=500, m=2000, seed=3, shift=1e3, log_h=-0.5, ties=True)  # prefix sums
def test_window_sums_match_fsum_on_both_paths(n, m, seed, shift, log_h, ties):
    """Few or many points, small or large h: whichever path the engine takes."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    if ties:  # values and points on one lattice put data on window edges
        values = np.round(values, 1)
    xs = np.sort(values) + shift
    h = 10.0**log_h
    pts = rng.uniform(xs[0] - 2.0 * h, xs[-1] + 2.0 * h, m)
    if ties:
        pts = np.round(pts - shift, 1) + shift
    sampled = rng.choice(m, size=min(m, 25), replace=False)
    for family in COMPACT:
        kernel = kernel_from_name(family)
        dens = _kernel_window_sums(xs, kernel, h, pts)
        cdf = _cdf_window_sums(xs, kernel, h, pts)
        for j in sampled:
            x = float(pts[j])
            assert abs(dens[j] - _fsum_density(xs, kernel, h, x)) / (n * h) <= TOL
            assert abs(cdf[j] - _fsum_cdf(xs, kernel, h, x)) / n <= TOL
