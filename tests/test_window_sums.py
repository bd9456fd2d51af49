"""Window sums against math.fsum of their terms.

The reference sums the defining terms of each window exactly: the window is
every X_i with x - r h <= X_i <= x + r h (bisected the way the estimator
does), with r = 1 for the compact kernels and r = 8 for the Gaussian; the
terms are the kernel's closed forms from mixkde.kernels, and the CDF adds
one for every X_i below the window.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixkde.estimator as estimator
from mixkde.estimator import (
    Grid,
    _cdf_window_sums,
    _kernel_window_sums,
    cdf_estimate,
    density_estimate,
)
from mixkde.kernels import GAUSSIAN, evaluate, kernel_cdf, kernel_from_name
from mixkde.processes import ProcessModel, SamplePath, generate_path

COMPACT = ("epanechnikov", "triangular", "uniform")
FAMILIES = COMPACT + ("gaussian",)
TOL = 1e-9  # in density units (sum / (n h)) or CDF units (sum / n)


def _window(xs, kernel, h, x):
    r = kernel.effective_radius * h
    return int(np.searchsorted(xs, x - r, side="left")), int(np.searchsorted(xs, x + r, side="right"))


def _fsum_density(xs, kernel, h, x):
    lo, hi = _window(xs, kernel, h, x)
    # inside the window |u| <= r up to rounding; clipping keeps the uniform
    # kernel's closed edge
    r = kernel.effective_radius
    return math.fsum(evaluate(kernel, np.clip((xs[lo:hi] - x) / h, -r, r)))


def _fsum_cdf(xs, kernel, h, x):
    lo, hi = _window(xs, kernel, h, x)
    return lo + math.fsum(kernel_cdf(kernel, (x - xs[lo:hi]) / h))


def _count_hermite_calls(monkeypatch):
    """Record the form of every call to the Hermite path."""
    calls = []
    hermite = estimator._hermite_sums
    monkeypatch.setattr(estimator, "_hermite_sums", lambda *args: calls.append(args[3]) or hermite(*args))
    return calls


@pytest.fixture(scope="module")
def normals():
    return np.random.default_rng(20260814).standard_normal(2**20)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("form", ["density", "cdf"])
def test_large_n_small_h_matches_fsum(normals, family, form, monkeypatch):
    """n = 2^20 with h = n^-delta down to delta = 0.9, on shifted data too.

    Prefix sums of raw X, X^2 over the whole sample lose about n eps |X|^2 / h^2
    to rounding; at delta = 0.9, or with the data moved to 1e3, that is larger
    than the density itself. The Gaussian takes the Hermite path at
    delta = 0.3 and the direct path below.
    """
    kernel = kernel_from_name(family)
    n = normals.size
    sampled = range(0, 1601, 40)
    calls = _count_hermite_calls(monkeypatch)
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
    assert len(calls) == (3 if family == "gaussian" else 0)


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
@example(n=500, m=2000, seed=3, shift=1e3, log_h=-0.5, ties=True)  # prefix sums, Hermite
@example(n=2000, m=2000, seed=4, shift=-1e3, log_h=-3.0, ties=True)  # Hermite, sparse buckets
def test_window_sums_match_fsum_on_both_paths(n, m, seed, shift, log_h, ties):
    """Few or many points, small or large h: whichever path the engine takes.

    The Gaussian's windows hold up to m n terms here, so it takes the
    Hermite path (above 20 n) as well as the direct one.
    """
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
    for family in FAMILIES:
        kernel = kernel_from_name(family)
        dens = _kernel_window_sums(xs, kernel, h, pts)
        cdf = _cdf_window_sums(xs, kernel, h, pts)
        for j in sampled:
            x = float(pts[j])
            assert abs(dens[j] - _fsum_density(xs, kernel, h, x)) / (n * h) <= TOL
            assert abs(cdf[j] - _fsum_cdf(xs, kernel, h, x)) / n <= TOL


def test_hermite_moments_only_for_reached_buckets(normals, monkeypatch):
    """n = 2^20 at h = n^-0.9: half the data spread thin, half in a cluster.

    The spread half fills about 400k buckets h wide. A grid over the cluster
    holds about 40 n terms, so it takes the Hermite path, but reaches only
    about 540 buckets: the moment table must hold those columns, not one per
    value (20 n doubles, 168 MB) or one per bucket (65 MB).
    """
    n = normals.size
    h = n**-0.9
    xs = np.sort(np.concatenate((normals[: n // 2] * 1e-3, normals[n // 2 :])))
    pts = np.linspace(-1e-3, 1e-3, 4001)
    calls = _count_hermite_calls(monkeypatch)
    budget = 20 * n * 8 // 4
    for form, sums, fsum in (("density", _kernel_window_sums, _fsum_density),
                             ("cdf", _cdf_window_sums, _fsum_cdf)):
        tracemalloc.start()
        try:
            got = sums(xs, GAUSSIAN, h, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls[-1] == form
        assert peak < budget, f"{form}: peak {peak / 1e6:.1f} MB"
        scale = n * h if form == "density" else n
        for i in range(0, pts.size, 400):
            assert abs(got[i] - fsum(xs, GAUSSIAN, h, pts[i])) / scale <= TOL


def test_few_point_gaussian_sums_take_the_direct_path(monkeypatch):
    """Three points at n = 10^4 (the Monte Carlo CLT shape) stay on direct slices.

    Their windows hold about 1.85 n terms, below the Hermite crossover of
    20 n, so the sums are slices of the data evaluated term by term.
    """
    n = 10**4
    h = n**-0.2
    xs = np.sort(generate_path(ProcessModel(family="ar1", phi=0.5), n, 20260814).values)
    pts = np.array([-1.0, 0.0, 1.0])

    def hermite(*args):
        raise AssertionError("three-point Gaussian sums took the Hermite path")

    monkeypatch.setattr(estimator, "_hermite_sums", hermite)
    dens = _kernel_window_sums(xs, GAUSSIAN, h, pts)
    cdf = _cdf_window_sums(xs, GAUSSIAN, h, pts)
    for j, x in enumerate(pts):
        lo, hi = _window(xs, GAUSSIAN, h, x)
        u = (xs[lo:hi] - x) / h
        assert dens[j] == pytest.approx(np.sum(evaluate(GAUSSIAN, u)), rel=1e-15, abs=0.0)
        assert cdf[j] == pytest.approx(lo + np.sum(kernel_cdf(GAUSSIAN, -u)), rel=1e-15, abs=0.0)


# The uniform_as grid (acceptance criterion 6): 3267 points at spacing 0.005
# over +-8 marginal sds of AR(1) phi = 0.2, at h = n^-0.3. In the wide case
# h = 0.5, so the central value bucket holds far more than _MOMENT_CHUNK values.
UNIFORM_AS_HALF = 8.0 / math.sqrt(1.0 - 0.2**2)
UNIFORM_AS_POINTS = 3267
PREFIX_CASES = {  # n, ties, h
    "n=2^12": (2**12, False, (2**12) ** -0.3),
    "n=2^20": (2**20, False, (2**20) ** -0.3),
    "ties": (2**12, True, (2**12) ** -0.3),
    "wide": (2**20, False, 0.5),
}
PREFIX_DIGESTS = {
    ("n=2^12", "epanechnikov"): "382ac9f6b9acfa341dfacca126c82ebfec1a308c5f39b6ca46a821bbbeddc988",
    ("n=2^12", "triangular"): "73cf648eed6df50e3a74583d4a1ae4dbcbc14e9ce1d8d3ca5bc8699f263e7bd1",
    ("n=2^12", "uniform"): "a57b6e22a5241f486f949e1879893acd164474ffbc5ef1692d4c933572bc41a1",
    ("n=2^20", "epanechnikov"): "ecf86610431d26ab39eec211681c27d2a2f6fcde792efb12d2e4d554be62632b",
    ("n=2^20", "triangular"): "e6aeb0144edbccdbb2816c36ab0cf7ca630dc177ceb7b9027eef2b5d10b54f83",
    ("n=2^20", "uniform"): "945561e69e04f0e0014f5eea431ac54b8b9576998dcf3ebcb42494614fd505a1",
    ("ties", "epanechnikov"): "347b4e928d26cd0ebf40e0fa87bca90f22131e7eecb95830794841341207063e",
    ("ties", "triangular"): "258f9113925c7f3a7c5cda19cc5ca690e811ecc5f82e732bc7d95394e4f11d55",
    ("ties", "uniform"): "0e14d016128c32d79b0103ff05b877982bc38db169984a38dd5030d4591aee52",
    ("wide", "epanechnikov"): "a0ec087c82dd9d4e88a83927429672014c264b156b260fa94694d1c93e19e023",
    ("wide", "triangular"): "d3375861903dbc513477f546d1a4f2863d52e7498df7a79505bd72e5a4d638bc",
    ("wide", "uniform"): "15f091fbdf0126300bedddde0c6088608b694d484bec2b9994a95be034c09b52",
}
HERMITE_DIGESTS = {
    ("n=2^12", "gaussian"): "b6a3072ed6fdbacef44268c3c0d6354b270d1310fb14ec255bc37b910a78aa8b",
    ("n=2^20", "gaussian"): "3e20a016b4c2adf4be3b969e87de053d684063f7ae73fed206e2bb1f513b7ace",
    ("ties", "gaussian"): "b5b98c33643fe00ea67264708ebc0d40cba316b0a0dc9129b44463f768b50022",
    ("wide", "gaussian"): "09421807135211c401cf60b601c4e9a82f23296f69344ca66f717df16b7f4b04",
}


def _uniform_as_shape(normals, case):
    n, ties, h = PREFIX_CASES[case]
    values, pts = normals[:n], np.linspace(-UNIFORM_AS_HALF, UNIFORM_AS_HALF, UNIFORM_AS_POINTS)
    if ties:  # values and points on one lattice put data on window edges
        values, pts = np.round(values, 1), np.round(pts, 1)
    return np.sort(values), h, pts


def _count_grid_path_calls(monkeypatch, family):
    """Record every call to the prefix path, or for the Gaussian to the Hermite path."""
    name = "_hermite_sums" if family == "gaussian" else "_prefix_sums"
    calls = []
    grid_path = getattr(estimator, name)
    monkeypatch.setattr(estimator, name, lambda *args: calls.append(1) or grid_path(*args))
    return calls


@pytest.mark.parametrize("case", PREFIX_CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_prefix_path_bits(normals, case, family, monkeypatch):
    """The prefix and Hermite paths' density and CDF sums keep their bits (sha256 of both)."""
    xs, h, pts = _uniform_as_shape(normals, case)
    kernel = kernel_from_name(family)
    calls = _count_grid_path_calls(monkeypatch, family)
    digest = hashlib.sha256()
    for sums in (_kernel_window_sums, _cdf_window_sums):
        digest.update(sums(xs, kernel, h, pts).astype("<f8").tobytes())
    assert len(calls) == 2
    assert digest.hexdigest() == {**PREFIX_DIGESTS, **HERMITE_DIGESTS}[case, family]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("form", ["density", "cdf"])
def test_prefix_scratch_is_bounded(normals, family, form, monkeypatch):
    """n = 2^20 on the uniform_as grid: scratch well below one n-length array.

    Both grid paths take the powers of the recentred values over bucket
    groups of at most _MOMENT_CHUNK values, so the peak is set by the grid's
    window parts, cut list and moment table, not by n. The caller's sorted
    data must come back untouched.
    """
    xs, h, pts = _uniform_as_shape(normals, "n=2^20")
    kept = xs.copy()
    kernel = kernel_from_name(family)
    sums = _kernel_window_sums if form == "density" else _cdf_window_sums
    calls = _count_grid_path_calls(monkeypatch, family)
    tracemalloc.start()
    try:
        sums(xs, kernel, h, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [1]
    assert peak < 0.25 * 8 * xs.size, f"peak {peak / (8 * xs.size):.2f} x 8n"
    assert np.array_equal(xs, kept)
