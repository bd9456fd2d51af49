"""Estimator oracles: brute-force sums, closed-form expectations, invariants."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from mixkde import estimator, processes
from mixkde.estimator import (
    DEFAULT_GRID,
    Grid,
    bias,
    binned_accuracy_bound,
    cdf_clt_statistic,
    cdf_estimate,
    clt_statistic,
    density_estimate,
    expected_cdf,
    expected_density,
    expected_density_curve,
)
from mixkde.kernels import FAMILIES, evaluate, kernel_cdf, kernel_from_name
from mixkde.processes import (
    ProcessModel,
    SamplePath,
    generate_path,
    indicator_long_run_variance,
    marginal_cdf,
    marginal_density,
)

IID = ProcessModel(family="iid")
AR = ProcessModel(family="ar1", phi=0.5)
GAUSS = kernel_from_name("gaussian")
EPAN = kernel_from_name("epanechnikov")


def _path_from(values, model=IID):
    return SamplePath(values=np.asarray(values, dtype=float), model=model, seed=0)


def _brute_density(values, kernel, h, pts):
    """The defining double loop, kept deliberately naive."""
    out = np.zeros(len(pts))
    for j, x in enumerate(pts):
        out[j] = sum(evaluate(kernel, (xi - x) / h) for xi in values) / (len(values) * h)
    return out


def _brute_cdf(values, kernel, h, pts):
    out = np.zeros(len(pts))
    for j, x in enumerate(pts):
        out[j] = sum(kernel_cdf(kernel, (x - xi) / h) for xi in values) / len(values)
    return out


# ---------------------------------------------------------------------------
# density estimates


def test_single_point_at_peak():
    path = _path_from([0.0])
    curve = density_estimate(path, GAUSS, 1.0, Grid(-1.0, 1.0, 3))
    assert curve.values[1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-14)


def test_two_point_uniform_window():
    path = _path_from([-1.0, 1.0])
    curve = density_estimate(path, kernel_from_name("uniform"), 1.0, Grid(-1.0, 1.0, 3))
    assert curve.values[1] == 0.5


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_direct_matches_brute_force(family):
    kernel = kernel_from_name(family)
    rng = np.random.default_rng(7)
    values = rng.normal(size=300)
    path = _path_from(values)
    grid = Grid(-3.0, 3.0, 41)
    curve = density_estimate(path, kernel, 0.35, grid)
    brute = _brute_density(values, kernel, 0.35, grid.points)
    assert np.max(np.abs(curve.values - brute)) < 1e-11


@pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "triangular"])
def test_binned_within_documented_bound(family):
    kernel = kernel_from_name(family)
    rng = np.random.default_rng(11)
    values = rng.normal(size=2000)
    path = _path_from(values)
    h = 0.3
    radius = kernel.effective_radius * h
    lo = float(values.min()) - radius - 0.1
    hi = float(values.max()) + radius + 0.1
    grid = Grid(lo, hi, 1201)
    direct = density_estimate(path, kernel, h, grid, strategy="direct")
    binned = density_estimate(path, kernel, h, grid, strategy="binned")
    bound = binned_accuracy_bound(kernel, h, grid.spacing)
    assert np.max(np.abs(direct.values - binned.values)) <= bound


def test_binned_rejects_uniform_kernel():
    path = _path_from(np.linspace(-1, 1, 50))
    with pytest.raises(ValueError, match="not Lipschitz"):
        density_estimate(path, kernel_from_name("uniform"), 0.5, Grid(-10, 10, 2001), strategy="binned")
    with pytest.raises(ValueError, match="no accuracy bound without a Lipschitz constant"):
        binned_accuracy_bound(kernel_from_name("uniform"), 0.5, 0.01)


def test_binned_accuracy_bound_refuses_a_zero_h_and_a_spacing_not_above_zero():
    # h = 0 was a ZeroDivisionError, and spacing = -1 gave a "bound" of -8.07
    with pytest.raises(ValueError, match="^bandwidth must be a positive finite number, got 0.0$"):
        binned_accuracy_bound(EPAN, 0.0, 0.1)
    for spacing in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^grid spacing must be positive, got {spacing}$"):
            binned_accuracy_bound(EPAN, 0.3, spacing)


def test_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy must be one of"):
        density_estimate(_path_from(np.linspace(-1, 1, 50)), EPAN, 0.5, strategy="exact")


def test_binned_rejects_noncovering_grid():
    path = _path_from(np.linspace(-3, 3, 50))
    with pytest.raises(ValueError, match="cover"):
        density_estimate(path, EPAN, 0.5, Grid(-2.0, 2.0, 401), strategy="binned")


def test_binned_rejects_coarse_grid():
    path = _path_from(np.linspace(-1, 1, 50))
    with pytest.raises(ValueError, match="spacing"):
        density_estimate(path, EPAN, 0.01, Grid(-12.0, 12.0, 25), strategy="binned")


def test_rejects_nonpositive_bandwidth():
    path = _path_from([0.0, 1.0])
    for h in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            density_estimate(path, GAUSS, h)


def test_rejects_a_bool_bandwidth():
    path = _path_from([0.0, 1.0])
    # an int too large for a double is refused too, not left to raise OverflowError
    for h, echo in ((True, "True"), (np.True_, "np.True_"), (10**400, "an int of 1329 bits")):
        calls = (lambda: expected_density(IID, GAUSS, h, 0.0), lambda: clt_statistic(path, GAUSS, h, 0.0),
                 lambda: density_estimate(path, GAUSS, h))
        for call in calls:
            with pytest.raises(ValueError, match=f"^bandwidth must be a positive finite number, got {echo}$"):
                call()


def test_numpy_scalar_bandwidths_count_by_value():
    path = generate_path(AR, 300, seed=2)
    calls = (lambda h: density_estimate(path, EPAN, h).values, lambda h: cdf_estimate(path, EPAN, h).values,
             lambda h: expected_density(AR, EPAN, h, 0.4), lambda h: expected_cdf(AR, EPAN, h, 0.4),
             lambda h: bias(AR, GAUSS, h, 0.4), lambda h: clt_statistic(path, EPAN, h, 0.4),
             lambda h: cdf_clt_statistic(path, EPAN, h, 0.4))
    for h in (np.float32(0.3), np.float16(0.5), np.int64(1), np.uint8(2)):
        for call in calls:
            got, want = call(h), call(float(h))
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_rejects_degenerate_bandwidth():
    path = _path_from([0.0, 1.0])
    with pytest.raises(ValueError, match="data range"):
        density_estimate(path, GAUSS, 1e-14)


def test_density_nonnegative_and_mass_near_one():
    for family in sorted(FAMILIES):
        kernel = kernel_from_name(family)
        path = generate_path(IID, 3000, seed=17)
        h = 0.25
        grid = Grid(-6.0, 6.0, 1201)
        curve = density_estimate(path, kernel, h, grid)
        assert np.all(curve.values >= 0.0)
        mass = float(np.trapezoid(curve.values, grid.points))
        assert abs(mass - 1.0) <= 0.01


def test_location_equivariance():
    rng = np.random.default_rng(23)
    values = rng.normal(size=500)
    shift = 1.5
    h = 0.3
    base = density_estimate(_path_from(values), EPAN, h, Grid(-3.0, 3.0, 301))
    moved = density_estimate(_path_from(values + shift), EPAN, h, Grid(-3.0 + shift, 3.0 + shift, 301))
    assert np.max(np.abs(base.values - moved.values)) < 1e-9


# ---------------------------------------------------------------------------
# cdf estimates


def test_cdf_single_point_midpoint():
    for family in sorted(FAMILIES):
        kernel = kernel_from_name(family)
        curve = cdf_estimate(_path_from([0.0]), kernel, 1.0, Grid(-1.0, 1.0, 3))
        assert curve.values[1] == pytest.approx(0.5, abs=1e-14)


def test_cdf_terminal_values():
    path = generate_path(IID, 500, seed=3)
    grid = Grid(-40.0, 40.0, 11)
    curve = cdf_estimate(path, EPAN, 0.5, grid)
    assert curve.values[0] == pytest.approx(0.0, abs=1e-12)
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cdf_matches_brute_force(family):
    kernel = kernel_from_name(family)
    rng = np.random.default_rng(29)
    values = rng.normal(size=250)
    grid = Grid(-3.0, 3.0, 31)
    curve = cdf_estimate(_path_from(values), kernel, 0.4, grid)
    brute = _brute_cdf(values, kernel, 0.4, grid.points)
    assert np.max(np.abs(curve.values - brute)) < 1e-12


def test_cdf_monotone_in_01():
    path = generate_path(AR, 2000, seed=5)
    curve = cdf_estimate(path, GAUSS, 0.2, Grid(-8.0, 8.0, 801))
    assert np.all(np.diff(curve.values) >= -1e-15)
    assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))


def test_cdf_equals_integral_of_density():
    """Running trapezoid integral of f_n reproduces F_n within 2 spacing sup."""
    path = generate_path(IID, 400, seed=41)
    h = 0.3
    grid = Grid(-9.0, 9.0, 1801)
    dens = density_estimate(path, EPAN, h, grid)
    cdf = cdf_estimate(path, EPAN, h, grid)
    running = np.concatenate(
        ([0.0], np.cumsum(0.5 * (dens.values[1:] + dens.values[:-1]) * grid.spacing))
    )
    tol = 2.0 * grid.spacing * float(np.max(dens.values))
    assert np.max(np.abs(running - cdf.values)) <= tol


def test_cdf_estimate_at_matches_curve():
    """A point's value does not depend on the grid that holds it."""
    path = generate_path(IID, 300, seed=2)
    grid = Grid(-1.0, 1.0, 5)
    curve = cdf_estimate(path, EPAN, 0.4, grid)
    for j, x in enumerate(grid.points):
        lone = cdf_estimate(path, EPAN, 0.4, Grid(float(x), float(x) + 1.0, 2))
        assert lone.values[0] == pytest.approx(curve.values[j], abs=1e-15)


# ---------------------------------------------------------------------------
# exact expectations


def test_expected_density_gaussian_closed_form():
    # gaussian kernel on a gaussian marginal: E f_n = N(0, s^2 + h^2) density
    for h in (0.05, 0.3, 1.0, 1e3, 1e4):
        for x in (-1.2, 0.0, 0.7):
            want = norm.pdf(x, scale=math.hypot(1.0, h))
            assert expected_density(IID, GAUSS, h, x) == pytest.approx(want, abs=1e-10)


def test_expected_density_uniform_example():
    want = norm.cdf(1.0) - norm.cdf(-1.0)
    got = expected_density(IID, kernel_from_name("uniform"), 1.0, 0.0)
    assert got == pytest.approx(want / 2.0, abs=1e-10)
    assert got == pytest.approx(0.341345, abs=1e-6)


def test_expected_density_small_h_limit():
    for x in (-0.8, 0.3):
        got = expected_density(AR, EPAN, 1e-6, x)
        assert got == pytest.approx(marginal_density(AR, x), abs=1e-9)


def test_expected_density_mc_cross_check():
    """Monte Carlo mean of f_n(x) lands on the quadrature value."""
    h, x, reps, n = 0.4, 0.5, 2000, 200
    vals = np.empty(reps)
    for r in range(reps):
        path = generate_path(IID, n, seed=10_000 + r)
        vals[r] = density_estimate(path, EPAN, h, Grid(x - 1e-9, x + 1e-9, 2)).values[0]
    want = expected_density(IID, EPAN, h, x)
    mc_sigma = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - want) < 4.0 * mc_sigma


def test_expected_cdf_dual_route():
    """The oracle agrees with the direct integrals of K((u - x)/h)/h and
    G_K((x - u)/h) against f(u); at large h both integrands are smooth in u."""
    x = 0.4
    for kernel in FAMILIES.values():
        for h in (0.35, 1e3, 1e4):
            edges = [e for e in (x - h, x, x + h) if abs(e) < 10 * AR.marginal_sd]
            for oracle, integrand in (
                (expected_density, lambda u: evaluate(kernel, (u - x) / h) / h),
                (expected_cdf, lambda u: kernel_cdf(kernel, (x - u) / h)),
            ):
                direct, err = quad(
                    lambda u: integrand(u) * marginal_density(AR, u),
                    -10 * AR.marginal_sd,
                    10 * AR.marginal_sd,
                    points=edges or None,
                    epsabs=1e-12,
                    limit=400,
                )
                assert err < 1e-8
                assert oracle(AR, kernel, h, x) == pytest.approx(direct, abs=1e-10)


def test_oracle_raises_when_its_rules_disagree(monkeypatch):
    import mixkde.estimator as estimator
    from numpy.polynomial.legendre import leggauss

    monkeypatch.setattr(estimator, "_rules", lambda: estimator._panel_rules(leggauss(1), leggauss(2)))
    with pytest.raises(ArithmeticError, match="rules differ"):
        expected_density(AR, EPAN, 0.35, 0.4)
    with pytest.raises(ArithmeticError, match="rules differ") as lone:
        expected_cdf(AR, EPAN, 0.35, 0.4)
    # each point of a set is held to its own tolerance: far out, where both rules give the limit, a set passes,
    # and a set that holds 0.4 raises with 0.4's numbers
    assert expected_cdf(AR, EPAN, 0.35, np.array([1e3, -1e3])).tolist() == [1.0, 0.0]
    with pytest.raises(ArithmeticError) as joined:
        expected_cdf(AR, EPAN, 0.35, np.array([1e3, 0.4, -2.3]))
    assert str(joined.value) == str(lone.value)


def _two_rule_loop(model, kernel, h, x, form):
    """The oracle's rule, written apart from mixkde, as the reference for its bits.

    One loop per rule over whole arrays. Each piece takes max(1, ceil(min(width h / s, 80))) panels at every
    point, clipped to |x + h u| <= 40 s, and each rule adds its weighted node terms left to right, which the
    last column of a cumulative sum holds.
    """
    from numpy.polynomial.legendre import leggauss

    def density(y, sd):
        return np.exp(-0.5 * (y / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

    def polynomial(coef, u):
        out = np.full(u.shape, coef[-1])
        for c in coef[-2::-1]:
            out = out * u + c
        return out

    x = np.asarray(x, dtype=float)
    s = model.marginal_sd
    with np.errstate(over="ignore"):  # far-out points and a tiny h overflow to the limits
        if kernel.pieces is None:
            sd = math.hypot(s, h)
            out = density(x, sd) if form == "density" else ndtr(x / sd)
            return out if out.ndim else float(out)
        pts = x.ravel()
        limit = 40.0 * s
        rules = leggauss(16), leggauss(32)
        sums = [np.zeros(pts.size) for _ in rules]
        for piece in kernel.pieces:
            coef = getattr(piece, form)
            a = np.clip((-limit - pts) / h, piece.lo, piece.hi)
            b = np.clip((limit - pts) / h, piece.lo, piece.hi)
            panels = max(1, math.ceil(min((piece.hi - piece.lo) * h / s, 80.0)))
            half = 0.5 * (b - a) / panels
            for k in range(panels):
                mid = a + (2 * k + 1) * half
                for acc, (nodes, weights) in zip(sums, rules):
                    u = mid[:, None] + half[:, None] * nodes
                    terms = polynomial(coef, u) * density(pts[:, None] + h * u, s) * weights
                    acc += np.cumsum(terms, axis=1)[:, -1] * half
        fine = sums[1]
        if form == "cdf":
            fine = ndtr((pts + h * kernel.pieces[0].lo) / s) + h * fine
    out = fine.reshape(x.shape)
    return out if out.ndim else float(out)


ORACLE_MODELS = (IID, AR, ProcessModel(family="ar1", phi=-0.7), ProcessModel(family="ma", weights=(1.0, 0.6, -0.3)),
                 ProcessModel(family="ar1", phi=0.9, innovation_sd=0.3), ProcessModel(family="iid", innovation_sd=2.5))
# each panel runs on all points at once, a (48, 513) array here (and (48, 9001) below); one point, as a scalar
# or a one-element array, takes the oracle's one-point path
ORACLE_POINTS = (0.4, -2.3, np.array([-1.0, 0.0, 2.5]), np.linspace(-3.0, 3.0, 201),
                 np.random.default_rng(3).normal(size=(7, 5)), np.array([]),
                 np.array([-45.0, 41.0, 1e3, -1e300, math.inf, -math.inf]), np.linspace(-2.0, 2.0, 513),
                 np.array([0.7]), np.array([[-1.2]]), 41.0, 1e3, -1e300, math.inf)


@pytest.mark.parametrize("form", ["density", "cdf"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_keeps_the_bits_of_its_two_rule_loop(family, form, monkeypatch):
    from numpy.polynomial import legendre

    # the reference builds its rules on every call: the same arrays, each built once
    monkeypatch.setattr(legendre, "leggauss", functools.cache(legendre.leggauss))
    kernel = kernel_from_name(family)
    def same(model, h, x):
        got = estimator._expected(model, kernel, h, x, form)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow encountered")  # x = -1e300 at h = 1e-9
            want = _two_rule_loop(model, kernel, h, x, form)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (model, h, np.shape(x))

    for model in ORACLE_MODELS:
        for h in (1e-9, 1e-4, 0.05, 0.35, 3.0, 1e5):
            for x in ORACLE_POINTS:
                same(model, h, x)
    for h in (0.05, 30.0):  # as many points as the whole-line uniform_as grid
        same(AR, h, np.linspace(-8.0, 8.0, 3267))
    # past numpy's 8192-element iterator buffer the array path still adds in node order: every ninth value is
    # also its lone call's
    many = np.linspace(-8.0, 8.0, 9001)
    same(AR, 0.35, many)
    got = estimator._expected(AR, kernel, 0.35, many, form)[::9]
    assert [value.tobytes() for value in got] == [np.float64(estimator._expected(AR, kernel, 0.35, x, form)).tobytes()
                                                 for x in many[::9]]


def _oracle_outcome(model, kernel, h, x, form):
    """The oracle's bits at x, or the message of the ArithmeticError it raises."""
    try:
        return np.asarray(estimator._expected(model, kernel, h, x, form)).tobytes()
    except ArithmeticError as error:
        return str(error)


_FAR_POINTS = (41.0, -45.0, 1e3, -1e3, 1e300, -1e300, math.inf, -math.inf)


@pytest.mark.parametrize("form", ["density", "cdf"])
@pytest.mark.parametrize("family", sorted(name for name, kernel in FAMILIES.items() if kernel.pieces is not None))
@settings(max_examples=12, deadline=None)
@given(model=st.sampled_from(ORACLE_MODELS), log_h=st.floats(-9.0, 5.0), m=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1),
       odd=st.lists(st.one_of(st.sampled_from(_FAR_POINTS), st.floats(allow_nan=False)), max_size=6))
def test_a_point_has_its_lone_bits_in_any_set(family, form, model, log_h, m, seed, odd):
    """A point's E f_n and E F_n depend on that point alone: in a set of two or more (the array path) each value
    has the bits of its lone call (the one-point path), and a set raises exactly when one of its points would.

    The set holds m points within a few marginal sds and up to six far-out points, +-inf or any other floats."""
    kernel, h = kernel_from_name(family), 10.0**log_h
    rng = np.random.default_rng(seed)
    points = rng.permutation(np.concatenate((rng.normal(scale=3.0 * model.marginal_sd, size=m), odd)))
    lone = [_oracle_outcome(model, kernel, h, x, form) for x in points]
    try:
        values = estimator._expected(model, kernel, h, points, form)
    except ArithmeticError as error:
        assert str(error) == next(got for got in lone if isinstance(got, str))
    else:
        assert [value.tobytes() for value in values] == lone


def test_oracles_refuse_a_bad_x_for_every_family():
    # NaN, a bool, a string, None, an int too large for a double, and arrays holding them; the kernels and
    # marginals read their points by the oracles' check, so "0.5" is refused, not parsed
    bad = ((math.nan, "nan"), (True, "True"), ("0.5", "'0.5'"), (None, "None"), (10**400, "an int of 1329 bits"),
           ([0.1, math.nan], r"\[0.1, nan\]"), (np.array([False, True]), r"array\(\[False,  True\]\)"),
           ([1.0, None], r"\[1.0, None\]"))
    path = generate_path(AR, 200, seed=3)
    for kernel in FAMILIES.values():
        # the statistics and the long-run variance take one point, and check it as the oracles do
        one_point = (lambda x: clt_statistic(path, kernel, 0.3, x), lambda x: cdf_clt_statistic(path, kernel, 0.3, x),
                     lambda x: indicator_long_run_variance(AR, x))
        points = (lambda u: evaluate(kernel, u), lambda u: kernel_cdf(kernel, u), lambda x: marginal_density(AR, x),
                  lambda x: marginal_cdf(AR, x))
        for oracle in (lambda x: expected_density(AR, kernel, 0.3, x), lambda x: expected_cdf(AR, kernel, 0.3, x),
                       lambda x: bias(AR, kernel, 0.3, x)) + one_point + points:
            for x, echo in bad:
                with pytest.raises(ValueError, match=f"^x must be real numbers other than NaN, got {echo}$"):
                    oracle(x)
        for statistic in one_point:
            for x, echo in (([0.1, 0.2], r"\[0.1, 0.2\]"), (np.zeros((1, 2)), r"array\(\[\[0., 0.\]\]\)")):
                with pytest.raises(ValueError, match=f"^x must be one point, got {echo}$"):
                    statistic(x)
            assert statistic(np.array([0.3])) == statistic(0.3)
        for oracle in (expected_density, expected_cdf, bias):
            # +-inf keep their limits
            assert oracle(AR, kernel, 0.3, math.inf) == (1.0 if oracle is expected_cdf else 0.0)
            assert oracle(AR, kernel, 0.3, -math.inf) == 0.0
        for point, limits in zip(points, ((0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0))):
            assert (point(-math.inf), point(math.inf)) == limits


def test_far_out_points_give_the_limits_without_a_warning():
    path = generate_path(AR, 200, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e300, -1e300, 1e200, 1.7e308):
            cdf_limit = 1.0 if x > 0 else 0.0
            for point in (x, np.array([x, 0.0])):
                assert np.ravel(marginal_density(AR, point))[0] == 0.0
                assert np.ravel(marginal_cdf(ProcessModel(family="iid", innovation_sd=0.3), point))[0] == cdf_limit
                for kernel in FAMILIES.values():
                    for h in (1e-12, 0.5, 1e5):
                        for oracle, limit in ((expected_density, 0.0), (bias, 0.0), (expected_cdf, cdf_limit)):
                            assert np.ravel(oracle(AR, kernel, h, point))[0] == limit
            assert indicator_long_run_variance(AR, x) == 0.0
            with pytest.raises(ValueError, match="^marginal density vanishes at x="):
                clt_statistic(path, GAUSS, 0.3, x)
            with pytest.raises(ValueError, match="^F\\(x\\) = [01] is too close to 0 or 1"):
                cdf_clt_statistic(path, EPAN, 0.3, x)


def test_gaussian_oracle_is_the_normal_law_at_hypot_s_h():
    """E f_n and E F_n of the Gaussian kernel are the N(0, s^2 + h^2) density and distribution, bit for bit."""
    points = (0.0, -1.3, 2.5, 1e300, -1e300, np.array([-1e300, -2.0, 0.0, 0.7, 1e300]), np.array([[0.3]]))
    for model in ORACLE_MODELS:
        for h in (1e-9, 0.3, 5.0):
            s = math.hypot(model.marginal_sd, h)
            for x in points:
                with np.errstate(over="ignore"):
                    want = processes._normal_density(np.asarray(x), s), ndtr(np.asarray(x) / s)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = expected_density(model, GAUSS, h, x), expected_cdf(model, GAUSS, h, x)
                for g, w in zip(got, want):
                    assert type(g) is (np.ndarray if np.ndim(x) else float)
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (model, h, x)
    # an sd that overflows is refused, as the iid model the oracle once built refused it
    for oracle in (expected_density, expected_cdf):
        with pytest.raises(ValueError, match=r"^the smoothed sd sqrt\(s\^2 \+ h\^2\) must be a finite real number, got inf$"):
            oracle(ProcessModel(family="iid", innovation_sd=1.5e308), GAUSS, 1.5e308, math.inf)


def test_oracle_takes_arrays():
    pts = np.array([[-1.5, 0.0], [0.4, 2.2]])
    for kernel in FAMILIES.values():
        for oracle in (expected_density, expected_cdf):
            got = oracle(AR, kernel, 0.3, pts)
            assert got.shape == pts.shape
            want = [[oracle(AR, kernel, 0.3, float(x)) for x in row] for row in pts]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
            assert isinstance(oracle(AR, kernel, 0.3, 0.4), float)


def test_expected_cdf_small_h_limit():
    assert expected_cdf(IID, EPAN, 1e-6, 1.0) == pytest.approx(
        marginal_cdf(IID, 1.0), abs=1e-9
    )


def test_expected_density_curve_matches_pointwise():
    grid = Grid(-2.0, 2.0, 41)
    for kernel in (GAUSS, EPAN, kernel_from_name("triangular")):
        curve = expected_density_curve(AR, kernel, 0.3, grid)
        for j, x in enumerate(grid.points):
            assert curve.values[j] == pytest.approx(
                expected_density(AR, kernel, 0.3, float(x)), abs=1e-10
            )


# ---------------------------------------------------------------------------
# bias


def test_bias_vanishes_with_h():
    assert abs(bias(IID, GAUSS, 1e-6, 0.5)) < 1e-9


def test_bias_second_order_at_symmetry_point():
    # at x = 0 the first-order term cancels; halving h quarters the bias
    b1 = bias(IID, GAUSS, 0.1, 0.0)
    b2 = bias(IID, GAUSS, 0.05, 0.0)
    assert b1 / b2 == pytest.approx(4.0, rel=0.02)


def test_bias_within_first_order_bound():
    from mixkde.processes import marginal_density_derivative_sup

    coef = marginal_density_derivative_sup(IID) * GAUSS.abs_first_moment
    for h in (0.05, 0.1, 0.2, 0.4):
        for x in (-1.5, -0.5, 0.3, 1.1):
            assert abs(bias(IID, GAUSS, h, x)) <= h * coef


# ---------------------------------------------------------------------------
# standardized statistics


def test_clt_statistic_formula_consistency():
    path = generate_path(IID, 512, seed=77)
    h, x = 0.25, 0.3
    n = len(path)
    fn = float(np.mean(evaluate(GAUSS, (path.values - x) / h))) / h
    want = (
        math.sqrt(n * h)
        * (fn - expected_density(IID, GAUSS, h, x))
        / math.sqrt(GAUSS.l2_norm_sq * marginal_density(IID, x))
    )
    assert clt_statistic(path, GAUSS, h, x) == pytest.approx(want, abs=1e-10)


def test_clt_statistic_moments():
    """Unit variance and zero mean at desk scale (exact centering)."""
    n, reps = 16384, 2000
    h = float(n) ** (-0.4)
    stats = np.empty(reps)
    for r in range(reps):
        path = generate_path(IID, n, seed=50_000 + r)
        stats[r] = clt_statistic(path, GAUSS, h, 0.0)
    assert abs(stats.mean()) < 4.0 / math.sqrt(reps)
    assert 0.9 < stats.var(ddof=1) < 1.1


def test_clt_statistic_rejects_vanishing_density():
    path = generate_path(IID, 100, seed=1)
    with pytest.raises(ValueError, match="vanishes"):
        clt_statistic(path, GAUSS, 0.2, 60.0)


def test_cdf_clt_statistic_moments():
    n, reps = 4096, 2000
    h = float(n) ** (-0.2)
    stats = np.empty(reps)
    for r in range(reps):
        path = generate_path(IID, n, seed=90_000 + r)
        stats[r] = cdf_clt_statistic(path, EPAN, h, 0.5)
    assert abs(stats.mean()) < 4.0 / math.sqrt(reps)
    assert 0.9 < stats.var(ddof=1) < 1.1


def test_cdf_clt_statistic_rejects_extreme_x():
    path = generate_path(IID, 100, seed=1)
    with pytest.raises(ValueError, match="too close"):
        cdf_clt_statistic(path, EPAN, 0.2, 50.0)


# The statistics take their centre and scale once per (model, kernel, h, x, form)
# key; the uncached formula below is the definition they must keep bit for bit.
MA = ProcessModel(family="ma", weights=(1.0, 0.6, -0.3))


@pytest.fixture
def cold_statistics():
    estimator._standardization.cache_clear()
    yield estimator._standardization
    estimator._standardization.cache_clear()


def _uncached(statistic, path, kernel, h, x):
    xs = np.sort(path.values)
    n, pt = xs.size, np.asarray([x])
    if statistic is clt_statistic:
        fn = estimator._estimate(xs, kernel, h, pt, "density")[0]
        scale = math.sqrt(kernel.l2_norm_sq * marginal_density(path.model, x))
        return math.sqrt(n * h) * (fn - expected_density(path.model, kernel, h, x)) / scale
    fn = estimator._estimate(xs, kernel, h, pt, "cdf")[0]
    scale = math.sqrt(indicator_long_run_variance(path.model, x))
    return math.sqrt(n) * (fn - expected_cdf(path.model, kernel, h, x)) / scale


@pytest.mark.parametrize("model", [AR, MA], ids=["ar1", "ma"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_statistics_keep_the_bits_of_the_uncached_formula(cold_statistics, family, model):
    kernel = FAMILIES[family]
    first, second = generate_path(model, 300, seed=5), generate_path(model, 300, seed=6)
    for h in (0.15, 0.6):
        for statistic in (clt_statistic, cdf_clt_statistic):
            misses, hits = cold_statistics.cache_info()[1::-1]
            assert statistic(first, kernel, h, 0.3) == _uncached(statistic, first, kernel, h, 0.3)
            # the second path reuses the first one's centre and scale
            assert statistic(second, kernel, h, 0.3) == _uncached(statistic, second, kernel, h, 0.3)
            assert cold_statistics.cache_info()[1::-1] == (misses + 1, hits + 1)


def test_statistics_key_on_model_kernel_h_and_x(cold_statistics):
    values = generate_path(AR, 400, seed=8).values
    base = (AR, EPAN, 0.3, 0.2)
    variants = [(IID, EPAN, 0.3, 0.2), (AR, kernel_from_name("triangular"), 0.3, 0.2),
                (AR, EPAN, 0.35, 0.2), (AR, EPAN, 0.3, -0.4)]
    for statistic in (clt_statistic, cdf_clt_statistic):
        got = {}
        for model, kernel, h, x in [base, *variants, base]:
            path = SamplePath(values=values, model=model, seed=0)
            value = statistic(path, kernel, h, x)
            assert value == _uncached(statistic, path, kernel, h, x)
            got.setdefault((model, kernel, h, x), set()).add(value)
        # five keys, five values; the base key read twice gives one
        assert len(got) == 5 and len(set().union(*got.values())) == 5
    assert cold_statistics.cache_info().currsize == 10


def test_oracle_failure_is_raised_on_every_call_not_cached(cold_statistics, monkeypatch):
    from numpy.polynomial.legendre import leggauss

    path = generate_path(AR, 300, seed=5)
    monkeypatch.setattr(estimator, "_rules", lambda: estimator._panel_rules(leggauss(1), leggauss(2)))
    for _ in range(2):
        for statistic in (clt_statistic, cdf_clt_statistic):
            with pytest.raises(ArithmeticError, match="rules differ"):
                statistic(path, EPAN, 0.35, 0.4)
    assert cold_statistics.cache_info().currsize == 0
    monkeypatch.undo()
    for statistic in (clt_statistic, cdf_clt_statistic):
        assert statistic(path, EPAN, 0.35, 0.4) == _uncached(statistic, path, EPAN, 0.35, 0.4)


def test_a_replicate_loop_takes_its_centre_and_scale_once(cold_statistics, monkeypatch):
    calls = []
    for name in ("_expected", "indicator_long_run_variance"):
        original = getattr(estimator, name)
        monkeypatch.setattr(estimator, name, lambda *a, f=original, name=name: calls.append(name) or f(*a))
    model, h = ProcessModel(family="ar1", phi=0.95), 2000 ** -0.2
    for seed in range(40):
        path = generate_path(model, 200, seed=seed)
        clt_statistic(path, GAUSS, h, 0.0)
        cdf_clt_statistic(path, EPAN, h, 0.0)
    assert calls == ["_expected", "_expected", "indicator_long_run_variance"]


def test_public_oracles_are_not_cached(monkeypatch):
    from numpy.polynomial.legendre import leggauss

    z = 0.2 / MA.marginal_sd
    first = indicator_long_run_variance(MA, 0.2)
    assert first != float(ndtr(z) * ndtr(-z))
    expected_density(AR, EPAN, 0.35, 0.4)
    expected_cdf(AR, EPAN, 0.35, 0.4)
    monkeypatch.setattr(estimator, "_rules", lambda: estimator._panel_rules(leggauss(1), leggauss(2)))
    with pytest.raises(ArithmeticError, match="rules differ"):
        expected_density(AR, EPAN, 0.35, 0.4)
    with pytest.raises(ArithmeticError, match="rules differ") as lone:
        expected_cdf(AR, EPAN, 0.35, 0.4)
    # each point of a set is held to its own tolerance: far out, where both rules give the limit, a set passes,
    # and a set that holds 0.4 raises with 0.4's numbers
    assert expected_cdf(AR, EPAN, 0.35, np.array([1e3, -1e3])).tolist() == [1.0, 0.0]
    with pytest.raises(ArithmeticError) as joined:
        expected_cdf(AR, EPAN, 0.35, np.array([1e3, 0.4, -2.3]))
    assert str(joined.value) == str(lone.value)
    # with no lag covariance, the long-run variance is F(1 - F) alone
    monkeypatch.setattr(processes, "_plackett_covariances", lambda z, rho: np.zeros(rho.size))
    assert indicator_long_run_variance(MA, 0.2) == float(ndtr(z) * ndtr(-z))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    # bools would echo into report.json as false and true
    with pytest.raises(ValueError, match="grid lo must be a finite real number, got False"):
        Grid(False, True, 401)
    with pytest.raises(ValueError, match="grid hi must be a finite real number, got '2'"):
        Grid(-2.0, "2", 401)
    # an int too large for a double is the field's error, not an OverflowError
    with pytest.raises(ValueError, match="grid lo must be a finite real number"):
        Grid(lo=-10**400, hi=1.0, m=5)
    # -0.0 would echo as -0
    assert [math.copysign(1.0, end) for end in (Grid(-0.0, 1.0, 3).lo, Grid(-1.0, -0.0, 3).hi)] == [1.0, 1.0]
    assert Grid(0.0, 1.0, 11).spacing == pytest.approx(0.1, abs=1e-15)
    assert DEFAULT_GRID.m == 401
