"""Path generation, marginals, and mixing coefficients for the built-in models."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mixkde import processes
from mixkde.processes import (
    MAX_PLACKETT_LAGS,
    ProcessModel,
    conditional_mean,
    generate_path,
    indicator_long_run_variance,
    marginal_cdf,
    marginal_density,
    marginal_density_derivative_sup,
    mixing_tail_bound,
    plackett_lags,
    rho_decay,
    rho_mixing_coefficient,
)

IID = ProcessModel(family="iid")
AR_HALF = ProcessModel(family="ar1", phi=0.5)
MA_ONE = ProcessModel(family="ma", weights=(1.0, 0.6))


def test_reproducible_bit_for_bit():
    a = generate_path(AR_HALF, 4096, seed=99)
    b = generate_path(AR_HALF, 4096, seed=99)
    assert np.array_equal(a.values, b.values)
    assert a.model == b.model and a.seed == 99


def test_prefix_property():
    """Extending a path must not disturb its earlier values."""
    for model in (IID, AR_HALF, MA_ONE):
        short = generate_path(model, 1000, seed=5).values
        long = generate_path(model, 2000, seed=5).values
        assert np.array_equal(short, long[:1000])


def test_ar1_phi_zero_equals_iid():
    a = generate_path(ProcessModel(family="ar1", phi=0.0), 512, seed=3).values
    b = generate_path(IID, 512, seed=3).values
    assert np.array_equal(a, b)


def test_sample_mean_near_zero():
    n = 10**5
    for model in (IID, AR_HALF):
        x = generate_path(model, n, seed=12).values
        # 4 sigma band; AR1 long-run sd inflates it by sqrt((1+phi)/(1-phi))
        inflate = math.sqrt((1 + model.phi) / (1 - model.phi)) if model.family == "ar1" else 1.0
        assert abs(x.mean()) < 4.0 * model.marginal_sd * inflate / math.sqrt(n)


def test_marginal_ks_at_desk_scale():
    n = 10**5
    for model in (IID, AR_HALF, MA_ONE):
        z = np.sort(generate_path(model, n, seed=8).values)
        f0 = marginal_cdf(model, z)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - f0), np.max(f0 - steps + 1.0 / n))
        # 1% KS level for iid; dependence widens the band, seed is fixed
        assert ks < 3.0 * 1.63 / math.sqrt(n)


def test_ar1_lagged_autocorrelation():
    n = 10**5
    x = generate_path(AR_HALF, n, seed=21).values
    x = x - x.mean()
    denom = float(x @ x)
    for lag in range(1, 6):
        emp = float(x[:-lag] @ x[lag:]) / denom
        assert emp == pytest.approx(0.5**lag, abs=0.02)


def test_marginal_sd_closed_forms():
    assert IID.marginal_sd == 1.0
    assert AR_HALF.marginal_sd == pytest.approx(1.0 / math.sqrt(0.75), abs=1e-12)
    assert ProcessModel(family="ar1", phi=0.6).marginal_sd == pytest.approx(1.25, abs=1e-12)
    assert MA_ONE.marginal_sd == pytest.approx(math.sqrt(1.0 + 0.36), abs=1e-12)
    scaled = ProcessModel(family="iid", innovation_sd=2.0)
    assert scaled.marginal_sd == 2.0


def test_marginal_density_values():
    assert marginal_density(IID, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    model = ProcessModel(family="ar1", phi=0.6)
    assert marginal_density(model, 0.0) == pytest.approx(0.31915, abs=5e-6)


def test_marginal_density_integrates_to_one():
    for model in (IID, AR_HALF, MA_ONE):
        s = model.marginal_sd
        mass, _ = quad(lambda x: marginal_density(model, x), -10 * s, 10 * s, epsabs=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_marginal_cdf_values():
    assert marginal_cdf(IID, 0.0) == 0.5
    assert marginal_cdf(IID, 1.0) == pytest.approx(0.841345, abs=1e-6)
    assert marginal_cdf(IID, -40.0) == 0.0
    xs = np.linspace(-5, 5, 101)
    assert np.all(np.diff(marginal_cdf(AR_HALF, xs)) >= 0.0)


def test_marginal_derivative_sup():
    # sup|f'| of a centered Gaussian with sd s is e^{-1/2}/(sqrt(2 pi) s^2)
    want = math.exp(-0.5) / (math.sqrt(2 * math.pi) * AR_HALF.marginal_sd**2)
    assert marginal_density_derivative_sup(AR_HALF) == pytest.approx(want, abs=1e-15)


def test_rho_examples():
    assert rho_mixing_coefficient(IID, 1) == 0.0
    assert rho_mixing_coefficient(IID, 17) == 0.0
    assert rho_mixing_coefficient(AR_HALF, 3) == 0.125
    assert rho_mixing_coefficient(MA_ONE, 2) == 0.0  # 1-dependent


def test_rho_ma_within_window():
    # lag 1 exposure of MA(1) with weights (1, b): |b|/(1 + b^2)
    b = 0.6
    want = b / (1 + b * b)
    assert rho_mixing_coefficient(MA_ONE, 1) == pytest.approx(want, abs=1e-12)


def test_rho_nonincreasing():
    for model in (AR_HALF, MA_ONE):
        vals = [rho_mixing_coefficient(model, lag) for lag in range(1, 12)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rho_matches_empirical_correlation():
    """For Gaussian pairs the maximal correlation is plain |correlation|."""
    n = 2 * 10**5
    x = generate_path(AR_HALF, n, seed=31).values
    lag = 3
    a, b = x[:-lag], x[lag:]
    emp = abs(float(np.corrcoef(a, b)[0, 1]))
    assert emp == pytest.approx(rho_mixing_coefficient(AR_HALF, lag), abs=0.02)


def test_mixing_tail_converges():
    for model in (IID, AR_HALF, MA_ONE):
        cert = mixing_tail_bound(model, 1.0)
        assert cert["first_omitted_term"] < 1e-12
        assert math.isfinite(cert["partial_sum"])
    # AR1: sum over i of phi^(2^i) at phi=0.5
    want = sum(0.5 ** (2**i) for i in range(41))
    assert mixing_tail_bound(AR_HALF, 1.0)["partial_sum"] == pytest.approx(want, abs=1e-15)


def test_rho_decay_real_lag():
    assert rho_decay(AR_HALF, 2.5) == pytest.approx(0.5**2.5, abs=1e-15)
    assert rho_decay(IID, 0.7) == 0.0
    with pytest.raises(ValueError):
        rho_decay(MA_ONE, 1.5)


def test_conditional_mean_closed_form():
    assert conditional_mean(IID, 3.7, 5) == 0.0
    assert conditional_mean(AR_HALF, 2.0, 2) == 0.5


def test_conditional_mean_mc():
    """Next-step mean from a fixed state must track the closed form."""
    phi, x0, m = 0.7, 1.0, 10**5
    rng = np.random.default_rng(2024)
    nxt = phi * x0 + rng.standard_normal(m)
    assert nxt.mean() == pytest.approx(conditional_mean(ProcessModel(family="ar1", phi=phi), x0, 1), abs=0.013)


def test_model_validation():
    with pytest.raises(ValueError):
        ProcessModel(family="ar1", phi=1.0)
    with pytest.raises(ValueError):
        ProcessModel(family="ar1", phi=-1.2)
    with pytest.raises(ValueError):
        ProcessModel(family="ma", weights=())
    with pytest.raises(ValueError):
        ProcessModel(family="ma", weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        ProcessModel(family="iid", phi=0.3)  # parameter from another family
    with pytest.raises(ValueError):
        ProcessModel(family="garch")


def test_generate_path_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_path(IID, 0, seed=1)
    with pytest.raises(ValueError):
        generate_path(IID, -5, seed=1)


def test_rho_rejects_lag_zero():
    with pytest.raises(ValueError):
        rho_mixing_coefficient(AR_HALF, 0)


def test_conditional_mean_rejects_ma():
    with pytest.raises(ValueError):
        conditional_mean(MA_ONE, 1.0, 1)


def test_indicator_long_run_variance_iid_is_marginal_variance():
    for x in (-1.3, 0.0, 0.5, 2.0):
        F = marginal_cdf(IID, x)
        assert indicator_long_run_variance(IID, x) == F * (1.0 - F)
        assert indicator_long_run_variance(ProcessModel(family="ar1", phi=0.0), x) == F * (1.0 - F)


def test_indicator_long_run_variance_at_the_median_is_an_arcsine_series():
    """At x = 0, Phi_2(0, 0; rho) - 1/4 = arcsin(rho) / (2 pi) exactly (Sheppard)."""
    for phi, lags in ((0.5, 80), (-0.7, 120), (0.99, 6000), (0.999, 60_000), (-0.999, 60_000)):
        model = ProcessModel(family="ar1", phi=phi)
        series = 0.25 + math.fsum(math.asin(phi**k) for k in range(1, lags)) / math.pi
        assert indicator_long_run_variance(model, 0.0) == pytest.approx(series, rel=1e-12)
    w = np.asarray(MA_ONE.weights)
    series = 0.25 + math.asin(float(w[0] * w[1]) / float(w @ w)) / math.pi
    assert indicator_long_run_variance(MA_ONE, 0.0) == pytest.approx(series, rel=1e-13)


_GL_NODES, _GL_WEIGHTS = leggauss(128)


def _lag_by_lag_long_run_variance(model: ProcessModel, x: float) -> float:
    """The AR(1) sum one Plackett integral per lag, until |phi|^k / 4 < 1e-15 bounds the rest."""
    z = x / model.marginal_sd
    a = abs(model.phi)
    lags = math.ceil(math.log(4e-15 * (1.0 - a)) / math.log(a))
    rho = model.phi ** np.arange(1, lags + 1)
    half = 0.5 * np.arcsin(rho)
    t = half[:, None] * (_GL_NODES[None, :] + 1.0)
    cov = half * (np.exp(-z * z / (1.0 + np.sin(t))) @ _GL_WEIGHTS) / (2.0 * math.pi)
    f = marginal_cdf(model, x)
    return f * (1.0 - f) + 2.0 * math.fsum(cov)


def test_indicator_long_run_variance_matches_the_lag_by_lag_plackett_sum():
    """The far lags by Mehler's series agree with integrating every lag."""
    for phi in (0.9, 0.99, -0.95):
        model = ProcessModel(family="ar1", phi=phi)
        for x in (0.3, 1.7, -2.5):
            assert indicator_long_run_variance(model, x) == pytest.approx(
                _lag_by_lag_long_run_variance(model, x), rel=1e-13
            )


def test_indicator_long_run_variance_stays_finite_far_out():
    """Where phi(z)^2 underflows the series is skipped; nothing hangs or turns NaN."""
    for phi in (0.5, 0.99, -0.95):
        model = ProcessModel(family="ar1", phi=phi)
        for z in (30.0, -30.0, 40.0, -40.0, 1e3):
            x = z * model.marginal_sd
            value = indicator_long_run_variance(model, x)
            assert math.isfinite(value)
            assert value == pytest.approx(_lag_by_lag_long_run_variance(model, x), rel=1e-13)
    # at phi = 0.5 every covariance is below F(1-F) * e^-150 there
    x = -30.0 * AR_HALF.marginal_sd
    F = marginal_cdf(AR_HALF, x)
    assert indicator_long_run_variance(AR_HALF, x) == F * (1.0 - F)


def test_indicator_long_run_variance_integrates_only_the_near_lags(monkeypatch):
    seen = []
    plackett = processes._plackett_covariances

    def counted(z, rho):
        seen.append(rho.size)
        return plackett(z, rho)

    monkeypatch.setattr(processes, "_plackett_covariances", counted)
    indicator_long_run_variance(ProcessModel(family="ar1", phi=0.9999), 0.4)
    # the lags with 0.9999^k > 1/2; integrating until 0.9999^k / 4 < 1e-15 took 423608
    assert 0 < sum(seen) <= 6932


def test_plackett_lags_are_capped():
    assert plackett_lags(0.5) == 1 and plackett_lags(-0.99) == 68 and plackett_lags(0.0) == 0
    assert plackett_lags(1.0 - 6.62e-7) <= MAX_PLACKETT_LAGS
    for phi in (1.0 - 6.61e-7, -(1.0 - 1e-7), 0.999999999):
        with pytest.raises(ValueError, match="Plackett lags"):
            plackett_lags(phi)
        with pytest.raises(ValueError, match="Plackett lags"):
            indicator_long_run_variance(ProcessModel(family="ar1", phi=phi), 0.5)


def test_indicator_long_run_variance_is_even_in_x():
    # 1{X <= -x} = 1 - 1{-X < x}, and -X has the same law as X
    for model in (AR_HALF, MA_ONE, ProcessModel(family="ar1", phi=-0.4)):
        for x in (0.3, 1.7):
            assert indicator_long_run_variance(model, -x) == pytest.approx(
                indicator_long_run_variance(model, x), rel=1e-13
            )
