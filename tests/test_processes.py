"""Path generation, marginals, and mixing coefficients for the built-in models."""

import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ndtr

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
from mixkde.util import derive_seed

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


# The draw contract: SplitMix64 keys -> Philox -> inverse-CDF normals -> the
# model's filter. Digests of two keyed paths per model and length; lengths
# straddle one block (2^16 values) and cover a long path drawn in pieces.
DRAW_MODELS = {
    "iid": IID,
    "ar1-0.5": AR_HALF,
    "ar1--0.9-sd2": ProcessModel(family="ar1", phi=-0.9, innovation_sd=2.0),
    "ma": ProcessModel(family="ma", weights=(1.0, 0.5, -0.25)),
}
DRAW_KEYS = (derive_seed(20260814, 0), derive_seed(20260814, 1))
DRAW_DIGESTS = {
    ("iid", 1): "baeec706a7901fbcae494ef799f5e62db3f494a64c21c78b3c3e5b748ea2b05e",
    ("iid", 5): "1cafc16c5016fa138a44e6d792c0751f284b89692748322b2c6323dde275c849",
    ("iid", 65535): "b33d71f5e03011162cff5a3ffd28945a4f768195120adec6d1eae14d2d2a60f2",
    ("iid", 65536): "0bd8c9947622c3bcbb22d6a1a9f202090876c038d324e05e5ed6b2869d4f35c6",
    ("iid", 65537): "7f90b5c0a37287b0d1441cc80ad7bfb91f14831c627ca3cfc8ffc1aecf0f15f1",
    ("iid", 131072): "ea95a5e22a089bf7aaa826c19dfc81ef2a6d11c5fed5f0ee9fabe71665417084",
    ("iid", 1048579): "d96077d66abb7b05f75329440a5723cb17e3454d7a6b1a3cbda934278d55b1d9",
    ("ar1-0.5", 1): "e2aff119a2427af59386e5ee43faca333f0ecf5a24e44c66ecf8c0719195c786",
    ("ar1-0.5", 5): "ef278f636cb979ecafd8c5a3d6ef8144181008a114963f3220c5a588fad9e7eb",
    ("ar1-0.5", 65535): "7d3bedb79fbfb5668b003eb4d8f92a680666c5c801a01edb565afc7bde32cdba",
    ("ar1-0.5", 65536): "de3054acc8509149a16c57f30dc0fab7cf63e188c8dc974ce7d5e64eca3a5809",
    ("ar1-0.5", 65537): "1500c793ab40c1ee0fc5561134abc3211fb436785825cd3601918c5a40150012",
    ("ar1-0.5", 131072): "97c708dd3103883041494668ff4f6539ab445043f91b5829a851100d4bc62698",
    ("ar1-0.5", 1048579): "53572a34efdb3444f749a41f5c19992f53139b3ae78c9b2bc359d3ee3d6b1589",
    ("ar1--0.9-sd2", 1): "9d679318ecf2d291d6f1d0f9acd0cdc0e74fd6a69000afa70f5d8ca0b98cf0f9",
    ("ar1--0.9-sd2", 5): "c3739627f3a633c8afedf78a8826d012026934919ac4665f835be9195ebfdf13",
    ("ar1--0.9-sd2", 65535): "4a475c907f9c83c7a80af6c6753ca8052a84c0f60ce32f9a453d31c967988f49",
    ("ar1--0.9-sd2", 65536): "80adffdbc562f5f12a65dd632447d2942e1594aa7dce9f78a4233aaa246ef8a0",
    ("ar1--0.9-sd2", 65537): "aab77330c76f48b9a50a6738cee3b42150ed484e559b4a891221c88f20712a79",
    ("ar1--0.9-sd2", 131072): "ef88244c8f250d832d8c91fb8f7e8a737d69da5123b4906cad16381a9f621238",
    ("ar1--0.9-sd2", 1048579): "c2ff1a5dacc5916d01e99da085f23d70bcfdde32e6a56d2a6b2dcfcb3892540e",
    ("ma", 1): "bec57799641a927cf490f2d33626edc766979440d17883766a39f178ad7227e1",
    ("ma", 5): "0e433d0822f59586abffd6debc51213317f933e40da9d8f5d3ff3b0f9a1604b4",
    ("ma", 65535): "383b9393b447808726f306e9f06206dd4d0d721de8bed3188b8c4ee43aab686d",
    ("ma", 65536): "5ceb5de02e38ccefb452166c133dce75ae4d24b940a89a1ef3cba4a529c23cb7",
    ("ma", 65537): "ed79d9d9e06dae0a69d59a903646fda132e955b57f2b9694636d093b71a089c4",
    ("ma", 131072): "9b45a00224042ae5456db0f862ed7d0ff9efb58ad9740c75b9d1bf8f62f7ceba",
    ("ma", 1048579): "ac293c21f1d49ef1d21fee7df5147207aceead66dd5a03704458ba0bc6065997",
}


@pytest.mark.parametrize("label, n", sorted(DRAW_DIGESTS))
def test_draw_contract_bits(label, n):
    digest = hashlib.sha256()
    for key in DRAW_KEYS:
        digest.update(generate_path(DRAW_MODELS[label], n, key).values.astype("<f8").tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[label, n]


@pytest.mark.parametrize("block_values", [None, 2**10])
def test_generate_paths_rows_equal_single_paths(monkeypatch, block_values):
    models = [*DRAW_MODELS.values(), ProcessModel(family="ar1", phi=0.0)]
    lengths = (1, 100, 1021, 1024, 3000)
    seeds = [derive_seed(5, r) for r in range(23)]
    # single paths at the default block size, each one piece
    want = {(i, n): [generate_path(model, n, seed).values for seed in seeds]
            for i, model in enumerate(models) for n in lengths}
    if block_values is not None:
        # blocks of 10 rows at n = 100, the last one short; 3000 values in 3 pieces
        monkeypatch.setattr(processes, "_BLOCK_VALUES", block_values)
        assert processes.paths_per_block(IID, 100) == 10
        assert processes.paths_per_block(IID, 3000) == 1
    for i, model in enumerate(models):
        for n in lengths:
            rows = processes.generate_paths(model, n, seeds)
            assert rows.shape == (len(seeds), n)
            for row, single in zip(rows, want[i, n]):
                assert np.array_equal(row, single)


def test_generate_paths_takes_no_seeds():
    assert processes.generate_paths(AR_HALF, 7, []).shape == (0, 7)


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


def test_ma_correlations_are_signed_and_bound_rho():
    weights = (1.0, 0.6, -0.3)
    corr = processes._ma_correlations(weights)
    assert corr.tolist() == [(0.6 - 0.18) / 1.45, -0.3 / 1.45]
    model = ProcessModel(family="ma", weights=weights)
    assert [rho_mixing_coefficient(model, lag) for lag in (1, 2, 3)] == [abs(corr[0]), abs(corr[1]), 0.0]
    assert processes._ma_correlations((2.0,)).size == 0


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
    with pytest.raises(ValueError, match="power must be positive"):
        mixing_tail_bound(AR_HALF, 0)


def test_rho_decay_real_lag():
    assert rho_decay(AR_HALF, 2.5) == pytest.approx(0.5**2.5, abs=1e-15)
    assert rho_decay(IID, 0.7) == 0.0
    with pytest.raises(ValueError):
        rho_decay(MA_ONE, 1.5)
    with pytest.raises(ValueError, match="lag must be >= 0"):
        rho_decay(AR_HALF, -1.0)


def test_conditional_mean_closed_form():
    assert conditional_mean(IID, 3.7, 5) == 0.0
    assert conditional_mean(IID, -3.7, 1) == 0.0  # -0.0 from phi = 0
    assert conditional_mean(AR_HALF, 2.0, 2) == 0.5
    with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
        conditional_mean(AR_HALF, 1.0, 0)


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
        # F(1-F) is formed as Phi(x) Phi(-x), which keeps it even in x
        marginal = float(ndtr(x) * ndtr(-x))
        assert marginal == pytest.approx(F * (1.0 - F), rel=1e-15)
        assert indicator_long_run_variance(IID, x) == marginal
        assert indicator_long_run_variance(ProcessModel(family="ar1", phi=0.0), x) == marginal


def test_indicator_long_run_variance_is_symmetric_far_out():
    """At +-30 sds, F(1-F) is Phi(-30) on both sides, not 0 where F rounds to 1."""
    for model in (IID, AR_HALF, MA_ONE, ProcessModel(family="ar1", phi=-0.9)):
        x = 30.0 * model.marginal_sd
        right, left = indicator_long_run_variance(model, x), indicator_long_run_variance(model, -x)
        assert right == left
        assert right == pytest.approx(float(ndtr(-30.0)), rel=1e-13)


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
