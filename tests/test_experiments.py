"""Experiment runners: statistics toolbox, gates, determinism, small runs."""

import hashlib
import itertools
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from numpy.polynomial.legendre import leggauss

from mixkde.bandwidth import BandwidthSchedule, check_conditions
from mixkde.estimator import Grid, cdf_clt_statistic, clt_statistic
from mixkde.kernels import kernel_from_name
from mixkde.processes import (
    ProcessModel,
    generate_path,
    indicator_long_run_variance,
    marginal_cdf,
)
from mixkde.util import _thread_cap, derive_seed
from mixkde import estimator, experiments, processes, util
from mixkde.experiments import (
    GateError,
    ExperimentConfig,
    check_gates,
    fit_loglog_slope,
    ks_statistic,
    run_experiment,
    uniform_verdict,
)

IID = ProcessModel(family="iid")
AR_HALF = ProcessModel(family="ar1", phi=0.5)
GAUSS = kernel_from_name("gaussian")
EPAN = kernel_from_name("epanechnikov")


def _config(**overrides):
    base = dict(
        kind="clt_density",
        model=IID,
        kernel=GAUSS,
        schedule=BandwidthSchedule(c=1.0, delta=0.2),
        n_list=(512,),
        replicates=150,
        base_seed=7,
        eval_points=(0.0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# statistics toolbox


def test_ks_near_perfect_quantile_sample():
    n = 500
    samples = norm.ppf((np.arange(1, n + 1)) / (n + 1))
    assert ks_statistic(samples, norm.cdf) < 1.0 / n + norm.pdf(0.0) * 6.0 / n


def test_ks_point_mass_is_half():
    assert ks_statistic(np.zeros(100), norm.cdf) == pytest.approx(0.5, abs=1e-12)


def test_ks_normal_draws_within_null_band():
    rng = np.random.default_rng(314)
    z = rng.standard_normal(2000)
    assert ks_statistic(z, norm.cdf) < 1.63 / math.sqrt(2000)


def test_ks_needs_two_samples():
    with pytest.raises(ValueError):
        ks_statistic(np.array([1.0]), norm.cdf)


def test_loglog_exact_square():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog_slope(xs, xs**2)
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["slope_stderr"] == pytest.approx(0.0, abs=1e-12)


def test_loglog_constant():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog_slope(xs, np.full(4, 3.7))
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
    assert fit["r_squared"] == 1.0  # zero residual on a flat line


def test_loglog_noisy_power_law():
    rng = np.random.default_rng(11)
    xs = np.logspace(1, 4, 20)
    ys = 3.0 * xs**-0.4 * (1.0 + 0.01 * rng.standard_normal(20))
    fit = fit_loglog_slope(xs, ys)
    assert fit["slope"] == pytest.approx(-0.4, abs=0.02)
    assert fit["slope_stderr"] < 0.02


def test_loglog_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    # distinct xs whose logarithms are one double: 1e300 and its next two doubles
    xs = [1e300, math.nextafter(1e300, math.inf), math.nextafter(math.nextafter(1e300, math.inf), math.inf)]
    assert len(set(xs)) == 3 and len(set(np.log(xs))) == 1
    with pytest.raises(ValueError, match="xs whose logarithms differ"):
        fit_loglog_slope(xs, [1.0, 2.0, 3.0])


def _reference_fit(xs, ys) -> dict:
    """fit_loglog_slope as written before its distinct-x check sorted, with its residual sum of squares
    summed pairwise by numpy rather than by a BLAS dot product: the reference for its bits."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or ys.size != xs.size:
        raise ValueError(f"need at least 3 (x, y) pairs, got {xs.size} xs and {ys.size} ys")
    if np.unique(xs).size != xs.size:
        raise ValueError("xs must be distinct")
    if not (np.all(xs > 0.0) and np.all(ys > 0.0)):
        raise ValueError("log-log fit needs positive xs and ys")
    lx = np.log(xs)
    ly = np.log(ys)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    sse = float(np.sum(resid * resid))
    sst = float(np.sum((ly - ly.mean()) ** 2))
    if sst > 0.0:
        r_squared = 1.0 - sse / sst
    else:
        r_squared = 1.0 if sse == 0.0 else 0.0
    dof = xs.size - 2
    slope_stderr = math.sqrt(max(sse, 0.0) / dof / sxx) if dof > 0 else 0.0
    return {"slope": slope, "intercept": intercept, "r_squared": r_squared, "slope_stderr": slope_stderr}


def _fit_outcome(fit, xs, ys):
    """The fit's keys, value types and bits, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return [(key, type(value), value.hex()) for key, value in fit(xs, ys).items()]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_loglog_fit_keeps_the_reference_bits_and_messages():
    rng = np.random.default_rng(26)
    for trial in range(1200):
        size = int(rng.integers(3, 41))
        xs = np.sort(rng.uniform(1e-3, 1e3, size)) if trial % 2 else 2.0 ** -(0.2 * np.arange(5, 5 + size))
        shape = trial % 4
        if shape == 0:  # a power law with noise, like the bias scan's |bias| against h
            ys = 0.3 * xs ** rng.uniform(0.5, 2.5) * (1.0 + 0.05 * rng.standard_normal(size))
        elif shape == 1:  # an exact power law
            ys = xs ** float(rng.integers(-2, 3))
        elif shape == 2:
            ys = np.full(size, rng.uniform(0.1, 10.0))
        else:
            ys = rng.lognormal(0.0, 3.0, size)
        xs = rng.permutation(xs)
        args = (xs.tolist(), ys.tolist()) if trial % 3 == 0 else (xs, ys)
        assert _fit_outcome(fit_loglog_slope, *args) == _fit_outcome(_reference_fit, *args)
    # every mix of NaN, infinities, signed zeros, negatives and repeats in three or four xs: each entry is
    # admitted first, xs before ys, and a NaN or an infinity is refused by name
    values = [math.nan, -math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.inf]
    messages = set()
    for size in (2, 3, 4):
        for _ in range(600):
            xs = rng.choice(values, size)
            ys = rng.choice([math.nan, -1.0, 0.0, 0.25, 3.0], size)
            refused = [(name, float(v)) for name, column in (("xs", xs), ("ys", ys)) for v in column
                       if not math.isfinite(v)]
            want = ((ValueError, f"{refused[0][0]} entry must be a finite real number, got {refused[0][1]!r}")
                    if refused else _fit_outcome(_reference_fit, xs, ys))
            assert _fit_outcome(fit_loglog_slope, xs, ys) == want, (xs, ys)
            if want[0] is ValueError:
                messages.add(want[1].split(", got")[0])
    assert messages == {"need at least 3 (x, y) pairs", "xs must be distinct", "log-log fit needs positive xs and ys",
                        "xs entry must be a finite real number", "ys entry must be a finite real number"}
    for xs, ys, message in (([1.0, 2.0, 3.0], [1.0, 2.0], "got 3 xs and 2 ys"),
                            ([math.nan, 1.0, math.nan], [1.0, 2.0, 3.0],
                             "xs entry must be a finite real number, got nan"),
                            ([2.0, 1.0, 2.0], [math.nan, 2.0, 3.0], "ys entry must be a finite real number, got nan"),
                            ([2.0, 1.0, 2.0], [1.0, 2.0, 3.0], "xs must be distinct"),
                            ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0], "positive xs and ys"),
                            ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0], "positive xs and ys"),
                            # a string was parsed, a bool read as 1.0 (and so a repeat), text failed in numpy
                            ([1, 2, "3"], [1.0, 2.0, 3.0], "xs entry must be a finite real number, got '3'"),
                            ([1, 2, True], [1.0, 2.0, 3.0], "xs entry must be a finite real number, got True"),
                            ("x", [1.0, 2.0, 3.0], "xs entry must be a finite real number, got 'x'"),
                            ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf], "ys entry must be a finite real number, got inf")):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_loglog_slope(xs, ys)


# ---------------------------------------------------------------------------
# gates


def test_gate_names_per_kind():
    named = {
        "clt_density": {"B1", "C2", "K1", "f(x) > 0", "rho-summable"},
        "clt_cdf_centered": {"B1", "C2", "K-symmetric", "0 < F(x) < 1", "rho-summable"},
        "clt_cdf_true": {"B3", "C3", "K-symmetric", "K-compact", "0 < F(x) < 1", "rho-summable"},
        "rate_sup_lp": {"p >= 2", "B1", "C1", "K1", "rho-summable", "f(x) > 0"},
        "rate_integral_lp": {"p >= 2", "B1", "C1", "K1", "rho-summable"},
        "uniform_as": {"B2", "C1", "K2", "rho(1) <= 1/4", "rho-summable"},
        "bias": {"C3", "K3"},
        "moment_bound": {"markov-model", "p-even"},
    }
    for kind, want in named.items():
        cfg = _config(
            kind=kind,
            kernel=EPAN,
            schedule=BandwidthSchedule(c=1.0, delta=0.6),
            # moment_bound reads n_list as dyadic block levels
            n_list=(6, 7, 8) if kind == "moment_bound" else (64, 128, 256),
            replicates=150,
            eval_points=(0.5,),
            p=2.0,
        )
        got = {g.condition for g in check_gates(cfg)}
        assert got == want, kind


def test_gate_rejection_b1():
    cfg = _config(schedule=BandwidthSchedule(c=1.0, delta=1.2))
    with pytest.raises(GateError, match=r"\(B1\) fails") as err:
        run_experiment(cfg)
    assert err.value.condition == "B1"


def test_gate_rejection_b3_for_true_center():
    cfg = _config(kind="clt_cdf_true", kernel=EPAN, eval_points=(0.5,))
    with pytest.raises(GateError, match=r"\(B3\) fails"):
        run_experiment(cfg)


def test_gate_rejection_rho1():
    cfg = _config(
        kind="uniform_as",
        model=AR_HALF,
        kernel=EPAN,
        schedule=BandwidthSchedule(c=1.0, delta=0.3),
        n_list=(256, 512, 1024),
        replicates=2,
    )
    with pytest.raises(GateError, match=r"rho\(1\)=0.5 > 1/4"):
        run_experiment(cfg)


def test_gate_rejection_k2_for_gaussian_and_uniform_kernels():
    for kernel in (GAUSS, kernel_from_name("uniform")):
        cfg = _config(
            kind="uniform_as",
            kernel=kernel,
            schedule=BandwidthSchedule(c=1.0, delta=0.3),
            n_list=(256, 512, 1024),
            replicates=2,
        )
        with pytest.raises(GateError, match=r"\(K2\) fails"):
            run_experiment(cfg)


def test_gate_rejection_small_p():
    cfg = _config(kind="rate_sup_lp", n_list=(64, 128, 256), p=1.5)
    with pytest.raises(GateError, match=r"p >= 2"):
        run_experiment(cfg)


def test_gate_rejection_ma_for_moment_bound():
    cfg = _config(kind="moment_bound", model=ProcessModel(family="ma", weights=(1.0, 0.3)),
                  n_list=(6, 7, 8), p=2.0)
    with pytest.raises(GateError, match="markov-model"):
        run_experiment(cfg)


def test_gate_rejection_odd_p_for_moment_bound():
    cfg = _config(kind="moment_bound", model=AR_HALF, n_list=(6, 7, 8), p=3.0)
    with pytest.raises(GateError, match="p-even"):
        run_experiment(cfg)


# A fixed battery that reaches both outcomes of every condition that can
# fail, and every distinct detail text; its digest pins each verdict's bytes.
BATTERY_MODELS = (
    IID,
    ProcessModel(family="ar1", phi=0.25),
    AR_HALF,  # rho(1) > 1/4
    ProcessModel(family="ar1", phi=-0.5),
    ProcessModel(family="ma", weights=(1.0, 0.3)),  # not Markov
    ProcessModel(family="ar1", phi=1.0 - 1e-13),  # rho is not summable
)
BATTERY_SCHEDULES = tuple(
    BandwidthSchedule(delta=d, slowly_varying=sv)
    for d, sv in ((0.3, "one"), (0.8, "invlog"), (1.0, "log"), (-0.5, "one"), (1.5, "one"))
)
BATTERY_POINTS = ((), (0.0, 0.5), (-1.0, 40.0))  # x = 40 sds: f underflows and F = 1
BATTERY_B_SCHEDULES = tuple(
    BandwidthSchedule(c=c, delta=d, slowly_varying=sv)
    for c, d in ((1.0, -0.5), (2.0, 0.0), (1.0, 0.3), (0.5, 0.5),
                 (1.0, 0.6), (1.0, 0.8), (3.0, 1.0), (1.0, 1.5))
    for sv in ("one", "log", "invlog")
)
BATTERY_TEXTS = {
    "B1": ("holds: 0 < delta", "holds: delta=1 with l(n)=log n", "holds: delta=0 with l(n)=1/log n",
           "<= 0, so h_n", "makes n*h_n"),
    "B2": ("holds: 0 < delta", "<= 0 puts", "> 1 is outside"),
    "B3": ("requires (B1)", "<= 1/2 leaves", "holds: delta"),
    "K2": ("not compactly supported", "is not Lipschitz", "holds: the"),
}
BATTERY_ALWAYS = {"C1", "C2", "C3", "K1", "K3", "K-symmetric"}
BATTERY_DIGEST = "2b70d46bf567ebb9bfb90cd1ca948a83fd6e80061a32fc43033fad8878d0213e"


def _battery_verdicts():
    """(label, verdicts) for every admissible battery config, then the B schedules."""
    for kind in experiments.KINDS:
        for (i, model), kernel, (j, schedule), points, p in itertools.product(
            enumerate(BATTERY_MODELS), (GAUSS, EPAN, kernel_from_name("triangular"),
                                        kernel_from_name("uniform")),
            enumerate(BATTERY_SCHEDULES), BATTERY_POINTS, (1.0, 2.0, 3.0, 4.0),
        ):
            try:
                cfg = ExperimentConfig(
                    kind=kind, model=model, kernel=kernel, schedule=schedule,
                    n_list=(6, 7, 8) if kind == "moment_bound" else (128, 256, 512),
                    replicates=100, base_seed=1, eval_points=points, p=p,
                )
            except ValueError:
                continue
            yield f"{kind} {i} {kernel.family} {j} {points} {p}", check_gates(cfg)
    for schedule in BATTERY_B_SCHEDULES:
        yield repr(schedule), list(check_conditions(schedule).values())


def test_gate_battery_reaches_every_branch_and_keeps_its_bytes():
    digest = hashlib.sha256()
    outcomes: set[tuple[str, bool]] = set()
    texts: dict[str, set[str]] = {}
    for label, verdicts in _battery_verdicts():
        digest.update(json.dumps([label, [v.as_dict() for v in verdicts]]).encode())
        for v in verdicts:
            outcomes.add((v.condition, v.passed))
            texts.setdefault(v.condition, set()).add(v.detail)
    conditions = {c for c, _ in outcomes}
    assert outcomes == {(c, True) for c in conditions} | {
        (c, False) for c in conditions - BATTERY_ALWAYS
    }
    for condition, fragments in BATTERY_TEXTS.items():
        for fragment in fragments:
            assert any(fragment in t for t in texts[condition]), (condition, fragment)
    assert digest.hexdigest() == BATTERY_DIGEST


def test_clt_cdf_true_requires_compact_kernel():
    cfg = _config(
        kind="clt_cdf_true",
        schedule=BandwidthSchedule(c=1.0, delta=0.6),
        eval_points=(0.5,),
        kernel=GAUSS,
    )
    with pytest.raises(GateError, match="K-compact"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# config and shape validation


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        _config(kind="clt")
    with pytest.raises(ValueError, match="strictly increasing"):
        _config(n_list=(512, 512))
    with pytest.raises(ValueError, match="at least 100 replicates"):
        _config(replicates=50)
    with pytest.raises(ValueError, match="n_list entries"):
        _config(n_list=(0,))
    with pytest.raises(ValueError, match="n_list must not be empty"):
        _config(n_list=())
    # 256.0 ** 1000 raises OverflowError, which admission reads as h_n = inf
    with pytest.raises(ValueError, match="bandwidth h_n = inf at n = 256 must be finite"):
        _config(kind="rate_sup_lp", schedule=BandwidthSchedule(delta=-1000.0), n_list=(256, 512, 1024))
    # a fractional size is refused, not truncated to 100
    with pytest.raises(ValueError, match="n_list entries must be integers, got 100.7"):
        _config(n_list=(100.7, 200, 301))
    # a bool is an int but not a size, and int() of inf or NaN raises its own error
    with pytest.raises(ValueError, match="n_list entries must be integers, got True"):
        _config(n_list=(True, 2, 3))
    with pytest.raises(ValueError, match="n_list entries must be integers, got inf"):
        _config(n_list=(math.inf,))
    with pytest.raises(ValueError, match="n_list entries must be integers, got nan"):
        _config(n_list=(math.nan,))
    # an int too large for a double is the field's error, not an OverflowError, with a short echo
    with pytest.raises(ValueError, match="^n_list entries must fit in a double, got an int of 1329 bits$"):
        _config(n_list=(128, 256, 10**400))
    # numpy integers and integral floats stay admitted
    assert _config(n_list=(np.int64(256), 512.0)).n_list == (256, 512)
    with pytest.raises(ValueError, match="base_seed"):
        _config(base_seed="7")
    # derive_seed reduces a seed mod 2^64: a wider one is refused, not carried into report.json,
    # whose writer cannot print an int of over 4300 digits
    for seed, echo in ((10**5000, "an int of 16610 bits"), (2**64, "18446744073709551616"),
                       (-2**64, "-18446744073709551616"), (True, "True")):
        with pytest.raises(ValueError, match=f"^base_seed must be an integer of at most 64 bits, got {echo}$"):
            _config(base_seed=seed)
    assert _config(base_seed=2**64 - 1).base_seed == 2**64 - 1
    assert _config(base_seed=-(2**64 - 1)).base_seed == -(2**64 - 1)
    # a bool is an int, but not a replicate count
    with pytest.raises(ValueError, match="replicates must be an integer >= 1, got True"):
        _config(kind="rate_sup_lp", n_list=(64, 128, 256), replicates=True)
    # a bool or a non-number would echo into report.json as it came, or as p = 1
    with pytest.raises(ValueError, match="p must be a finite real number, got True"):
        _config(p=True)
    # each evaluation point is a real number too: a bool would be admitted as 1.0
    with pytest.raises(ValueError, match="eval_points entry must be a finite real number, got True"):
        _config(eval_points=(True, 0.5))
    with pytest.raises(ValueError, match="eval_points entry must be a finite real number, got '0.5'"):
        _config(eval_points=("0.5",))
    with pytest.raises(ValueError, match="eval_points entry must be a finite real number, got inf"):
        _config(eval_points=(math.inf,))
    # numpy reals stay admitted, as floats, and -0.0 becomes 0.0, which echoes as 0
    points = _config(eval_points=(np.float64(0.25), np.int64(1), -0.0)).eval_points
    assert points == (0.25, 1.0, 0.0) and all(type(x) is float for x in points)
    assert math.copysign(1.0, points[2]) == 1.0
    for kind in experiments.KINDS:
        shape = dict(kind=kind, n_list=(5, 6, 7) if kind == "moment_bound" else (128, 256, 512),
                     replicates=100)
        with pytest.raises(ValueError, match="block_alpha must be a finite real number, got 'x'"):
            _config(**shape, block_alpha="x", block_beta=None)
        with pytest.raises(ValueError, match="block_beta must be a finite real number, got None"):
            _config(**shape, block_beta=None)
    # the block order binds moment_bound only
    _config(block_alpha=0.2, block_beta=0.3)
    with pytest.raises(ValueError, match="block exponents must satisfy 0 < beta < alpha < 1"):
        _config(kind="moment_bound", n_list=(5, 6, 7), block_alpha=0.2, block_beta=0.3)


@pytest.mark.parametrize("name, value, message", [
    ("kernel", "epanechnikov", "kernel must be a KernelSpec, got 'epanechnikov'"),
    ("model", "ar1", "model must be a ProcessModel, got 'ar1'"),
    ("schedule", 0.3, "schedule must be a BandwidthSchedule, got 0.3"),
    ("grid", (-2.0, 2.0, 41), r"grid must be a Grid, got \(-2.0, 2.0, 41\)"),
    ("n_list", 32, "n_list must be a tuple or list, got 32"),
    ("n_list", np.array([32, 64]), r"n_list must be a tuple or list, got array\(\[32, 64\]\)"),
    ("eval_points", 0.5, "eval_points must be a tuple or list, got 0.5"),
    ("eval_points", "0.5", "eval_points must be a tuple or list, got '0.5'"),
])
def test_wrong_typed_fields_are_refused_by_name(name, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _config(**{name: value})


def test_validate_shape():
    with pytest.raises(ValueError, match="evaluation point"):
        _config(eval_points=())
    with pytest.raises(ValueError, match="at least 3 sample sizes"):
        _config(kind="rate_sup_lp", n_list=(64, 128), eval_points=(0.0,))
    _config()  # fine as built


def test_single_replicate_rate_run_warns_nothing():
    cfg = _config(kind="rate_integral_lp", kernel=EPAN, n_list=(128, 256, 512), replicates=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(cfg)
    assert all(math.isnan(row["mc_stderr"]) for row in report.rows)


def test_thread_cap():
    cpus = os.cpu_count() or 1
    assert _thread_cap(1) == 1
    assert _thread_cap(0) == _thread_cap(None) == cpus
    assert _thread_cap(cpus + 3) == cpus
    with pytest.raises(ValueError):
        _thread_cap(-1)
    with pytest.raises(ValueError):
        _thread_cap(1.5)


def test_replicate_pool_is_capped_at_cpu_count(monkeypatch):
    pools = []

    class InlinePool:  # records the requested size and starts no thread
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(util, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 3)
    done = []
    experiments._run_replicates(2000, 5000, done.append)
    assert pools == [3]
    assert sorted(done) == list(range(2000))


@pytest.mark.parametrize("threads", [1, 2])
def test_each_path_rows_match_single_draws_across_blocks(threads):
    n = 2**14  # 4 paths per block: 14 replicates are 3 full blocks and one of 2
    assert processes.paths_per_block(AR_HALF, n) == 4
    rows = [None] * 14

    def each(r, values):
        rows[r] = values.copy()

    experiments._each_path(AR_HALF, n, 14, 99, threads, each)
    for r, values in enumerate(rows):
        assert np.array_equal(values, generate_path(AR_HALF, n, derive_seed(99, r)).values)


def test_sorted_prefixes_sort_the_whole_path_in_place():
    """uniform_as sizes 2^12..2^20: reduce sees each sorted prefix, and every
    prefix is sorted in place in the drawn path's row, so no sorted copy
    stands beside the path."""
    sizes = tuple(2**j for j in range(12, 21))
    cfg = _config(kind="uniform_as", model=ProcessModel(family="ar1", phi=0.2), kernel=EPAN,
                  schedule=BandwidthSchedule(c=1.0, delta=0.3), n_list=sizes, replicates=1,
                  grid=Grid(-2.0, 2.0, 41))
    seen = []

    def reduce(j, xs):
        seen.append(hashlib.sha256(xs).hexdigest())
        return 0.0

    experiments._sorted_prefixes(cfg, 1, sizes, reduce, ())  # warm-up: lazy imports
    seen.clear()
    tracemalloc.start()
    try:
        experiments._sorted_prefixes(cfg, 1, sizes, reduce, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sizes[-1]
    assert peak < 1.25 * 8 * n, f"peak {peak / (8 * n):.2f} x 8n"
    path = generate_path(cfg.model, n, derive_seed(cfg.base_seed, 0)).values
    assert seen == [hashlib.sha256(np.sort(path[:m])).hexdigest() for m in sizes]


def test_moment_bound_check_same_across_thread_counts():
    # k = 12 draws paths of 2^13 values, 8 per block: 20 replicates are 3 blocks
    assert processes.paths_per_block(AR_HALF, 2**13) == 8
    one = experiments.moment_bound_check(AR_HALF, 2, 12, 0.5, 0.25, 20, 5, threads=1)
    two = experiments.moment_bound_check(AR_HALF, 2, 12, 0.5, 0.25, 20, 5, threads=2)
    assert one == two


# ---------------------------------------------------------------------------
# runs


def test_clt_run_shape_and_determinism():
    cfg = _config(eval_points=(-1.0, 0.0, 1.0))
    rep1 = run_experiment(cfg, threads=1)
    rep2 = run_experiment(cfg, threads=4)
    assert rep1.to_json() == rep2.to_json()
    assert [r["x"] for r in rep1.rows] == [-1.0, 0.0, 1.0]
    for row in rep1.rows:
        assert set(row) >= {"x", "n", "h", "ks", "mean", "variance"}
    pooled = np.mean([r["variance"] for r in rep1.rows])
    assert rep1.summary["pooled_variance"] == pytest.approx(float(pooled), abs=1e-15)
    assert rep1.verdict in ("pass", "fail")
    assert rep1.config["base_seed"] == 7


TINY_RUNS = {
    "clt_density": dict(n_list=(96,), replicates=100),
    "clt_cdf_centered": dict(n_list=(96,), replicates=100),
    "clt_cdf_true": dict(n_list=(96,), replicates=100),
    "rate_sup_lp": dict(n_list=(64, 128, 256), replicates=5),
    "rate_integral_lp": dict(n_list=(64, 128, 256), replicates=5, grid=Grid(-2.0, 2.0, 41)),
    "uniform_as": dict(n_list=(64, 128, 256), replicates=5, grid=Grid(-2.0, 2.0, 41)),
    "bias": dict(n_list=(64, 128, 256), replicates=1),
    "moment_bound": dict(n_list=(4, 5, 6), replicates=20),
}


@pytest.mark.parametrize("kind", sorted(TINY_RUNS))
def test_every_kind_is_byte_identical_across_thread_counts(kind):
    cfg = _config(
        kind=kind,
        model=ProcessModel(family="ar1", phi=0.25),
        kernel=EPAN,
        schedule=BandwidthSchedule(c=1.0, delta=0.6),
        eval_points=(-0.5, 0.0, 0.7),
        **TINY_RUNS[kind],
    )
    assert run_experiment(cfg, threads=1).to_json() == run_experiment(cfg, threads=2).to_json()


def test_replicate_paths_keyed_by_derived_seed():
    cfg = _config()
    rep = run_experiment(cfg)
    shifted = run_experiment(_config(base_seed=8))
    assert rep.to_json() != shifted.to_json()


def test_mc_stderr_scales_with_replicates():
    """Doubling replicates should shrink the MC error by about sqrt(2)."""
    common = dict(
        kind="rate_sup_lp",
        kernel=EPAN,
        schedule=BandwidthSchedule(c=1.0, delta=0.6),
        n_list=(256, 512, 1024),
        eval_points=(0.0,),
        p=2.0,
    )
    r1 = run_experiment(_config(replicates=200, **common), threads=4)
    r2 = run_experiment(_config(replicates=400, **common), threads=4)
    for a, b in zip(r1.rows, r2.rows):
        ratio = a["mc_stderr"] / b["mc_stderr"]
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_rate_slope_reaches_prediction_at_desk_scale():
    cfg = _config(
        kind="rate_sup_lp",
        kernel=EPAN,
        schedule=BandwidthSchedule(c=1.0, delta=0.6),
        n_list=(256, 512, 1024, 2048, 4096),
        replicates=100,
        eval_points=(-1.0, 0.0, 1.0),
        p=2.0,
    )
    rep = run_experiment(cfg, threads=4)
    assert rep.theorem_prediction == pytest.approx(-0.2, abs=1e-12)
    assert abs(rep.slope["slope"] - rep.theorem_prediction) <= 0.1
    assert rep.verdict == "pass"
    assert {"slope", "intercept", "r_squared", "slope_stderr", "half_width"} <= set(rep.slope)


def test_uniform_run_reports_paths():
    cfg = _config(
        kind="uniform_as",
        model=ProcessModel(family="ar1", phi=0.2),
        kernel=EPAN,
        schedule=BandwidthSchedule(c=1.0, delta=0.3),
        n_list=(1024, 2048, 4096, 8192),
        replicates=4,
        grid=Grid(-2.0, 2.0, 201),
    )
    rep = run_experiment(cfg, threads=2)
    assert len(rep.summary["paths"]) == 4
    assert rep.summary["paths_needed"] == math.ceil(0.95 * 4)
    for entry in rep.summary["paths"]:
        assert entry["max_ratio"] >= entry["median_ratio"] > 0.0
    assert rep.theorem_prediction == 0.0


def test_bias_run_slopes_and_bound():
    cfg = _config(
        kind="bias",
        n_list=tuple(2**j for j in range(5, 14)),
        replicates=1,
        eval_points=(0.5, 1.0),
    )
    rep = run_experiment(cfg)
    assert all(row["within_bound"] for row in rep.rows)
    assert rep.summary["min_slope"] >= 0.9
    assert rep.verdict == "pass"


@pytest.mark.parametrize("integer", [int, np.int64])
def test_a_config_of_numpy_scalars_writes_the_bytes_of_its_python_twin(integer):
    # a numpy field stored as it came would reach report.json, whose writer refuses a float32
    def bias_config(real, integer):
        return ExperimentConfig(
            kind="bias", model=ProcessModel("ar1", phi=real(0.5), innovation_sd=integer(2)), kernel=GAUSS,
            schedule=BandwidthSchedule(c=real(1.0), delta=real(0.25)), n_list=tuple(map(integer, (64, 128, 256))),
            replicates=integer(1), base_seed=integer(7), grid=Grid(real(-2.0), real(2.0), integer(9)),
            eval_points=(real(0.3), real(-0.0)), p=real(2.0), block_alpha=real(0.5), block_beta=real(0.25))

    numpy = run_experiment(bias_config(np.float32, integer)).to_json()
    assert numpy == run_experiment(bias_config(lambda v: float(np.float32(v)), int)).to_json()


def test_moment_bound_run_levels():
    cfg = _config(
        kind="moment_bound",
        model=ProcessModel(family="ar1", phi=0.25),
        n_list=(6, 7, 8),
        replicates=150,
        p=2.0,
    )
    rep = run_experiment(cfg)
    assert [row["k"] for row in rep.rows] == [6, 7, 8]
    assert rep.verdict == "pass"
    assert rep.summary["ratio_spread"] >= 1.0

    iid_rep = run_experiment(_config(kind="moment_bound", n_list=(6, 7, 8), replicates=150, p=2.0))
    assert iid_rep.summary["ratios"] == [0.0, 0.0, 0.0]
    assert iid_rep.verdict == "pass"


def test_report_json_is_parseable():
    import json

    rep = run_experiment(_config())
    doc = json.loads(rep.to_json())
    assert doc["kind"] == "clt_density"
    assert doc["config"]["model"]["family"] == "iid"
    assert isinstance(doc["gates"], list) and doc["gates"][0]["condition"] == "B1"


def _bvn_long_run_variance(model, x, correlations):
    """Independent oracle: F(1-F) plus scipy bivariate-normal covariances, lag by lag."""
    F = marginal_cdf(model, x)
    s2 = model.marginal_sd**2
    total = F * (1.0 - F)
    for r in correlations:
        joint = multivariate_normal(mean=[0.0, 0.0], cov=[[s2, r * s2], [r * s2, s2]])
        total += 2.0 * (joint.cdf([x, x]) - F * F)
    return total


def test_dependent_cdf_statistic_variance_tracks_long_run_covariance():
    """Under dependence the CDF statistic is standardized by the long-run variance.

    For the AR(1) model the indicator series has a long-run variance well
    above its marginal variance F(1-F). The library value must match an
    independent lag-by-lag scipy sum, also for a negative phi and for a
    moving average with a negative autocorrelation, where a sign slip in the
    autocorrelations would show; and the standardized statistic's variance
    must then settle near 1.
    """
    x, phi = 0.5, 0.5
    model = ProcessModel(family="ar1", phi=phi)
    F = marginal_cdf(model, x)
    # |cov_k| <= |rho_k| / 4, so the omitted oracle tails are below 1e-17
    target = _bvn_long_run_variance(model, x, [phi**k for k in range(1, 60)])
    assert abs(indicator_long_run_variance(model, x) - target) < 1e-12
    assert 2.2 < target / (F * (1.0 - F)) < 2.3

    neg = ProcessModel(family="ar1", phi=-0.6)
    neg_target = _bvn_long_run_variance(neg, x, [(-0.6) ** k for k in range(1, 80)])
    assert abs(indicator_long_run_variance(neg, x) - neg_target) < 1e-12
    assert neg_target < marginal_cdf(neg, x) * (1.0 - marginal_cdf(neg, x))

    ma = ProcessModel(family="ma", weights=(1.0, 0.6, -0.3))
    ma_target = _bvn_long_run_variance(ma, x, [(0.6 - 0.18) / 1.45, -0.3 / 1.45])
    assert abs(indicator_long_run_variance(ma, x) - ma_target) < 1e-12

    n, reps = 4096, 400
    h = float(n) ** (-0.2)
    stats = np.empty(reps)
    for r in range(reps):
        path = generate_path(model, n, seed=derive_seed(321, r))
        stats[r] = cdf_clt_statistic(path, EPAN, h, x)
    v = float(stats.var(ddof=1))
    se = v * math.sqrt(2.0 / (reps - 1))
    assert abs(v - 1.0) < 3.0 * se


def test_cdf_clt_run_names_long_run_variance():
    dep = run_experiment(
        _config(kind="clt_cdf_centered", model=AR_HALF, kernel=EPAN, eval_points=(0.5,))
    )
    assert any("long-run variance" in note and "2.25204 at x=0.5" in note for note in dep.notes)
    iid = run_experiment(_config(kind="clt_cdf_centered", kernel=EPAN, eval_points=(0.5,)))
    assert not any("long-run variance" in note for note in iid.notes)


# The CLT kinds and the public statistics share one standardization
# (estimator._centring and estimator._standardized).
@pytest.mark.parametrize("kernel", [GAUSS, EPAN], ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("model", [AR_HALF, ProcessModel(family="ma", weights=(1.0, 0.6, -0.3))],
                         ids=["ar1", "ma"])
@pytest.mark.parametrize("kind,statistic", [("clt_density", clt_statistic),
                                            ("clt_cdf_centered", cdf_clt_statistic)])
def test_clt_rows_keep_the_bits_of_the_public_statistics(kind, statistic, model, kernel):
    cfg = _config(kind=kind, model=model, kernel=kernel, n_list=(96, 200), replicates=100,
                  eval_points=(0.4,))
    row = run_experiment(cfg).rows[0]
    n, h = cfg.n_list[-1], row["h"]
    stats = np.array([statistic(generate_path(model, n, derive_seed(cfg.base_seed, r)), kernel, h, 0.4)
                      for r in range(cfg.replicates)])
    assert (row["mean"], row["variance"]) == (float(stats.mean()), float(stats.var(ddof=1)))


@pytest.mark.parametrize("kernel", [EPAN, kernel_from_name("triangular")], ids=["epanechnikov", "triangular"])
@pytest.mark.parametrize("kind,statistic", [("clt_density", clt_statistic),
                                            ("clt_cdf_centered", cdf_clt_statistic)])
def test_the_clt_runner_takes_each_points_lone_statistic(monkeypatch, kind, statistic, kernel):
    """With several evaluation points, the runner's statistic at x on replicate path r has the bits of the public
    statistic at x alone on that path: the runner's one oracle call over all points gives each its lone centre,
    and at three points the window sums take the direct path, as at one."""
    columns = []
    ks = experiments.ks_statistic
    monkeypatch.setattr(experiments, "ks_statistic",
                        lambda column, cdf: columns.append(column.copy()) or ks(column, cdf))
    for model in (AR_HALF, ProcessModel(family="ma", weights=(1.0, 0.3))):
        columns.clear()
        cfg = _config(kind=kind, model=model, kernel=kernel, n_list=(256,), replicates=100,
                      eval_points=(0.0, 0.5, -1.3))
        run_experiment(cfg)
        h = cfg.h_list[-1]
        paths = [generate_path(model, 256, derive_seed(cfg.base_seed, r)) for r in range(cfg.replicates)]
        assert len(columns) == len(cfg.eval_points)
        for x, column in zip(cfg.eval_points, columns):
            assert column.tobytes() == np.array([statistic(path, kernel, h, x) for path in paths]).tobytes(), x


def test_no_run_reads_the_statistics_cache(monkeypatch):
    """Whatever ran before, a run computes its centres: a cached key does not hide a failing oracle."""
    cfg = _config(kernel=EPAN, n_list=(96,), replicates=100, eval_points=(0.4,))
    path = generate_path(IID, 96, derive_seed(cfg.base_seed, 0))
    h = run_experiment(cfg).rows[0]["h"]
    filled = clt_statistic(path, EPAN, h, 0.4)
    monkeypatch.setattr(estimator, "_rules", lambda: estimator._panel_rules(leggauss(1), leggauss(2)))
    assert clt_statistic(path, EPAN, h, 0.4) == filled  # the statistic reads its cached key
    with pytest.raises(ArithmeticError, match="rules differ"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# uniform verdict rule

UNIFORM_N = tuple(2**j for j in range(12, 21))


def _flat_ratios(mean_slope: float, paths: int = 20) -> np.ndarray:
    """Ratio paths c n^s_r whose slopes s_r have SD 0.033 around mean_slope."""
    noise = np.random.default_rng(5).standard_normal(paths)
    slopes = mean_slope + 0.033 * (noise - noise.mean()) / noise.std(ddof=1)
    return 0.8 * np.asarray(UNIFORM_N, dtype=float)[None, :] ** slopes[:, None]


def test_uniform_verdict_passes_flat_noisy_paths():
    ratios = _flat_ratios(0.0)
    summary, verdict = uniform_verdict(UNIFORM_N, ratios)
    # some single paths leave the 0.05 band, which the run-level rule allows
    assert any(abs(p["slope"]) > 0.05 for p in summary["paths"])
    assert verdict == "pass"
    assert summary["paths_bounded"] == summary["paths_passed"] == 20
    assert summary["mean_slope"] == pytest.approx(0.0, abs=1e-12)
    assert summary["mean_slope_stderr"] == pytest.approx(0.033 / math.sqrt(20), rel=1e-9)


def test_uniform_verdict_rejects_mean_drift():
    for drift in (0.1, -0.1):
        summary, verdict = uniform_verdict(UNIFORM_N, _flat_ratios(drift))
        assert summary["paths_bounded"] == 20  # bounded, but trending
        assert summary["mean_slope"] == pytest.approx(drift, abs=1e-12)
        assert verdict == "fail"


def test_uniform_verdict_rejects_spiking_paths():
    ratios = _flat_ratios(0.0)
    ratios[3, 4] *= 4.0  # one spike in 20 paths is within the 5% allowance
    summary, verdict = uniform_verdict(UNIFORM_N, ratios)
    assert summary["paths_bounded"] == 19 and verdict == "pass"
    ratios[11, 6] *= 4.0
    summary, verdict = uniform_verdict(UNIFORM_N, ratios)
    assert summary["paths_bounded"] == 18 < summary["paths_needed"] == 19
    assert not summary["paths"][11]["passed"]
    assert verdict == "fail"
