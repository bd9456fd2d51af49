"""Simulation experiments with named admissibility gates and fixed verdicts.

One table (_KIND_TABLE) describes each of the eight kinds: its gates, its
shape needs, its run body and its plotdata.csv columns, and run_experiment
runs every kind through the same steps. A failed gate raises GateError
instead of producing a report. Every Monte Carlo kind draws replicate r's
path from derive_seed(base_seed, r) on one pool (_each_path), each
replicate writes only its own slots, and aggregation runs in index order,
so reports do not depend on the thread count. See README "Library layout"
and "Admissibility gates".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .bandwidth import BandwidthSchedule, ConditionVerdict, bandwidth_at, check_conditions, condition
from .blocking import _checked_level, _interpolated_gap, build_partition
from .estimator import (
    _CDF_EDGE,
    _DENSITY_FLOOR,
    _MARGINAL_RADIUS,
    DEFAULT_GRID,
    Grid,
    _cdf_window_sums,  # noqa: F401  (perfbench/spans.py traces this name)
    _centring,
    _check_h,
    _estimate,
    _kernel_window_sums,  # noqa: F401  (perfbench/spans.py traces this name)
    _standardized,
    bias,
    expected_cdf,  # noqa: F401  (perfbench/spans.py traces this name)
    expected_density,
    expected_density_curve,  # noqa: F401  (perfbench/spans.py traces this name)
)
from .kernels import KernelSpec
from .processes import generate_path  # noqa: F401  (perfbench/spans.py traces this name)
from .processes import (
    ProcessModel,
    _rho,
    conditional_mean,
    generate_paths,
    indicator_long_run_variance,  # noqa: F401  (perfbench/spans.py traces this name)
    marginal_cdf,
    marginal_density,
    marginal_density_derivative_sup,
    mixing_tail_bound,
    ndtr,
    paths_per_block,
    plackett_lags,
    rho_mixing_coefficient,
)
from .util import (_as_real, _echo, _run_replicates, check_int, check_real, check_seed, clamped_log, derive_seed,
                   dumps_json)

KS_THRESHOLD = 0.05
RATE_SLOPE_TOL = 0.1
UNIFORM_RATIO_FACTOR = 3.0
UNIFORM_SLOPE_TOL = 0.05
UNIFORM_PASS_FRACTION = 0.95
BIAS_SLOPE_MIN = 0.9
MOMENT_RATIO_SPREAD = 50.0
_MIXING_TAIL_TOL = 1e-12


class GateError(Exception):
    """An experiment hypothesis failed; the run is refused, not reported."""

    def __init__(self, condition: str, detail: str):
        super().__init__(detail)
        self.condition = condition


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, admitted only when its kind can run it.

    Construction raises ValueError for a malformed field and for a config
    that breaks an admission rule of README "Config reference"; the gates
    are separate and report named conditions instead.
    """

    kind: str
    model: ProcessModel
    kernel: KernelSpec
    schedule: BandwidthSchedule
    n_list: tuple[int, ...]
    replicates: int
    base_seed: int
    grid: Grid = DEFAULT_GRID
    eval_points: tuple[float, ...] = ()
    p: float = 2.0
    block_alpha: float = 0.5
    block_beta: float = 0.25
    # h_n for each n_list entry, computed and checked here; empty for block levels
    h_list: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        # a wrong-typed field would otherwise fail later, or in the run, with its own error
        for name, types, what in (
            ("model", ProcessModel, "a ProcessModel"), ("kernel", KernelSpec, "a KernelSpec"),
            ("schedule", BandwidthSchedule, "a BandwidthSchedule"), ("grid", Grid, "a Grid"),
            ("n_list", (tuple, list), "a tuple or list"), ("eval_points", (tuple, list), "a tuple or list"),
        ):
            if not isinstance(getattr(self, name), types):
                raise ValueError(f"{name} must be {what}, got {_echo(getattr(self, name))}")
        for n in self.n_list:
            # an integral float counts; util._as_real reads a bool as NaN, an int too large for a double as inf
            if _as_real(n) == math.inf != n:
                raise ValueError(f"n_list entries must fit in a double, got {_echo(n)}")
            if not _as_real(n).is_integer():
                raise ValueError(f"n_list entries must be integers, got {_echo(n)}")
        object.__setattr__(self, "n_list", tuple(check_int(int(n), "n_list entries", 1) for n in self.n_list))
        object.__setattr__(self, "eval_points", tuple(check_real(x, "eval_points entry") for x in self.eval_points))
        if len(self.n_list) == 0:
            raise ValueError("n_list must not be empty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got {self.n_list}")
        object.__setattr__(self, "replicates", check_int(self.replicates, "replicates", 1))
        spec = _KIND_TABLE[self.kind]
        if self.replicates < spec.least_replicates:
            raise ValueError(
                f"{self.kind} needs at least {spec.least_replicates} replicates for a usable "
                f"distribution comparison, got {self.replicates}"
            )
        object.__setattr__(self, "base_seed", check_seed(self.base_seed, "base_seed"))
        for name in ("p", "block_alpha", "block_beta"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not self.p >= 1.0:
            raise ValueError(f"p must be a finite number >= 1, got {self.p!r}")
        if spec.needs_points and len(self.eval_points) == 0:
            raise ValueError(f"{self.kind} needs at least one evaluation point")
        if len(self.n_list) < spec.least_sizes:
            raise ValueError(
                f"{self.kind} needs at least {spec.least_sizes} sample sizes for a slope, "
                f"got {len(self.n_list)}"
            )
        if spec.levels:
            for k in self.n_list:
                _checked_level(k, self.block_alpha, self.block_beta)
        if spec.long_run:  # iid and moving averages carry phi = 0, which needs no lags
            plackett_lags(self.model.phi)
        sd = self.model.marginal_sd
        # beyond 40 marginal sds a grid meets no data, and far beyond it its squares overflow
        lo, hi = self.grid.lo, self.grid.hi
        if not (spec.needs_points or spec.levels) and max(-lo, hi) > _MARGINAL_RADIUS * sd:
            raise ValueError(f"{self.kind} reads the grid, whose ends must lie within "
                             f"{_MARGINAL_RADIUS:g} marginal sds ({_MARGINAL_RADIUS * sd:g}) of 0, "
                             f"got [{lo:g}, {hi:g}]")
        h_list: list[float] = []
        for n in () if spec.levels else self.n_list:
            try:
                h = bandwidth_at(self.schedule, n)
            except OverflowError:
                h = math.inf
            _check_h(h, sd, f"bandwidth h_n at n = {n}")
            # a kind that plots against h fits its slope against h
            if spec.plot[0] == "h" and h in h_list:
                raise ValueError(f"{self.kind} fits its slope against h, but h_n = {h:g} "
                                 f"at both n = {self.n_list[h_list.index(h)]} and n = {n}")
            h_list.append(h)
        object.__setattr__(self, "h_list", tuple(h_list))


def config_to_dict(config: ExperimentConfig) -> dict:
    """Resolved config echo, in the fixed key order reports use."""
    return {
        "kind": config.kind,
        "model": {
            "family": config.model.family,
            "phi": config.model.phi,
            "weights": list(config.model.weights),
            "innovation_sd": config.model.innovation_sd,
        },
        "kernel": {"family": config.kernel.family},
        "bandwidth": {
            "c": config.schedule.c,
            "delta": config.schedule.delta,
            "slowly_varying": config.schedule.slowly_varying,
        },
        "grid": {"lo": config.grid.lo, "hi": config.grid.hi, "m": config.grid.m},
        "n_list": list(config.n_list),
        "replicates": config.replicates,
        "eval_points": list(config.eval_points),
        "p": config.p,
        "base_seed": config.base_seed,
        "block": {"alpha": config.block_alpha, "beta": config.block_beta},
    }


@dataclass(eq=False)
class ExperimentReport:
    kind: str
    config: dict
    gates: list
    rows: list
    summary: dict
    slope: dict | None
    theorem_prediction: float | None
    verdict: str
    notes: list

    def to_json(self, rows=None) -> str:
        """The report as JSON; rows, if given, is self.rows already rendered (util.RowTable)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if rows is not None:
            doc["rows"] = rows
        return dumps_json(doc)


# ---------------------------------------------------------------------------
# statistics helpers


def ks_statistic(samples, reference_cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF.

    reference_cdf must accept an ndarray of sorted values and return the
    CDF at each; at least two samples are required.
    """
    z = np.sort(np.asarray(samples, dtype=float))
    if z.size < 2:
        raise ValueError(f"need at least 2 samples for a KS distance, got {z.size}")
    f0 = np.asarray(reference_cdf(z), dtype=float)
    steps = np.arange(1, z.size + 1, dtype=float) / z.size
    d_plus = float(np.max(steps - f0))
    d_minus = float(np.max(f0 - (steps - 1.0 / z.size)))
    return max(d_plus, d_minus)


def fit_loglog_slope(xs, ys) -> dict:
    """Least-squares line through (log x, log y).

    Needs at least 3 points with distinct positive xs and positive ys, each
    entry a finite real number (util.check_real). Returns slope, intercept,
    r_squared, and the usual residual-based standard error of the slope (0
    for an exact fit; r_squared is defined as 1 for a perfect fit even when
    the ys are constant).
    """
    def admitted(values, name: str) -> np.ndarray:
        # an array's tolist() keeps each entry's kind (a bool stays a bool); any other input is read as objects
        flat = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        return np.array([check_real(v, name) for v in flat.ravel().tolist()], dtype=float)

    xs, ys = admitted(xs, "xs entry"), admitted(ys, "ys entry")
    if xs.size < 3 or ys.size != xs.size:
        raise ValueError(f"need at least 3 (x, y) pairs, got {xs.size} xs and {ys.size} ys")
    ordered = np.sort(xs)  # equal xs are neighbours
    if np.count_nonzero(ordered[1:] == ordered[:-1]):
        raise ValueError("xs must be distinct")
    if not (ordered[0] > 0.0 and np.count_nonzero(ys > 0.0) == ys.size):
        raise ValueError("log-log fit needs positive xs and ys")
    # np.add.reduce is np.sum's pairwise sum, and a mean is that sum over the count
    lx = np.log(xs)
    ly = np.log(ys)
    mx = float(np.add.reduce(lx)) / lx.size
    my = float(np.add.reduce(ly)) / ly.size
    dx = lx - mx
    dy = ly - my
    sxx = float(np.add.reduce(dx**2))
    if sxx == 0.0:  # a sum of squares: 0 when the logs of distinct xs all round to one double
        raise ValueError("log-log fit needs xs whose logarithms differ")
    slope = float(np.add.reduce(dx * dy) / sxx)
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    sse = float(np.add.reduce(resid * resid))
    sst = float(np.add.reduce(dy**2))
    if sst > 0.0:
        r_squared = 1.0 - sse / sst
    else:
        r_squared = 1.0 if sse == 0.0 else 0.0
    dof = xs.size - 2
    slope_stderr = math.sqrt(max(sse, 0.0) / dof / sxx) if dof > 0 else 0.0
    return {
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "slope_stderr": slope_stderr,
    }


def _stderr(sample: np.ndarray) -> float:
    """The standard error of the sample mean, or NaN for a single value."""
    size = len(sample)
    return float(sample.std(ddof=1)) / math.sqrt(size) if size > 1 else math.nan


def _report_fit(fit: dict) -> dict:
    """Fit echo for reports; the half-width is two slope standard errors."""
    return {**fit, "half_width": 2.0 * fit["slope_stderr"]}


# ---------------------------------------------------------------------------
# gates


def _bandwidth_gate(name: str, config: ExperimentConfig) -> ConditionVerdict:
    return check_conditions(config.schedule)[name]


def _mixing_gate(config: ExperimentConfig, power: float = 1.0) -> ConditionVerdict:
    cert = mixing_tail_bound(config.model, power)
    detail = (
        f"sum_i rho(2^i)^{power:g} = {cert['partial_sum']:.9g} over i <= 40 with first "
        f"omitted term {cert['first_omitted_term']:.3g}"
    )
    return condition(
        "rho-summable", cert["first_omitted_term"] < _MIXING_TAIL_TOL,
        "holds: " + detail, "fails: " + detail + f", not below {_MIXING_TAIL_TOL:g}",
    )


def _lp_mixing_gate(config: ExperimentConfig) -> ConditionVerdict:
    """Summability of rho^(2/p), which the L^p rates need."""
    return _mixing_gate(config, 2.0 / max(config.p, 2.0))


def _rho1_gate(config: ExperimentConfig) -> ConditionVerdict:
    r1 = rho_mixing_coefficient(config.model, 1)
    return condition(
        "rho(1) <= 1/4", r1 <= 0.25, f"holds: rho(1)={r1:g}",
        f"fails: rho(1)={r1:g} > 1/4, so the almost-sure uniform rate is not certified for this model",
    )


# the conditions that every admitted config meets, each with its holds text
_ALWAYS_HOLDS: dict[str, Callable[[ExperimentConfig], str]] = {
    "C1": lambda c: f"holds: the Gaussian marginal is bounded by {marginal_density(c.model, 0.0):.6g}",
    "C2": lambda c: "holds: the Gaussian marginal is uniformly continuous and bounded",
    "C3": lambda c: "holds: the Gaussian marginal is bounded and continuously differentiable "
                    f"with sup|f'| = {marginal_density_derivative_sup(c.model):.6g}",
    "K1": lambda c: f"holds: the {c.kernel.family} kernel is bounded by {c.kernel.sup_norm:g} "
                    "with integral of |K| equal to 1",
    "K3": lambda c: f"holds: the {c.kernel.family} kernel is bounded with integral of |x K(x)| "
                    f"equal to {c.kernel.abs_first_moment:g}",
    # symmetry plus unit mass, which the distribution estimators need
    "K-symmetric": lambda c: f"holds: the {c.kernel.family} kernel is symmetric with unit integral",
}


def _always_gate(name: str, config: ExperimentConfig) -> ConditionVerdict:
    return condition(name, True, _ALWAYS_HOLDS[name](config), "")


def _k2_gate(config: ExperimentConfig) -> ConditionVerdict:
    kernel = config.kernel
    compact = math.isfinite(kernel.support_radius)
    passed = compact and kernel.lipschitz_const is not None
    return condition(
        "K2", passed,
        # lipschitz_const is None for a kernel that is not Lipschitz: format it only on a pass
        f"holds: the {kernel.family} kernel has support radius {kernel.support_radius:g} "
        f"and Lipschitz constant {kernel.lipschitz_const:g}" if passed else "",
        f"fails: the {kernel.family} kernel is not " + ("Lipschitz" if compact else "compactly supported"),
    )


def _compact_support_gate(config: ExperimentConfig) -> ConditionVerdict:
    kernel = config.kernel
    return condition(
        "K-compact", math.isfinite(kernel.support_radius),
        f"holds: the {kernel.family} kernel is supported on "
        f"[-{kernel.support_radius:g}, {kernel.support_radius:g}]",
        f"fails: the {kernel.family} kernel has unbounded support",
    )


def _positive_density_gate(config: ExperimentConfig) -> ConditionVerdict:
    vals = [marginal_density(config.model, x) for x in config.eval_points]
    return condition(
        "f(x) > 0", all(v > _DENSITY_FLOOR for v in vals), "holds at every evaluation point",
        "fails: the marginal density vanishes at an evaluation point",
    )


def _cdf_interior_gate(config: ExperimentConfig) -> ConditionVerdict:
    vals = [marginal_cdf(config.model, x) for x in config.eval_points]
    return condition(
        "0 < F(x) < 1", all(_CDF_EDGE < v < 1.0 - _CDF_EDGE for v in vals),
        "holds at every evaluation point",
        "fails: an evaluation point sits at the edge of the distribution",
    )


def _p_gate(config: ExperimentConfig) -> ConditionVerdict:
    p = config.p
    return condition(
        "p >= 2", p >= 2.0, f"holds: p={p:g}",
        f"fails: the moment-rate statements need p >= 2, got p={p:g}",
    )


def _markov_gate(config: ExperimentConfig) -> ConditionVerdict:
    family = config.model.family
    return condition(
        "markov-model", config.model.markov,
        f"holds: the {family} family is Markov in its own value",
        f"fails: the {family} family is not Markov in its own value, "
        "so block anchors have no single-state conditional mean",
    )


def _even_p_gate(config: ExperimentConfig) -> ConditionVerdict:
    p = config.p
    return condition(
        "p-even", float(p).is_integer() and int(p) >= 2 and int(p) % 2 == 0,
        f"holds: p={int(p)}",
        f"fails: the block-moment diagnostic needs an even integer p >= 2, got {p:g}",
    )


def check_gates(config: ExperimentConfig) -> list[ConditionVerdict]:
    """Every named hypothesis for the configured kind, passed or not."""
    return [gate(config) for gate in _KIND_TABLE[config.kind].gates]


def enforce_gates(config: ExperimentConfig) -> list[ConditionVerdict]:
    checks = check_gates(config)
    for check in checks:
        if not check.passed:
            raise GateError(check.condition, check.detail)
    return checks


# ---------------------------------------------------------------------------
# replicate scheduling


def _each_path(model: ProcessModel, n: int, count: int, base_seed: int, threads, each) -> None:
    """each(r, values) for r < count, values the length-n path of derive_seed(base_seed, r).

    The pool gets blocks of paths_per_block replicates, whose rows
    generate_paths draws together; a path longer than one piece is a block
    alone. each(r, ...) must write only replicate r's slots; it owns
    `values`, its row of the block, and may overwrite it.
    """
    rows = paths_per_block(model, n)

    def worker(block: int) -> None:
        lo = block * rows
        seeds = [derive_seed(base_seed, r) for r in range(lo, min(lo + rows, count))]
        for r, values in enumerate(generate_paths(model, n, seeds), lo):
            each(r, values)

    _run_replicates(-(-count // rows), threads, worker)


def _sorted_prefixes(config: ExperimentConfig, threads, sizes, reduce, shape) -> np.ndarray:
    """out[r, j] = reduce(j, sorted first sizes[j] values of replicate path r).

    Replicate r draws one path of length sizes[-1], so every size reads a
    prefix of the same path (nested prefixes). Each reduce result has the
    trailing shape `shape`. Every prefix, smallest first, is sorted in place
    in the row `each` owns: sorting the first n values does not change which
    values the first n' > n hold, so no prefix needs a copy.
    """
    out = np.empty((config.replicates, len(sizes), *shape))

    def each(r: int, values: np.ndarray) -> None:
        for j, n in enumerate(sizes):
            values[:n].sort()
            out[r, j] = reduce(j, values[:n])

    _each_path(config.model, sizes[-1], config.replicates, config.base_seed, threads, each)
    return out


# ---------------------------------------------------------------------------
# kind bodies: each returns the report fields that follow the gates


def _run_clt(config: ExperimentConfig, threads, *, centre: str) -> dict:
    """Distribution check of the standardized statistic at the largest n.

    All replicates are evaluated at every point of eval_points with common
    random numbers; the verdict passes when the KS distance to the standard
    normal stays below 0.05 at every point. Per-point means and variances
    are reported alongside, with the pooled variance (the average of the
    per-point sample variances) in the summary. The statistic is clt_statistic's
    (centre "density") or cdf_clt_statistic's ("cdf"), or the latter centred at
    F ("true"): estimator._centring gives its centres and variances once per
    run, uncached, from one oracle call over every point, and
    estimator._standardized its formula.
    """
    xs_eval = np.asarray(config.eval_points, dtype=float)
    model, kernel = config.model, config.kernel
    n, h = config.n_list[-1], config.h_list[-1]
    form = "density" if centre == "density" else "cdf"
    centres, variances = _centring(model, kernel, h, xs_eval, centre)

    def reduce(j: int, xs: np.ndarray) -> np.ndarray:
        return _standardized(xs, kernel, h, xs_eval, form, centres, variances)

    stats = _sorted_prefixes(config, threads, (n,), reduce, (xs_eval.size,))[:, 0]

    rows = [
        {"x": float(x), "n": n, "h": h, "ks": ks_statistic(col, ndtr), "mean": float(col.mean()),
         "variance": float(col.var(ddof=1)), "replicates": config.replicates}
        for x, col in zip(xs_eval, stats.T)
    ]
    max_ks = max(row["ks"] for row in rows)
    summary = {
        "n": n,
        "h": h,
        "max_ks": max_ks,
        "ks_threshold": KS_THRESHOLD,
        "pooled_variance": float(np.mean([row["variance"] for row in rows])),
    }
    notes = [
        "statistics are centered at exact quadrature expectations, not at sample means",
        "all evaluation points share each replicate path (common random numbers)",
    ]
    if form == "cdf" and (model.phi or model.correlations):  # else sigma_LR^2 is F(1-F) exactly
        ratios = ", ".join(
            f"{lr / (f * (1.0 - f)):.6g} at x={x:g}"
            for x, f, lr in zip(xs_eval, marginal_cdf(model, xs_eval), variances)
        )
        notes.append(
            "statistics are standardized by the long-run variance of the indicator series, "
            "F(1-F) + 2 sum_k cov(1{X_0 <= x}, 1{X_k <= x}), not by F(1-F); "
            f"its ratio to F(1-F) is {ratios}"
        )
    verdict = "pass" if max_ks < KS_THRESHOLD else "fail"
    return dict(rows=rows, summary=summary, slope=None, theorem_prediction=None,
                verdict=verdict, notes=notes)


def _deviations(config: ExperimentConfig, threads, pts: np.ndarray, fold, shape) -> np.ndarray:
    """out[r, j] = fold(|f_n - E f_n| at pts) for replicate r's first n_list[j] values.

    E f_n is one oracle call over pts per bandwidth, and _sorted_prefixes
    runs the paths; each fold result has the trailing shape `shape`. A size
    at which every deviation is 0 has no log-log fit, and the error names
    its cause: no window held a value where E f_n is 0 (a grid far out in
    the tails), or f_n rounded to E f_n (an h so large that every window
    holds the whole sample).
    """
    kernel, h_list = config.kernel, config.h_list
    centers = [expected_density(config.model, kernel, h, pts) for h in h_list]

    def reduce(j: int, xs: np.ndarray):
        h = h_list[j]
        dev = np.abs(_estimate(xs, kernel, h, pts, "density") - centers[j])
        if not dev.any():
            reach = kernel.effective_radius * h
            if (xs.searchsorted(pts + reach, "right") > xs.searchsorted(pts - reach)).any():
                cause = (f"windows held values, but f_n rounded to E f_n at every point (h = {h:g} against "
                         f"the marginal sd {config.model.marginal_sd:g})")
            else:  # only a grid kind reads the grid
                spacing = "" if _KIND_TABLE[config.kind].needs_points else f"grid spacing {config.grid.spacing:g} "
                cause = f"no evaluation point's window held a value ({spacing}against 2h = {2.0 * h:g})"
            raise ValueError(f"every deviation |f_n - E f_n| is 0 at n = {xs.size}: {cause}")
        return fold(dev)

    return _sorted_prefixes(config, threads, config.n_list, reduce, shape)


def _run_rate(config: ExperimentConfig, threads, *, sup: bool) -> dict:
    """Error-vs-n slope reading for the sup or integral L^p deviation.

    For each n the error level is the p-th moment reading of the deviation
    from the exact expectation (maximum over eval_points when sup=True,
    trapezoid integral over the grid otherwise). The fitted log-log slope
    must match -(1 - delta)/2 within 0.1.
    """
    xs_eval = np.asarray(config.eval_points, dtype=float) if sup else config.grid.points
    p = config.p
    n_list, h_list = config.n_list, config.h_list
    # moments[r, j, i]: |f_n - E f_n|^p at point i, or its integral over the grid as one column
    fold = (lambda d: d**p) if sup else (lambda d: np.trapezoid(d**p, xs_eval))
    moments = _deviations(config, threads, xs_eval, fold, (xs_eval.size if sup else 1,))

    rows = []
    for j, n in enumerate(n_list):
        mom = moments[:, j, :].mean(axis=0)
        best = int(np.argmax(mom))
        level = float(mom[best])
        se_level = _stderr(moments[:, j, best])
        error = level ** (1.0 / p)
        # delta method for the p-th root of the estimated moment
        mc_stderr = se_level / p * level ** (1.0 / p - 1.0) if level > 0.0 else 0.0
        extra = {"argmax_x": float(xs_eval[best])} if sup else {}
        rows.append({"n": n, "h": h_list[j], "error": error, "mc_stderr": mc_stderr, **extra})

    errors = np.asarray([row["error"] for row in rows])
    slope = fit_loglog_slope(np.asarray(n_list, dtype=float), errors)
    prediction = -(1.0 - config.schedule.delta) / 2.0
    notes = [
        "deviations are measured against exact quadrature expectations",
        "replicate paths are shared across sample sizes (nested prefixes)",
    ]
    if not sup:
        half = max(abs(config.grid.lo), abs(config.grid.hi)) / config.model.marginal_sd
        notes.append(
            f"the integral is truncated to the grid span ({half:.3g} marginal sds); "
            "the omitted tail is dominated by the Gaussian tail of the marginal"
        )
    summary = {
        "p": p,
        "slope": slope["slope"],
        "theorem_prediction": prediction,
        "slope_tolerance": RATE_SLOPE_TOL,
    }
    verdict = "pass" if abs(slope["slope"] - prediction) <= RATE_SLOPE_TOL else "fail"
    return dict(rows=rows, summary=summary, slope=_report_fit(slope),
                theorem_prediction=prediction, verdict=verdict, notes=notes)


def uniform_verdict(n_list, ratios) -> tuple[dict, str]:
    """Summary fields and verdict for the almost-sure uniform bound.

    ratios[r, j] is path r's grid sup-deviation over the rate at n_list[j].
    A path is bounded when its largest ratio is at most 3 times its median
    ratio. The run passes when at least 95 percent of paths are bounded and
    the mean of the per-path log-log slopes lies within 0.05 of flat; README
    "Testing" (criteria 5 and 6) says why the trend is read on the mean.
    """
    ratios = np.asarray(ratios, dtype=float)
    n_arr = np.asarray(n_list, dtype=float)
    paths = []
    for r, row in enumerate(ratios):
        max_ratio = float(row.max())
        median_ratio = float(np.median(row))
        paths.append(
            {
                "path_index": r,
                "max_ratio": max_ratio,
                "median_ratio": median_ratio,
                "slope": fit_loglog_slope(n_arr, row)["slope"],
                "passed": max_ratio <= UNIFORM_RATIO_FACTOR * median_ratio,
            }
        )
    count = len(paths)
    bounded = sum(p["passed"] for p in paths)
    needed = math.ceil(UNIFORM_PASS_FRACTION * count)
    slopes = np.array([p["slope"] for p in paths])
    mean_slope = float(slopes.mean())
    stderr = _stderr(slopes)
    summary = {
        "paths_total": count,
        # a path passes when it is bounded; the trend clause reads on the run
        "paths_passed": bounded,
        "paths_needed": needed,
        "ratio_factor": UNIFORM_RATIO_FACTOR,
        "slope_tolerance": UNIFORM_SLOPE_TOL,
        "paths_bounded": bounded,
        "mean_slope": mean_slope,
        "mean_slope_stderr": stderr,
        "paths": paths,
    }
    ok = bounded >= needed and abs(mean_slope) <= UNIFORM_SLOPE_TOL
    return summary, "pass" if ok else "fail"


def _run_uniform(config: ExperimentConfig, threads) -> dict:
    """Boundedness check of sup-deviation over the rate sqrt(|log h|/(n h)).

    Each replicate is one path followed along every n in n_list (nested
    prefixes, as an almost-sure statement is about one path); the verdict
    is uniform_verdict's.
    """
    n_list, h_list = config.n_list, config.h_list
    # |log h| under the clamped-log convention: never below 1
    rates = [
        math.sqrt(max(abs(math.log(h)), 1.0) / (n * h)) for n, h in zip(n_list, h_list)
    ]
    sups = _deviations(config, threads, config.grid.points, np.max, ())
    ratios = sups / np.asarray(rates)
    summary, verdict = uniform_verdict(n_list, ratios)
    rows = [
        {
            "n": n,
            "h": h_list[j],
            "rate": rates[j],
            "sup_deviation": float(sups[0, j]),
            "ratio": float(ratios[0, j]),
        }
        for j, n in enumerate(n_list)
    ]
    primary_fit = fit_loglog_slope(np.asarray(n_list, dtype=float), ratios[0])
    notes = [
        "rows follow path 0; per-path verdicts are in summary.paths",
        "grid maxima are lower bounds for the continuum supremum; the grid must be "
        "fine relative to the smallest bandwidth for the ratios to be meaningful",
    ]
    return dict(rows=rows, summary=summary, slope=_report_fit(primary_fit),
                theorem_prediction=0.0, verdict=verdict, notes=notes)


def _run_bias(config: ExperimentConfig, threads) -> dict:
    """Deterministic scan of the smoothing bias against its first-order bound.

    For every (n, x) pair the exact bias E f_n(x) - f(x) comes from the
    oracle and is checked against h * sup|f'| * integral|u K(u)|du. The
    verdict additionally requires the fitted slope of log|bias| against
    log h to be at least 0.9 at every evaluation point (second-order kernels
    give about 2).
    """
    del threads  # the scan is one oracle call per bandwidth; nothing to parallelize
    xs_eval = np.asarray(config.eval_points, dtype=float)
    model, kernel = config.model, config.kernel
    n_list, h_list = config.n_list, config.h_list
    bound_coef = marginal_density_derivative_sup(model) * kernel.abs_first_moment

    rows = []
    for n, h in zip(n_list, h_list):
        bound = h * bound_coef
        for x, b in zip(xs_eval.tolist(), bias(model, kernel, h, xs_eval).tolist()):
            rows.append(
                {
                    "n": n,
                    "h": h,
                    "x": x,
                    "bias": b,
                    "abs_bias": abs(b),
                    "bound": bound,
                    "within_bound": bool(abs(b) <= bound),
                }
            )

    within = all(row["within_bound"] for row in rows)
    abs_bias = np.array([row["abs_bias"] for row in rows]).reshape(len(n_list), xs_eval.size)
    fits = [fit_loglog_slope(np.asarray(h_list), abs_bias[:, i]) for i in range(xs_eval.size)]
    slopes = [{"x": float(x), "slope": fit["slope"]} for x, fit in zip(xs_eval, fits)]
    min_slope = min(s["slope"] for s in slopes)
    # report the fit at the first eval point as the headline slope
    headline = fits[0]
    summary = {
        "all_within_bound": bool(within),
        "min_slope": min_slope,
        "slope_floor": BIAS_SLOPE_MIN,
        "slopes": slopes,
    }
    notes = [
        "bias is exact quadrature output; no sampling is involved",
        "slopes are fitted against h, so 2 is the expected reading for "
        "second-order kernels away from inflection points of f",
    ]
    verdict = "pass" if (within and min_slope >= BIAS_SLOPE_MIN) else "fail"
    return dict(rows=rows, summary=summary, slope=_report_fit(headline),
                theorem_prediction=1.0, verdict=verdict, notes=notes)


def moment_bound_check(
    model: ProcessModel,
    p: int,
    k: int,
    alpha: float,
    beta: float,
    replicates: int,
    base_seed: int,
    threads: int | None = 1,
) -> dict:
    """Monte Carlo comparison of a conditional-moment sum against its bound.

    For each replicate path, G = sum_m E[xi_m | anchor_m] where xi_m is the
    m-th big-block sum of the level-k partition and the anchor is the
    observation immediately before that block (the Markov state, so a
    model must be ProcessModel.markov). The estimated E|G|^p is
    compared against the bound shape

        (log 2 r_k)^p [ (sum_m rho(q(m/2))^2 |xi_m|_2^2)^{p/2}
                        + sum_m rho(q(m/2))^{2/(p-1)} |xi_m|_p^p ]

    with block moments estimated from the same replicates, rho the model's
    decay |phi|^q at real gaps (processes._rho), q(.) the interpolated gap
    length, and log the clamped convention. Returns lhs_estimate,
    rhs_bound_shape, and their ratio (defined as 0 when both sides vanish,
    as for iid models). The paths run on the replicate pool and the sums in
    replicate order afterwards, so the result does not depend on the thread
    count.
    """
    p = check_int(p, "moment order p", 2)
    if p % 2 != 0:
        raise ValueError(f"moment order p must be an even integer >= 2, got {p!r}")
    replicates, base_seed = check_int(replicates, "replicates", 1), check_seed(base_seed, "base_seed")
    part = build_partition(k, alpha, beta)
    starts = np.array([s for s, _ in part.big_blocks], dtype=np.int64)
    ends = np.array([e for _, e in part.big_blocks], dtype=np.int64)
    anchors = starts - 1
    # E[xi_m | X_{s-1}] = X_{s-1} * sum_{j=1..p_k} E[X_{t+j} | X_t = 1]
    coef = sum(conditional_mean(model, 1.0, j) for j in range(1, part.p_k + 1))

    g = [0.0] * replicates
    xi = np.empty((replicates, part.r_k))

    def each(r: int, values: np.ndarray) -> None:
        cs = np.concatenate(([0.0], np.cumsum(values)))
        xi[r] = cs[ends] - cs[starts]
        g[r] = coef * float(values[anchors].sum())

    _each_path(model, 2 ** (part.k + 1), replicates, base_seed, threads, each)
    lhs = sum(abs(v) ** p for v in g) / replicates
    xi_sq = (xi * xi).sum(axis=0) / replicates
    xi_pp = (np.abs(xi) ** p).sum(axis=0) / replicates
    rho = np.array([_rho(model, _interpolated_gap(part.beta, 0.5 * m)) for m in range(1, part.r_k + 1)])
    log_factor = clamped_log(2.0 * part.r_k) ** p
    rhs = log_factor * (float(np.add.reduce(rho * rho * xi_sq)) ** (p / 2.0)
                        + float(np.add.reduce(rho ** (2.0 / (p - 1)) * xi_pp)))
    return {
        "lhs_estimate": lhs,
        "rhs_bound_shape": rhs,
        "ratio": lhs / rhs if rhs != 0.0 else 0.0 if lhs == 0.0 else math.inf,
        "k": part.k,
        "p_k": part.p_k,
        "q_k": part.q_k,
        "r_k": part.r_k,
        "replicates": replicates,
    }


def _run_moment_bound(config: ExperimentConfig, threads) -> dict:
    """Block-moment diagnostic across dyadic levels.

    n_list is reinterpreted as the list of dyadic levels k; each level gets
    its own seed stream derived from base_seed. The verdict passes when all
    ratios are finite and either vanish identically (iid) or keep their
    spread max/min within 50.
    """
    p = int(config.p)
    rows = [moment_bound_check(config.model, p, k, config.block_alpha, config.block_beta,
                               config.replicates, derive_seed(config.base_seed, k), threads)
            for k in config.n_list]
    ratios = [row["ratio"] for row in rows]
    finite = all(math.isfinite(r) for r in ratios)
    positive = [r for r in ratios if r > 0.0]
    if finite and not positive:
        # iid models: both sides vanish at every level
        verdict = "pass"
        spread = 0.0
    elif finite and len(positive) == len(ratios):
        spread = max(positive) / min(positive)
        verdict = "pass" if spread <= MOMENT_RATIO_SPREAD else "fail"
    else:
        verdict = "fail"
        spread = math.inf
    summary = {
        "p": p,
        "ratio_spread": spread,
        "spread_limit": MOMENT_RATIO_SPREAD,
        "ratios": ratios,
    }
    notes = [
        "n_list entries are dyadic levels k, not sample sizes",
        "conditioning anchors are the observations immediately before each big block",
    ]
    return dict(rows=rows, summary=summary, slope=None, theorem_prediction=None,
                verdict=verdict, notes=notes)


# ---------------------------------------------------------------------------
# the kind table and the run skeleton


@dataclass(frozen=True)
class _Kind:
    """Everything one experiment kind needs; adding a kind adds one entry.

    gates are the kind's hypotheses in report order, each config -> ConditionVerdict.
    run(config, threads) returns the report fields after the gates.
    plot names the plotdata.csv columns: row keys for kinds without a slope,
    else the x and y of the log-log fit. ExperimentConfig reads the rest.
    """

    gates: tuple[Callable[[ExperimentConfig], ConditionVerdict], ...]
    run: Callable[..., dict]
    plot: tuple[str, ...]
    needs_points: bool = False
    least_sizes: int = 1
    least_replicates: int = 1
    levels: bool = False  # n_list holds dyadic block levels, not sample sizes
    long_run: bool = False  # standardized by indicator_long_run_variance


# the named conditions of the bandwidth, the marginal and the kernel
_B1, _B2, _B3 = (partial(_bandwidth_gate, name) for name in ("B1", "B2", "B3"))
_C1, _C2, _C3, _K1, _K3, _K_SYMMETRIC = (partial(_always_gate, name) for name in _ALWAYS_HOLDS)
_RATE_GATES = (_p_gate, _B1, _C1, _K1, _lp_mixing_gate)
_CLT_SHAPE = dict(plot=("x", "ks", "mean", "variance"), needs_points=True, least_replicates=100)

_KIND_TABLE: dict[str, _Kind] = {
    "clt_density": _Kind(
        gates=(_B1, _C2, _K1, _positive_density_gate, _mixing_gate),
        run=partial(_run_clt, centre="density"),
        **_CLT_SHAPE,
    ),
    "clt_cdf_centered": _Kind(
        gates=(_B1, _C2, _K_SYMMETRIC, _cdf_interior_gate, _mixing_gate),
        run=partial(_run_clt, centre="cdf"),
        long_run=True,
        **_CLT_SHAPE,
    ),
    "clt_cdf_true": _Kind(
        gates=(_B3, _C3, _K_SYMMETRIC, _compact_support_gate, _cdf_interior_gate, _mixing_gate),
        run=partial(_run_clt, centre="true"),
        long_run=True,
        **_CLT_SHAPE,
    ),
    "rate_sup_lp": _Kind(
        gates=_RATE_GATES + (_positive_density_gate,),
        run=partial(_run_rate, sup=True),
        plot=("n", "error"),
        needs_points=True,
        least_sizes=3,
    ),
    "rate_integral_lp": _Kind(
        gates=_RATE_GATES,
        run=partial(_run_rate, sup=False),
        plot=("n", "error"),
        least_sizes=3,
    ),
    "uniform_as": _Kind(
        gates=(_B2, _C1, _k2_gate, _rho1_gate, _mixing_gate),
        run=_run_uniform,
        plot=("n", "ratio"),
        least_sizes=3,
    ),
    "bias": _Kind(
        gates=(_C3, _K3),
        run=_run_bias,
        plot=("h", "abs_bias"),
        needs_points=True,
        least_sizes=3,
    ),
    "moment_bound": _Kind(
        gates=(_markov_gate, _even_p_gate),
        run=_run_moment_bound,
        plot=("k", "ratio"),
        levels=True,
    ),
}
KINDS = tuple(_KIND_TABLE)


def run_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Gates, then the body for config.kind."""
    gates = enforce_gates(config)
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        **_KIND_TABLE[config.kind].run(config, threads),
    )
