"""Simulation experiments with named admissibility gates and fixed verdicts.

Eight experiment kinds are supported: three central-limit checks (density,
distribution with exact centering, distribution against the true F), two
convergence-rate readings (sup and integral L^p), an almost-sure uniform
ratio check, a bias scan, and the block-moment diagnostic. Every kind runs
behind gates named after the conditions they enforce (B1/B2/B3 for the
bandwidth schedule, C1/C2/C3 for the marginal density, K1/K2/K3 for the
kernel, plus dependence-decay summability); a failed gate raises GateError
rather than producing a report, and conditions that hold automatically for
the built-in models are still recorded so reports list every hypothesis.

Reports are deterministic: replicate r of a run draws its path from
derive_seed(base_seed, r), each replicate writes only its own result slots,
and aggregation happens in index order, so the bytes do not depend on the
worker-thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bandwidth import BandwidthSchedule, bandwidth_at, check_conditions
from .blocking import moment_bound_check
from .estimator import (
    DEFAULT_GRID,
    Grid,
    _cdf_window_sums,
    _kernel_window_sums,
    bias,
    expected_cdf,
    expected_density,
    expected_density_curve,
)
from .kernels import KernelSpec, abs_first_moment
from .processes import (
    ProcessModel,
    generate_path,
    indicator_long_run_variance,
    marginal_cdf,
    marginal_density,
    marginal_density_derivative_sup,
    mixing_tail_bound,
    rho_mixing_coefficient,
)
from .util import derive_seed, dumps_json

KINDS = (
    "clt_density",
    "clt_cdf_centered",
    "clt_cdf_true",
    "rate_sup_lp",
    "rate_integral_lp",
    "uniform_as",
    "bias",
    "moment_bound",
)
CLT_KINDS = ("clt_density", "clt_cdf_centered", "clt_cdf_true")
RATE_KINDS = ("rate_sup_lp", "rate_integral_lp")

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
class GateCheck:
    condition: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"condition": self.condition, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ExperimentConfig:
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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "eval_points", tuple(float(x) for x in self.eval_points))
        if len(self.n_list) == 0:
            raise ValueError("n_list must not be empty")
        for n in self.n_list:
            if n < 1:
                raise ValueError(f"n_list entries must be >= 1, got {n}")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got {self.n_list}")
        if not isinstance(self.replicates, int) or self.replicates < 1:
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if self.kind in CLT_KINDS and self.replicates < 100:
            raise ValueError(
                f"{self.kind} needs at least 100 replicates for a usable "
                f"distribution comparison, got {self.replicates}"
            )
        if not isinstance(self.base_seed, int) or isinstance(self.base_seed, bool):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be a finite number >= 1, got {self.p!r}")


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
        "p": float(config.p),
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "gates": self.gates,
            "rows": self.rows,
            "summary": self.summary,
            "slope": self.slope,
            "theorem_prediction": self.theorem_prediction,
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return dumps_json(self.to_json_dict())


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

    Needs at least 3 points with distinct positive xs and positive ys.
    Returns slope, intercept, r_squared, and the usual residual-based
    standard error of the slope (0 for an exact fit; r_squared is defined
    as 1 for a perfect fit even when the ys are constant).
    """
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
    sse = float(resid @ resid)
    sst = float(np.sum((ly - ly.mean()) ** 2))
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


def _report_fit(fit: dict) -> dict:
    """Fit echo for reports; the half-width is two slope standard errors."""
    return {**fit, "half_width": 2.0 * fit["slope_stderr"]}


# ---------------------------------------------------------------------------
# gates


def _bandwidth_gate(schedule: BandwidthSchedule, name: str) -> GateCheck:
    verdict = check_conditions(schedule)[name]
    return GateCheck(name, verdict.passed, verdict.detail)


def _mixing_gate(model: ProcessModel, power: float) -> GateCheck:
    cert = mixing_tail_bound(model, power)
    passed = cert["first_omitted_term"] < _MIXING_TAIL_TOL
    detail = (
        f"sum_i rho(2^i)^{power:g} = {cert['partial_sum']:.9g} over i <= 40 with first "
        f"omitted term {cert['first_omitted_term']:.3g}"
    )
    if passed:
        detail = "(rho-summable) holds: " + detail
    else:
        detail = "(rho-summable) fails: " + detail + f", not below {_MIXING_TAIL_TOL:g}"
    return GateCheck("rho-summable", passed, detail)


def _rho1_gate(model: ProcessModel) -> GateCheck:
    r1 = rho_mixing_coefficient(model, 1)
    if r1 <= 0.25:
        return GateCheck(
            "rho(1) <= 1/4", True, f"(rho(1) <= 1/4) holds: rho(1)={r1:g}"
        )
    return GateCheck(
        "rho(1) <= 1/4", False,
        f"(rho(1) <= 1/4) fails: rho(1)={r1:g} > 1/4, so the almost-sure uniform rate "
        "is not certified for this model",
    )


def _marginal_gate(name: str, model: ProcessModel) -> GateCheck:
    sd = model.marginal_sd
    if name == "C1":
        detail = f"(C1) holds: the Gaussian marginal is bounded by {1.0 / (sd * math.sqrt(2 * math.pi)):.6g}"
    elif name == "C2":
        detail = "(C2) holds: the Gaussian marginal is uniformly continuous and bounded"
    else:
        detail = (
            "(C3) holds: the Gaussian marginal is bounded and continuously differentiable "
            f"with sup|f'| = {marginal_density_derivative_sup(model):.6g}"
        )
    return GateCheck(name, True, detail)


def _kernel_gate(name: str, kernel: KernelSpec) -> GateCheck:
    fam = kernel.family
    if name == "K1":
        return GateCheck(
            "K1", True,
            f"(K1) holds: the {fam} kernel is bounded by {kernel.sup_norm:g} with "
            f"integral of |K| equal to {kernel.l1_norm:g}",
        )
    if name == "K2":
        if not math.isfinite(kernel.support_radius):
            return GateCheck(
                "K2", False,
                f"(K2) fails: the {fam} kernel is not compactly supported",
            )
        if kernel.lipschitz_const is None:
            return GateCheck(
                "K2", False,
                f"(K2) fails: the {fam} kernel is not Lipschitz",
            )
        return GateCheck(
            "K2", True,
            f"(K2) holds: the {fam} kernel has support radius {kernel.support_radius:g} "
            f"and Lipschitz constant {kernel.lipschitz_const:g}",
        )
    if name == "K3":
        return GateCheck(
            "K3", True,
            f"(K3) holds: the {fam} kernel is bounded with integral of |x K(x)| "
            f"equal to {abs_first_moment(kernel):g}",
        )
    # symmetry plus unit mass, needed by the distribution estimators
    if kernel.is_symmetric and kernel.integrates_to_one:
        return GateCheck(
            "K-symmetric", True,
            f"(K-symmetric) holds: the {fam} kernel is symmetric with unit integral",
        )
    return GateCheck(
        "K-symmetric", False,
        f"(K-symmetric) fails: the {fam} kernel must be symmetric with unit integral",
    )


def _compact_support_gate(kernel: KernelSpec) -> GateCheck:
    if math.isfinite(kernel.support_radius):
        return GateCheck(
            "K-compact", True,
            f"(K-compact) holds: the {kernel.family} kernel is supported on "
            f"[-{kernel.support_radius:g}, {kernel.support_radius:g}]",
        )
    return GateCheck(
        "K-compact", False,
        f"(K-compact) fails: the {kernel.family} kernel has unbounded support",
    )


def _positive_density_gate(config: ExperimentConfig) -> GateCheck:
    vals = [marginal_density(config.model, x) for x in config.eval_points]
    if all(v > 1e-300 for v in vals):
        return GateCheck(
            "f(x) > 0", True,
            "(f(x) > 0) holds at every evaluation point",
        )
    return GateCheck(
        "f(x) > 0", False,
        "(f(x) > 0) fails: the marginal density vanishes at an evaluation point",
    )


def _cdf_interior_gate(config: ExperimentConfig) -> GateCheck:
    vals = [marginal_cdf(config.model, x) for x in config.eval_points]
    if all(1e-12 < v < 1.0 - 1e-12 for v in vals):
        return GateCheck(
            "0 < F(x) < 1", True, "(0 < F(x) < 1) holds at every evaluation point"
        )
    return GateCheck(
        "0 < F(x) < 1", False,
        "(0 < F(x) < 1) fails: an evaluation point sits at the edge of the distribution",
    )


def _p_gate(p: float) -> GateCheck:
    if p >= 2.0:
        return GateCheck("p >= 2", True, f"(p >= 2) holds: p={p:g}")
    return GateCheck(
        "p >= 2", False,
        f"(p >= 2) fails: the moment-rate statements need p >= 2, got p={p:g}",
    )


def _markov_gate(model: ProcessModel) -> GateCheck:
    if model.family in ("iid", "ar1"):
        return GateCheck(
            "markov-model", True,
            f"(markov-model) holds: the {model.family} family is Markov in its own value",
        )
    return GateCheck(
        "markov-model", False,
        f"(markov-model) fails: the {model.family} family is not Markov in its own value, "
        "so block anchors have no single-state conditional mean",
    )


def _even_p_gate(p: float) -> GateCheck:
    if float(p).is_integer() and int(p) >= 2 and int(p) % 2 == 0:
        return GateCheck("p-even", True, f"(p-even) holds: p={int(p)}")
    return GateCheck(
        "p-even", False,
        f"(p-even) fails: the block-moment diagnostic needs an even integer p >= 2, got {p:g}",
    )


def check_gates(config: ExperimentConfig) -> list[GateCheck]:
    """Every named hypothesis for the configured kind, passed or not."""
    kind = config.kind
    model = config.model
    kernel = config.kernel
    schedule = config.schedule
    if kind == "clt_density":
        return [
            _bandwidth_gate(schedule, "B1"),
            _marginal_gate("C2", model),
            _kernel_gate("K1", kernel),
            _positive_density_gate(config),
            _mixing_gate(model, 1.0),
        ]
    if kind == "clt_cdf_centered":
        return [
            _bandwidth_gate(schedule, "B1"),
            _marginal_gate("C2", model),
            _kernel_gate("K-symmetric", kernel),
            _cdf_interior_gate(config),
            _mixing_gate(model, 1.0),
        ]
    if kind == "clt_cdf_true":
        return [
            _bandwidth_gate(schedule, "B3"),
            _marginal_gate("C3", model),
            _kernel_gate("K-symmetric", kernel),
            _compact_support_gate(kernel),
            _cdf_interior_gate(config),
            _mixing_gate(model, 1.0),
        ]
    if kind in RATE_KINDS:
        gates = [
            _p_gate(config.p),
            _bandwidth_gate(schedule, "B1"),
            _marginal_gate("C1", model),
            _kernel_gate("K1", kernel),
            _mixing_gate(model, 2.0 / max(config.p, 2.0)),
        ]
        if kind == "rate_sup_lp":
            gates.append(_positive_density_gate(config))
        return gates
    if kind == "uniform_as":
        return [
            _bandwidth_gate(schedule, "B2"),
            _marginal_gate("C1", model),
            _kernel_gate("K2", kernel),
            _rho1_gate(model),
            _mixing_gate(model, 1.0),
        ]
    if kind == "bias":
        return [
            _marginal_gate("C3", model),
            _kernel_gate("K3", kernel),
        ]
    # moment_bound
    return [
        _markov_gate(model),
        _even_p_gate(config.p),
    ]


def enforce_gates(config: ExperimentConfig) -> list[GateCheck]:
    checks = check_gates(config)
    for check in checks:
        if not check.passed:
            raise GateError(check.condition, check.detail)
    return checks


# ---------------------------------------------------------------------------
# replicate scheduling


def resolve_threads(threads: int | None) -> int:
    """0 or None means one worker per CPU; otherwise the explicit cap."""
    if threads is None:
        threads = 0
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 0:
        raise ValueError(f"threads must be an integer >= 0, got {threads!r}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


def _run_replicates(count: int, threads: int | None, worker) -> None:
    """Run worker(i) for i in range(count), possibly on a thread pool.

    The pool never has more threads than CPUs or replicates. Each worker
    call must write only its own output slots; results are aggregated by
    index afterwards, so any thread count gives identical bytes.
    """
    t = min(resolve_threads(threads), count, os.cpu_count() or 1)
    if t <= 1:
        for i in range(count):
            worker(i)
        return
    bounds = np.linspace(0, count, t + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]

    def run_span(span):
        for i in range(span[0], span[1]):
            worker(i)

    with ThreadPoolExecutor(max_workers=t) as pool:
        list(pool.map(run_span, spans))


# ---------------------------------------------------------------------------
# runners


def _require_eval_points(config: ExperimentConfig) -> np.ndarray:
    if len(config.eval_points) == 0:
        raise ValueError(f"{config.kind} needs at least one evaluation point")
    return np.asarray(config.eval_points, dtype=float)


def _require_n_count(config: ExperimentConfig, least: int) -> None:
    if len(config.n_list) < least:
        raise ValueError(
            f"{config.kind} needs at least {least} sample sizes for a slope, "
            f"got {len(config.n_list)}"
        )


def validate_shape(config: ExperimentConfig) -> None:
    """Kind-specific structural checks that need no simulation.

    Raises ValueError for configs that are syntactically fine but cannot be
    run (too few sample sizes for a slope, missing evaluation points); gate
    checks are separate and report named conditions instead.
    """
    if config.kind in CLT_KINDS or config.kind in ("rate_sup_lp", "bias"):
        _require_eval_points(config)
    if config.kind in RATE_KINDS or config.kind in ("uniform_as", "bias"):
        _require_n_count(config, 3)


def run_clt_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Distribution check of the standardized statistic at the largest n.

    All replicates are evaluated at every point of eval_points with common
    random numbers; the verdict passes when the KS distance to the standard
    normal stays below 0.05 at every point. Per-point means and variances
    are reported alongside, with the pooled variance (the average of the
    per-point sample variances) in the summary. The distribution kinds are
    standardized by the long-run variance of the indicator series
    (indicator_long_run_variance), computed once per run.
    """
    if config.kind not in CLT_KINDS:
        raise ValueError(f"run_clt_experiment cannot run kind {config.kind!r}")
    xs_eval = _require_eval_points(config)
    gates = enforce_gates(config)
    model, kernel = config.model, config.kernel
    n = config.n_list[-1]
    h = bandwidth_at(config.schedule, n)

    if config.kind == "clt_density":
        centers = np.array([expected_density(model, kernel, h, x) for x in xs_eval])
        denom = np.sqrt(kernel.l2_norm_sq * marginal_density(model, xs_eval))
        scale = math.sqrt(n * h)
    else:
        fx = marginal_cdf(model, xs_eval)
        if config.kind == "clt_cdf_centered":
            centers = np.array([expected_cdf(model, kernel, h, x) for x in xs_eval])
        else:
            centers = fx
        long_run = np.array([indicator_long_run_variance(model, x) for x in xs_eval])
        denom = np.sqrt(long_run)
        scale = math.sqrt(n)

    stats = np.empty((config.replicates, xs_eval.size))

    def worker(r: int) -> None:
        path = generate_path(model, n, derive_seed(config.base_seed, r))
        xs = np.sort(path.values)
        if config.kind == "clt_density":
            raw = _kernel_window_sums(xs, kernel, h, xs_eval) / (n * h)
        else:
            raw = np.clip(_cdf_window_sums(xs, kernel, h, xs_eval) / n, 0.0, 1.0)
        stats[r, :] = scale * (raw - centers) / denom

    _run_replicates(config.replicates, threads, worker)

    rows = []
    variances = []
    for i, x in enumerate(xs_eval):
        col = stats[:, i]
        var = float(col.var(ddof=1))
        variances.append(var)
        rows.append(
            {
                "x": float(x),
                "n": n,
                "h": h,
                "ks": ks_statistic(col, ndtr),
                "mean": float(col.mean()),
                "variance": var,
                "replicates": config.replicates,
            }
        )
    max_ks = max(row["ks"] for row in rows)
    summary = {
        "n": n,
        "h": h,
        "max_ks": max_ks,
        "ks_threshold": KS_THRESHOLD,
        "pooled_variance": float(np.mean(variances)),
    }
    verdict = "pass" if max_ks < KS_THRESHOLD else "fail"
    notes = [
        "statistics are centered at exact quadrature expectations, not at sample means",
        "all evaluation points share each replicate path (common random numbers)",
    ]
    if config.kind != "clt_density" and model.family != "iid":
        ratios = ", ".join(
            f"{lr / (f * (1.0 - f)):.6g} at x={x:g}" for x, f, lr in zip(xs_eval, fx, long_run)
        )
        notes.append(
            "statistics are standardized by the long-run variance of the indicator series, "
            "F(1-F) + 2 sum_k cov(1{X_0 <= x}, 1{X_k <= x}), not by F(1-F); "
            f"its ratio to F(1-F) is {ratios}"
        )
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        rows=rows,
        summary=summary,
        slope=None,
        theorem_prediction=None,
        verdict=verdict,
        notes=notes,
    )


def run_rate_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Error-vs-n slope reading for the sup or integral L^p deviation.

    For each n the error level is the p-th moment reading of the deviation
    from the exact expectation (maximum over eval_points for the sup kind,
    trapezoid integral over the grid for the integral kind). The fitted
    log-log slope must match -(1 - delta)/2 within 0.1.
    """
    if config.kind not in RATE_KINDS:
        raise ValueError(f"run_rate_experiment cannot run kind {config.kind!r}")
    _require_n_count(config, 3)
    sup_kind = config.kind == "rate_sup_lp"
    xs_eval = _require_eval_points(config) if sup_kind else config.grid.points
    gates = enforce_gates(config)
    model, kernel = config.model, config.kernel
    p = float(config.p)
    n_list = config.n_list
    h_list = [bandwidth_at(config.schedule, n) for n in n_list]

    if sup_kind:
        centers = [
            np.array([expected_density(model, kernel, h, x) for x in xs_eval]) for h in h_list
        ]
    else:
        centers = [
            expected_density_curve(model, kernel, h, config.grid).values for h in h_list
        ]

    if sup_kind:
        raw = np.empty((config.replicates, len(n_list), xs_eval.size))
    else:
        raw = np.empty((config.replicates, len(n_list)))
    max_n = n_list[-1]

    def worker(r: int) -> None:
        values = generate_path(model, max_n, derive_seed(config.base_seed, r)).values
        for j, n in enumerate(n_list):
            xs = np.sort(values[:n])
            h = h_list[j]
            fn = _kernel_window_sums(xs, kernel, h, xs_eval) / (n * h)
            dev = np.abs(fn - centers[j]) ** p
            if sup_kind:
                raw[r, j, :] = dev
            else:
                raw[r, j] = np.trapezoid(dev, xs_eval)

    _run_replicates(config.replicates, threads, worker)

    rows = []
    errors = []
    for j, n in enumerate(n_list):
        if sup_kind:
            mom = raw[:, j, :].mean(axis=0)
            best = int(np.argmax(mom))
            level = float(mom[best])
            se_level = float(raw[:, j, best].std(ddof=1)) / math.sqrt(config.replicates)
            extra = {"argmax_x": float(xs_eval[best])}
        else:
            col = raw[:, j]
            level = float(col.mean())
            se_level = float(col.std(ddof=1)) / math.sqrt(config.replicates)
            extra = {}
        error = level ** (1.0 / p)
        # delta method for the p-th root of the estimated moment
        mc_stderr = se_level / p * level ** (1.0 / p - 1.0) if level > 0.0 else 0.0
        errors.append(error)
        rows.append({"n": n, "h": h_list[j], "error": error, "mc_stderr": mc_stderr, **extra})

    slope = fit_loglog_slope(np.asarray(n_list, dtype=float), np.asarray(errors))
    prediction = -(1.0 - config.schedule.delta) / 2.0
    verdict = "pass" if abs(slope["slope"] - prediction) <= RATE_SLOPE_TOL else "fail"
    notes = [
        "deviations are measured against exact quadrature expectations",
        "replicate paths are shared across sample sizes (nested prefixes)",
    ]
    if not sup_kind:
        half = max(abs(config.grid.lo), abs(config.grid.hi)) / model.marginal_sd
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
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        rows=rows,
        summary=summary,
        slope=_report_fit(slope),
        theorem_prediction=prediction,
        verdict=verdict,
        notes=notes,
    )


def uniform_verdict(n_list, ratios) -> tuple[dict, str]:
    """Summary fields and verdict for the almost-sure uniform bound.

    ratios[r, j] is path r's grid sup-deviation over the rate at n_list[j].
    The theorem promises an almost-sure O-bound: each path's ratio stays
    bounded, with no trend in n. Boundedness is read per path: a path is
    bounded when its largest ratio is at most 3 times its median ratio, and
    at least 95 percent of paths must be bounded. The trend is read on the
    run: the mean of the per-path log-log slopes must lie within 0.05 of
    flat. A single path's slope carries Monte Carlo noise comparable to that
    tolerance, so asking every path to be flat would fail a correct rate by
    chance; the mean has standard error SD/sqrt(paths) instead.
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
    stderr = float(slopes.std(ddof=1)) / math.sqrt(count) if count > 1 else math.nan
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


def run_uniform_as_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Boundedness check of sup-deviation over the rate sqrt(|log h|/(n h)).

    Each replicate is one path followed along every n in n_list (nested
    prefixes, as an almost-sure statement is about one path). The verdict
    (uniform_verdict) passes when at least 95 percent of paths keep their
    largest ratio within 3 times their median ratio and the mean per-path
    slope of log ratio against log n stays within 0.05 of flat.
    """
    if config.kind != "uniform_as":
        raise ValueError(f"run_uniform_as_experiment cannot run kind {config.kind!r}")
    _require_n_count(config, 3)
    gates = enforce_gates(config)
    model, kernel = config.model, config.kernel
    n_list = config.n_list
    h_list = [bandwidth_at(config.schedule, n) for n in n_list]
    pts = config.grid.points
    centers = [expected_density_curve(model, kernel, h, config.grid).values for h in h_list]
    # |log h| under the clamped-log convention: never below 1
    rates = [
        math.sqrt(max(abs(math.log(h)), 1.0) / (n * h)) for n, h in zip(n_list, h_list)
    ]

    sups = np.empty((config.replicates, len(n_list)))
    max_n = n_list[-1]

    def worker(r: int) -> None:
        values = generate_path(model, max_n, derive_seed(config.base_seed, r)).values
        for j, n in enumerate(n_list):
            xs = np.sort(values[:n])
            fn = _kernel_window_sums(xs, kernel, h_list[j], pts) / (n * h_list[j])
            sups[r, j] = np.max(np.abs(fn - centers[j]))

    _run_replicates(config.replicates, threads, worker)

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
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        rows=rows,
        summary=summary,
        slope=_report_fit(primary_fit),
        theorem_prediction=0.0,
        verdict=verdict,
        notes=notes,
    )


def run_bias_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Deterministic scan of the smoothing bias against its first-order bound.

    For every (n, x) pair the exact bias E f_n(x) - f(x) is computed by
    quadrature and checked against h * sup|f'| * integral|u K(u)|du. The
    verdict additionally requires the fitted slope of log|bias| against
    log h to be at least 0.9 at every evaluation point (second-order kernels
    give about 2).
    """
    if config.kind != "bias":
        raise ValueError(f"run_bias_experiment cannot run kind {config.kind!r}")
    del threads  # the scan is quadrature only; nothing to parallelize
    _require_n_count(config, 3)
    xs_eval = _require_eval_points(config)
    gates = enforce_gates(config)
    model, kernel = config.model, config.kernel
    n_list = config.n_list
    h_list = [bandwidth_at(config.schedule, n) for n in n_list]
    bound_coef = marginal_density_derivative_sup(model) * abs_first_moment(kernel)

    rows = []
    abs_bias = np.empty((len(n_list), xs_eval.size))
    within = True
    for j, n in enumerate(n_list):
        h = h_list[j]
        bound = h * bound_coef
        for i, x in enumerate(xs_eval):
            b = bias(model, kernel, h, float(x))
            abs_bias[j, i] = abs(b)
            ok = abs(b) <= bound
            within = within and ok
            rows.append(
                {
                    "n": n,
                    "h": h,
                    "x": float(x),
                    "bias": b,
                    "abs_bias": abs(b),
                    "bound": bound,
                    "within_bound": bool(ok),
                }
            )

    h_arr = np.asarray(h_list)
    slopes = []
    for i, x in enumerate(xs_eval):
        fit = fit_loglog_slope(h_arr, abs_bias[:, i])
        slopes.append({"x": float(x), "slope": fit["slope"]})
    min_slope = min(s["slope"] for s in slopes)
    # report the fit at the first eval point as the headline slope
    headline = fit_loglog_slope(h_arr, abs_bias[:, 0])
    verdict = "pass" if (within and min_slope >= BIAS_SLOPE_MIN) else "fail"
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
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        rows=rows,
        summary=summary,
        slope=_report_fit(headline),
        theorem_prediction=1.0,
        verdict=verdict,
        notes=notes,
    )


def run_moment_bound_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Block-moment diagnostic across dyadic levels.

    n_list is reinterpreted as the list of dyadic levels k; each level gets
    its own seed stream derived from base_seed. The verdict passes when all
    ratios are finite and either vanish identically (iid) or keep their
    spread max/min within 50.
    """
    if config.kind != "moment_bound":
        raise ValueError(f"run_moment_bound_experiment cannot run kind {config.kind!r}")
    del threads  # level workloads are tiny; keep the sweep sequential
    gates = enforce_gates(config)
    p = int(config.p)
    rows = []
    ratios = []
    for k in config.n_list:
        res = moment_bound_check(
            config.model,
            p,
            int(k),
            config.block_alpha,
            config.block_beta,
            config.replicates,
            derive_seed(config.base_seed, int(k)),
        )
        ratios.append(res["ratio"])
        rows.append(res)

    finite = all(math.isfinite(r) for r in ratios)
    positive = [r for r in ratios if r > 0.0]
    if not finite:
        verdict = "fail"
        spread = math.inf
    elif not positive:
        # iid models: both sides vanish at every level
        verdict = "pass"
        spread = 0.0
    elif len(positive) == len(ratios):
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
    return ExperimentReport(
        kind=config.kind,
        config=config_to_dict(config),
        gates=[g.as_dict() for g in gates],
        rows=rows,
        summary=summary,
        slope=None,
        theorem_prediction=None,
        verdict=verdict,
        notes=notes,
    )


_RUNNERS = {
    "clt_density": run_clt_experiment,
    "clt_cdf_centered": run_clt_experiment,
    "clt_cdf_true": run_clt_experiment,
    "rate_sup_lp": run_rate_experiment,
    "rate_integral_lp": run_rate_experiment,
    "uniform_as": run_uniform_as_experiment,
    "bias": run_bias_experiment,
    "moment_bound": run_moment_bound_experiment,
}


def run_experiment(config: ExperimentConfig, threads: int | None = 1) -> ExperimentReport:
    """Dispatch to the runner for config.kind."""
    return _RUNNERS[config.kind](config, threads=threads)
