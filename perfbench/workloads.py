"""The benchmark's three workloads: inputs from a seed, one round of calls, checks.

A round is a fixed list of operations. Each operation is one call into
mixkde, timed by a Clock, followed by a check against the computations in
reference.py or against a property the method itself guarantees. The check
runs outside the timed region. An operation whose call raises or whose
check fails is a failed operation; `known_fault` marks the one operation
that fails on every run because of a documented fault in the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

ACCEPTANCE_SEED = 20260814
KS_VERDICT = 0.05
# A correct statistic exceeds this KS distance at 2000 replicates with
# probability below 1e-7 per point (Kolmogorov limit law, even with the
# finite-n inflation measured at n = 10^4), so this check does not depend on
# the seed; a mis-standardized statistic reads near 0.11.
KS_GROSS = 0.08
RATE_SLOPE_TOL = 0.1
MOMENT_SPREAD_LIMIT = 50.0
# Criterion 6's rule: a path is bounded when its largest ratio is at most 3
# times its median ratio; 95% of paths bounded and a mean slope within 0.05.
UNIFORM_RATIO_FACTOR = 3.0
UNIFORM_PASS_FRACTION = 0.95
UNIFORM_SLOPE_TOL = 0.05
# Absolute tolerances. Window sums in exact arithmetic differ from an fsum
# only by rounding of O(window * eps); the oracles target 1e-10 by quadrature.
SUM_TOL = 1e-9
ORACLE_TOL = 1e-10
LRV_TOL = 1e-12
STAT_TOL = 1e-7
BUNDLE_FILES = ("report.json", "per_n.csv", "plotdata.csv", "manifest.json")


@dataclass
class Op:
    name: str
    ok: bool
    known_fault: bool
    detail: str


class Calibrator:
    """Times a fixed block of work like mixkde's, to follow the host's speed.

    On a shared machine the same code runs up to 30% slower from one minute
    to the next, and interpreter-bound and array-bound code slow down by
    different amounts. A round's seconds are therefore scaled to a reference
    speed, seconds * REFERENCE / (median calibration seconds of the round),
    wall by the blocks' wall seconds and CPU by their CPU seconds, with a
    block of the workload's own character, split over the threads its calls
    run on: "arrays" sorts, prefix-sums, searches and exponentiates a
    2^17-value array; "interpreter" runs a scalar float loop, as quadrature
    callbacks do; "mixed" runs half of each, for interpreter start-up and
    imports. None calls mixkde, so a change to the program cannot move them.
    """

    REFERENCE = 0.05  # seconds of one block at the reference speed

    def __init__(self, kind: str, threads: int = 1):
        self.kind = kind
        self.threads = threads
        self.values = np.random.default_rng(0).normal(size=2**17)
        self.grid = np.linspace(-3.0, 3.0, 1601)
        self.measure()

    def measure(self) -> tuple[float, float]:
        """Wall and process CPU seconds for one block, split over the workload's threads."""
        start, cpu = time.perf_counter(), time.process_time()
        if self.threads == 1:
            self._work(1.0)
        else:
            workers = [threading.Thread(target=self._work, args=(1.0 / self.threads,))
                       for _ in range(self.threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return time.perf_counter() - start, time.process_time() - cpu

    def _work(self, share: float) -> None:
        if self.kind == "mixed":
            share *= 0.5
        if self.kind != "interpreter":
            for _ in range(round(20 * share)):
                xs = np.sort(self.values)
                np.cumsum(xs)
                np.searchsorted(xs, self.grid)
                np.exp(-0.5 * xs * xs).sum()
        if self.kind != "arrays":
            total = 0.0
            for i in range(round(350_000 * share)):
                total += math.exp(-0.5 * (i * 1e-4) ** 2)


class Clock:
    """Wall and process CPU seconds spent inside calls into mixkde.

    `wall` and `cpu` are as measured. A calibration block runs, outside the
    timed region, when the clock starts and after every stretch of at least
    SEGMENT seconds of calls; `scaled_wall` and `scaled_cpu` scale the
    round's seconds by the median of its blocks. On the shared machine this
    was written on, that median followed the host's speed more steadily than
    scaling each stretch by the two blocks around it, and a block's CPU
    seconds followed CPU time better than its wall seconds, which include
    waiting for a CPU.
    """

    SEGMENT = 0.5

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.wall = self.cpu = 0.0
        self._stretch = 0.0
        self.blocks = [calibrator.measure()]

    @property
    def scaled_wall(self) -> float:
        return self.wall * Calibrator.REFERENCE / statistics.median(b[0] for b in self.blocks)

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * Calibrator.REFERENCE / statistics.median(b[1] for b in self.blocks)

    def call(self, fn, *args, **kwargs):
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.cpu += time.process_time() - c0
            elapsed = time.perf_counter() - w0
            self.wall += elapsed
            self._stretch += elapsed
            if self._stretch >= self.SEGMENT:
                self.close()

    def close(self) -> None:
        """End the current stretch with a calibration block."""
        if self._stretch:
            self.blocks.append(self.calibrator.measure())
            self._stretch = 0.0


def _cfg(**entries) -> dict[str, str]:
    return {key.replace("__", "."): str(value) for key, value in entries.items()}


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _dyadic(lo: int, hi: int) -> str:
    return ", ".join(str(2**j) for j in range(lo, hi + 1))


class Workload:
    """Shared machinery: config files, CLI calls, bundle checks, op records."""

    name = ""
    calibration = "arrays"
    calibration_threads = 1  # the thread count the workload's calls run at

    def __init__(self, mk, seed: int, workdir: Path):
        self.mk = mk
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed % 2**64)
        self.reference_bytes: dict[str, bytes] = {}
        self.configs: dict[str, Path] = {}
        self.calibrator = Calibrator(self.calibration, self.calibration_threads)
        self.ops: list[Op] = []

    def run_round(self) -> tuple[list[Op], Clock]:
        self.ops, self.clock = [], Clock(self.calibrator)
        self.round()
        self.clock.close()
        return self.ops, self.clock

    def round(self) -> None:
        raise NotImplementedError

    def attempt(self, name: str, call, check, known_fault: bool = False):
        """Time call(), then check its result; a raise or a mismatch fails the op."""
        result = None
        try:
            result = self.clock.call(call)
            detail = check(result)
        except Exception as exc:  # one failed operation; the round goes on
            detail = f"{type(exc).__name__}: {exc}"
        self.ops.append(Op(name, detail is None, known_fault, detail or ""))
        return result

    def write_config(self, label: str, table: dict[str, str]) -> None:
        path = self.workdir / f"{label}.cfg"
        table = {**table, "run.base_seed": str(self.seed)}
        path.write_text("".join(f"{k} = {v}\n" for k, v in table.items()), encoding="utf-8")
        self.configs[label] = path

    def cli(self, *argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mk.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def run_config(self, label: str, verdict_check, threads: int | None = None,
                   key: str | None = None, same_as: str | None = None):
        """`mixkde run` on a config; checks the bundle, its bytes and the verdict.

        report.json must equal, byte for byte, the first report of `same_as`
        (by default of this same run) in this benchmark run.
        """
        key = key or label
        out = self.workdir / key
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", str(self.configs[label]), "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]

        def check(result):
            code, _, err = result
            manifest_path = out / "manifest.json"
            if not manifest_path.exists():
                return f"exit {code}, no manifest: {err.strip()}"
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            missing = [f for f in BUNDLE_FILES if f not in manifest["files"] or not (out / f).exists()]
            if missing:
                return f"bundle lacks {missing}"
            data = (out / "report.json").read_bytes()
            first = self.reference_bytes.setdefault(same_as or key, data)
            if data != first:
                return f"report.json differs from the first report of {same_as or key}"
            return verdict_check(code, json.loads(data))

        return self.attempt(f"run {key}", lambda: self.cli(*argv), check)

    def validate_all(self, labels) -> None:
        for label in labels:
            def check(result):
                code, stdout, _ = result
                lines = stdout.splitlines()
                bad = [line for line in lines if not line.startswith("PASS ")]
                if code != 0 or not lines or bad:
                    return f"exit {code}: {bad or 'no gate lines'}"
                return None

            self.attempt(f"validate {label}", lambda: self.cli("validate", str(self.configs[label])), check)


def _verdict_pass(code: int, report: dict):
    if code != 0 or report["verdict"] != "pass":
        return f"exit {code}, verdict {report['verdict']}"
    return None


def mc_tables(quick: bool) -> dict[str, dict[str, str]]:
    """Acceptance criteria 1, 2 (both kinds), 3 (AR(1), p = 2) and 9 (p = 4)."""
    n, reps = (1000, 2000) if quick else (10_000, 2000)
    clt = _cfg(model__family="ar1", model__phi=0.5, run__n_list=n, run__replicates=reps)
    return {
        "clt_density": {**clt, **_cfg(experiment__kind="clt_density", kernel__family="gaussian",
                                     bandwidth__delta=0.2, run__eval_points="-1.0, 0.0, 1.0")},
        # the two CDF kinds draw the same paths: same model, n and seed
        "clt_cdf_centered": {**clt, **_cfg(experiment__kind="clt_cdf_centered",
                                          kernel__family="epanechnikov", bandwidth__delta=0.2,
                                          run__eval_points=0.5)},
        "clt_cdf_true": {**clt, **_cfg(experiment__kind="clt_cdf_true", kernel__family="epanechnikov",
                                      bandwidth__delta=0.6, run__eval_points=0.5)},
        "rate_sup_lp": _cfg(experiment__kind="rate_sup_lp", model__family="ar1", model__phi=0.5,
                            kernel__family="epanechnikov", bandwidth__delta=0.2,
                            run__n_list=_dyadic(8, 12) if quick else _dyadic(10, 17),
                            run__replicates=100 if quick else 500,
                            run__eval_points="-1.0, 0.0, 1.0", run__p=2),
        "moment_bound": _cfg(experiment__kind="moment_bound", model__family="ar1", model__phi=0.25,
                             kernel__family="gaussian", bandwidth__delta=0.2,
                             run__n_list="6, 7, 8" if quick else "6, 7, 8, 9, 10, 11, 12",
                             run__replicates=200 if quick else 1000, run__p=4),
        # small enough to run at two thread counts per round; only its bytes are compared
        "threads_small": _cfg(experiment__kind="clt_density", model__family="ar1", model__phi=0.5,
                              kernel__family="gaussian", bandwidth__delta=0.2, run__n_list=512,
                              run__replicates=150, run__eval_points="-1.0, 0.0, 1.0"),
    }


def uniform_table(quick: bool) -> dict[str, str]:
    """Acceptance criterion 6: the whole-line grid at spacing 0.005."""
    half = 8.0 / math.sqrt(1.0 - 0.2**2)
    if quick:
        n_list, grid_m, reps = _dyadic(10, 13), 401, 4
    else:
        n_list, grid_m, reps = _dyadic(12, 20), int(math.ceil(2.0 * half / 0.005)) + 1, 20
    return _cfg(
        experiment__kind="uniform_as", model__family="ar1", model__phi=0.2,
        kernel__family="epanechnikov", bandwidth__delta=0.3, run__n_list=n_list,
        run__replicates=reps, grid__lo=repr(-half), grid__hi=repr(half), grid__m=grid_m,
    )


def bias_table(quick: bool) -> dict[str, str]:
    """Acceptance criterion 7: 20 sizes by 20 points of exact quadrature."""
    return _cfg(
        experiment__kind="bias", model__family="iid", kernel__family="gaussian",
        bandwidth__delta=0.2, run__n_list=_dyadic(5, 10 if quick else 24), run__replicates=1,
        run__eval_points=_floats(np.linspace(-2.0, 2.0, 5 if quick else 20)),
    )


class McPointwise(Workload):
    """Acceptance-scale Monte Carlo at no more than 3 points, default threads."""

    name = "mc_pointwise"
    calibration_threads = os.cpu_count() or 1  # the CLI default

    def __init__(self, mk, seed, quick, workdir):
        super().__init__(mk, seed, workdir)
        self.tables = mc_tables(quick)
        for label, table in self.tables.items():
            self.write_config(label, table)

    def _check(self, label: str):
        table = self.tables[label]
        kind = table["experiment.kind"]
        delta = float(table["bandwidth.delta"])

        def check(code, report):
            rows = report["rows"]
            if kind.startswith("clt"):
                # the 0.05 verdict fails by chance on about 1% of seeds for
                # three points, so it is checked for following from its rows
                passed = max(r["ks"] for r in rows) < KS_VERDICT
                if (report["verdict"] == "pass") != passed or code != (0 if passed else 3):
                    return f"verdict {report['verdict']} with exit {code} does not follow from its rows"
                points = [float(x) for x in table["run.eval_points"].split(",")]
                n = int(table["run.n_list"])
                h = n ** -delta
                if [r["x"] for r in rows] != points:
                    return "rows do not follow the evaluation points"
                if any(abs(r["h"] - h) > 1e-12 * h or r["ks"] > KS_GROSS for r in rows):
                    return f"bandwidth or KS out of bounds: {[(r['h'], r['ks']) for r in rows]}"
                return None
            problem = _verdict_pass(code, report)
            if problem:
                return problem
            if kind == "rate_sup_lp":
                slope = np.polyfit(np.log([r["n"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0]
                if abs(slope - report["slope"]["slope"]) > 1e-9:
                    return f"refit slope {slope} differs from the reported {report['slope']['slope']}"
                if abs(slope + (1.0 - delta) / 2.0) > RATE_SLOPE_TOL:
                    return f"slope {slope} is not within {RATE_SLOPE_TOL} of {-(1 - delta) / 2}"
            else:
                ratios = [r["ratio"] for r in rows]
                if not all(math.isfinite(r) and r > 0.0 for r in ratios):
                    return f"ratios not finite and positive: {ratios}"
                if max(ratios) / min(ratios) > MOMENT_SPREAD_LIMIT:
                    return f"ratio spread {max(ratios) / min(ratios)} above {MOMENT_SPREAD_LIMIT}"
            return None

        return check

    def round(self):
        for label in ("clt_density", "clt_cdf_centered", "clt_cdf_true", "rate_sup_lp", "moment_bound"):
            self.run_config(label, self._check(label))

        def any_exit(code, report):
            return None if code in (0, 3) else f"exit {code}"

        self.run_config("threads_small", any_exit, threads=1)
        self.run_config("threads_small", any_exit, key="threads_small_default", same_as="threads_small")


class GridCurves(Workload):
    """Whole-grid density and CDF curves at n = 2^17, single-threaded."""

    name = "grid_curves"
    FAMILIES = ("gaussian", "epanechnikov", "triangular", "uniform")

    def __init__(self, mk, seed, quick, workdir):
        super().__init__(mk, seed, workdir)
        P = mk.processes
        self.n = 2**12 if quick else 2**17
        self.h = self.n ** -0.2
        self.models = {
            "ar1": P.ProcessModel(family="ar1", phi=0.5),
            "ma": P.ProcessModel(family="ma", weights=(1.0, 0.6, -0.3)),
        }
        seeds = self.rng.integers(0, 2**63, len(self.models))
        self.path_seeds = {label: int(s) for label, s in zip(self.models, seeds)}
        self.small_seed = int(self.rng.integers(0, 2**63))
        self.sample = np.sort(self.rng.choice(1601, size=32, replace=False))
        self.small_n = 2**16 if quick else 2**20
        self.small_h = self.small_n ** -0.9
        self.uniform = uniform_table(quick)
        self.uniform_sample = self.rng.choice(int(self.uniform["grid.m"]), size=32, replace=False)
        # taken before a traced round wraps it, so rebuilding path 0 in a
        # check adds no span
        self.generate_path = mk.processes.generate_path
        self.write_config("uniform_as", self.uniform)

    def _density_check(self, xs, family, h, pts, indices):
        n = xs.size

        def check(curve):
            worst = 0.0
            for i in indices:
                want = ref.density_sum(xs, family, h, float(pts[i])) / (n * h)
                worst = max(worst, abs(float(curve.values[i]) - want))
            return None if worst <= SUM_TOL else f"largest error against fsum {worst:.3g}"

        return check

    def _cdf_check(self, xs, family, h, pts, density):
        n = xs.size
        spacing = pts[1] - pts[0]

        def check(curve):
            v = curve.values
            if not (np.all(v >= 0.0) and np.all(v <= 1.0) and np.all(np.diff(v) >= -1e-12)):
                return "curve leaves [0, 1] or decreases"
            worst = max(
                abs(float(v[i]) - min(1.0, ref.cdf_sum(xs, family, h, float(pts[i])) / n))
                for i in self.sample
            )
            if worst > SUM_TOL:
                return f"largest error against fsum {worst:.3g}"
            running = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * spacing)))
            gap = float(np.max(np.abs(running - v)))
            tol = 2.0 * spacing * float(np.max(density))
            return None if gap <= tol else f"trapezoid gap {gap:.3g} above {tol:.3g}"

        return check

    def _path(self, label, model, n, seed):
        def check(path):
            ok = len(path) == n and bool(np.all(np.isfinite(path.values)))
            return None if ok else "path has the wrong length or non-finite values"

        return self.attempt(f"path {label}", lambda: self.mk.processes.generate_path(model, n, seed), check)

    def round(self):
        E, K = self.mk.estimator, self.mk.kernels
        for label, model in self.models.items():
            path = self._path(label, model, self.n, self.path_seeds[label])
            xs = np.sort(path.values)
            sd = model.marginal_sd
            grid = E.Grid(-8.0 * sd, 8.0 * sd, 1601)
            pts = grid.points
            for family in self.FAMILIES:
                kernel = K.kernel_from_name(family)
                direct = self.attempt(
                    f"density {label} {family}",
                    lambda: E.density_estimate(path, kernel, self.h, grid),
                    self._density_check(xs, family, self.h, pts, self.sample),
                )
                if kernel.lipschitz_const is not None:
                    bound = E.binned_accuracy_bound(kernel, self.h, grid.spacing)

                    def binned_check(curve, direct=direct, bound=bound):
                        gap = float(np.max(np.abs(curve.values - direct.values)))
                        return None if gap <= bound else f"binned gap {gap:.3g} above {bound:.3g}"

                    self.attempt(
                        f"binned {label} {family}",
                        lambda: E.density_estimate(path, kernel, self.h, grid, strategy="binned"),
                        binned_check,
                    )
                self.attempt(
                    f"cdf {label} {family}",
                    lambda: E.cdf_estimate(path, kernel, self.h, grid),
                    self._cdf_check(xs, family, self.h, pts, direct.values),
                )

        self.run_config("uniform_as", self._uniform_check, threads=1)

        iid = self.mk.processes.ProcessModel(family="iid")
        path = self._path("iid small-h", iid, self.small_n, self.small_seed)
        xs = np.sort(path.values)
        grid = E.Grid(-2.0, 2.0, 1601)
        # Fails today: prefix-sum cancellation in the Epanechnikov window sums
        # at h = n^-0.9 (estimator._kernel_window_sums).
        self.attempt(
            "density iid epanechnikov small-h",
            lambda: E.density_estimate(path, K.EPANECHNIKOV, self.small_h, grid),
            self._density_check(xs, "epanechnikov", self.small_h, grid.points, range(grid.m)),
            known_fault=True,
        )

    def _uniform_check(self, code, report):
        """Path 0's figures against fsum window sums, and the verdict by its rule.

        Path 0 is drawn again from its seed. At the smallest n its grid
        sup-deviation from E f_n is recomputed at every grid point; at every
        larger n the deviation at seeded grid points must not exceed the
        reported sup. The verdict is read with the benchmark's own constants.
        """
        table = self.uniform
        n_list = [int(v) for v in table["run.n_list"].split(",")]
        delta = float(table["bandwidth.delta"])
        s = 1.0 / math.sqrt(1.0 - float(table["model.phi"]) ** 2)
        pts = np.linspace(float(table["grid.lo"]), float(table["grid.hi"]), int(table["grid.m"]))
        rows, paths = report["rows"], report["summary"]["paths"]
        figures = [r[k] for r in rows for k in ("sup_deviation", "ratio")]
        figures += [p[k] for p in paths for k in ("max_ratio", "median_ratio")]
        if not all(math.isfinite(v) and v > 0.0 for v in figures):
            return "a deviation or ratio is not finite and positive"
        if [r["n"] for r in rows] != n_list or len(paths) != int(table["run.replicates"]):
            return "rows or paths do not follow the config"

        values = self.generate_path(self.mk.processes.ProcessModel(family="ar1", phi=float(table["model.phi"])),
                                    n_list[-1], self.mk.util.derive_seed(self.seed, 0)).values
        ratios = []
        for j, (row, n) in enumerate(zip(rows, n_list)):
            h = n ** -delta
            rate = math.sqrt(max(abs(math.log(h)), 1.0) / (n * h))
            sup = row["sup_deviation"]
            if abs(row["h"] - h) > 1e-12 * h or abs(row["rate"] - rate) > 1e-12 * rate:
                return f"n={n}: bandwidth or rate differs from n^-{delta}"
            if abs(row["ratio"] - sup / rate) > 1e-12 * row["ratio"]:
                return f"n={n}: ratio {row['ratio']!r} is not sup / rate"
            xs = np.sort(values[:n])
            indices = range(pts.size) if j == 0 else self.uniform_sample
            centers = ref.expected_density("epanechnikov", s, h, pts[indices])
            worst = max(abs(ref.density_sum(xs, "epanechnikov", h, float(pts[i])) / (n * h) - float(c))
                        for i, c in zip(indices, centers))
            if j == 0 and abs(worst - sup) > SUM_TOL:
                return f"n={n}: grid sup-deviation {sup!r} != {worst!r} from fsum"
            if worst > sup + SUM_TOL:
                return f"n={n}: deviation {worst!r} at a grid point exceeds the reported sup {sup!r}"
            ratios.append(row["ratio"])

        slope = np.polyfit(np.log(n_list), np.log(ratios), 1)[0]
        first = paths[0]
        if (first["max_ratio"] != max(ratios) or first["median_ratio"] != statistics.median(ratios)
                or abs(first["slope"] - slope) > 1e-9):
            return f"path 0 summary {first} does not follow from its rows"
        bounded = sum(p["max_ratio"] <= UNIFORM_RATIO_FACTOR * p["median_ratio"] for p in paths)
        mean_slope = math.fsum(p["slope"] for p in paths) / len(paths)
        summary = report["summary"]
        if bounded != summary["paths_bounded"] or abs(mean_slope - summary["mean_slope"]) > 1e-12:
            return f"summary disagrees with its paths: {bounded} bounded, mean slope {mean_slope}"
        passed = (bounded >= math.ceil(UNIFORM_PASS_FRACTION * len(paths))
                  and abs(mean_slope) <= UNIFORM_SLOPE_TOL)
        if (report["verdict"] == "pass") != passed or code != (0 if passed else 3):
            return f"verdict {report['verdict']} with exit {code} does not follow from the paths"
        return None


class OracleScan(Workload):
    """Quadrature oracles and long-run variances, single-threaded, little sampling."""

    name = "oracle_scan"
    calibration = "interpreter"
    LRV_MODELS = (("ar1", 0.5), ("ar1", 0.9), ("ar1", 0.99), ("ma", (1.0, 0.6, -0.3)))

    def __init__(self, mk, seed, quick, workdir):
        super().__init__(mk, seed, workdir)
        P = mk.processes
        # the bias run, then `mixkde validate` on every config the benchmark runs
        self.write_config("bias", bias_table(quick))
        self.write_config("uniform_as", uniform_table(quick))
        for label, table in mc_tables(quick).items():
            self.write_config(label, table)

        models = self.LRV_MODELS[1:2] + self.LRV_MODELS[3:] if quick else self.LRV_MODELS
        xs = self.rng.uniform(0.2, 2.0, 1 if quick else 3)
        self.lrv_points = [0.0] + [float(s * x) for x in xs for s in (1.0, -1.0)]
        self.lrv_cases = []
        for family, param in models:
            if family == "ar1":
                model = P.ProcessModel(family="ar1", phi=param)
                rho = ref.ar1_correlations(param)
            else:
                model = P.ProcessModel(family="ma", weights=param)
                rho = ref.ma_correlations(param)
            self.lrv_cases.append((f"{family} {param}", model, rho))

        self.oracle_models = (P.ProcessModel(family="iid"), P.ProcessModel(family="ar1", phi=0.5))
        self.oracle_h = (0.05, 0.2, 0.5)
        self.oracle_x = self.rng.uniform(-2.5, 2.5, 1 if quick else 3)
        self.curve_grid = mk.estimator.Grid(-3.0, 3.0, 201)

        self.stat_model = P.ProcessModel(family="ar1", phi=0.95)
        self.stat_n = 2000
        self.stat_h = self.stat_n ** -0.2
        count = 4 if quick else 40
        self.stat_seeds = [int(s) for s in self.rng.integers(0, 2**63, count)]
        sd = self.stat_model.marginal_sd
        self.stat_x = [float(x) for x in self.rng.uniform(-sd, sd, count)]
        self.stat_lrv0 = ref.long_run_variance_at_zero(ref.ar1_correlations(0.95))

    def round(self):
        E, K = self.mk.estimator, self.mk.kernels
        self.run_config("bias", self._bias_check)
        self.validate_all(self.configs)

        for label, model, rho in self.lrv_cases:
            seen = {}
            for x in self.lrv_points:
                def check(value, x=x, model=model, rho=rho, seen=seen):
                    seen[x] = value
                    if x == 0.0:
                        want = ref.long_run_variance_at_zero(rho)
                        return None if abs(value - want) <= LRV_TOL else f"{value!r} != arcsine {want!r}"
                    if model.family == "ma":
                        want = ref.long_run_variance(rho, x / model.marginal_sd)
                        return None if abs(value - want) <= ORACLE_TOL else f"{value!r} != {want!r}"
                    f = ref.normal_cdf(x, model.marginal_sd)
                    if value < f * (1.0 - f):
                        return f"{value!r} below F(1-F) although every correlation is positive"
                    if -x in seen and abs(value - seen[-x]) > LRV_TOL:
                        return f"not even in x: {value!r} against {seen[-x]!r}"
                    return None

                self.attempt(f"lrv {label} x={x:.4g}",
                             lambda: self.mk.processes.indicator_long_run_variance(model, x), check)

        for family in GridCurves.FAMILIES:
            kernel = K.kernel_from_name(family)
            for h in self.oracle_h:
                for model in self.oracle_models:
                    s = model.marginal_sd
                    for x in self.oracle_x:
                        x = float(x)
                        want_f = float(ref.expected_density(family, s, h, x)[0])
                        want_c = ref.expected_cdf(family, s, h, x)
                        self.attempt(f"E f_n {family} h={h} x={x:.4g}",
                                     lambda: E.expected_density(model, kernel, h, x),
                                     lambda v, w=want_f: None if abs(v - w) <= ORACLE_TOL else f"{v!r} != {w!r}")
                        self.attempt(f"E F_n {family} h={h} x={x:.4g}",
                                     lambda: E.expected_cdf(model, kernel, h, x),
                                     lambda v, w=want_c: None if abs(v - w) <= ORACLE_TOL else f"{v!r} != {w!r}")
                    want = ref.expected_density(family, s, h, self.curve_grid.points)
                    self.attempt(f"E f_n curve {family} h={h}",
                                 lambda: E.expected_density_curve(model, kernel, h, self.curve_grid),
                                 lambda c, w=want: None if float(np.max(np.abs(c.values - w))) <= ORACLE_TOL
                                 else f"largest error {float(np.max(np.abs(c.values - w))):.3g}")

        self._statistic_loop()

    def _statistic_loop(self):
        """Per-path statistics, as a library user writes a replicate loop."""
        E, K = self.mk.estimator, self.mk.kernels
        model, n, h = self.stat_model, self.stat_n, self.stat_h
        s = model.marginal_sd
        for seed, x in zip(self.stat_seeds, self.stat_x):
            path = self.clock.call(self.mk.processes.generate_path, model, n, seed)
            xs = np.sort(path.values)
            fn = ref.density_sum(xs, "gaussian", h, x) / (n * h)
            sd_k = math.sqrt(float(ref.normal_pdf(x, s)) / (2.0 * math.sqrt(math.pi)))
            want = math.sqrt(n * h) * (fn - float(ref.normal_pdf(x, math.hypot(s, h)))) / sd_k
            self.attempt("clt_statistic", lambda: E.clt_statistic(path, K.GAUSSIAN, h, x),
                         lambda v, w=want: None if abs(v - w) <= STAT_TOL else f"{v!r} != {w!r}")
            fn0 = min(1.0, ref.cdf_sum(xs, "epanechnikov", h, 0.0) / n)
            center = ref.expected_cdf("epanechnikov", s, h, 0.0)
            want0 = math.sqrt(n) * (fn0 - center) / math.sqrt(self.stat_lrv0)
            self.attempt("cdf_clt_statistic", lambda: E.cdf_clt_statistic(path, K.EPANECHNIKOV, h, 0.0),
                         lambda v, w=want0: None if abs(v - w) <= STAT_TOL else f"{v!r} != {w!r}")

    def _bias_check(self, code, report):
        """Gaussian kernel on N(0,1): the bias is the N(0, 1+h^2) density minus f."""
        problem = _verdict_pass(code, report)
        if problem:
            return problem
        bound_coef = math.exp(-0.5) / ref.SQRT_2PI * math.sqrt(2.0 / math.pi)
        by_x: dict[float, list[tuple[float, float]]] = {}
        for row in report["rows"]:
            h, x = row["h"], row["x"]
            want = float(ref.normal_pdf(x, math.hypot(1.0, h)) - ref.normal_pdf(x, 1.0))
            if abs(row["bias"] - want) > ORACLE_TOL:
                return f"bias at h={h}, x={x}: {row['bias']!r} != {want!r}"
            if row["within_bound"] != (abs(want) <= h * bound_coef) or not row["within_bound"]:
                return f"first-order bound misread at h={h}, x={x}"
            by_x.setdefault(x, []).append((h, abs(want)))
        slopes = [np.polyfit(np.log([p[0] for p in v]), np.log([p[1] for p in v]), 1)[0] for v in by_x.values()]
        return None if min(slopes) >= 0.9 else f"bias slope {min(slopes)} below 0.9"


WORKLOADS = {cls.name: cls for cls in (McPointwise, GridCurves, OracleScan)}
