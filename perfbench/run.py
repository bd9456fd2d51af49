"""Run one benchmark workload on the mixkde sources of this checkout.

    python3 perfbench/run.py --workload grid_curves --seed 7 --seconds 20 --trace 0

It imports mixkde from `src/` next to this directory, builds the workload's
inputs from --seed, runs one untimed warm-up round, then repeats whole rounds
until --seconds have passed. Each round's operations are checked against
independent computations. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 rounds alternate between
untraced and traced, and the metrics are per layer (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
IMPORT_MODULES = ("numpy", "scipy.special", "scipy.integrate", "scipy.signal", "mixkde")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, key in the per-round layer figures of spans.layer_metrics)
PER_LAYER = (
    ("processes.generate_path.s", "s", "processes.generate_path.self"),
    ("processes.generate_path.calls", "count", "processes.generate_path.calls"),
    ("processes.generate_path.values", "count", "processes.generate_path.work"),
    ("processes.indicator_long_run_variance.s", "s", "processes.indicator_long_run_variance.self"),
    ("processes.indicator_long_run_variance.calls", "count", "processes.indicator_long_run_variance.calls"),
    ("estimator.kernel_window_sums.s", "s", "estimator.kernel_window_sums.self"),
    ("estimator.kernel_window_sums.points", "count", "estimator.kernel_window_sums.work"),
    ("estimator.cdf_window_sums.s", "s", "estimator.cdf_window_sums.self"),
    ("estimator.cdf_window_sums.points", "count", "estimator.cdf_window_sums.work"),
    ("estimator.density_estimate.s", "s", "estimator.density_estimate.self"),
    ("estimator.cdf_estimate.s", "s", "estimator.cdf_estimate.self"),
    ("estimator.oracle.s", "s", "estimator.oracle.self"),
    ("estimator.oracle.calls", "count", "estimator.oracle.calls"),
    ("estimator.statistic.s", "s", "estimator.statistic.self"),
    ("estimator.statistic.calls", "count", "estimator.statistic.calls"),
    ("blocking.moment_bound_check.s", "s", "blocking.moment_bound_check.self"),
    ("blocking.moment_bound_check.calls", "count", "blocking.moment_bound_check.calls"),
    ("experiments.runner.self_s", "s", "experiments.runner.self"),
    ("experiments.replicates.s", "s", "experiments.replicates.wall"),
    ("experiments.replicates.busy_share", "share", None),
    ("experiments.replicate.self_s", "s", "experiments.replicate.self"),
    ("experiments.gates.s", "s", "experiments.gates.self"),
    ("experiments.verdict.s", "s", "experiments.verdict.self"),
    ("cli.parse.s", "s", "cli.parse.self"),
    ("cli.write.s", "s", "cli.write.self"),
    ("util.dumps_json.s", "s", "util.dumps_json.self"),
    ("util.dumps_json.bytes", "count", "util.dumps_json.work"),
    *((f"setup.import.{m}.s", "s", None) for m in IMPORT_MODULES),
    ("setup.import.total.s", "s", None),
    ("trace.overhead_s", "s", None),
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(runs: int) -> float:
    """Median seconds from starting a fresh interpreter until mixkde.cli is imported.

    The median is scaled to the reference host speed by the median wall time
    of "mixed" calibration blocks run before the first start and after each
    one, as the workloads' rounds are; the raw median goes to stderr.
    """
    from workloads import Calibrator

    code = "import time, mixkde.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    calibrator = Calibrator("mixed")
    blocks = [calibrator.measure()[0]]
    raw = []
    for _ in range(runs):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        raw.append(float(done.stdout.split()[-1]) - start)
        blocks.append(calibrator.measure()[0])
    print(f"as measured: setup_s {statistics.median(raw):.4f}", file=sys.stderr)
    return statistics.median(raw) * Calibrator.REFERENCE / statistics.median(blocks)


def measure_imports(runs: int) -> dict[str, float]:
    """Import seconds per package from `-X importtime`, median over fresh interpreters.

    A package's figure is the self time of its own modules (the package and
    its submodules); setup.import.total.s is the cumulative time of mixkde.cli.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mixkde.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        own = dict.fromkeys(IMPORT_MODULES, 0)
        total = 0
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            for module in IMPORT_MODULES:
                if name == module or name.startswith(module + "."):
                    own[module] += self_us
            if name == "mixkde.cli":
                total = cumulative_us
        for module, us in own.items():
            samples.setdefault(f"setup.import.{module}.s", []).append(us * 1e-6)
        samples.setdefault("setup.import.total.s", []).append(total * 1e-6)
    return {key: statistics.median(values) for key, values in samples.items()}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_layers(rounds: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rounds)
    return {key: statistics.median(r.get(key, 0.0) for r in rounds) for key in keys}


def run_workload(args, mk, modules, workdir: Path):
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](mk, args.seed, args.quick, workdir)
    if args.trace:
        imports = measure_imports(1 if args.quick else IMPORTTIME_RUNS)
    else:
        setup_s = measure_setup(1 if args.quick else SETUP_RUNS)

    warm_ops, _ = workload.run_round()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracer.install(modules)
            try:
                ops, clock = workload.run_round()
            finally:
                tracer.uninstall()
            traced.append((ops, clock, layer_metrics(tracer.take())))
        else:
            plain.append(workload.run_round())
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break

    rounds = [r[:2] for r in plain + traced]
    measured = [op for ops, _ in rounds for op in ops]
    unexpected = [op for op in warm_ops + measured if not op.ok and not op.known_fault]
    reported = set()
    for op in warm_ops + measured:
        if not op.ok and op.name not in reported:
            reported.add(op.name)
            tag = "known fault" if op.known_fault else "FAILED"
            print(f"{tag}: {op.name}: {op.detail}", file=sys.stderr)

    if args.trace:
        layers = _median_layers([r[2] for r in traced])
        capacity = layers.get("experiments.replicates.capacity", 0.0)
        busy = layers.get("experiments.replicate.busy", 0.0)
        extra = {
            **imports,
            "experiments.replicates.busy_share": busy / capacity if capacity else 0.0,
            "trace.overhead_s": statistics.median(c.scaled_wall for _, c, _ in traced)
            - statistics.median(c.scaled_wall for _, c in plain),
        }
        metrics = {
            name: _metric(extra[name] if key is None else layers.get(key, 0.0), unit)
            for name, unit, key in PER_LAYER
        }
    else:
        values = {
            "wall_s": statistics.median(c.scaled_wall for _, c in plain),
            "cpu_s": statistics.median(c.scaled_cpu for _, c in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        print(f"as measured: wall_s {statistics.median(c.wall for _, c in plain):.4f}, "
              f"cpu_s {statistics.median(c.cpu for _, c in plain):.4f}",
              file=sys.stderr)
    walls = ", ".join(f"{c.wall:.3f}/{c.scaled_wall:.3f}" for _, c in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(warm_ops)} operations; "
          f"wall s per round, as measured/scaled: {walls}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(measured),
        "failed": sum(not op.ok for op in measured),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_pointwise", "grid_curves", "oracle_scan"))
    parser.add_argument("--seed", type=int, default=20260814, help="input seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "mixkde" / "__init__.py").is_file():
        print(f"error: no mixkde sources at {SRC}", file=sys.stderr)
        return 2
    # The workloads set their own thread counts; keep BLAS and mixkde defaults out of it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MIXKDE_THREADS", None)
    sys.path.insert(0, str(SRC))

    import mixkde.blocking
    import mixkde.cli
    import mixkde.estimator
    import mixkde.experiments
    import mixkde.kernels
    import mixkde.processes
    import mixkde.util

    if Path(mixkde.__file__).resolve().parent != SRC / "mixkde":
        print(f"error: imported mixkde from {mixkde.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    modules = {
        "blocking": mixkde.blocking, "cli": mixkde.cli, "estimator": mixkde.estimator,
        "experiments": mixkde.experiments, "kernels": mixkde.kernels,
        "processes": mixkde.processes, "util": mixkde.util,
    }
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args, SimpleNamespace(**modules), modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
