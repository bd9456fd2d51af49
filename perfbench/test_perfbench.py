"""The benchmark's own tests: `python3 -m pytest -q perfbench`.

Every workload runs once in quick mode (tiny sizes, every check), untraced
and traced, so a broken check or a missing metric shows in seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# operations per round that fail on every run, by workload
KNOWN_FAULTS = {"mc_pointwise": 0, "grid_curves": 1, "oracle_scan": 0}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_names_what_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run(workload, trace):
    done = _run("--workload", workload, "--quick", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    rounds = 1 + trace  # --seconds 0: one round, or one untraced and one traced
    per_round = result["attempted"] // rounds
    assert result["attempted"] == rounds * per_round > 0
    assert result["failed"] == rounds * KNOWN_FAULTS[workload]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_long_run_variance_references_agree_at_zero():
    for rho in (ref.ar1_correlations(0.5), ref.ma_correlations((1.0, 0.6, -0.3))):
        assert abs(ref.long_run_variance(rho, 0.0) - ref.long_run_variance_at_zero(rho)) < 1e-13


def test_window_sums_match_a_sum_over_all_data():
    xs = np.sort(np.random.default_rng(3).normal(size=500))
    for family in ("epanechnikov", "triangular", "uniform"):
        u = (xs - 0.3) / 0.4
        inside = np.abs(u) <= 1.0
        assert abs(ref.density_sum(xs, family, 0.4, 0.3) - math.fsum(ref.kernel(family, u[inside]))) < 1e-12
        below = int(np.sum(xs < 0.3 - 0.4))
        g = ref.kernel_cdf(family, -u[inside])
        assert abs(ref.cdf_sum(xs, family, 0.4, 0.3) - (below + math.fsum(g))) < 1e-12
