"""tools/report_hashes.py: a smoke test on two configs, and the pinned digests of all."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import mixkde
from mixkde import experiments, kernels
from mixkde.cli import main
from mixkde.processes import versions

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
LABELS = ("clt_density-ar1-gaussian-0.3", "uniform_as-iid-gaussian-0.3")
# one config of each kind whose numbers went through BLAS: the oracle's node sums, the fit's residual sum of
# squares, the moment bound's two products, a moving average's lag sums and the Plackett integrals
BLAS_LABELS = ("clt_density-ma-triangular-0.8", "clt_cdf_centered-ma-epanechnikov-0.3",
               "rate_integral_lp-ma-uniform-0.8", "bias-ma-triangular-0.8", "moment_bound-ar1-gaussian-0.3")


def _tool(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300, env=env)


def test_report_hashes_runs_two_configs(tmp_path):
    src = str(Path(mixkde.__file__).resolve().parent.parent)
    proc = _tool("--src", src, "--numbers", "--only", *LABELS)
    assert proc.returncode == 0, proc.stderr
    hashes = json.loads(proc.stdout)
    assert sorted(hashes) == sorted(LABELS)
    gaussian, gated = (hashes[label] for label in LABELS)
    assert (gaussian["validate_exit"], gaussian["run_exit"]) in {(0, 0), (0, 3)}
    assert sorted(gaussian["files"]) == ["per_n.csv", "plotdata.csv", "report.json"]
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for sha in gaussian["files"].values())
    assert gaussian["numbers"]
    # uniform_as needs a compact kernel (K2): both commands stop at the gates
    assert (gated["validate_exit"], gated["run_exit"], gated["files"]) == (2, 2, {})

    out = tmp_path / "hashes.json"
    out.write_text(proc.stdout)
    proc = _tool("--diff", str(out), str(out))
    assert proc.returncode == 0, proc.stderr
    assert "2 of 2 configs identical; 0 exit codes differ" in proc.stdout

    # one flipped file hash is a difference, though every exit code agrees
    flipped = json.loads(out.read_text())
    sha = flipped[LABELS[0]]["files"]["report.json"]
    flipped[LABELS[0]]["files"]["report.json"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    other = tmp_path / "flipped.json"
    other.write_text(json.dumps(flipped))
    proc = _tool("--diff", str(out), str(other))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"{LABELS[0]}: files report.json" in proc.stdout
    assert "1 of 2 configs identical; 0 exit codes differ" in proc.stdout


def _report_hashes():
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_config_keeps_its_pinned_report_digest():
    tool = _report_hashes()
    # a kind or a kernel missing from the tool's lists would have no pinned digest
    assert tool.KINDS == experiments.KINDS
    assert tool.FAMILIES == tuple(kernels.FAMILIES)
    pinned = json.loads(DIGESTS.read_text())
    got = {label: tool.digest(entry) for label, entry in tool.hash_all(main, [], False).items()}
    moved: dict[str, list[str]] = {}
    for label in sorted(got.keys() | pinned["configs"].keys()):
        if got.get(label) != pinned["configs"].get(label):
            moved.setdefault(label.split("-")[0], []).append(label)
    run_under = versions()
    assert not moved, (
        f"{sum(map(len, moved.values()))} configs moved, by kind: {moved}; re-pin with "
        f"`python tools/report_hashes.py --pin tests/report_digests.json` if that is meant"
        + ("" if pinned["versions"].items() <= run_under.items() else
           f"; pinned under {pinned['versions']}, run under {run_under}")
    )


def test_pinned_digests_do_not_rest_on_the_blas_kernels():
    """Under OpenBLAS's Haswell kernels the BLAS_LABELS configs keep their pinned digests.

    OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the tool runs in a subprocess; a BLAS other than
    OpenBLAS ignores the variable.
    """
    src = str(Path(mixkde.__file__).resolve().parent.parent)
    proc = _tool("--src", src, "--only", *BLAS_LABELS, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"})
    assert proc.returncode == 0, proc.stderr
    tool = _report_hashes()
    got = {label: tool.digest(entry) for label, entry in json.loads(proc.stdout).items()}
    pinned = json.loads(DIGESTS.read_text())["configs"]
    assert got == {label: pinned[label] for label in BLAS_LABELS}
