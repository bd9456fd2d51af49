"""Smoke test for tools/report_hashes.py on two of its configs."""

import json
import subprocess
import sys
from pathlib import Path

import mixkde

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"
LABELS = ("clt_density-ar1-gaussian-0.3", "uniform_as-iid-gaussian-0.3")


def _tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


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
