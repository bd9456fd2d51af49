"""Command line behavior: artifacts, exit codes, config parsing."""

import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mixkde
from mixkde import __version__, cli, processes
from mixkde.cli import build_config, main, parse_config_text
from mixkde.experiments import GateError

PASSING_RUN = """\
# quick dyadic moment check, deterministic
experiment.kind = moment_bound
model.family = ar1
model.phi = 0.25
kernel.family = gaussian
bandwidth.delta = 0.2
run.n_list = 6, 7, 8
run.replicates = 150
run.p = 2
run.base_seed = 11
block.alpha = 0.5
block.beta = 0.25
"""

# Fails for a deterministic reason, not by Monte Carlo noise: the density
# statistic is scaled by the small-h limit variance f(x)|K|^2/(n h), but at
# h = 4 * 256^-0.2 = 1.32 the exact variance of the standardized iid
# statistic at x = 0.5 is 0.070 of that, so its population KS distance to
# N(0, 1) is about 0.28, far beyond the 0.05 threshold at any seed.
FAILING_RUN = """\
experiment.kind = clt_density
model.family = iid
kernel.family = gaussian
bandwidth.c = 4
bandwidth.delta = 0.2
run.n_list = 256
run.replicates = 150
run.eval_points = 0.5
run.base_seed = 99
"""

GATED_RUN = """\
experiment.kind = uniform_as
model.family = ar1
model.phi = 0.5
kernel.family = epanechnikov
bandwidth.delta = 0.3
run.n_list = 256, 512, 1024
run.replicates = 2
run.base_seed = 3
"""

CLT_SMALL = """\
experiment.kind = clt_density
model.family = ar1
model.phi = 0.3
kernel.family = gaussian
bandwidth.delta = 0.2
run.n_list = 256
run.replicates = 120
run.eval_points = 0.0
run.base_seed = 42
"""

ARTIFACTS = ("report.json", "per_n.csv", "plotdata.csv", "manifest.json")


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_passing_run_writes_all_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, PASSING_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "verdict pass" in capsys.readouterr().out
    for name in ARTIFACTS:
        assert (out / name).is_file(), name

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"] == __version__
    # the draw bits rest on two private scipy modules: record what ran them
    assert manifest["versions"] == processes.versions()
    assert sorted(manifest["versions"]) == ["blas", "numpy", "numpy_cpu_baseline", "numpy_cpu_dispatch",
                                            "platform", "python", "scipy"]
    assert manifest["files"] == list(ARTIFACTS)
    assert manifest["duration_seconds"] > 0.0
    assert manifest["config"]["model"]["family"] == "ar1"

    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "moment_bound"
    assert report["verdict"] == "pass"
    header = (out / "per_n.csv").read_text().splitlines()[0]
    assert "k" in header.split(",")


def test_reruns_and_thread_counts_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, CLT_SMALL)
    outs = []
    codes = set()
    for idx, threads in enumerate(("1", "4", "2")):
        out = tmp_path / f"out{idx}"
        codes.add(main(["run", str(cfg), "--out", str(out), "--threads", threads]))
        outs.append(out)
    assert codes <= {0, 3} and len(codes) == 1  # same verdict every time
    ref_report = (outs[0] / "report.json").read_bytes()
    ref_csv = (outs[0] / "per_n.csv").read_bytes()
    ref_plot = (outs[0] / "plotdata.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "report.json").read_bytes() == ref_report
        assert (out / "per_n.csv").read_bytes() == ref_csv
        assert (out / "plotdata.csv").read_bytes() == ref_plot


def test_manifest_records_the_effective_thread_cap(tmp_path):
    cfg = _write(tmp_path, CLT_SMALL)
    reports = set()
    for threads, cap in (("1", 1), ("0", os.cpu_count() or 1), ("100", os.cpu_count() or 1)):
        out = tmp_path / f"out{threads}"
        assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) in (0, 3)
        assert json.loads((out / "manifest.json").read_text())["effective_threads"] == cap
        reports.add((out / "report.json").read_bytes())
    assert len(reports) == 1


def test_env_var_sets_threads_and_option_wins(tmp_path, monkeypatch):
    cfg = _write(tmp_path, PASSING_RUN)
    monkeypatch.setenv("MIXKDE_THREADS", "2")
    out_env = tmp_path / "env"
    assert main(["run", str(cfg), "--out", str(out_env)]) == 0

    monkeypatch.setenv("MIXKDE_THREADS", "not-a-number")
    assert main(["run", str(cfg), "--out", str(tmp_path / "bad")]) == 1
    # the explicit option never consults the environment
    out_opt = tmp_path / "opt"
    assert main(["run", str(cfg), "--out", str(out_opt), "--threads", "1"]) == 0
    assert (out_opt / "report.json").read_bytes() == (out_env / "report.json").read_bytes()


@pytest.mark.parametrize("option, env", [("-1", None), (None, "-3")])
def test_negative_threads_exit_1_before_any_work(tmp_path, capsys, monkeypatch, option, env):
    # the config file does not exist: the thread count is checked first
    cfg = tmp_path / "missing.cfg"
    out = tmp_path / "out"
    if env is not None:
        monkeypatch.setenv("MIXKDE_THREADS", env)
    argv = ["run", str(cfg), "--out", str(out)] + (["--threads", option] if option else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_gate_rejection_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, GATED_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "gate rejection (rho(1) <= 1/4)" in err
    assert not out.exists()


def test_failed_verdict_exits_3_but_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, FAILING_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "verdict fail" in capsys.readouterr().out
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"


def test_validate_passing_config(tmp_path, capsys):
    cfg = _write(tmp_path, CLT_SMALL)
    assert main(["validate", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert any("B1" in line for line in lines)
    assert any("rho-summable" in line for line in lines)


def test_validate_failing_gate(tmp_path, capsys):
    cfg = _write(tmp_path, CLT_SMALL.replace("bandwidth.delta = 0.2", "bandwidth.delta = 1.2"))
    assert main(["validate", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "FAIL B1" in out


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("run.base_seed = 42", "run.base_seed 42"), "expected 'key = value'"),
        (lambda t: t.replace("run.base_seed = 42", "run.base_seed ="), "empty key or value"),
        (lambda t: t + "eval.points = 0.0\n", "unknown key 'eval.points'"),
        (lambda t: t + "run.base_seed = 7\n", "duplicate key 'run.base_seed'"),
        (lambda t: t.replace("run.base_seed = 42\n", ""), "missing required config keys"),
        (lambda t: t.replace("run.n_list = 256", "run.n_list = 256, soon"), "expected an integer"),
        (lambda t: t.replace("model.phi = 0.3", "model.phi = inf"),
         "key 'model.phi' must be a finite real number, got inf"),
        (lambda t: t.replace("model.phi = 0.3", "model.phi = abc"), "expected a number"),
        (lambda t: t.replace("run.n_list = 256", "run.n_list = ,"), "expected a comma-separated list"),
    ],
)
def test_malformed_configs_exit_1(tmp_path, capsys, mangle, fragment):
    cfg = _write(tmp_path, mangle(CLT_SMALL))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value, echo, says", [
    # int() refuses over 4300 digits; the echo is cut to 60 characters
    ("1" * 5000, "'" + "1" * 56 + "...", "key 'run.base_seed': too many digits, got"),
    ("-" + "1_2" * 2200, "'-" + "1_2" * 18 + "1...", "key 'run.base_seed': too many digits, got"),
    # parsed, then refused by admission as wider than 64 bits
    ("1" * 100, "an int of 330 bits", "base_seed must be an integer of at most 64 bits, got"),
    ("x" * 5000, "'" + "x" * 56 + "...", "key 'run.base_seed': expected an integer, got"),
    ("1" * 4999 + "x", "'" + "1" * 56 + "...", "key 'run.base_seed': expected an integer, got"),
], ids=["5000_digits", "underscored_digits", "100_digits", "5000_letters", "digits_then_a_letter"])
def test_a_huge_seed_exits_1_with_a_short_line(tmp_path, capsys, command, value, echo, says):
    cfg = _write(tmp_path, CLT_SMALL.replace("run.base_seed = 42", f"run.base_seed = {value}"))
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and err.endswith(f"got {echo}\n") and len(err) < 120
    assert not out.exists()


def test_long_config_text_is_echoed_short(tmp_path, capsys):
    # 5000 nines parse to inf, which check_real echoes as the number; every other text is cut short
    for line, echo in (("model.phi = " + "9" * 5000, "got inf\n"), ("model.phi = " + "a" * 5000, "..."),
                       ("b" * 5000, "..."), ("run.eval_points = " + "," * 5000, "..."), ("x" * 5000 + " = 1", "...")):
        cfg = _write(tmp_path, "\n".join(kept for kept in CLT_SMALL.splitlines()
                                         if kept.split(" =")[0] != line.split(" =")[0]) + "\n" + line + "\n")
        assert main(["validate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and echo in err and len(err) < 120 + len(str(cfg)), err


def test_parse_errors_carry_file_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, CLT_SMALL + "eval.points = 0.0\n")
    assert main(["validate", str(cfg)]) == 1
    err = capsys.readouterr().err
    lineno = CLT_SMALL.count("\n") + 1
    assert f"{cfg}:{lineno}: unknown key" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_degenerate_block_levels_exit_1(tmp_path, capsys, command):
    # level k=1 holds no big/small pair with p > q, so no run can use it
    cfg = _write(tmp_path, PASSING_RUN.replace("run.n_list = 6, 7, 8", "run.n_list = 1, 2, 3")
                 .replace("run.p = 2", "run.p = 4"))
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: degenerate blocks at k=1")
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("k", [1024, 2048])
@pytest.mark.parametrize("command", ["validate", "run", "partition"])
def test_block_levels_above_the_largest_exit_1(tmp_path, capsys, command, k):
    # a sample size typed as a level: 1024 would build about 2^512 blocks, and
    # from 2048 on 2^(alpha k) overflows a float
    out = tmp_path / "out"
    if command == "partition":
        argv = [command, "--k", str(k), "--alpha", "0.5", "--beta", "0.25", "--out", str(out)]
    else:
        cfg = _write(tmp_path, PASSING_RUN.replace("run.n_list = 6, 7, 8", f"run.n_list = 6, 7, {k}")
                     .replace("run.p = 2", "run.p = 4"))
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"level k={k} is above the largest level 20" in captured.err
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert not out.exists()


# The rho-summable gate admits this phi, but the long-run variance would need
# about 6.9e8 Plackett lags, above the cap of 2^20.
NEAR_UNIT_CDF_RUN = """\
experiment.kind = clt_cdf_centered
model.family = ar1
model.phi = 0.999999999
kernel.family = epanechnikov
bandwidth.delta = 0.3
run.n_list = 1000
run.replicates = 100
run.eval_points = 0.5
run.base_seed = 8
"""


@pytest.mark.parametrize("kind", ["clt_cdf_centered", "clt_cdf_true"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_phi_beyond_the_plackett_lag_cap_exits_1(tmp_path, capsys, command, kind):
    text = NEAR_UNIT_CDF_RUN.replace("clt_cdf_centered", kind)
    if kind == "clt_cdf_true":
        text = text.replace("bandwidth.delta = 0.3", "bandwidth.delta = 0.6")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: AR(1) phi=0.999999999 needs ")
    assert "above the cap of 1048576" in captured.err
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert not out.exists()


# Bandwidths the schedule family admits but no sum can use: h_n overflows to
# inf (the bias kind has no B1 gate) or past it, is 0.0, or is subnormal,
# where the oracle's panels overflow.
BANDWIDTH_RUNS = {
    "inf": ("bias", "1e308", "-1", "256, 512, 1024", 1, "inf at n = 256"),
    # 256.0 ** 1000 raises OverflowError rather than giving inf
    "overflow": ("rate_sup_lp", "1", "-1000", "256, 512, 1024", 1, "inf at n = 256"),
    "zero": ("clt_density", "5e-324", "0.9", "1000", 100, "0 at n = 1000"),
    "subnormal": ("clt_density", "1e-320", "0.9", "1000", 100, "1.97626e-323 at n = 1000"),
}


@pytest.mark.parametrize("case", sorted(BANDWIDTH_RUNS))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unusable_bandwidths_exit_1(tmp_path, capsys, command, case):
    kind, c, delta, n_list, replicates, fragment = BANDWIDTH_RUNS[case]
    cfg = _write(tmp_path, (
        f"experiment.kind = {kind}\nmodel.family = iid\nkernel.family = gaussian\n"
        f"bandwidth.c = {c}\nbandwidth.delta = {delta}\nrun.n_list = {n_list}\n"
        f"run.replicates = {replicates}\nrun.eval_points = 0.0\nrun.base_seed = 7\n"
    ))
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bandwidth h_n = {fragment} must be finite and at "
                                   "least 1e-12 times the marginal sd 1")
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert not out.exists()


def test_block_levels_read_no_bandwidth(tmp_path, capsys):
    # moment_bound's n_list holds block levels, which admission turns into no
    # h_n, so a schedule whose h_n would overflow cannot stop its run
    cfg = _write(tmp_path, (
        "experiment.kind = moment_bound\nmodel.family = ar1\nmodel.phi = 0.25\n"
        "kernel.family = gaussian\nbandwidth.delta = -1000\nrun.n_list = 5, 6, 7\n"
        "run.replicates = 30\nrun.p = 2\nrun.base_seed = 7\n"
    ))
    assert main(["validate", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["files"] == list(ARTIFACTS)
    for name in ARTIFACTS:
        assert (out / name).is_file(), name


# A runnable config, and per admission rule of ExperimentConfig (or of its
# ProcessModel: innovation sd, weights) the keys that make it unrunnable with
# the start of the message. Every key is well formed.
RUNNABLE = {
    "experiment.kind": "rate_integral_lp",
    "model.family": "ar1",
    "model.phi": "0.25",
    "kernel.family": "epanechnikov",
    "bandwidth.delta": "0.3",
    "run.n_list": "128, 256, 512",
    "run.replicates": "100",
    "run.base_seed": "1",
}
ADMISSION_RULES = {
    "eval points": ({"experiment.kind": "rate_sup_lp"},
                    "rate_sup_lp needs at least one evaluation point"),
    "sizes for a slope": ({"run.n_list": "128, 256"},
                          "rate_integral_lp needs at least 3 sample sizes for a slope, got 2"),
    "block levels": ({"experiment.kind": "moment_bound", "run.n_list": "6, 7, 21"},
                     "level k=21 is above the largest level 20"),
    "plackett lags": ({"experiment.kind": "clt_cdf_centered", "model.phi": "0.9999995",
                       "run.eval_points": "0.5"}, "AR(1) phi=0.9999995 needs "),
    "bandwidth range": ({"bandwidth.c": "1e-20"}, "bandwidth h_n = 2.33258e-21 at n = 128 "),
    # far above the ceiling, h^j overflows in the prefix sums
    "bandwidth ceiling": ({"bandwidth.c": "1e300"},
                          "bandwidth h_n = 2.33258e+299 at n = 128 must be at most 1e+12 times "),
    # hi - lo overflows in the grid's linspace
    "grid span": ({"grid.lo": "-1e308", "grid.hi": "1e308"},
                  "grid needs lo < hi and a finite span hi - lo, got [-1e+308, 1e+308]"),
    # a grid kind's grid ends within 40 marginal sds (1.0328 for AR(1) phi = 0.25)
    "grid ends": ({"grid.lo": "-1e300", "grid.hi": "1e300"},
                  "rate_integral_lp reads the grid, whose ends must lie within 40 marginal sds "
                  "(41.3118) of 0, got [-1e+300, 1e+300]"),
    "grid ends for uniform_as": ({"experiment.kind": "uniform_as", "run.n_list": "256, 512, 1024",
                                  "grid.lo": "-1e300", "grid.hi": "1e300"},
                                 "uniform_as reads the grid, whose ends must lie within 40 "),
    "moment order": ({"run.p": "0.5"}, "p must be a finite number >= 1, got 0.5"),
    "replicate count": ({"run.replicates": "0"}, "replicates must be an integer >= 1, got 0"),
    "innovation sd": ({"model.innovation_sd": "0"}, "innovation_sd must be positive, got 0.0"),
    "weights on AR(1)": ({"model.weights": "1, 0.5"}, "weights are only meaningful for the ma family"),
    # 1e-200 * 1e-200 * sqrt(2) underflows to 0; 1e308 / sqrt(0.19) overflows (moment_bound ran to nan ratios)
    "marginal sd of 0": ({"model.family": "ma", "model.phi": "0", "model.weights": "1e-200, 1e-200",
                          "model.innovation_sd": "1e-200"},
                         "marginal sd innovation_sd * sqrt(sum of squared weights) / sqrt(1 - phi^2) must be "
                         "positive and finite, got 0.0"),
    "marginal sd of inf": ({"model.phi": "0.9", "model.innovation_sd": "1e308"},
                           "marginal sd innovation_sd * sqrt(sum of squared weights) / sqrt(1 - phi^2) must be "
                           "positive and finite, got inf"),
    "marginal sd of inf for moment_bound": ({"experiment.kind": "moment_bound", "run.n_list": "6, 7, 8",
                                             "model.phi": "0.9", "model.innovation_sd": "1e308"},
                                            "marginal sd innovation_sd * sqrt(sum of squared weights) / "),
    "distinct h for bias": ({"experiment.kind": "bias", "bandwidth.delta": "0",
                             "run.eval_points": "0.5"},
                            "bias fits its slope against h, but h_n = 1 at both n = 128 and n = 256"),
}


def _config_text(table: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in table.items())


@pytest.mark.parametrize("rule", sorted(ADMISSION_RULES))
def test_admission_rules_reject_at_construction_and_on_the_cli(tmp_path, capsys, rule):
    build_config(parse_config_text(_config_text(RUNNABLE)))  # the base is runnable
    keys, message = ADMISSION_RULES[rule]
    text = _config_text({**RUNNABLE, **keys})
    with pytest.raises(ValueError) as err:
        build_config(parse_config_text(text))
    assert str(err.value).startswith(message)
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err.value}\n")
    assert not out.exists()


def test_equal_bandwidths_leave_rate_kinds_to_gate_b1(tmp_path, capsys):
    cfg = _write(tmp_path, _config_text({**RUNNABLE, "bandwidth.delta": "0"}))
    assert main(["validate", str(cfg)]) == 2
    assert "FAIL B1: (B1) fails: delta=0 <= 0" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("gate rejection (B1): ")


def test_inverse_log_bandwidth_meets_b1_but_not_b2(tmp_path, capsys):
    # h_n = 2/log n (the paper's Remark 1): the rate kinds need only B1, uniform_as needs B2
    schedule = {"bandwidth.c": "2", "bandwidth.delta": "0", "bandwidth.slowly_varying": "invlog"}
    cfg = _write(tmp_path, _config_text({**RUNNABLE, **schedule, "experiment.kind": "rate_sup_lp",
                                         "run.eval_points": "0.0", "run.replicates": "20"}))
    assert main(["validate", str(cfg)]) == 0
    assert "PASS B1: (B1) holds: delta=0 with l(n)=1/log n" in capsys.readouterr().out
    # and the rate run goes through end to end
    sup = tmp_path / "sup"
    assert main(["run", str(cfg), "--out", str(sup)]) in (0, 3)
    assert json.loads((sup / "manifest.json").read_text())["files"] == list(ARTIFACTS)
    for name in ARTIFACTS:
        assert (sup / name).is_file(), name
    report = (sup / "report.json").read_text()
    assert '"bandwidth": {"c": 2, "delta": 0, "slowly_varying": "invlog"}' in report
    assert "(B1) holds: delta=0 with l(n)=1/log n" in report
    cfg = _write(tmp_path, _config_text({**RUNNABLE, **schedule, "experiment.kind": "uniform_as"}))
    assert main(["validate", str(cfg)]) == 2
    assert "FAIL B2: (B2) fails: delta=0 <= 0 puts the schedule outside" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("gate rejection (B2): (B2) fails: delta=0 <= 0")
    assert not (tmp_path / "out").exists()


def test_each_row_cell_is_rendered_once(tmp_path, monkeypatch, capsys):
    """report.json and per_n.csv take each row cell's text from one rendering of its column."""
    import mixkde.cli as cli
    import mixkde.util as util

    cfg = _write(tmp_path, (
        "experiment.kind = bias\nmodel.family = iid\nkernel.family = epanechnikov\n"
        "bandwidth.delta = 0.3\nrun.n_list = 256, 512, 1024, 2048, 4096\nrun.replicates = 1\n"
        "run.eval_points = -0.5, 0.5\nrun.base_seed = 7\n"
    ))
    lengths = []

    def column(cells, encode, render=util._column):
        lengths.append(len(cells))
        return render(cells, encode)

    for module in (cli, util):  # every module that binds the column renderer
        if getattr(module, "_column", None) is util._column:
            monkeypatch.setattr(module, "_column", column)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 3)
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert (out / "per_n.csv").read_text().count("\n") == 1 + len(rows) == 11
    # one column of 10 cells per key, and no other list of 10 in the bundle
    assert lengths.count(10) == len(rows[0]) == 7


def test_value_error_in_a_run_is_an_error_line(tmp_path, capsys):
    # f and E f_n underflow to 0 at x = 60, so the bias slope has no log-log fit
    cfg = _write(tmp_path, (
        "experiment.kind = bias\nmodel.family = iid\nkernel.family = epanechnikov\n"
        "bandwidth.delta = 0.3\nrun.n_list = 256, 512, 1024\nrun.replicates = 1\n"
        "run.eval_points = 0.5, 60.0\nrun.base_seed = 7\n"
    ))
    assert main(["validate", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: log-log fit needs positive xs and ys\n"
    assert not out.exists()


def test_a_bias_point_at_1e300_is_one_error_line(tmp_path, capsys):
    # f and E f_n are 0 there without an overflow warning, so the run ends as at x = 60
    for far in ("1e300", "-1e300"):
        cfg = _write(tmp_path, (
            "experiment.kind = bias\nmodel.family = iid\nkernel.family = epanechnikov\n"
            "bandwidth.delta = 0.3\nrun.n_list = 256, 512, 1024\nrun.replicates = 1\n"
            f"run.eval_points = 0.5, {far}\nrun.base_seed = 7\n"
        ))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: log-log fit needs positive xs and ys\n"
        assert not out.exists()


@pytest.mark.parametrize("kind", ["rate_integral_lp", "uniform_as"])
def test_a_grid_that_meets_no_window_is_an_error_line(tmp_path, capsys, kind):
    # two grid points, 40 marginal sds out: no window holds a value and E f_n is 0 at both
    cfg = _write(tmp_path, (
        f"experiment.kind = {kind}\nmodel.family = ar1\nmodel.phi = 0.25\n"
        "kernel.family = epanechnikov\nbandwidth.delta = 0.3\nrun.n_list = 128, 256, 512\n"
        "run.replicates = 2\nrun.base_seed = 7\ngrid.lo = -41\ngrid.hi = 41\ngrid.m = 2\n"
    ))
    assert main(["validate", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: every deviation |f_n - E f_n| is 0 at n = 128: no evaluation point's "
                   "window held a value (grid spacing 82 against 2h = 0.466516)\n")
    assert not out.exists()


# a kind that needs no evaluation points, so the required keys make a runnable config
REQUIRED_ONLY = """\
experiment.kind = rate_integral_lp
model.family = iid
kernel.family = gaussian
bandwidth.delta = 0.3
run.n_list = 128, 256, 512
run.replicates = 100
run.base_seed = 1
"""


def test_required_keys_only_resolve_to_the_readme_defaults():
    config = build_config(parse_config_text(REQUIRED_ONLY))
    model = config.model
    assert (model.phi, model.weights, model.innovation_sd) == (0.0, (), 1.0)
    assert (config.schedule.c, config.schedule.slowly_varying) == (1.0, "one")
    assert (config.grid.lo, config.grid.hi, config.grid.m) == (-2.0, 2.0, 401)
    assert (config.eval_points, config.p) == ((), 2.0)
    assert (config.block_alpha, config.block_beta) == (0.5, 0.25)


def test_a_partly_given_grid_keeps_the_other_defaults():
    config = build_config(parse_config_text(REQUIRED_ONLY + "grid.m = 11\ngrid.hi = 3\n"))
    assert (config.grid.lo, config.grid.hi, config.grid.m) == (-2.0, 3.0, 11)


# A marginal sd of 1e-7 puts densities near 4e6, where the oracle's two
# Gauss-Legendre rules differ by about 5e-9 from rounding alone.
TINY_SCALE_RUN = """\
experiment.kind = clt_density
model.family = iid
model.innovation_sd = 1e-7
kernel.family = epanechnikov
bandwidth.c = 1e-7
bandwidth.delta = 0.2
run.n_list = 500
run.replicates = 100
run.eval_points = 0.0
run.base_seed = 5
"""


def test_tiny_scale_runs_like_unit_scale(tmp_path, capsys):
    """Scaling the data and the bandwidth by 1e-7 leaves the statistics unchanged."""
    reports = []
    for scale in ("1e-7", "1.0"):
        cfg = _write(tmp_path, TINY_SCALE_RUN.replace("1e-7", scale), name=f"{scale}.cfg")
        out = tmp_path / scale
        assert main(["run", str(cfg), "--out", str(out)]) == 3  # the same verdict at both scales
        assert (out / "manifest.json").is_file()
        reports.append(json.loads((out / "report.json").read_text()))
    assert "Traceback" not in capsys.readouterr().err
    tiny, unit = (report["rows"][0] for report in reports)
    for key in ("ks", "mean", "variance"):
        assert tiny[key] == pytest.approx(unit[key], rel=1e-9)


def test_oracle_failure_is_an_error_line(tmp_path, capsys, monkeypatch):
    import mixkde.estimator as estimator
    from numpy.polynomial.legendre import leggauss

    monkeypatch.setattr(estimator, "_rules", lambda: estimator._panel_rules(leggauss(1), leggauss(2)))
    cfg = _write(tmp_path, TINY_SCALE_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Gauss-Legendre rules differ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("exc,code,line", [
    (MemoryError("Unable to allocate 7.28 TiB"), 1, "error: Unable to allocate 7.28 TiB"),
    (MemoryError(), 1, "error: MemoryError"),
    (OverflowError("math range error"), 1, "error: math range error"),
    (ValueError("log-log fit needs positive xs and ys"), 1,
     "error: log-log fit needs positive xs and ys"),
    (OSError(28, "No space left on device"), 1, "error: [Errno 28] No space left on device"),
    (GateError("B1", "(B1) fails"), 2, "gate rejection (B1): (B1) fails"),
], ids=["message", "bare", "arithmetic", "value", "os", "gate"])
def test_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch, exc, code, line):
    """What a run raises becomes one stderr line and its exit code (README "Exit codes")."""
    import mixkde.cli as cli

    def run_experiment(config, threads):
        raise exc

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    cfg = _write(tmp_path, TINY_SCALE_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.splitlines() == [line]
    assert not out.exists()


def test_negative_zero_phi_gives_the_report_of_no_phi(tmp_path):
    """model.phi = -0 on iid echoes as 0, so one model writes one report."""
    reports = []
    for name, text in (("unset", FAILING_RUN), ("minus", FAILING_RUN + "model.phi = -0\n")):
        out = tmp_path / name
        assert main(["run", str(_write(tmp_path, text, name=f"{name}.cfg")), "--out", str(out)]) == 3
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_negative_zero_reals_give_the_report_of_zero(tmp_path):
    """-0 in delta, an evaluation point or a grid end echoes as 0, as model.phi does."""
    base = ("experiment.kind = bias\nmodel.family = iid\nkernel.family = epanechnikov\n"
            "bandwidth.slowly_varying = log\nrun.n_list = 128, 256, 512\nrun.replicates = 1\n"
            "run.base_seed = 3\n")
    reports = []
    for sign in ("", "-"):
        text = base + (f"bandwidth.delta = {sign}0\nrun.eval_points = {sign}0, 0.5\n"
                       f"grid.lo = {sign}0\n")
        out = tmp_path / f"out{sign}"
        assert main(["run", str(_write(tmp_path, text)), "--out", str(out)]) in (0, 3)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    for echo in (b'"delta": 0,', b'"eval_points": [0, 0.5]', b'"grid": {"lo": 0,'):
        assert echo in reports[1]


def test_failed_write_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    """A rerun whose write fails must not leave its report beside the old manifest."""
    import mixkde.cli as cli

    cfg = _write(tmp_path, PASSING_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()
    capsys.readouterr()

    def write_rows_csv(path, rows):
        raise OSError(f"disk full writing {path.name}")

    monkeypatch.setattr(cli, "_write_rows_csv", write_rows_csv)
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: disk full writing per_n.csv"]
    assert not (out / "manifest.json").exists()


def test_partition_subcommand(tmp_path, capsys):
    out = tmp_path / "part.csv"
    code = main(["partition", "--k", "4", "--alpha", "0.5", "--beta", "0.25", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "k=4:" in stdout and "bracket_ok=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "block_type,index,start,end"
    assert lines[1] == "big,1,16,20"
    assert lines[-1] == "small,3,28,32"
    assert len(lines) == 6


def test_partition_rejections(tmp_path, capsys):
    out = str(tmp_path / "part.csv")
    assert main(["partition", "--k", "4", "--alpha", "0.25", "--beta", "0.5", "--out", out]) == 2
    assert "partition rejected:" in capsys.readouterr().err
    assert main(["partition", "--k", "1", "--alpha", "0.5", "--beta", "0.25", "--out", out]) == 2
    assert "degenerate blocks at k=1" in capsys.readouterr().err
    assert main(["partition", "--k", "2", "--alpha", "0.99", "--beta", "0.9", "--out", out]) == 2
    assert "level k=2 is too small: one big/small pair needs p+q=6" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    cfg = _write(tmp_path, PASSING_RUN)
    assert main(["run", str(cfg)]) == 1  # --out is required
    assert "--out" in capsys.readouterr().err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    """Each command keeps the exit code and output it has with a parser of its own."""
    assert cli.build_parser() is cli.build_parser()
    cfg = _write(tmp_path, PASSING_RUN)
    part = str(tmp_path / "part.csv")
    commands = (
        ["run", str(cfg)],  # usage error: --out is required
        ["validate", str(cfg)],
        ["partition", "--k", "4", "--alpha", "0.5", "--beta", "0.25", "--out", part],
        ["run", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"],
    )

    def outcomes(fresh):
        seen = []
        for argv in commands:
            if fresh:
                cli.build_parser.cache_clear()
            seen.append((main(argv), *capsys.readouterr()))
        return seen

    reused = outcomes(fresh=False)
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]
    assert reused[0][2] == "error: mixkde run: the following arguments are required: --out\n"
    assert reused == outcomes(fresh=True)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _fresh_python(*args) -> subprocess.CompletedProcess:
    # the fresh interpreter must import the mixkde under test, installed or not
    package_root = str(Path(mixkde.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_installed_entry_point():
    proc = _fresh_python("-m", "mixkde.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"mixkde {__version__}"


HEAVY_SCIPY = ("scipy.special", "scipy.signal", "scipy.stats", "scipy.integrate")


def test_cli_import_leaves_out_heavy_scipy_modules(tmp_path):
    # ndtr/ndtri and lfilter's C kernel come from their extension modules
    # alone (processes._load_extension), so an AR(1) run loads neither
    # scipy.special's __init__ with the array-API layer and numpy.f2py it
    # imports, nor scipy.signal with scipy.stats; scipy.integrate is not used
    cfg = _write(tmp_path, CLT_SMALL)
    heavy = (*HEAVY_SCIPY, "scipy._lib._array_api", "numpy.f2py")
    proc = _fresh_python(
        "-c",
        "import sys, mixkde.cli; "
        f"code = mixkde.cli.main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        f"print(code, sorted(m for m in {heavy!r} if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("0 []", "3 []")


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_a_heavy_scipy_package():
    # one `from scipy.special import ...` anywhere would bring back the
    # package __init__s that processes._load_extension keeps out of start-up;
    # the loader takes the extension modules by path, with no import statement
    offenders = []
    for path in sorted(Path(mixkde.__file__).resolve().parent.glob("*.py")):
        for name in _imported_names(ast.parse(path.read_text(encoding="utf-8"))):
            if any(name == heavy or name.startswith(f"{heavy}.") for heavy in HEAVY_SCIPY):
                offenders.append(f"{path.name}: {name}")
    assert offenders == []


# package, the extension module mixkde loads from it, the object it takes,
# and a call only the package's own __init__ provides
LFILTER = "module.lfilter([1.0], [1.0, -0.5], [1.0, 2.0, 0.0]).tolist() == [1.0, 2.5, 1.25]"
ERF = "module.erf(0.0) == 0.0"
EXTENSIONS = {
    "draw_first": ("scipy.signal", "_sigtools", "_linear_filter", LFILTER, False),
    "signal_first": ("scipy.signal", "_sigtools", "_linear_filter", LFILTER, True),
    "special_draw_first": ("scipy.special", "_ufuncs", "ndtri", ERF, False),
    "special_first": ("scipy.special", "_ufuncs", "ndtri", ERF, True),
}


@pytest.mark.parametrize("package, extension, kernel, probe, package_first",
                         EXTENSIONS.values(), ids=EXTENSIONS)
def test_scipy_signal_imports_whole_beside_the_kernel(package, extension, kernel, probe, package_first):
    # the extension is loaded without its package, beside a placeholder that
    # is gone once mixkde.processes is imported, so a later import of the
    # package runs it whole and hands out the same objects; an earlier one
    # lends mixkde its extension module. ndtri and the drawn path keep their bits.
    proc = _fresh_python(
        "-c",
        "import sys, numpy as np; "
        + (f"import {package}; " if package_first else "")
        + f"before = sys.modules.get({package!r}); "
        "from mixkde import processes; "
        "from mixkde.processes import ProcessModel, generate_path; "
        "x = generate_path(ProcessModel('ar1', phi=0.5), 300, 7).values; "
        "u = np.linspace(0.001, 0.999, 999); y = processes.ndtri(u); "
        f"left = sorted(m for m in sys.modules if m.startswith({package + '.'!r})); "
        f"kept = sys.modules.get({package!r}) is before and (before is not None or left == []); "
        f"import {package}; "
        f"module = sys.modules[{package!r}]; "
        "print(kept, module.__file__.endswith('__init__.py'), "
        f"{probe}, "
        f"getattr(module.{extension}, {kernel!r}) is getattr(processes, {kernel!r}), "
        f"module.{extension} is sys.modules[{package + '.' + extension!r}], "
        "processes.ndtri(u).tobytes() == y.tobytes(), "
        "np.array_equal(x, generate_path(ProcessModel('ar1', phi=0.5), 300, 7).values))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True True True True True True True"


# Under 2^10-value blocks: clt 101 paths of 200 values in 21 blocks of at most
# 5; rate_sup_lp 1101 MA innovations per path in pieces of 1024 and 77;
# moment_bound levels of 64, 128 and 256 values in blocks of 16, 8 and 4
# paths, the last block of each level short.
SMALL_BLOCK_RUNS = {
    "clt_cdf_centered": """\
experiment.kind = clt_cdf_centered
model.family = ar1
model.phi = 0.5
kernel.family = epanechnikov
bandwidth.delta = 0.3
run.n_list = 200
run.replicates = 101
run.eval_points = 0.0, 0.5
run.base_seed = 5
""",
    "rate_sup_lp": """\
experiment.kind = rate_sup_lp
model.family = ma
model.weights = 1.0, 0.5
kernel.family = epanechnikov
bandwidth.delta = 0.3
run.n_list = 256, 512, 1100
run.replicates = 4
run.eval_points = 0.0
run.base_seed = 6
""",
    "moment_bound": """\
experiment.kind = moment_bound
model.family = ar1
model.phi = 0.25
kernel.family = gaussian
bandwidth.delta = 0.2
run.n_list = 5, 6, 7
run.replicates = 30
run.p = 2
run.base_seed = 7
""",
}


@pytest.mark.parametrize("kind", sorted(SMALL_BLOCK_RUNS))
def test_small_blocks_keep_report_bytes(tmp_path, monkeypatch, kind):
    cfg = _write(tmp_path, SMALL_BLOCK_RUNS[kind])

    def report(name, threads):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) in (0, 3)
        return (out / "report.json").read_bytes()

    want = report("default", "1")
    monkeypatch.setattr(processes, "_BLOCK_VALUES", 2**10)
    for threads in ("1", "2"):
        assert report(f"small-{threads}", threads) == want
