"""Command line front end: run experiments, validate configs, dump partitions.

Exit codes (README "Exit codes"): 0 on success, 1 for a usage error and for
an OSError, ValueError, ArithmeticError or MemoryError anywhere in a command,
2 for a gate or partition rejection, 3 for a failed verdict. The commands
raise; main alone turns what they raise into an exit code and a stderr line.
Config files are flat `key = value` lines; README "Config reference" has the
schema.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bandwidth import BandwidthSchedule
from .blocking import MAX_LEVEL, build_partition, partition_to_csv
from .estimator import DEFAULT_GRID
from .experiments import (
    _KIND_TABLE,
    ExperimentConfig,
    GateError,
    check_gates,
    config_to_dict,
    run_experiment,
)
from .kernels import kernel_from_name
from .processes import ProcessModel, versions
from .util import _encoder, check_int, dumps_json, fmt_float

THREADS_ENV_VAR = "MIXKDE_THREADS"

REPORT_NAME = "report.json"
PER_N_NAME = "per_n.csv"
PLOTDATA_NAME = "plotdata.csv"
MANIFEST_NAME = "manifest.json"


_REQUIRED_KEYS = (
    "experiment.kind",
    "model.family",
    "kernel.family",
    "bandwidth.delta",
    "run.n_list",
    "run.replicates",
    "run.base_seed",
)


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """The raw key/value table of one config file."""
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{origin}:{lineno}: empty key or value in {raw.strip()!r}")
        if key not in _KEYS:
            raise ValueError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in table:
            raise ValueError(f"{origin}:{lineno}: duplicate key {key!r}")
        table[key] = value
    return table


def _conv_text(key: str, value: str) -> str:
    return value


def _conv_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"key {key!r}: value must be finite, got {value!r}")
    return out


def _conv_int(key: str, value: str) -> int:
    try:
        return int(value, base=10)
    except ValueError:
        raise ValueError(f"key {key!r}: expected an integer, got {value!r}") from None


def _list_of(convert):
    def conv(key: str, value: str) -> tuple:
        items = [item.strip() for item in value.split(",") if item.strip()]
        if not items:
            raise ValueError(f"key {key!r}: expected a comma-separated list, got {value!r}")
        return tuple(convert(key, item) for item in items)
    return conv


# Every config key: the dataclass field it sets and the converter of its text.
# A key the file leaves out is not passed on, so the field's default applies;
# a partly given grid is filled from DEFAULT_GRID.
_KEYS = {
    "experiment.kind": ("kind", _conv_text),
    "model.family": ("family", _conv_text),
    "model.phi": ("phi", _conv_float),
    "model.weights": ("weights", _list_of(_conv_float)),
    "model.innovation_sd": ("innovation_sd", _conv_float),
    "kernel.family": ("kernel", lambda key, value: kernel_from_name(value)),
    "bandwidth.c": ("c", _conv_float),
    "bandwidth.delta": ("delta", _conv_float),
    "bandwidth.slowly_varying": ("slowly_varying", _conv_text),
    "grid.lo": ("lo", _conv_float),
    "grid.hi": ("hi", _conv_float),
    "grid.m": ("m", _conv_int),
    "run.n_list": ("n_list", _list_of(_conv_int)),
    "run.replicates": ("replicates", _conv_int),
    "run.base_seed": ("base_seed", _conv_int),
    "run.eval_points": ("eval_points", _list_of(_conv_float)),
    "run.p": ("p", _conv_float),
    "block.alpha": ("block_alpha", _conv_float),
    "block.beta": ("block_beta", _conv_float),
}


def build_config(table: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from a raw key/value table."""
    missing = [key for key in _REQUIRED_KEYS if key not in table]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")

    def given(*sections: str) -> dict:
        return {
            field: convert(key, table[key])
            for key, (field, convert) in _KEYS.items()
            if key in table and key.split(".", 1)[0] in sections
        }

    model = ProcessModel(**given("model"))
    kernel = given("kernel")
    schedule = BandwidthSchedule(**given("bandwidth"))
    grid = replace(DEFAULT_GRID, **given("grid"))
    rest = given("experiment", "run", "block")
    return ExperimentConfig(model=model, schedule=schedule, grid=grid, **kernel, **rest)


def parse_config_file(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return build_config(parse_config_text(text, origin=str(path)))


# a CSV cell is the value's text, with bools in lower case and floats at 17 digits
_csv_cell = _encoder({bool: lambda cell: str(cell).lower(), int: str, float: fmt_float, object: str})


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_csv_cell(row.get(key)) for key in header]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plotdata_rows(report) -> list[dict]:
    """The kind's plot columns of each row, or its log-log points and fitted line.

    A kind with a slope plots (log x, log y) and the fit. When its rows carry
    an evaluation point x, only the rows at the first point are plotted.
    """
    columns = _KIND_TABLE[report.kind].plot
    if report.slope is None:
        return [{key: row[key] for key in columns} for row in report.rows]
    x_key, y_key = columns
    fit = report.slope
    first_x = report.rows[0].get("x")
    out = []
    for row in report.rows:
        if row.get("x") != first_x:
            continue
        log_x = math.log(row[x_key])
        out.append(
            {
                f"log_{x_key}": log_x,
                f"log_{y_key}": math.log(row[y_key]),
                "fitted_line": fit["intercept"] + fit["slope"] * log_x,
            }
        )
    return out


def _resolve_cli_threads(option: int | None) -> int:
    """--threads wins; otherwise the environment; otherwise auto (0)."""
    if option is not None:
        source, value = "--threads", option
    else:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"environment variable {THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        source = f"environment variable {THREADS_ENV_VAR}"
    check_int(value, source, 0)
    return value


def cmd_run(config_path, out_dir, threads: int | None = None) -> int:
    started = time.monotonic()
    threads = _resolve_cli_threads(threads)
    config = parse_config_file(config_path)
    report = run_experiment(config, threads=threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the manifest marks a bundle complete: drop an older run's before writing
    (out / MANIFEST_NAME).unlink(missing_ok=True)
    (out / REPORT_NAME).write_text(report.to_json(), encoding="utf-8")
    _write_rows_csv(out / PER_N_NAME, report.rows)
    _write_rows_csv(out / PLOTDATA_NAME, _plotdata_rows(report))
    manifest = {
        "tool_version": __version__,
        "versions": versions(),
        "config_path": str(config_path),
        "out_dir": str(out_dir),
        "config": config_to_dict(config),
        "files": [REPORT_NAME, PER_N_NAME, PLOTDATA_NAME, MANIFEST_NAME],
        "duration_seconds": time.monotonic() - started,
    }
    (out / MANIFEST_NAME).write_text(dumps_json(manifest), encoding="utf-8")
    print(f"{report.kind}: verdict {report.verdict} (outputs in {out})")
    return 0 if report.verdict == "pass" else 3


def cmd_validate(config_path) -> int:
    checks = check_gates(parse_config_file(config_path))
    ok = True
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        ok = ok and check.passed
        print(f"{tag} {check.condition}: {check.detail}")
    return 0 if ok else 2


def cmd_partition(k: int, alpha: float, beta: float, out_path) -> int:
    if k > MAX_LEVEL:
        raise ValueError(f"level k={k} is above the largest level {MAX_LEVEL}")
    try:
        partition = build_partition(k, alpha, beta)
    except ValueError as exc:
        print(f"partition rejected: {exc}", file=sys.stderr)
        return 2
    partition_to_csv(partition, out_path)
    print(
        f"k={partition.k}: p={partition.p_k} q={partition.q_k} r={partition.r_k} "
        f"bracket_ok={str(partition.bracket_ok).lower()} (table in {out_path})"
    )
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args leaves it unchanged."""
    parser = _ArgumentParser(
        prog="mixkde",
        description="Kernel density estimation experiments for dependent Gaussian sequences",
    )
    parser.add_argument("--version", action="version", version=f"mixkde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config and write reports")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker thread cap; 0 means one per CPU (default: ${THREADS_ENV_VAR} or 0)",
    )

    p_val = sub.add_parser("validate", help="check a config and print gate verdicts")
    p_val.add_argument("config", help="experiment config file")

    p_part = sub.add_parser("partition", help="write one dyadic block partition as CSV")
    p_part.add_argument("--k", type=int, required=True, help=f"dyadic level, at most {MAX_LEVEL}")
    p_part.add_argument("--alpha", type=float, required=True, help="big-block exponent")
    p_part.add_argument("--beta", type=float, required=True, help="small-block exponent")
    p_part.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    """Run one command; the one place an outcome becomes an exit code and a stderr line."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config, args.out, threads=args.threads)
        if args.command == "validate":
            return cmd_validate(args.config)
        return cmd_partition(args.k, args.alpha, args.beta, args.out)
    except GateError as exc:
        print(f"gate rejection ({exc.condition}): {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
