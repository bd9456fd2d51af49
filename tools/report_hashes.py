"""Hash the output bundles of a fixed set of tiny experiment configs.

Runs every experiment kind x model (iid, AR(1) phi 0.25, MA(1, 0.3)) x
kernel family x bandwidth delta (0.3, 0.8) at tiny scale through
`mixkde.cli.main`, once with `validate` and once with `run`, and prints one
JSON object per config: both exit codes, the sha256 of the `validate`
output, and the sha256 of report.json, per_n.csv and plotdata.csv.
manifest.json is left out, since it records paths and run time. With
--numbers the JSON also holds every number in report.json, so two runs can
be compared value by value.

    python tools/report_hashes.py --numbers > after.json
    python tools/report_hashes.py --src ../parent/src --numbers > before.json
    python tools/report_hashes.py --diff before.json after.json

--src picks the checkout whose `mixkde` runs (default: this checkout's
src/). --only keeps the configs whose label contains one of its strings.
--diff prints, per config, what differs between two outputs, and per kind
the largest relative difference of the report numbers; it exits 1 when any
config's exit codes, validate output or bundle files differ. --pin writes
one sha256 per config over its exit codes and hashes, with the versions
the bundle's manifest.json records (`mixkde.processes.versions()`) but the
platform, whose kernel release differs between hosts that give the same
bits, to the table that tests/test_tools.py checks:

    python tools/report_hashes.py --pin tests/report_digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLE = ("report.json", "per_n.csv", "plotdata.csv")
KINDS = ("clt_density", "clt_cdf_centered", "clt_cdf_true", "rate_sup_lp",
         "rate_integral_lp", "uniform_as", "bias", "moment_bound")
MODELS = {
    "iid": "model.family = iid\n",
    "ar1": "model.family = ar1\nmodel.phi = 0.25\n",
    "ma": "model.family = ma\nmodel.weights = 1.0, 0.3\n",
}
FAMILIES = ("gaussian", "epanechnikov", "triangular", "uniform")
DELTAS = ("0.3", "0.8")
# per kind: the sample sizes (block levels for moment_bound), replicates and
# any further keys
SHAPES = {
    "clt_density": ("256", 100, "run.eval_points = 0.0, 0.5\n"),
    "clt_cdf_centered": ("256", 100, "run.eval_points = 0.0, 0.5\n"),
    "clt_cdf_true": ("256", 100, "run.eval_points = 0.0, 0.5\n"),
    "rate_sup_lp": ("128, 256, 512", 4, "run.eval_points = 0.0, 0.5\n"),
    "rate_integral_lp": ("128, 256, 512", 4, ""),
    "uniform_as": ("256, 512, 1024", 4, ""),
    "bias": ("256, 512, 1024", 1, "run.eval_points = 0.0, 0.5\n"),
    "moment_bound": ("6, 7, 8", 20, ""),
}


def configs() -> dict[str, str]:
    out = {}
    for kind, model, family, delta in itertools.product(KINDS, MODELS, FAMILIES, DELTAS):
        n_list, replicates, extra = SHAPES[kind]
        out[f"{kind}-{model}-{family}-{delta}"] = (
            f"experiment.kind = {kind}\n{MODELS[model]}kernel.family = {family}\n"
            f"bandwidth.delta = {delta}\nrun.n_list = {n_list}\nrun.replicates = {replicates}\n"
            f"{extra}run.base_seed = 7\n"
        )
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _numbers(value) -> list[float]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return []


def _call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def hash_config(main, label: str, text: str, workdir: Path, numbers: bool) -> dict:
    cfg = workdir / f"{label}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = workdir / label
    validate_code, validate_text = _call(main, ["validate", str(cfg)])
    run_code, _ = _call(main, ["run", str(cfg), "--out", str(out), "--threads", "1"])
    entry = {
        "validate_exit": validate_code,
        "validate_sha256": _sha(validate_text.encode()),
        "run_exit": run_code,
        "files": {name: _sha((out / name).read_bytes()) for name in BUNDLE if (out / name).is_file()},
    }
    if numbers and (out / "report.json").is_file():
        entry["numbers"] = _numbers(json.loads((out / "report.json").read_text()))
    return entry


def hash_all(main, only: list[str], numbers: bool) -> dict:
    table = {k: v for k, v in configs().items() if not only or any(s in k for s in only)}
    with tempfile.TemporaryDirectory() as tmp:
        return {label: hash_config(main, label, text, Path(tmp), numbers) for label, text in table.items()}


def run(src: Path, only: list[str], numbers: bool) -> dict:
    sys.path.insert(0, str(src))
    from mixkde.cli import main

    return hash_all(main, only, numbers)


KEYS = ("validate_exit", "validate_sha256", "run_exit", "files")


def digest(entry: dict) -> str:
    """One sha256 over a config's exit codes, validate output and bundle files."""
    return _sha(json.dumps({k: entry[k] for k in KEYS}, sort_keys=True).encode())


def _relative(a: list[float], b: list[float]) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def diff(before: dict, after: dict) -> int:
    """Print what differs; return the number of configs that are not identical."""
    moved: dict[str, float] = {}
    codes = 0
    for label in sorted(before.keys() | after.keys()):
        a, b = before.get(label), after.get(label)
        if a is None or b is None:
            print(f"{label}: only in {'after' if a is None else 'before'}")
            continue
        notes = []
        for key in ("validate_exit", "run_exit"):
            if a[key] != b[key]:
                notes.append(f"{key} {a[key]} -> {b[key]}")
                codes += 1
        if a["validate_sha256"] != b["validate_sha256"]:
            notes.append("validate output")
        changed = sorted(k for k in a["files"].keys() | b["files"].keys() if a["files"].get(k) != b["files"].get(k))
        if changed:
            notes.append("files " + ", ".join(changed))
        if "numbers" in a and "numbers" in b:
            if len(a["numbers"]) != len(b["numbers"]):
                notes.append("report shape")
            elif "report.json" in changed:
                rel = _relative(a["numbers"], b["numbers"])
                notes.append(f"largest relative difference {rel:.3g}")
                kind = label.split("-")[0]
                moved[kind] = max(moved.get(kind, 0.0), rel)
        if notes:
            print(f"{label}: {'; '.join(notes)}")
    same = sum(1 for k in before if k in after and all(before[k][f] == after[k][f] for f in KEYS))
    print(f"{same} of {len(before)} configs identical; {codes} exit codes differ")
    for kind, rel in sorted(moved.items()):
        print(f"  {kind}: largest relative difference {rel:.3g}")
    return len(before.keys() | after.keys()) - same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the mixkde package")
    parser.add_argument("--only", nargs="*", default=[], help="keep configs whose label contains one of these")
    parser.add_argument("--numbers", action="store_true", help="also record the numbers in report.json")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two outputs of this script")
    parser.add_argument("--pin", type=Path, metavar="TABLE", help="write the digest table to TABLE")
    args = parser.parse_args(argv)
    if args.diff:
        before, after = (json.loads(p.read_text()) for p in args.diff)
        return 1 if diff(before, after) else 0
    hashes = run(args.src, args.only, args.numbers)
    if args.pin:
        from mixkde.processes import versions  # the mixkde that run() imported

        pinned = {key: value for key, value in versions().items() if key != "platform"}
        table = {"versions": pinned, "configs": {k: digest(v) for k, v in hashes.items()}}
        args.pin.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
