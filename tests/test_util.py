import collections
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from mixkde.bandwidth import BandwidthSchedule, bandwidth_at
from mixkde.cli import _write_rows_csv
from mixkde.blocking import _checked_level, bracket_threshold, build_partition
from mixkde.estimator import Grid, _check_h, binned_accuracy_bound
from mixkde.experiments import ExperimentConfig, fit_loglog_slope, moment_bound_check
from mixkde.kernels import kernel_from_name
from mixkde.processes import (ProcessModel, conditional_mean, generate_path, generate_paths, mixing_tail_bound,
                              plackett_lags, rho_mixing_coefficient)
from mixkde.util import (RowTable, _encoder, _key_text, _refuse, _thread_cap, clamped_log, derive_seed, dumps_json,
                         fmt_float, splitmix64)


def test_splitmix64_known_vector():
    # first output of the reference SplitMix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for state in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        out = splitmix64(state)
        assert 0 <= out < 2**64


def test_derive_seed_deterministic_and_distinct():
    seeds = [derive_seed(12345, i) for i in range(1000)]
    assert seeds == [derive_seed(12345, i) for i in range(1000)]
    assert len(set(seeds)) == 1000


def test_derive_seed_depends_on_base():
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError, match="work-unit index"):
        derive_seed(7, -1)


def test_clamped_log():
    assert clamped_log(0.001) == 1.0
    assert clamped_log(math.e) == 1.0
    assert clamped_log(math.e**2) == pytest.approx(2.0, abs=1e-12)


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0**-53, 1e300, -7.25):
        assert float(fmt_float(x)) == x


class _Int(int):
    pass


class _Float(float):
    pass


def test_dumps_json_floats_and_order():
    out = dumps_json({"b": 0.1, "a": [1, 2.5, None, True]})
    assert out == '{"b": 0.10000000000000001, "a": [1, 2.5, null, true]}\n'
    assert json.loads(out) == {"b": 0.1, "a": [1, 2.5, None, True]}
    # tuples are arrays, numpy floats and other subclasses are written as their base type, and
    # every double keeps 17 digits, -0.0 and the smallest subnormal included
    out = dumps_json({"t": (1, 2.5), "np": np.float64(0.1), "e": [[], {}, [[]], {"k": {}}],
                      "z": -0.0, "tiny": 5e-324, "big": 1e16, "sub": [_Int(3), _Float(0.5)]})
    assert out == ('{"t": [1, 2.5], "np": 0.10000000000000001, "e": [[], {}, [[]], {"k": {}}], "z": -0, '
                   '"tiny": 4.9406564584124654e-324, "big": 10000000000000000, "sub": [3, 0.5]}\n')
    # keys and strings are quoted as json.dumps quotes them, non-ASCII as \u escapes
    key, text = 'q"\\\n\tn\u00e9', 'a"b\\c\nd\u00e9\u2603\x01'
    out = dumps_json({key: [text]})
    assert out == '{"q\\"\\\\\\n\\tn\\u00e9": ["a\\"b\\\\c\\nd\\u00e9\\u2603\\u0001"]}\n'
    assert json.loads(out) == {key: [text]}


def test_dumps_json_nonfinite_as_strings():
    out = dumps_json({"v": math.inf, "w": math.nan})
    parsed = json.loads(out)
    assert parsed["v"] == "inf"
    assert parsed["w"] == "nan"
    out = dumps_json([True, False, math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
    assert out == '[true, false, "nan", "inf", "-inf", "nan", "-inf"]\n'


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_json({"x": object()})
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps_json({1: "x"})
    # numpy ints are not ints, sets are not arrays, and a tuple is not a key, at any depth
    for obj, message in ((np.int64(3), "cannot serialize int64"), ([1, {"a": {2.5}}], "cannot serialize set"),
                         ({"a": [{(1, 2): 0}]}, r"keys must be strings, got \(1, 2\)")):
        with pytest.raises(TypeError, match=message):
            dumps_json(obj)


def test_rows_csv_writes_each_cell_type(tmp_path):
    path = tmp_path / "rows.csv"
    # the rows' keys are the header; None is written as None; a numpy float is written as a float
    _write_rows_csv(path, RowTable([{"a": True, "b": 3, "c": 0.1, "d": None, "e": "x y"},
                                    {"a": False, "b": _Int(-7), "c": np.float64(1e16), "d": 2, "e": "s"},
                                    {"a": None, "b": 5, "c": math.inf, "d": None, "e": None}]))
    assert path.read_text(encoding="utf-8") == ("a,b,c,d,e\ntrue,3,0.10000000000000001,None,x y\n"
                                                "false,-7,10000000000000000,2,s\nNone,5,inf,None,None\n")
    # a cell's text is its JSON text, so the CSV refuses what report.json refuses: a numpy int, say
    for rows, message in (([{1: 0.5}], "expected str instance, int found"),
                          ([{"b": 3}, {"b": np.int64(5)}], "cannot serialize int64")):
        with pytest.raises(TypeError, match=message):
            _write_rows_csv(path, RowTable(rows))


# The per-value writers that rendered report.json and the CSV tables before lists were rendered by
# column: the reference that the column writers must match byte for byte.
def _reference_array(obj) -> str:
    return "[" + ", ".join([_reference_json(val) for val in obj]) + "]"


_reference_json = _encoder({
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: str,
    float: lambda obj: fmt_float(obj) if math.isfinite(obj) else encode_basestring_ascii(str(obj)),
    str: encode_basestring_ascii,
    dict: lambda obj: "{" + ", ".join([_key_text(key) + _reference_json(val) for key, val in obj.items()]) + "}",
    list: _reference_array,
    tuple: _reference_array,
    object: _refuse,
})


# cli._csv_cell before CSV cells were taken from their JSON texts: the type table of a CSV cell
_reference_csv_cell = _encoder({bool: lambda cell: str(cell).lower(), int: str, float: fmt_float, object: str})


def _reference_csv(rows) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_reference_csv_cell(row.get(key)) for key in header]))
    return "\n".join(lines) + "\n"


_FLOATS = [0.1, -0.0, 5e-324, 1e16, -2.5e-300, 1.7976931348623157e308, 3.0]
# each table's rows share their keys in one order unless its name says otherwise
TABLES = {
    "finite floats": [{"n": 2**k, "h": 2.0**-k / 3.0, "x": x} for k in range(8) for x in _FLOATS],
    "non-finite among finite": [{"v": x} for x in _FLOATS + [math.nan, math.inf, -math.inf]],
    "mixed cells": [{"f": 0.1, "g": math.inf, "i": 3, "b": True, "z": None, "s": "a,b", "m": 1.5},
                    {"f": -math.inf, "g": 2.5, "i": -7, "b": False, "z": 1.5, "s": 'q"', "m": "x"},
                    {"f": math.nan, "g": -0.0, "i": 2**70, "b": True, "z": -math.inf, "s": "", "m": None},
                    {"f": 5e-324, "g": math.nan, "i": 0, "b": False, "z": "null", "s": "nan", "m": 7}],
    "numpy and subclass floats": [{"v": 0.5}, {"v": np.float64(0.1)}, {"v": _Float(2.5)}, {"v": np.float64("nan")}],
    # a column all of exact ints or all of bools is rendered whole, not cell by cell
    "int and bool columns": [{"n": n, "b": n % 3 == 0, "x": 0.5 * n} for n in (-7, 0, 1, 2**70, -2**64, 10**30)],
    "bools ints and None": [{"a": True, "b": 3, "c": None}, {"a": False, "b": _Int(-7), "c": 1.5},
                            {"a": 1, "b": 2**70, "c": 0.25}],
    "escaped strings and keys": [{'q"': 'a"b\\c\ndé☃\x01', "%s %d %%": 1.0, "é": "%s"},
                                 {'q"': "", "%s %d %%": -1.0, "é": "%(x)s"}],
    "lists and dicts as cells": [{"slopes": [{"x": 0.5, "s": 1.0}, {"x": 1.5, "s": math.nan}], "t": (1.0, 2.0)},
                                 {"slopes": [], "t": {"k": [0.1, {}]}}, {"slopes": [{}], "t": [[]]}],
    "another key order": [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}, {"a": 5.0, "b": 6.0}],
    "a missing key": [{"a": 1.0, "b": 2.0}, {"a": 3.0}, {"a": 5.0, "b": 6.0}],
    "an extra key": [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
    "a dict subclass row": [{"a": 1.0}, collections.OrderedDict(a=2.0)],
    "empty dicts": [{}, {}],
    "one row": [{"a": 0.1, "b": "x"}],
    "empty": [],
    "tuple of rows": ({"a": 0.1}, {"a": 0.2}),
    "flat floats": [0.1, -0.0, 5e-324, 1e16],
    "flat floats with nan": [0.1, math.nan, 2.0],
    "flat ints": [3, -1, 0, 2**70],
    "flat bools": [True, False, False],
    "flat mixed": [1, 2.5, None, True, "s", np.float64(0.3)],
}
# the lists above that are not tables (util._table_keys), which RowTable refuses
NOT_TABLES = {"another key order", "a missing key", "an extra key", "a dict subclass row", "empty dicts", "empty"}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tables_keep_the_bytes_of_the_per_value_writers(name, tmp_path):
    table = TABLES[name]
    assert dumps_json(table) == _reference_json(table) + "\n"
    assert dumps_json({"rows": table, "summary": {"paths": table}}) == \
        _reference_json({"rows": table, "summary": {"paths": table}}) + "\n"
    rows = table if all(isinstance(row, dict) for row in table) else [{"v": v} for v in table]
    if name in NOT_TABLES:
        with pytest.raises(ValueError, match="same keys in the same order"):
            RowTable(rows)
        return
    # one RowTable renders each cell once, for the JSON array and for the CSV lines
    rendered = RowTable(rows)
    assert dumps_json({"rows": rendered, "n": 1}) == _reference_json({"rows": rows, "n": 1}) + "\n"
    _write_rows_csv(tmp_path / "rows.csv", rendered)
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8") == _reference_csv(rows)


def test_tables_refuse_non_string_keys_and_unknown_types(tmp_path):
    for obj, message in (([{1: 0.5}, {1: 0.5}], "keys must be strings"),
                         ([{"a": 0.5}, {"a": object()}], "cannot serialize object"),
                         ([0.5, {2.5}], "cannot serialize set"),
                         ([{"a": 1.0, (1, 2): 0}, {"a": 1.0, (1, 2): 0}], "keys must be strings")):
        with pytest.raises(TypeError, match=message):
            dumps_json(obj)
    with pytest.raises(TypeError):
        _write_rows_csv(tmp_path / "rows.csv", RowTable([{1: 0.5}, {1: 0.25}]))


AR1 = ProcessModel("ar1", phi=0.5)
EPANECHNIKOV = kernel_from_name("epanechnikov")


def _config(**fields):
    base = dict(kind="rate_sup_lp", model=AR1, kernel=kernel_from_name("gaussian"),
                schedule=BandwidthSchedule(c=1.0, delta=0.2), n_list=(64, 128, 256), eval_points=(0.0,),
                replicates=4, base_seed=7)
    return ExperimentConfig(**{**base, **fields})


def _outcome(call, value):
    """call(value) as text that shows every type and bit, or the ValueError it raises."""
    try:
        got = call(value)
    except ValueError as error:
        return f"ValueError: {error}"
    if isinstance(got, np.ndarray):
        return f"{got.dtype} {got.tobytes().hex()}"
    return repr(got)


# every integer argument admitted by util.check_int: (name, least, call with value)
CHECK_INT_SITES = {
    "bandwidth_at": ("sample size", 1, lambda v: bandwidth_at(BandwidthSchedule(c=1.0, delta=0.2), v)),
    "_checked_level": ("level k", 1, lambda v: _checked_level(v, 0.5, 0.25)),
    "generate_paths": ("path length", 1, lambda v: generate_paths(AR1, v, [1])),
    "rho_mixing_coefficient": ("lag", 1, lambda v: rho_mixing_coefficient(AR1, v)),
    "conditional_mean": ("horizon", 1, lambda v: conditional_mean(AR1, 1.0, v)),
    "_thread_cap": ("threads", 0, _thread_cap),
    "ExperimentConfig": ("replicates", 1, lambda v: _config(replicates=v).replicates),
    "moment_bound_check": ("replicates", 1, lambda v: moment_bound_check(AR1, 2, 4, 0.5, 0.25, v, 7)),
    "Grid": ("grid m", 2, lambda v: Grid(-1.0, 1.0, v).m),
}


@pytest.mark.parametrize("site", sorted(CHECK_INT_SITES))
def test_integer_arguments_refuse_bools_fractions_and_small_values(site):
    name, least, call = CHECK_INT_SITES[site]
    # repr cannot print an int of over 4300 digits; the echo names its size instead
    for value, echo in ((True, "True"), (1.5, "1.5"), (least - 1, str(least - 1)),
                        (-10**5000, "a negative int of 16610 bits")):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer >= {least}, got {echo}"


@pytest.mark.parametrize("site", sorted(CHECK_INT_SITES))
def test_numpy_integers_count_by_value(site):
    _, least, call = CHECK_INT_SITES[site]
    for value in (np.int64(least), np.uint8(least + 3)):
        assert _outcome(call, value) == _outcome(call, int(value))


# every real argument admitted by util.check_real, and the bandwidth by estimator._check_h:
# (the start of the error, call with value, the numpy and -0.0 values it admits);
# a site that needs a positive value refuses -0.0 as it refuses 0.0
REALS = (np.float32(0.5), np.int64(0), -0.0)
POSITIVE = (np.float32(0.5), np.int64(2))
CHECK_REAL_SITES = {
    "Grid.lo": ("grid lo", lambda v: Grid(v, 3.0, 5).lo, REALS),
    "Grid.hi": ("grid hi", lambda v: Grid(-3.0, v, 5).hi, REALS),
    "ProcessModel.phi": ("phi", lambda v: ProcessModel("ar1", phi=v).phi, REALS),
    "ProcessModel.innovation_sd": ("innovation_sd", lambda v: ProcessModel("iid", innovation_sd=v).innovation_sd,
                                   POSITIVE),
    "ProcessModel.weights": ("ma weight", lambda v: ProcessModel("ma", weights=(1.0, v)).weights[1], REALS),
    "BandwidthSchedule.c": ("schedule constant c", lambda v: BandwidthSchedule(c=v, delta=0.2).c, POSITIVE),
    "BandwidthSchedule.delta": ("schedule exponent delta", lambda v: BandwidthSchedule(delta=v).delta, REALS),
    "ExperimentConfig.eval_points": ("eval_points entry", lambda v: _config(eval_points=(v,)).eval_points[0],
                                     REALS),
    "ExperimentConfig.p": ("p", lambda v: _config(p=v).p, (np.float32(1.5), np.int64(2))),
    "ExperimentConfig.block_alpha": ("block_alpha", lambda v: _config(block_alpha=v).block_alpha, REALS),
    "ExperimentConfig.block_beta": ("block_beta", lambda v: _config(block_beta=v).block_beta, REALS),
    "build_partition.alpha": ("block exponent alpha", lambda v: build_partition(5, v, 0.25).alpha,
                              (np.float32(0.5),)),
    "build_partition.beta": ("block exponent beta", lambda v: build_partition(5, 0.6, v).beta, (np.float32(0.25),)),
    "bracket_threshold.alpha": ("block exponent alpha", lambda v: bracket_threshold(v, 0.25), (np.float32(0.5),)),
    "bracket_threshold.beta": ("block exponent beta", lambda v: bracket_threshold(0.6, v), (np.float32(0.25),)),
    "mixing_tail_bound": ("power", lambda v: mixing_tail_bound(AR1, v)["partial_sum"], POSITIVE),
    "conditional_mean": ("last_value", lambda v: conditional_mean(AR1, v, 1), REALS),
    # held to [1e-12, 1e12] marginal sds: the ceiling, as a numpy int, is admitted at a marginal sd of 1
    "bandwidth": ("bandwidth", lambda v: _check_h(v, 1.0), POSITIVE + (np.int64(10**12),)),
    "fit_loglog_slope.xs": ("xs entry", lambda v: fit_loglog_slope([1.0, 3.0, v], [1.0, 2.0, 4.0]), POSITIVE),
    "fit_loglog_slope.ys": ("ys entry", lambda v: fit_loglog_slope([1.0, 3.0, 4.0], [1.0, 2.0, v]), POSITIVE),
    "plackett_lags": ("phi", plackett_lags, REALS),
    "binned_accuracy_bound.h": ("bandwidth", lambda v: binned_accuracy_bound(EPANECHNIKOV, v, 0.01), POSITIVE),
    "binned_accuracy_bound.spacing": ("grid spacing", lambda v: binned_accuracy_bound(EPANECHNIKOV, 0.3, v),
                                      POSITIVE),
}


@pytest.mark.parametrize("site", sorted(CHECK_REAL_SITES))
def test_real_arguments_refuse_bools_text_and_non_finite_values(site):
    name, call, admitted = CHECK_REAL_SITES[site]
    what = "a positive finite number" if name == "bandwidth" else "a finite real number"
    for value, echo in ((True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"), (None, "None"),
                        (0.5 + 0j, "(0.5+0j)"), (math.nan, "nan"), (math.inf, "inf"),
                        (10**400, "an int of 1329 bits")):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be {what}, got {echo}"
    # stored, and computed with, as the Python float; -0.0 as 0.0
    for value in admitted:
        assert _outcome(call, value) == _outcome(call, float(value) if value else 0.0), value


def _path_bits(path):
    return path.values.tobytes(), path.seed


# every seed admitted by util.check_seed: (name, call with seed)
CHECK_SEED_SITES = {
    "ExperimentConfig": ("base_seed", lambda s: _config(base_seed=s).base_seed),
    "generate_path": ("seed", lambda s: _path_bits(generate_path(AR1, 4, s))),
    "generate_paths": ("seed", lambda s: generate_paths(AR1, 4, [5, s])),
    "moment_bound_check": ("base_seed", lambda s: moment_bound_check(AR1, 2, 4, 0.5, 0.25, 2, s)),
    "derive_seed": ("base_seed", lambda s: derive_seed(s, 3)),
}


@pytest.mark.parametrize("site", sorted(CHECK_SEED_SITES))
def test_seeds_are_integers_of_at_most_64_bits(site):
    name, call = CHECK_SEED_SITES[site]
    # 1.9 and True would draw seed 1, "1" would be parsed, and 2^70 would lose its high bits
    for value, echo in ((True, "True"), (1.9, "1.9"), ("1", "'1'"), (2**70, "1180591620717411303424")):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer of at most 64 bits, got {echo}"
    assert _outcome(call, np.uint64(2**64 - 1)) == _outcome(call, 2**64 - 1)
