import json
import math

import numpy as np
import pytest

from mixkde.bandwidth import BandwidthSchedule, bandwidth_at
from mixkde.cli import _write_rows_csv
from mixkde.blocking import _checked_level
from mixkde.experiments import ExperimentConfig, moment_bound_check
from mixkde.kernels import kernel_from_name
from mixkde.processes import ProcessModel, conditional_mean, generate_paths, rho_mixing_coefficient
from mixkde.util import clamped_log, derive_seed, dumps_json, fmt_float, resolve_threads, splitmix64


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
    # the first row's keys are the header; a missing key is None; numpy scalars are written by str
    _write_rows_csv(path, [{"a": True, "b": 3, "c": 0.1, "d": None, "e": "x y"},
                           {"a": False, "b": _Int(-7), "c": np.float64(1e16), "e": "s", "d": 2},
                           {"b": np.int64(5), "c": math.inf}])
    assert path.read_text(encoding="utf-8") == ("a,b,c,d,e\ntrue,3,0.10000000000000001,None,x y\n"
                                                "false,-7,10000000000000000,2,s\nNone,5,inf,None,None\n")
    with pytest.raises(TypeError):
        _write_rows_csv(path, [{1: 0.5}])


AR1 = ProcessModel("ar1", phi=0.5)

# every integer argument admitted by util.check_int: (name, least, call with value)
CHECK_INT_SITES = {
    "bandwidth_at": ("sample size", 1, lambda v: bandwidth_at(BandwidthSchedule(c=1.0, delta=0.2), v)),
    "_checked_level": ("level k", 1, lambda v: _checked_level(v, 0.5, 0.25)),
    "generate_paths": ("path length", 1, lambda v: generate_paths(AR1, v, [1])),
    "rho_mixing_coefficient": ("lag", 1, lambda v: rho_mixing_coefficient(AR1, v)),
    "conditional_mean": ("horizon", 1, lambda v: conditional_mean(AR1, 1.0, v)),
    "resolve_threads": ("threads", 0, resolve_threads),
    "ExperimentConfig": ("replicates", 1, lambda v: ExperimentConfig(
        kind="rate_sup_lp", model=AR1, kernel=kernel_from_name("gaussian"),
        schedule=BandwidthSchedule(c=1.0, delta=0.2), n_list=(64, 128, 256),
        eval_points=(0.0,), replicates=v, base_seed=7)),
    "moment_bound_check": ("replicates", 1, lambda v: moment_bound_check(AR1, 2, 4, 0.5, 0.25, v, 7)),
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
