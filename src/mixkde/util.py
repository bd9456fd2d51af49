"""Shared helpers: scalar admission, seed derivation, the replicate pool, the
log convention, deterministic serialization.

check_int, check_seed, check_real and _real_points admit every integer, seed,
real and point argument by one rule (README "Library layout", mixkde.util).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from json.encoder import encode_basestring_ascii

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> int:
    """One SplitMix64 step: advance `state` by the odd constant and mix."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for work unit `index` of the run keyed by `base_seed`.

    This is output `index` of the SplitMix64 stream started at `base_seed`,
    so distinct indices give decorrelated 64-bit keys and the mapping is part
    of the on-disk reproducibility contract: the same (base_seed, index) pair
    must yield the same stream on every platform.
    """
    index = check_int(index, "work-unit index", 0)
    return splitmix64((check_seed(base_seed, "base_seed") + index * _GOLDEN) & _MASK64)


def _echo(value) -> str:
    """repr(value) cut to 60 characters; an int of over 128 bits (repr fails at 4300 digits) by its size."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def check_int(value, name: str, least: int) -> int:
    """value as an int; refused unless an integer (numpy's by value, never a bool) of at least `least`."""
    if type(value) is int and value >= least:  # the common case, without the ABC and bool tests
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {_echo(value)}")
    return int(value)


def check_seed(value, name: str) -> int:
    """value as an int; refused unless an integer (as for check_int) of at most 64 bits, the width of a key."""
    if type(value) is int and value.bit_length() <= 64:  # as in check_int
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or int(value).bit_length() > 64:
        raise ValueError(f"{name} must be an integer of at most 64 bits, got {_echo(value)}")
    return int(value)


def _as_real(value) -> float:
    """value as a float, -0.0 as 0.0, inf for an int too large for a double; NaN unless a real number
    (numpy's by value, never a bool)."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):  # float, int skip the ABC
        return math.nan
    try:
        return float(value) + 0.0
    except OverflowError:
        return math.inf


def check_real(value, name: str) -> float:
    """value as a float (_as_real); refused unless finite."""
    real = _as_real(value)
    if not math.isfinite(real):
        raise ValueError(f"{name} must be a finite real number, got {_echo(value)}")
    return real


def _real_points(x) -> np.ndarray:
    """x as a float array; NaN, bools, strings and ints beyond 64 bits get a ValueError naming x; +-inf stay."""
    points = np.asarray(x)
    if points.dtype.kind in "iuf":
        points = points.astype(float, copy=False)
    # other kinds: bools, strings, None, ints beyond 64 bits (objects); math.isnan takes one point 20x faster
    if points.dtype.kind != "f" or (np.count_nonzero(np.isnan(points)) if points.ndim else math.isnan(points)):
        raise ValueError(f"x must be real numbers other than NaN, got {_echo(x)}")
    return points


def _real_point(x) -> float:
    """One point x as a float, checked as _real_points checks it; an array of another size is refused."""
    points = _real_points(x)
    if points.size != 1:
        raise ValueError(f"x must be one point, got {_echo(x)}")
    return points.item()


def _thread_cap(threads: int | None) -> int:
    """The most threads a replicate pool may run: 0 or None means one per CPU; no cap exceeds that."""
    cpus = os.cpu_count() or 1
    threads = check_int(0 if threads is None else threads, "threads", 0)
    return min(threads, cpus) if threads else cpus


def _run_replicates(count: int, threads: int | None, worker) -> None:
    """Run worker(i) for i in range(count), possibly on a thread pool.

    The pool never has more threads than CPUs or replicates, and hands out
    one index at a time. Each worker call must write only its own output
    slots; results are aggregated by index afterwards, so any thread count
    gives identical bytes.
    """
    t = min(_thread_cap(threads), count)
    if t <= 1:
        for i in range(count):
            worker(i)
        return
    with ThreadPoolExecutor(max_workers=t) as pool:
        list(pool.map(worker, range(count)))


def clamped_log(x: float) -> float:
    """log(max(x, e)), the convention that keeps logarithmic factors >= 1."""
    return math.log(max(x, math.e))


def fmt_float(x: float) -> str:
    """Decimal form with 17 significant digits; round-trips any double."""
    return format(float(x), ".17g")


def _encoder(table: dict):
    """value -> table[type(value)](value); a type not in the table takes its first base's entry.

    The bases are tried in the table's order, which ends with object.
    """
    def encode(value) -> str:
        kind = type(value)
        text = table.get(kind)
        if text is None:
            text = table[kind] = next(table[base] for base in tuple(table) if issubclass(kind, base))
        return text(value)

    return encode


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {_echo(key)}")
    return encode_basestring_ascii(key) + ": "


def _json_object(obj: dict) -> str:
    return "{" + ", ".join([_key_text(key) + _json(val) for key, val in obj.items()]) + "}"


_BOOL_TEXT = {False: "false", True: "true"}


def _column(cells, encode) -> list[str]:
    """The text of each cell, by encode unless the column is all of one exact type.

    A column of finite floats takes one %-format call, one of ints str, and
    one of bools a lookup; each gives encode's text.
    """
    types = set(map(type, cells))
    if types == {float}:
        # "%.17g" writes format(x, ".17g"); "inf" and "nan" are the only texts with an "n"
        text = ("%.17g\n" * len(cells)) % tuple(cells)
        if "n" not in text:
            return text[:-1].split("\n")
    elif types == {int}:
        return list(map(str, cells))
    elif types == {bool}:
        return list(map(_BOOL_TEXT.__getitem__, cells))
    return [encode(cell) for cell in cells]


def _table_keys(rows) -> tuple:
    """The keys of one or more dicts with the same keys in the same order; () for any other list."""
    keys = tuple(rows[0]) if rows and type(rows[0]) is dict else ()
    return keys if all(type(row) is dict and tuple(row) == keys for row in rows) else ()


def _json_array(obj) -> str:
    """A list, rendered by column: a table (_table_keys) as a RowTable, any other list as one column."""
    if _table_keys(obj):
        return RowTable(obj).json()
    return "[" + ", ".join(_column(obj, _json)) + "]"


def _csv_column(cells, texts: list[str]) -> list[str]:
    """The CSV texts of a column: a JSON text that starts with '"', 'n', '[' or '{' is replaced by str(cell).

    No other JSON text holds one of those characters, so a column without them keeps its texts.
    """
    joined = "".join(texts)
    if not any(char in joined for char in '"n[{'):
        return texts
    return [str(cell) if text[0] in '"n[{' else text for cell, text in zip(cells, texts)]


class RowTable:
    """A table (_table_keys) whose cells are rendered once, by column, for a JSON file and a CSV file.

    The header is the rows' keys; column j holds the JSON text of each row's
    value at header[j]. dumps_json writes a RowTable as its rows' JSON array,
    joined from the columns, and csv() builds the CSV lines from the same
    texts. Any list that is not a table is refused with ValueError.
    """

    def __init__(self, rows):
        self.header = _table_keys(rows)
        if not self.header:
            raise ValueError(f"rows must be dicts with the same keys in the same order, got {_echo(rows)}")
        self.cells = list(zip(*[row.values() for row in rows]))
        self.columns = [_column(column, _json) for column in self.cells]

    def json(self) -> str:
        template = "{" + ", ".join([_key_text(key).replace("%", "%%") + "%s" for key in self.header]) + "}"
        return "[" + ", ".join([template % cells for cells in zip(*self.columns)]) + "]"

    def csv(self) -> str:
        """The header line and one line per row.

        A cell's CSV text is its JSON text, unless that is a string, null, an
        array or an object, which is written by str(): None as None, a
        non-finite float as nan, inf or -inf, a string unquoted, a list by its
        repr.
        """
        columns = [_csv_column(cells, texts) for cells, texts in zip(self.cells, self.columns)]
        lines = [",".join(row) for row in zip(*columns)]
        return "\n".join([",".join(self.header), *lines]) + "\n"


def _refuse(obj):
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


# JSON has no literal for a non-finite float; it is written as the string of its str()
_json = _encoder({
    type(None): lambda obj: "null",
    bool: _BOOL_TEXT.__getitem__,
    int: str,
    float: lambda obj: fmt_float(obj) if math.isfinite(obj) else encode_basestring_ascii(str(obj)),
    str: encode_basestring_ascii,
    dict: _json_object,
    list: _json_array,
    tuple: _json_array,
    RowTable: RowTable.json,
    object: _refuse,
})


def dumps_json(obj) -> str:
    """Serialize to JSON with every float at 17 significant digits.

    Key order is preserved as given, so reports built the same way are
    byte-identical. The stdlib encoder is avoided because its float repr is
    shortest-round-trip, not fixed-width, which makes diffs noisier.
    """
    return _json(obj) + "\n"
