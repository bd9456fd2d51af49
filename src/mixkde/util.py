"""Shared helpers: seed derivation, the replicate pool, the log convention,
deterministic serialization."""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

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
    if index < 0:
        raise ValueError(f"work-unit index must be >= 0, got {index}")
    return splitmix64((base_seed + index * _GOLDEN) & _MASK64)


def check_int(value, name: str, least: int) -> None:
    """Refuse `value` unless it is an int (not a bool) and at least `least`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(value, name: str) -> None:
    """Refuse `value` unless it is a finite real number (not a bool), naming the field.

    An int too large for a double is refused too; math.isfinite raises
    OverflowError on it.
    """
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def resolve_threads(threads: int | None) -> int:
    """0 or None means one worker per CPU; otherwise the explicit cap."""
    if threads is None:
        threads = 0
    check_int(threads, "threads", 0)
    if threads == 0:
        return os.cpu_count() or 1
    return threads


def _run_replicates(count: int, threads: int | None, worker) -> None:
    """Run worker(i) for i in range(count), possibly on a thread pool.

    The pool never has more threads than CPUs or replicates, and hands out
    one index at a time. Each worker call must write only its own output
    slots; results are aggregated by index afterwards, so any thread count
    gives identical bytes.
    """
    t = min(resolve_threads(threads), count, os.cpu_count() or 1)
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


def _write_json(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            # JSON has no literal for these; keep them readable and parseable
            # as strings rather than emitting an invalid token.
            parts.append(json.dumps(str(obj)))
        else:
            parts.append(fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _write_json(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _write_json(val, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize to JSON with every float at 17 significant digits.

    Key order is preserved as given, so reports built the same way are
    byte-identical. The stdlib encoder is avoided because its float repr is
    shortest-round-trip, not fixed-width, which makes diffs noisier.
    """
    parts: list[str] = []
    _write_json(obj, parts)
    parts.append("\n")
    return "".join(parts)
