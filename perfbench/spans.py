"""Spans around calls into mixkde's layers, installed from outside the program.

A traced run replaces module-level names that the runners, the CLI and the
public API call (for example mixkde.experiments.generate_path) with wrappers
that record one span per call: layer, start, end, parent span and thread.
Spans stay in memory; per-layer figures are computed from them when a round
ends. A span's self time is its duration minus the time its children in the
same thread cover. Calls made inside replicate workers on other threads take
the open replicate-loop span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int  # layer-specific count: values drawn, points summed, bytes written


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _points_arg(args, kwargs, result) -> int:
    return int(args[3].size)


# (layer, work count, module-level names that callers go through)
LAYERS = (
    ("processes.generate_path", _len_result,
     ("experiments.generate_path", "blocking.generate_path", "processes.generate_path")),
    ("processes.indicator_long_run_variance", None,
     ("experiments.indicator_long_run_variance", "estimator.indicator_long_run_variance",
      "processes.indicator_long_run_variance")),
    ("estimator.kernel_window_sums", _points_arg,
     ("experiments._kernel_window_sums", "estimator._kernel_window_sums")),
    ("estimator.cdf_window_sums", _points_arg,
     ("experiments._cdf_window_sums", "estimator._cdf_window_sums")),
    ("estimator.density_estimate", None, ("estimator.density_estimate",)),
    ("estimator.cdf_estimate", None, ("estimator.cdf_estimate",)),
    ("estimator.oracle", None,
     ("experiments.expected_density", "experiments.expected_cdf",
      "experiments.expected_density_curve", "experiments.bias",
      "estimator.expected_density", "estimator.expected_cdf",
      "estimator.expected_density_curve", "estimator.bias")),
    ("estimator.statistic", None, ("estimator.clt_statistic", "estimator.cdf_clt_statistic")),
    ("blocking.moment_bound_check", None, ("experiments.moment_bound_check",)),
    ("experiments.runner", None, ("cli.run_experiment",)),
    ("experiments.gates", None, ("experiments.enforce_gates", "cli.check_gates")),
    ("experiments.verdict", None,
     ("experiments.ks_statistic", "experiments.fit_loglog_slope", "experiments.uniform_verdict")),
    ("cli.parse", None, ("cli.parse_config_file",)),
    # self time of cmd_run: shape checks, bundle files and the manifest
    ("cli.write", None, ("cli.cmd_run",)),
    ("util.dumps_json", _len_result, ("experiments.dumps_json", "cli.dumps_json")),
)
REPLICATES = "experiments.replicates"
REPLICATE = "experiments.replicate"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = work(args, kwargs, result) if work and result is not None else 0
                self.spans.append(Span(sid, layer, start, end, parent, threading.get_ident(), count))

        return traced

    def wrap_replicates(self, fn):
        """_run_replicates(count, threads, worker): one loop span, one span per worker call."""

        @functools.wraps(fn)
        def traced(count, threads, worker):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            self._pool_parent = sid
            start = time.perf_counter()
            try:
                return fn(count, threads, self.wrap(REPLICATE, worker))
            finally:
                end = time.perf_counter()
                stack.pop()
                self._pool_parent = None
                self.spans.append(Span(sid, REPLICATES, start, end, parent, threading.get_ident(), 0))

        return traced

    def install(self, modules: dict) -> None:
        """Replace each traced name in `modules` (short name -> module object)."""
        for layer, work, names in LAYERS:
            for dotted in names:
                mod_name, attr = dotted.split(".")
                self._patch(modules[mod_name], attr, self.wrap(layer, getattr(modules[mod_name], attr), work))
        exp = modules["experiments"]
        self._patch(exp, "_run_replicates", self.wrap_replicates(exp._run_replicates))

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time, calls and work counts over one round's spans.

    A replicate loop's capacity is its wall time times the number of distinct
    threads its replicate spans ran on.
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = {}
    workers: dict[int, set[int]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            child_time[parent.sid] = child_time.get(parent.sid, 0.0) + (s.end - s.start)
        if s.layer == REPLICATE:
            workers.setdefault(s.parent, set()).add(s.thread)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for s in spans:
        self_s = (s.end - s.start) - child_time.get(s.sid, 0.0)
        add(f"{s.layer}.self", self_s)
        add(f"{s.layer}.calls", 1)
        add(f"{s.layer}.work", s.work)
        if s.layer == REPLICATES:
            add(f"{REPLICATES}.wall", s.end - s.start)
            add(f"{REPLICATES}.capacity", len(workers.get(s.sid, ())) * (s.end - s.start))
        elif s.layer == REPLICATE:
            add(f"{REPLICATE}.busy", s.end - s.start)
    return out
