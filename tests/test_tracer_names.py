"""The benchmark tracer's names: perfbench/spans.py patches mixkde by module-level name.

The benchmark's own tests are not collected here, so a name that only the
tracer reads (an import kept with `# noqa: F401`) could vanish unnoticed and
break `perfbench/run.py --trace 1`. This installs the tracer on the modules
run.py passes and takes it off again.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from mixkde import estimator, experiments, util

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# the modules perfbench/run.py hands to Tracer.install, by short name
MODULES = ("blocking", "cli", "estimator", "experiments", "kernels", "processes", "util")


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its @dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer_name(monkeypatch):
    spans = _load_spans(monkeypatch)
    modules = {name: importlib.import_module(f"mixkde.{name}") for name in MODULES}
    tracer = spans.Tracer()
    try:
        tracer.install(modules)  # getattr of every name: AttributeError if one is gone
        patched = [f"{module.__name__}.{attr}" for module, attr, _ in tracer._saved]
    finally:
        tracer.uninstall()
    names = [f"mixkde.{dotted}" for _, _, layer_names in spans.LAYERS for dotted in layer_names]
    assert patched == names + ["mixkde.experiments._run_replicates"]
    # the window sums the runners reach, and the pool, are the originals again
    assert experiments._kernel_window_sums is estimator._kernel_window_sums
    assert experiments._cdf_window_sums is estimator._cdf_window_sums
    assert experiments._run_replicates is util._run_replicates
