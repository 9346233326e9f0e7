"""Every public name resolves, and so does every name the benchmark's
tracer patches, so that deleting one fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib.util
import os
import types

import asymtransport
import asymtransport.cli  # the package itself does not import the CLI

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_public_name_resolves():
    modules = [asymtransport] + [
        value for value in vars(asymtransport).values()
        if isinstance(value, types.ModuleType)
        and value.__name__.startswith("asymtransport.")]
    for module in modules:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_traced_layer_boundaries_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_measure", os.path.join(ROOT, "perfbench", "measure.py"))
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    targets = measure._trace_targets(None, {})
    assert targets
    missing = [name for owner, attr, name, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing
