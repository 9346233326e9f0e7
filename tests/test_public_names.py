"""Every public name resolves, and so does every name the benchmark's
tracer patches, so that deleting one fails here and not only under
``perfbench/run.py --trace 1``; and every defaulted parameter of the
library is one that the library, the demos or the benchmark passes."""

import ast
import importlib.util
import math
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


def _python_files(*dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _defaulted_parameters(tree):
    """(function name, parameter, position or None) of every parameter
    with a default; a method's position leaves out self, and __init__
    goes by its class name."""
    for owner in ast.walk(tree):
        method = isinstance(owner, ast.ClassDef)
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner.name if method and node.name == "__init__" \
                else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos in range(first, len(positional)):
                yield name, positional[pos].arg, pos - method
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def test_every_optional_parameter_has_a_caller_outside_tests():
    # each settable value of the library is one some caller sets,
    # matching calls by the bare or attribute name of the function
    keywords, positions = set(), {}
    for path in _python_files("src", "demos", "perfbench"):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name is None:
                continue
            count = math.inf if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            keywords.update((name, k.arg) for k in node.keywords)
    unused = sorted(
        "%s.%s" % (name, arg)
        for path in _python_files("src")
        for name, arg, pos in _defaulted_parameters(_parse(path))
        if (name, arg) not in keywords and (name, None) not in keywords
        and (pos is None or positions.get(name, 0) <= pos))
    assert not unused, unused
