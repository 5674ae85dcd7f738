import importlib
import importlib.util
import pathlib

import pytest

import triality


def test_every_exported_name_resolves():
    assert len(set(triality.__all__)) == len(triality.__all__)
    for name in triality.__all__:
        assert hasattr(triality, name), name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from triality import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(triality.__all__)


def test_every_traced_benchmark_target_resolves():
    # perfbench/tracer.py wraps each TARGETS entry found by this lookup; a
    # name the package no longer defines would be left out of traced runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr_path in tracer.TARGETS:
        module = importlib.import_module(f"triality.{module_name}")
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert vars(owner).get(attr) is not None, f"{module_name}.{attr_path}"
