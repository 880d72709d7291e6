"""Every name the benchmark's tracer wraps still resolves on the package, so
renaming a traced function fails here and not in a traced bench run."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _module(name):
    return importlib.import_module(f"jacktop.{name}")


@pytest.mark.parametrize("modname,qualname,group", tracing.SPANS)
def test_span_target_resolves(modname, qualname, group):
    mod = _module(modname)
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        # install() wraps the class's own attribute, not an inherited one.
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, qualname))


def test_after_hooks_name_spans():
    assert set(tracing.AFTER) <= {qualname for _, qualname, _ in tracing.SPANS}


def test_arithmetic_targets_resolve():
    exact = _module("exact")
    for cls_name, meths in tracing.ARITHMETIC.items():
        cls = getattr(exact, cls_name)
        for meth in meths:
            assert callable(cls.__dict__[meth]), (cls_name, meth)


@pytest.mark.parametrize("modname,qualname,key", tracing.YIELDS)
def test_yield_target_is_a_generator(modname, qualname, key):
    assert inspect.isgeneratorfunction(getattr(_module(modname), qualname))


@pytest.mark.parametrize("key", sorted(tracing.CACHES))
def test_cache_target_is_a_dict(key):
    modname, attr = tracing.CACHES[key]
    assert isinstance(getattr(_module(modname), attr), dict)
