"""Each module of the package lists its public names in ``__all__`` once
each, and every listed name is bound in the module, so deleting or renaming
a function cannot leave a stale export behind; conversely every public
function or class a module defines is listed, so none is left out."""

import importlib
import inspect
import pkgutil

import pytest

import bosonlab

# the command-line entry point and the exception hierarchy list no names
UNLISTED = {"cli", "errors"}
MODULES = sorted({info.name for info in pkgutil.iter_modules(bosonlab.__path__)} - UNLISTED)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_unique_names_that_resolve(name):
    module = importlib.import_module(f"bosonlab.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"bosonlab.{name}")
    defined = [attr for attr, obj in vars(module).items()
               if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_public_function_is_a_generator(name):
    # the tracer counts calls, and the profiler reports every resumption of a generator as one
    module = importlib.import_module(f"bosonlab.{name}")
    generators = [attr for attr, obj in vars(module).items()
                  if not attr.startswith("_") and inspect.isgeneratorfunction(obj)]
    assert generators == []
