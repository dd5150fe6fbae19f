"""Each layer module's ``__all__`` is the one list of its public names."""

import ast
import importlib
import inspect

import pytest

import potbench

LAYERS = ("core", "simplex", "principles", "capacity", "sublinear", "gallery")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_lists_every_public_definition(layer):
    module = importlib.import_module(f"potbench.{layer}")
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))


def test_package_all_is_the_union_of_the_layers():
    union = [name for layer in LAYERS
             for name in importlib.import_module(f"potbench.{layer}").__all__]
    assert potbench.__all__ == ["__version__"] + union
    assert len(set(potbench.__all__)) == len(potbench.__all__)
    for name in potbench.__all__:
        assert hasattr(potbench, name), name


def test_cli_imports_no_private_name_from_another_layer():
    # the CLI reads the layers through their public names only
    tree = ast.parse(inspect.getsource(importlib.import_module("potbench.cli")))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
