"""Each layer module's ``__all__`` is the one list of its public names."""

import ast
import importlib
import inspect
import pathlib

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


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_function_has_a_docstring(layer):
    module = importlib.import_module(f"potbench.{layer}")
    bare = [name for name in module.__all__
            if inspect.isfunction(getattr(module, name)) and not getattr(module, name).__doc__]
    assert bare == []


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


@pytest.mark.parametrize("path", sorted(pathlib.Path(potbench.__file__).parent.rglob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    # an import that a deletion leaves behind fails here; a name listed in
    # __all__ counts as read, as a re-export
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {node.value for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
                for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
    assert sorted(imported - read - exported) == []
