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


def test_sublinear_reads_two_capacity_internals():
    # the subset search lives in capacity beside the cores whose rules it
    # restates, so sublinear reads from capacity only the search, the active
    # set's boundary step and public names
    tree = ast.parse(inspect.getsource(importlib.import_module("potbench.sublinear")))
    private = sorted(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     and node.module == "capacity"
                     for alias in node.names if alias.name.startswith("_"))
    assert private == ["_SubsetSearch", "_to_boundary"]


def test_the_budget_rule_is_defined_only_in_core():
    # one budget rule: core._mode reads exact or sampled for every walk and search
    where = [path.stem for path in sorted(pathlib.Path(potbench.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name == "_mode"]
    assert where == ["core"]


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


def _overflow_handlers(node, where):
    """The innermost function around each ``except`` clause under ``node`` that
    names ``OverflowError``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                isinstance(n, ast.Name) and n.id == "OverflowError" for n in ast.walk(child.type)):
            yield where
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _overflow_handlers(child, f"{where.partition('.')[0]}.{child.name}"
                                      if inner else where)


def test_overflow_is_handled_only_in_core_pow_and_exp():
    # one float-range rule: a scalar power or exponential past the float range
    # reads +inf through core._pow or core._exp, and no other code catches
    # OverflowError, so a new hand copy of the rule fails here
    handlers = [where for path in sorted(pathlib.Path(potbench.__file__).parent.rglob("*.py"))
                for where in _overflow_handlers(ast.parse(path.read_text(encoding="utf-8")),
                                                path.stem)]
    assert sorted(handlers) == ["core._exp", "core._pow"]


def test_no_power_is_integrated_by_hand():
    # one power integral: core._power_integral owns every sum of w f^p, so no
    # call to integrate under the package takes a power, and a new hand copy
    # of the rule fails here
    calls = [f"{path.stem}:{node.lineno}"
             for path in sorted(pathlib.Path(potbench.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "integrate" and node.args
             and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                     for n in ast.walk(node.args[0]))]
    assert calls == []


def _float_range_calls(node, where):
    """``where:line`` for each call of ``math.exp``, ``math.pow`` or the builtin ``pow``
    under ``node``, ``where`` the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id == "pow"
                or isinstance(child.func, ast.Attribute) and child.func.attr in ("exp", "pow")
                and isinstance(child.func.value, ast.Name) and child.func.value.id == "math"):
            yield f"{where}:{child.lineno}"
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _float_range_calls(child, f"{where.partition('.')[0]}.{child.name}"
                                      if inner else where)


def test_exponentials_and_powers_leave_the_float_range_only_through_core():
    # a scalar exponential or power that can leave the float range raises a bare
    # OverflowError through math.exp, math.pow or pow; core._exp alone calls
    # them, and every other site reads core._exp or core._pow
    calls = [where for path in sorted(pathlib.Path(potbench.__file__).parent.rglob("*.py"))
             for where in _float_range_calls(ast.parse(path.read_text(encoding="utf-8")),
                                             path.stem)]
    assert [where.partition(":")[0] for where in calls] == ["core._exp"], calls
