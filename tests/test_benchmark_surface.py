"""Every package name the benchmark harness (``perfbench/``) uses must exist.

The harness imports names from ``sessionvalue`` and reads attributes of the
package modules it imports. It also reads the loaded config through chains
such as ``self.rc.curve.unit_value``, directly or through a name bound to one
(``h = self.rc.harness``). A rename or move of one of them would only show
when the benchmark runs; this test parses the harness's sources instead and
resolves each name against the package, and each chain against the fields of
``RunConfig``'s dataclasses, so such a change fails here first.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import types
import typing
from pathlib import Path

import pytest

from sessionvalue.config import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "sessionvalue"


def is_module(module: str, name: str) -> bool:
    try:
        return isinstance(getattr(importlib.import_module(module), name, None), types.ModuleType)
    except ImportError:  # a module that is gone: test_name_resolves reports it
        return False


def used_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for every ``from sessionvalue… import name`` of a
    non-module and every ``alias.name`` read where ``alias`` is a package
    module, so an imported module counts through the names read on it."""
    tree = ast.parse(source)
    used: set[tuple[str, str]] = set()
    module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0 and (
            node.module == PACKAGE or node.module.startswith(PACKAGE + ".")
        ):
            for alias in node.names:
                if is_module(node.module, alias.name):
                    module_aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    used.add((node.module, alias.name))
        elif isinstance(node, ast.Import):  # import sessionvalue.x as y
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == PACKAGE:
                    module_aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases):
            used.add((module_aliases[node.value.id], node.attr))
    return used


def _rc_chain(node: ast.expr, bound: dict[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """The attribute names read after the config in ``node`` (``self.rc.a.b``
    or ``rc.a.b`` gives ``("a", "b")``, ``h.b`` with ``h = rc.a`` the same), or
    None when ``node`` does not start at the config."""
    attrs: list[str] = []
    while isinstance(node, ast.Attribute) and node.attr != "rc":
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and node.id == "rc"):
        root: tuple[str, ...] = ()
    elif isinstance(node, ast.Name) and node.id in bound:
        root = bound[node.id]
    else:
        return None
    return root + tuple(reversed(attrs))


def rc_chains(source: str) -> set[tuple[str, ...]]:
    """Every longest config chain read in ``source``. A name assigned a chain
    inside a function stands for that chain in the rest of the function."""
    chains: set[tuple[str, ...]] = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                chain = _rc_chain(node.value, bound)
                if chain:
                    bound[node.targets[0].id] = chain
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and (chain := _rc_chain(node, bound)):
                chains.add(chain)
    return {c for c in chains if not any(o[:len(c)] == c and o != c for o in chains)}


def resolve(cls, chain: tuple[str, ...]) -> None:
    """Walk ``chain`` through the dataclass fields from ``cls``; a name that
    is no field must be a method or property of the class, and ends the walk,
    as does a field whose type is no dataclass."""
    for name in chain:
        fields = {f.name for f in dataclasses.fields(cls)}
        if name not in fields:
            assert hasattr(cls, name), f"{cls.__name__} has no field {name!r}"
            return
        hint = typing.get_type_hints(cls)[name]
        if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if not dataclasses.is_dataclass(hint):
            return
        cls = hint


def surface() -> list[tuple[str, str, str]]:
    return sorted(
        (path.name, module, name)
        for path in PERFBENCH.glob("*.py")
        for module, name in used_names(path.read_text(encoding="utf-8"))
    )


SURFACE = surface()
CHAINS = sorted(
    (path.name, ".".join(("rc",) + chain))
    for path in PERFBENCH.glob("*.py")
    for chain in rc_chains(path.read_text(encoding="utf-8"))
)


def test_surface_found():
    # 36 distinct names when this test was written; far fewer means the
    # parser stopped seeing the harness's imports
    assert len({(m, n) for _, m, n in SURFACE}) >= 30


@pytest.mark.parametrize("source, module, name", SURFACE)
def test_name_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source} uses {module}.{name}"


def test_parser_sees_imports_and_attribute_reads():
    source = (
        "def f():\n"
        "    from sessionvalue import cor\n"
        "    from sessionvalue.corpus import load_dataset as ld\n"
        "    return cor.build_matrix, cor.no_such_name, ld, other.thing\n"
        "import sessionvalue.kpi as k\n"
        "k.snp\n"
    )
    assert used_names(source) == {
        ("sessionvalue.corpus", "load_dataset"),
        ("sessionvalue.cor", "build_matrix"),
        ("sessionvalue.cor", "no_such_name"),
        ("sessionvalue.kpi", "snp"),
    }


def test_chains_found():
    # 16 distinct chains when this test was written, among them
    # rc.lifecycle.plan.window_days and rc.curve.unit_value
    assert len(CHAINS) >= 12


@pytest.mark.parametrize("source, chain", CHAINS)
def test_config_chain_resolves(source, chain):
    resolve(RunConfig, tuple(chain.split(".")[1:]))


def test_chain_parser_follows_bound_names():
    source = (
        "def f(self, rc):\n"
        "    h = self.rc.harness\n"
        "    plan = self.rc.lifecycle.plan\n"
        "    other = thing.rc_like\n"
        "    return h.k, plan.window_days, rc.input_path('eval', d), self.rc.curve.day_grid, other.x\n"
    )
    assert rc_chains(source) == {
        ("harness", "k"),
        ("lifecycle", "plan", "window_days"),
        ("input_path",),
        ("curve", "day_grid"),
    }


def test_missing_field_fails_resolution():
    resolve(RunConfig, ("curve", "unit_value"))
    resolve(RunConfig, ("harness", "sample", "ids"))
    with pytest.raises(AssertionError, match="no field 'no_such_field'"):
        resolve(RunConfig, ("lifecycle", "plan", "no_such_field"))
