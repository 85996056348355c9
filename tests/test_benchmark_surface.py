"""Every package name the benchmark harness (``perfbench/``) uses must exist.

The harness imports names from ``sessionvalue`` and reads attributes of the
package modules it imports. A rename or move of one of them would only show
when the benchmark runs; this test parses the harness's sources instead and
resolves each name against the package, so such a change fails here first.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

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


def surface() -> list[tuple[str, str, str]]:
    return sorted(
        (path.name, module, name)
        for path in PERFBENCH.glob("*.py")
        for module, name in used_names(path.read_text(encoding="utf-8"))
    )


SURFACE = surface()


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
