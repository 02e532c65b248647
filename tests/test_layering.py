"""Modules talk to each other through public names only.

The Cayley graph's storage belongs to `cayley.py`; every other module
reads a graph through its public methods. No module imports an
underscore-prefixed name from a sibling module.
"""

import ast
from pathlib import Path

import pytest

import strayt

PACKAGE = Path(strayt.__file__).parent


def private_attributes(source: str) -> set[str]:
    """Underscore names assigned on self anywhere in the source."""
    return {target.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self" and target.attr.startswith("_")}


GRAPH_PRIVATE = private_attributes((PACKAGE / "cayley.py").read_text())


def violations(source: str, module: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in GRAPH_PRIVATE
                and module != "cayley"):
            found.append(f"line {node.lineno}: reads CayleyGraph.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").startswith("strayt")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports {alias.name}"
                                 f" from {'.' * node.level}{node.module or ''}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_public_names_only(path):
    assert violations(path.read_text(), path.stem) == []


def test_graph_storage_is_guarded():
    assert {"_packed", "_edges", "_parent_node", "_parent_letter"} <= GRAPH_PRIVATE


def test_checker_flags_reach_ins():
    source = ("from .straightwords import _search, search\n"
              "from strayt.cayley import _helper\n"
              "def f(graph):\n"
              "    return graph._packed[0], graph._edges\n")
    assert len(violations(source, "permutator")) == 4
    assert len(violations(source, "cayley")) == 2
    assert violations("from typing import _T\nimport os\n", "cli") == []
