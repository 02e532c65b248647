"""Modules talk to each other through public names only.

A class's private state belongs to the module that defines it: the Cayley
graph's storage to `cayley.py`, a presentation's lookup tables to
`core.py`, a search result's words and walk to `straightwords.py`. Every
other module reads such an object through its public methods. No module
imports an underscore-prefixed name from a sibling module.
"""

import ast
from pathlib import Path

import pytest

import strayt

PACKAGE = Path(strayt.__file__).parent


def private_attributes(source: str) -> set[str]:
    """Underscore names assigned on self, or listed in a __slots__, anywhere in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                names.add(target.attr)
            elif isinstance(target, ast.Name) and target.id == "__slots__":
                names.update(elt.value for elt in node.value.elts)
    return {name for name in names if name.startswith("_")}


GRAPH_PRIVATE = private_attributes((PACKAGE / "cayley.py").read_text())
PRIVATE = {path.stem: private_attributes(path.read_text()) for path in PACKAGE.glob("*.py")}


def violations(source: str, module: str) -> list[str]:
    own = PRIVATE.get(module, set())
    foreign = {name: owner for owner, names in PRIVATE.items() if owner != module
               for name in names - own}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in foreign:
            found.append(f"line {node.lineno}: reads {node.attr} of {foreign[node.attr]}.py")
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
    # the two buffers, the first-edge table built on demand and the letter count
    # are all a graph keeps
    assert GRAPH_PRIVATE == {"_packed", "_edges", "_found_by", "_k"}


def test_checker_flags_reach_ins():
    source = ("from .straightwords import _search, search\n"
              "from strayt.cayley import _helper\n"
              "def f(graph):\n"
              "    return graph._packed[0], graph._edges\n")
    assert len(violations(source, "permutator")) == 4
    assert len(violations(source, "cayley")) == 2
    assert violations("from typing import _T\nimport os\n", "cli") == []


def test_every_class_keeps_its_private_state():
    assert PRIVATE["core"] == {"_positions", "_single_char"}
    assert PRIVATE["straightwords"] == {"_words", "_truncated", "_walk"}
    source = ("def f(presentation, result):\n"
              "    return presentation._positions, result._words, result._walk\n")
    assert len(violations(source, "cli")) == 3
    assert len(violations(source, "core")) == 2
    assert len(violations(source, "straightwords")) == 1
