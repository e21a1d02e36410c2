"""Every name a module of the package imports at module level is used
in that module: a lint check on the source, with no dependency beyond
the standard library's `ast`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phigamma"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """The names bound by the module-level imports of source that no
    other part of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
