"""Lint checks on the package source, with no dependency beyond the
standard library's `ast`: every name a module imports at module level is
used in that module, and every definition has a caller outside the
tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phigamma"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))

# definitions that only the tests call, each kept for the reason given
KEPT = {
    "random_unit": "acceptance criterion 9 draws the unit coefficient of "
                   "its substitution targets with it",
    "in_Lm": "acceptance criterion 4 checks the filtration L_m with it",
    "in_Lm_phi": "acceptance criterion 4 checks the filtration L_m^phi "
                 "with it",
    "ext_from_cocycle": "acceptance criterion 5: the extension blocks of a "
                        "framed cocycle",
    "ext_residual": "acceptance criterion 5: the extension residual, the "
                    "sign oracle for d1",
    "lift_dual_numbers": "acceptance criterion 6: lifts to dual numbers",
    "obstruction": "acceptance criterion 6: the obstruction of a lift",
    "length_of_row_space": "the reference check on linalg._reduce, which "
                           "every solve runs",
    "revalidate_witness": "the README documents it as the way to recheck "
                          "an emitted witness",
}


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


def names_read(tree):
    """How often each name is read in tree, as a Counter of
    ("name", name) for a bare or imported name and ("attr", name) for an
    attribute."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            read["attr", node.attr] += 1
        elif isinstance(node, ast.alias):
            read["name", node.name.split(".")[-1]] += 1
    return read


def definitions(trees):
    """(definition, is a method) for the function, class and method
    definitions in trees, dunder methods left out, since the language
    calls those."""
    out = []
    for tree in trees:
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        out += [(node, id(node) in methods) for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))]
    return out


def uncalled(package, others=()):
    """The names of the definitions in the sources of package that no
    code reads outside the definition itself, in package or in others.
    A method counts only where its name is read as an attribute; a
    function or class wherever its name is read."""
    trees = [ast.parse(source) for source in package]
    read = Counter()
    for tree in trees + [ast.parse(source) for source in others]:
        read += names_read(tree)

    def reads(counter, name, method):
        if method:
            return counter["attr", name]
        return counter["name", name] + counter["attr", name]

    return sorted(node.name for node, method in definitions(trees)
                  if reads(read, node.name, method)
                  == reads(names_read(node), node.name, method))


def test_finds_a_definition_without_caller():
    package = ("def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
               "class C:\n    def __len__(self):\n        return 0\n\n"
               "    def m(self):\n        pass\n")
    assert uncalled([package], ["g()\nC().m()\n"]) == ["f"]
    assert uncalled([package]) == ["C", "f", "g", "m"]


def test_a_method_needs_an_attribute_read():
    package = ("class C:\n    def val(self):\n        return 0\n\n"
               "    def m(self):\n        return 1\n")
    assert uncalled([package], ["val = 1\nprint(val)\nC().m()\n"]) == [
        "val"]
    assert uncalled([package], ["C().m()\nC().val()\n"]) == []


def test_every_definition_has_a_caller():
    package = [path.read_text() for path in MODULES]
    others = [path.read_text() for path in BENCH]
    assert [name for name in uncalled(package, others)
            if name not in KEPT] == []
    defined = {node.name for node, _ in
               definitions(ast.parse(source) for source in package)}
    assert sorted(set(KEPT) - defined) == []
