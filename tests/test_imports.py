"""Lint checks on the package source, with no dependency beyond the
standard library: every name a module imports at module level is used
in that module, every definition has a caller outside the tests, and a
run of every task enters every function and method."""

import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from phigamma.cli import TASKS, main, run_config

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phigamma"
# subpackages too: the task bodies live in phigamma/tasks
MODULES = sorted(PACKAGE.rglob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))

# definitions that only the tests call, or that a run of every task on
# the rings of `test_every_function_is_entered` does not enter, each kept
# for the reason given; a method is named Class.method, and a name
# covers every definition nested in it
KEPT = {
    "CoeffRing.random_unit": "acceptance criterion 9 draws the unit "
                             "coefficient of its substitution targets "
                             "with it",
    "CoeffRing.random": "draws the coefficients of `random_unit` and of "
                        "the benchmark's series workload",
    "SeriesMatrix.in_Lm_phi": "acceptance criterion 4 checks the "
                              "filtration L_m^phi with it",
    "PeriodRing.c_phi": "the default constant of `in_Lm_phi`",
    "SeriesMatrix.scale": "scales in `in_Lm_phi` and in the averaging "
                          "branch of `descend_cochain`",
    "GaloisGroup.order": "the averaging branch of `descend_cochain`, "
                         "taken only for a cochain that is not invariant",
    "GaloisGroup.elements": "the averaging branch of `descend_cochain`",
    "ext_from_cocycle": "acceptance criterion 5: the extension blocks of a "
                        "framed cocycle",
    "ext_residual": "acceptance criterion 5: the extension residual, the "
                    "sign oracle for d1",
    "_ext_blocks": "the blocks of `ext_from_cocycle` and `ext_residual`",
    "HerrComplex.is_cocycle": "the check of `ext_from_cocycle`",
    "lift_dual_numbers": "acceptance criterion 6: lifts to dual numbers",
    "obstruction": "acceptance criterion 6: the obstruction of a lift",
    "DualMatrix": "the A[eps] matrices of `lift_dual_numbers` and "
                  "`obstruction`",
    "length_of_row_space": "the reference check on linalg._reduce, which "
                           "every solve runs",
    "reduce_mod_prime_power": "the elimination of `length_of_row_space`",
    "revalidate_witness": "the README documents it as the way to recheck "
                          "an emitted witness",
    "LaurentSeries.from_json": "reads an emitted witness back in "
                               "`revalidate_witness`",
    "SeriesMatrix.from_json": "reads an emitted witness back in "
                              "`revalidate_witness`",
    "make_custom_ring": "builds the custom ring kind, which the rings of "
                        "the run do not include",
    "_shortfall": "the Inconclusive verdict of a step that runs out of "
                  "window; the rings of the run leave room for every step",
    "_shortfalls": "as `_shortfall`, for draws outside the window",
    "_class_names": "names the errors in `_shortfalls`",
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


@pytest.mark.parametrize("path", MODULES, ids=[
    p.relative_to(PACKAGE).as_posix() for p in MODULES])
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
    kept = {name.split(".")[-1] for name in KEPT}
    assert [name for name in uncalled(package, others)
            if name not in kept] == []
    defined = {name for path in MODULES
               for name, _, _ in qualified_definitions(path)}
    assert sorted(set(KEPT) - defined) == []


def qualified_definitions(path):
    """(qualified name, first line, is a function) for every function,
    class and method defined in the source at path, nested ones
    included: a method is Class.method and a nested function
    outer.inner.  The first line is that of the first decorator, as the
    function's code object records it."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                out.append((name, first,
                            not isinstance(child, ast.ClassDef)))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def never_entered(paths, run):
    """The qualified names of the non-dunder functions and methods
    defined in the sources at paths that run() does not enter, by
    sys.setprofile, which sees every call of a Python function."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    seen = {(Path(code.co_filename).resolve(), code.co_firstlineno)
            for code in entered}
    return sorted(
        name for path in paths
        for name, first, function in qualified_definitions(path)
        if function and (path.resolve(), first) not in seen
        and not re.search(r"(^|\.)__\w+__$", name))


def test_finds_a_function_never_entered(tmp_path, monkeypatch):
    path = tmp_path / "reach_probe.py"
    path.write_text("def f():\n    return 1\n\n\ndef g():\n    pass\n\n\n"
                    "class C:\n    def __len__(self):\n        return 0\n\n"
                    "    def m(self):\n        def inner():\n"
                    "            pass\n        return f()\n\n"
                    "    @staticmethod\n    def s():\n        pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import reach_probe

    def run():
        reach_probe.C().m()
        reach_probe.C.s()

    assert never_entered([path], run) == ["C.m.inner", "g"]


CYCLOTOMIC = {"kind": "cyclotomic", "p": 3, "a": 2}

# (ring, window) pairs: f = 1, f = 2 and a tame extension
REACH_RINGS = [(CYCLOTOMIC, 16), (dict(CYCLOTOMIC, f=2), 12),
               ({"kind": "tame", "e": 2, "base": CYCLOTOMIC}, 12)]


def test_every_function_is_entered(tmp_path):
    """A method read by name somewhere passes the caller guard even when
    only the tests call it, if another class has a method of that name;
    a run of every task, and of the command line in both output modes,
    enters every definition that is not kept for a reason."""
    config = tmp_path / "ring-info.json"
    config.write_text(json.dumps({"task": "ring-info", "ring": CYCLOTOMIC}))

    def run():
        for ring, window in REACH_RINGS:
            for task in TASKS:
                run_config({"task": task, "ring": ring, "count": 1,
                            "v_terms": {"1": 1}}, window=window, seed=0)
        for flag in ("--json", "--pretty"):
            main([str(config), flag])

    missed = never_entered(MODULES, run)

    def kept(name):
        parts = name.split(".")
        return any(".".join(parts[:k]) in KEPT
                   for k in range(1, len(parts) + 1))

    assert [name for name in missed if not kept(name)] == []
