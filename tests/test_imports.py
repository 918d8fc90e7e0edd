"""Every kustab module uses each name it imports, imports only the standard
library and holds no float constant, float call or inexact math import,
every private module-level function and class-body method has a reader,
every exported name and public function has a reader outside the tests
(in the bench, a read resolved to kustab), the package exports exactly the
names its lazy table resolves, each command loads only the kustab modules
it runs, the console script resolves, only variety reads a variety's
integer pairing form ._form, and only variety and walls read its lattice
denominators .denoms (no linter needed)."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kustab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):    # quoted annotations such as -> "Charge"
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_an_orphan():
    source = ('from os import path, sep\nimport json\n'
              'def f(x: "json.JSONDecoder"):\n    return sep\n')
    assert unused_imports(source) == ["path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [n for n in names if n not in sys.stdlib_module_names]


def test_stdlib_import_check_flags_an_orphan():
    source = ('from __future__ import annotations\nimport os.path, sympy\n'
              'from fractions import Fraction\nfrom . import exact\n'
              'from .variety import ChernVector\nfrom sympy.matrices import Matrix\n')
    assert non_stdlib_imports(source) == ["sympy", "sympy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # kustab has no runtime dependencies
    assert non_stdlib_imports(path.read_text()) == []


# the math names a module may import: integer functions, no float result
_EXACT_MATH = {"isqrt", "gcd", "lcm", "factorial", "ceil", "floor"}


def inexact_uses(source: str) -> list[str]:
    """Line and text of every float or complex constant, call to float,
    import math and name imported from math outside _EXACT_MATH: the ways a
    float can enter a decision that a parse shows.  int / int also gives a
    float, and that one is not caught statically."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "float"
                or isinstance(node, ast.Import)
                and any(a.name.partition(".")[0] == "math" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "math"
                and {a.name for a in node.names} - _EXACT_MATH):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_inexact_use_check_flags_an_orphan():
    source = ('from math import gcd, isqrt\nx = 0.5\nz = 2j\n'
              'def f(y):\n    return float(y) + int("0.5")\n'
              'from math import sqrt, floor\nimport math\n')
    assert inexact_uses(source) == [
        "2: 0.5", "3: 2j", "5: float(y)", "6: from math import sqrt, floor",
        "7: import math"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_floats_out(path):
    # every decision is exact; svg's decimals come from integer arithmetic
    assert inexact_uses(path.read_text()) == []


def test_console_script_resolves():
    # read with a regex: tomllib needs Python 3.11, and CI also runs 3.10
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    module, name = re.search(
        r'^kustab = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    assert callable(getattr(importlib.import_module(module), name))


def name_reads(tree) -> list[tuple[int, str]]:
    """(node id, name) of every name read and attribute access in a tree."""
    return [(id(n), n.id if isinstance(n, ast.Name) else n.attr)
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)]


def unread_private_functions(sources: list[str]) -> list[str]:
    """Module-level functions and class-body methods named _x that no code
    outside their own body reads, by name or as an attribute, in any of the
    sources; a method is reported as Class._x."""
    trees = [ast.parse(source) for source in sources]
    reads = [read for tree in trees for read in name_reads(tree)]
    defs = [("", node) for tree in trees for node in tree.body]
    defs += [(f"{cls.name}.", node) for tree in trees for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body]
    unread = []
    for owner, fn in defs:
        if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                and not fn.name.startswith("__")):
            own = {id(n) for n in ast.walk(fn)}
            if not any(name == fn.name and n not in own for n, name in reads):
                unread.append(owner + fn.name)
    return unread


def test_private_function_check_flags_an_orphan():
    source = ('import m\ndef _used():\n    return 1\n'
              'def _orphan():\n    return _used()\n'
              'def _recursive(n):\n    return _recursive(n - 1)\n'
              'def _via_attribute():\n    pass\n'
              'def __dunder__():\n    pass\n'
              'class C:\n    def _method(self):\n        pass\n'
              '    def _read(self):\n        return 2\n'
              '    def __init__(self):\n        self.x = self._read()\n')
    other = 'x = m._via_attribute\n'
    assert unread_private_functions([source, other]) == [
        "_orphan", "_recursive", "C._method"]


def test_every_private_function_has_a_reader():
    assert unread_private_functions(
        [p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def kustab_reads(source: str, modules: set[str]) -> set[str]:
    """Names a source reads from kustab: an attribute of a name bound to
    the package or to one of its modules, or a name imported from kustab
    read under its local name.  A same-named definition of the source's
    own is not a read of kustab."""
    tree = ast.parse(source)
    bound, imported = set(), {}     # local module names; local -> kustab name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or "kustab" for a in node.names
                      if a.name.partition(".")[0] == "kustab"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] == "kustab"):
            for a in node.names:
                if node.module == "kustab" and a.name in modules:
                    bound.add(a.asname or a.name)
                else:
                    imported[a.asname or a.name] = a.name

    def is_module(e) -> bool:
        return (isinstance(e, ast.Name) and e.id in bound
                or isinstance(e, ast.Attribute) and e.attr in modules
                and is_module(e.value))

    return ({n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and is_module(n.value)}
            | {imported[n.id] for n in ast.walk(tree) if isinstance(n, ast.Name)
               and isinstance(n.ctx, ast.Load) and n.id in imported})


def unread_public_names(names, src: dict[str, str], bench: list[str],
                        readme: str) -> list[str]:
    """The names, plus every public module-level function of the src
    modules (file name -> source), that nothing reads: no name or attribute
    read in a src module other than __init__.py outside the name's own
    definition, no read of it from kustab in the bench sources
    (kustab_reads), no mention in the README.  A string is not a read."""
    trees = {name: ast.parse(source) for name, source in src.items()}
    names, own = set(names), {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.setdefault(node.name, set()).update(map(id, ast.walk(node)))
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    names.add(node.name)
    reads = [read for file, tree in trees.items() if file != "__init__.py"
             for read in name_reads(tree)]
    modules = {Path(file).stem for file in src} - {"__init__"}
    bench_reads = set().union(*(kustab_reads(source, modules) for source in bench))
    return sorted(name for name in names
                  if not any(r == name and n not in own.get(name, ())
                             for n, r in reads)
                  and name not in bench_reads
                  and not re.search(rf"\b{re.escape(name)}\b", readme))


def test_public_name_check_flags_an_orphan():
    src = {"__init__.py": "from .m import orphan, used_in_src, Exported\n",
           "m.py": ("def orphan():\n    return orphan()\n"
                    "def used_in_src():\n    return 1\n"
                    "def in_bench():\n    pass\n"
                    "def by_name():\n    pass\n"
                    "def shadowed():\n    pass\n"
                    "def in_readme():\n    pass\n"
                    "def _private():\n    return used_in_src()\n"
                    "class Exported:\n    pass\n"
                    "KEY = 'm.in_string'\n"
                    "def in_string():\n    pass\n")}
    # a bench read resolves to kustab: shadowed is a bench function of the
    # same name, and m.py's orphan is not bench's own m.orphan
    bench = ["from kustab import m\nm.in_bench()\n",
             "from kustab.m import by_name as b\nb()\n",
             "import m\ndef shadowed():\n    pass\nshadowed()\nm.orphan()\n"]
    assert unread_public_names(
        ["orphan", "used_in_src", "Exported"], src, bench,
        "call `in_readme` once") == ["Exported", "in_string", "orphan", "shadowed"]


def test_every_public_name_has_a_reader_outside_the_tests():
    import kustab

    bench = sorted((SRC.parent.parent / "bench").glob("*.py"))
    assert unread_public_names(
        kustab.__all__, {p.name: p.read_text() for p in SRC.glob("*.py")},
        [p.read_text() for p in bench],
        (SRC.parent.parent / "README.md").read_text()) == []


def test_package_all_matches_its_imports(monkeypatch):
    import kustab

    # every exported name resolves to its home module's object, no other does
    assert set(kustab.__all__) == set(kustab._HOMES)
    for name, module in kustab._HOMES.items():
        home = importlib.import_module(f"kustab.{module}")
        assert getattr(kustab, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        kustab.nosuch
    assert set(kustab.__all__) <= set(dir(kustab))
    # a resolved name is not cached: a patch on the home module reads
    # through, and so does its undoing
    original = kustab.wall_scan
    monkeypatch.setattr("kustab.walls.wall_scan", len)
    assert kustab.wall_scan is len
    monkeypatch.undo()
    assert kustab.wall_scan is original


# a fresh interpreter runs one command through cli.run and prints its exit
# code and the kustab modules it loaded
_LOADED = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from kustab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
else:
    import kustab
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "kustab")]))
"""
_STARTUP = ["kustab", "kustab.cli", "kustab.config", "kustab.exact",
            "kustab.report", "kustab.variety"]


@pytest.mark.parametrize("argv, extra", [
    ([], None),
    (["chi", "O", "O(1)"], []),
    (["orth"], ["semiorth"]),
    (["ztilt", "S", "--alpha", "1", "--beta", "0"], ["tilt"]),
    (["blms", "--alpha", "1", "--beta", "0"], ["tilt"]),
    (["alpha-range", "--beta", "-1/2"], ["tilt"]),
    (["walls", "1,0,-1"], ["walls"]),
    (["svg", "1,0,-1"], ["svg", "walls"]),
], ids=["import", "chi", "orth", "ztilt", "blms", "alpha-range", "walls", "svg"])
def test_each_command_loads_only_what_it_runs(argv, extra, tmp_path):
    # import kustab alone loads no submodule; a command loads the start-up
    # set and its own modules
    if argv:
        argv = [*argv, "--variety", "q3", "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(done.stdout)
    want = ["kustab"] if extra is None else _STARTUP + [f"kustab.{m}" for m in extra]
    assert (code, loaded) == (0, sorted(want))


def attribute_reads(source: str, attr: str) -> list[int]:
    """Line numbers of the attribute accesses .attr in a module."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr == attr]


def test_form_read_check_flags_an_orphan():
    source = ('def f(x, _form):\n    form = x.form\n'
              '    return x._form[0] + _form\n')
    assert attribute_reads(source, "_form") == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_variety_reads_the_pairing_form(path):
    assert bool(attribute_reads(path.read_text(), "_form")) == (
        path.name == "variety.py")


def test_denoms_read_check_flags_an_orphan():
    # a keyword argument or a string "denoms" is not a read
    source = ('def f(x, denoms):\n    y = g(denoms=denoms, key="denoms")\n'
              '    return x.denominator + x.denoms[0]\n')
    assert attribute_reads(source, "denoms") == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_variety_and_walls_read_denoms(path):
    # the lattice rule lives in variety; walls still reads lambda for its
    # scan steps
    assert bool(attribute_reads(path.read_text(), "denoms")) == (
        path.name in ("variety.py", "walls.py"))
