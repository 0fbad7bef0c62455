"""Static checks on the package source that need no linter."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import subdecay

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subdecay"
# the most lines src/subdecay may hold outside docstrings (source_lines)
_SRC_LINES = 1863


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def source_lines(text: str) -> int:
    """Lines of a module outside its module, class and function docstrings,
    by AST: the count the source size is tracked by."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(text.splitlines()) - len(docstrings)


def test_source_line_count():
    # a change that grows src/ raises _SRC_LINES in its own diff
    assert sum(source_lines(path.read_text()) for path in SRC.glob("*.py")) <= _SRC_LINES


def test_source_lines_skip_docstrings():
    text = ('"""Module\ndocstring."""\n\nclass C:\n    """One line."""\n\n'
            '    def f(self):\n        """Two\n        lines."""\n        return "text"\n')
    assert source_lines(text) == 10 - 5


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom functools import lru_cache\nfrom math import pi\n"
                     "__all__ = ['pi']\nos.getcwd()\n")
    assert unused_imports(tree) == ["lru_cache (line 2)"]


def _references(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_public(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """Public top-level functions and classes, and public methods, of the
    modules whose name no Name or Attribute reads, neither in the modules
    (outside the definition itself) nor in the readers."""
    inside = sum((_references(tree) for tree in modules.values()), Counter())
    outside = sum((_references(tree) for tree in readers), Counter())
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            named = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                named += [(item, f"{node.name}.{item.name}") for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            for defn, label in named:
                if outside[defn.name] == 0 and inside[defn.name] <= _references(defn)[defn.name]:
                    unread.append(f"{module}.{label}")
    return unread


def test_no_test_only_public_surface():
    # what only tests call is not library code: the commands and the
    # benchmark workloads are the library's callers, and the acceptance
    # gates are tests
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(path.read_text(), filename=str(path))
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_public(modules, readers) == []


def test_test_only_public_surface_detected():
    modules = {"m": ast.parse("def used(): pass\ndef unused(n): return unused(n - 1)\n"
                              "class C:\n    def read(self): pass\n    def unread(self): pass\n"
                              "    def _private(self): pass\n"
                              "class _Hidden:\n    def method(self): pass\n"
                              "def _helper(): return used()\n")}
    readers = [ast.parse("import m\nm.C().read()\n")]
    assert unreferenced_public(modules, readers) == ["m.unused", "m.C.unread"]


def unpassed_defaults(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Defaulted parameters of the modules' public top-level functions that
    no call in the callers passes, neither by keyword nor by position past
    the required parameters, as "module.function(parameter)".  A call is
    matched by the called Name or Attribute, and a function passed as a
    positional argument counts as called with the arguments after it (a
    wrapper's fn, *args, **kwargs).  *args or **kwargs pass every parameter
    they could."""
    keywords, positions = {}, {}
    for tree in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            forwarded = [(arg, call.args[j + 1:]) for j, arg in enumerate(call.args)
                         if isinstance(arg, (ast.Name, ast.Attribute))]
            for func, args in [(call.func, call.args)] + forwarded:
                name = getattr(func, "id", getattr(func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in args)
                positions[name] = max(positions.get(name, 0), 1_000 if starred else len(args))
                keywords.setdefault(name, set()).update(kw.arg or "**" for kw in call.keywords)
    unpassed = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args, passed = node.args, keywords.get(node.name, set())
            positional = args.posonlyargs + args.args
            defaulted = [(i, arg.arg) for i, arg in
                         enumerate(positional[len(positional) - len(args.defaults):],
                                   len(positional) - len(args.defaults))]
            defaulted += [(None, arg.arg) for arg, default in
                          zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            unpassed += [f"{module}.{node.name}({name})" for i, name in defaulted
                         if name not in passed and "**" not in passed
                         and (i is None or positions.get(node.name, 0) <= i)]
    return unpassed


def test_every_default_is_passed():
    # a parameter whose default no caller overrides is a switch only tests
    # use; the console entry point's argv is passed by the interpreter
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    callers = list(modules.values()) + [ast.parse(path.read_text(), filename=str(path))
                                        for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert [name for name in unpassed_defaults(modules, callers)
            if name != "cli.main(argv)"] == []


def test_unpassed_default_detected():
    modules = {"m": ast.parse("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                              "def g(x=0): pass\ndef h(y=0): pass\ndef _p(z=0): pass\n")}
    callers = [ast.parse("import m\nm.f(0, 1, e=5)\nf(0)\ng(**{})\n"
                         "timed(m.h, 1)\n_p()\n")]
    assert unpassed_defaults(modules, callers) == ["m.f(c)", "m.f(d)"]
    callers = [ast.parse("f(*[0, 1, 2], d=3, e=4)\ng(1)\ntimed(h)\n")]
    assert unpassed_defaults(modules, callers) == ["m.h(y)"]


def test_every_export_resolves():
    # a deleted name left in __all__ breaks `from subdecay import *`
    assert [name for name in subdecay.__all__ if not hasattr(subdecay, name)] == []


def test_exports_are_their_modules_objects():
    # the subdiff_fd names are looked up on first use (PEP 562): each export
    # is the object its module defines, and an unknown name does not resolve
    homes = {}
    for path in SRC.glob("[!_]*.py"):
        module = importlib.import_module(f"subdecay.{path.stem}")
        homes.update((name, module) for name, obj in vars(module).items()
                     if getattr(obj, "__module__", None) == module.__name__)
    assert [name for name in subdecay.__all__
            if getattr(subdecay, name) is not getattr(homes[name], name)] == []
    with pytest.raises(AttributeError, match="has no attribute 'Gird'"):
        subdecay.Gird


def reads_from(tree: ast.Module, root: str, module: str) -> list[str]:
    """Names imported from the sibling module `module` that the top-level
    definition `root` reads, directly or through the other top-level
    functions, classes and constants it reads, as "definition: name"."""
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if node.module == module or node.module is None and alias.name == module}
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defs.update((name.id, node) for name in ast.walk(target)
                            if isinstance(name, ast.Name))
    found, seen, todo = set(), {root}, [root]
    while todo:
        name = todo.pop()
        for node in ast.walk(defs[name]):
            if not isinstance(node, ast.Name):
                continue
            if node.id in imported:
                found.add(f"{name}: {node.id}")
            elif node.id in defs and node.id not in seen:
                seen.add(node.id)
                todo.append(node.id)
    return sorted(found)


def test_branch_cut_shares_no_numerics_with_picard():
    # branch-cut inversion is the independent check on Picard, whose tables
    # come from mittag_leffler: it may read nothing that module provides
    tree = ast.parse((SRC / "frac_ode.py").read_text())
    assert reads_from(tree, "branch_cut_invert", "mittag_leffler") == []


def test_mode_convolution_shares_no_numerics_with_mittag_leffler():
    # the mode convolution sums frac_ode's Bromwich rule: it reads neither
    # mittag_leffler's contour nor any other of its numerics
    tree = ast.parse((SRC / "spectral.py").read_text())
    assert reads_from(tree, "mode_convolution", "mittag_leffler") == []


def test_shared_numerics_detected():
    tree = ast.parse("from .mittag_leffler import ml_neg, _contour_rule as rule\n"
                     "from . import mittag_leffler\n"
                     "from .errors import DomainError\n"
                     "_RULE = rule(1.0, 1.0, 64)\n"
                     "def helper(x): return ml_neg(x)\n"
                     "def unread(): return mittag_leffler.ml_eval(2)\n"
                     "def invert(t): return helper(t) + _RULE[0] + DomainError\n"
                     "def direct(): return mittag_leffler.ml_eval(1)\n")
    assert reads_from(tree, "invert", "mittag_leffler") == ["_RULE: rule", "helper: ml_neg"]
    assert reads_from(tree, "direct", "mittag_leffler") == ["direct: mittag_leffler"]
