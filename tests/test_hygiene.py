"""Every name a module imports is used in that module, every private
helper in src/ is used somewhere else in src/, src/ touches a private
attribute only through self, cls or a class name, only scalars and
landau_ginzburg/mf call Cyc.zeta, only scalars builds a Cyc from its
fields or reads them, no module outside landau_ginzburg imports that
package when it is itself imported, and the package's `__init__.py`
imports nothing.

A stdlib `ast` scan of every file under src/ and tests/; for the imports,
package `__init__.py` files are skipped (they import to re-export), and so
are `from __future__` imports.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    unused = ["%s:%d imports %s" % (path.relative_to(ROOT), line, name)
              for path in files for line, name in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_scan_names_a_local_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from __future__ import annotations\n"
                      "import os.path\nfrom math import gcd, lcm as least\n\n"
                      "def f():\n    from itertools import chain\n    return os.sep, least\n")
    assert unused_imports(source) == [(3, "gcd"), (6, "chain")]


def eager_imports(path, package):
    """Line of each import of `package` that runs when the file is imported:
    every one that is not inside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                # `from . import landau_ginzburg` names the package as an alias
                names = [getattr(child, "module", None) or ""] + [a.name for a in child.names]
                if any(package in name.split(".") for name in names):
                    found.append(child.lineno)
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return sorted(found)


def test_landau_ginzburg_loads_only_on_first_use():
    package = ROOT / "src" / "rspin"
    files = sorted(p for p in package.rglob("*.py")
                   if p.relative_to(package).parts[0] != "landau_ginzburg")
    assert files
    found = ["%s:%d imports landau_ginzburg" % (path.relative_to(ROOT), line)
             for path in files for line in eager_imports(path, "landau_ginzburg")]
    assert not found, "import the LG stack inside the function that uses it:\n" \
        + "\n".join(found)


def test_scan_names_a_top_level_landau_ginzburg_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import json\nfrom .landau_ginzburg.poly import parse_poly\n\n"
                      "def f(text):\n    from . import landau_ginzburg\n"
                      "    return json.dumps(landau_ginzburg.jacobi(parse_poly(text)).dimension)\n")
    assert eager_imports(source, "landau_ginzburg") == [2]


def import_lines(path):
    """Line of every import statement in the file, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_landau_ginzburg_package_re_exports_nothing():
    # a re-export would load every module it names with the package; rspin's
    # own LG names each import only the module that defines them
    init = ROOT / "src" / "rspin" / "landau_ginzburg" / "__init__.py"
    found = ["%s:%d imports" % (init.relative_to(ROOT), line) for line in import_lines(init)]
    assert not found, "import from the LG modules, not the package:\n" + "\n".join(found)


def test_scan_names_every_import_in_a_package_init(tmp_path):
    source = tmp_path / "__init__.py"
    source.write_text('"""Docstring."""\n\nfrom .poly import Poly\n\n'
                      "if True:\n    import json\n\n"
                      "def f():\n    from . import mf\n    return mf, json, Poly\n")
    assert import_lines(source) == [3, 6, 9]


def _references(tree):
    """How often each name is read, as a bare name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_helpers(paths):
    """(path, line, name) of each single-underscore function or class that no
    code outside its own definition refers to, across all the given files."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    dead = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__") \
                    and total[name] == _references(node)[name]:
                dead.append((path, node.lineno, name))
    return sorted(dead)


def test_no_unused_private_helpers():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    dead = ["%s:%d defines %s" % (path.relative_to(ROOT), line, name)
            for path, line, name in unused_private_helpers(files)]
    assert not dead, "private helpers that nothing else in src uses:\n" + "\n".join(dead)


def test_scan_names_an_unused_private_helper(tmp_path):
    used, unused = tmp_path / "used.py", tmp_path / "unused.py"
    used.write_text("from .unused import _imported\n\n"
                    "def public():\n    return _imported() + _Local.x\n\n"
                    "class _Local:\n    x = 1\n")
    unused.write_text("def _imported():\n    return 1\n\n"
                      "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                      "class _Dead:\n    def _method(self):\n        return 0\n\n"
                      "    def __len__(self):\n        return 0\n")
    assert [(p.name, line, name) for p, line, name in unused_private_helpers([used, unused])] \
        == [("unused.py", 4, "_recursive"), ("unused.py", 7, "_Dead"), ("unused.py", 8, "_method")]


def foreign_private_attributes(paths):
    """(path, line, attribute) of each single-underscore attribute read or
    written through anything but self, cls or a class defined in the given files."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    owners = {"self", "cls"} | {node.name for tree in trees.values() for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)}
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.startswith("__") \
                    and not (isinstance(node.value, ast.Name) and node.value.id in owners):
                found.append((path, node.lineno, node.attr))
    return sorted(found)


def test_no_private_attribute_of_another_object():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = ["%s:%d touches %s" % (path.relative_to(ROOT), line, name)
             for path, line, name in foreign_private_attributes(files)]
    assert not found, "private attributes used from outside their object:\n" + "\n".join(found)


def test_scan_names_a_foreign_private_attribute(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("class Local:\n"
                      "    def f(self, other):\n"
                      "        self._a = Local._b + other.public + other.__dict__\n"
                      "        other._c = 1\n"
                      "        return make()._d\n\n"
                      "    @classmethod\n"
                      "    def g(cls):\n"
                      "        return cls._e\n")
    assert [(line, name) for _, line, name in foreign_private_attributes([source])] \
        == [(4, "_c"), (5, "_d")]


# scalars defines the roots of unity and mf's GroupAction.root is the one
# twist convention; every other module reads its roots from those
ZETA_OWNERS = ("scalars.py", "landau_ginzburg/mf.py")


def zeta_calls(path):
    """Line of each call of Cyc.zeta in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "zeta" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "Cyc")


def test_roots_of_unity_only_from_scalars_and_mf():
    package = ROOT / "src" / "rspin"
    files = sorted(p for p in package.rglob("*.py")
                   if p.relative_to(package).as_posix() not in ZETA_OWNERS)
    assert files
    found = ["%s:%d calls Cyc.zeta" % (path.relative_to(ROOT), line)
             for path in files for line in zeta_calls(path)]
    assert not found, "take twists from GroupAction.root instead:\n" + "\n".join(found)


def test_scan_names_a_zeta_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from rspin.scalars import Cyc\n\n"
                      "def f(action, r):\n"
                      "    root = action.root('x', -1) * Cyc.one(r)\n"
                      "    return [Cyc.zeta(r, k) for k in range(r)], root.zeta(r)\n\n"
                      "g = Cyc.zeta\n"
                      "h = 1 + Cyc.zeta(3)\n")
    assert zeta_calls(source) == [5, 8]


# scalars owns the canonical form of a Cyc; every other module builds one
# through its constructors and reads it through its methods
def cyc_internals(path):
    """(line, what) of each direct Cyc(...) call and each .num or .den read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Cyc":
                found.append((node.lineno, "Cyc(...)"))
        elif isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
            found.append((node.lineno, "." + node.attr))
    return sorted(found)


def test_canonical_form_only_in_scalars():
    package = ROOT / "src" / "rspin"
    files = sorted(p for p in package.rglob("*.py") if p != package / "scalars.py")
    assert files
    found = ["%s:%d uses %s" % (path.relative_to(ROOT), line, what)
             for path in files for line, what in cyc_internals(path)]
    assert not found, "build and read Cyc through its constructors:\n" + "\n".join(found)


def test_scan_names_cyc_internals(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from rspin import scalars\nfrom rspin.scalars import Cyc\n\n"
                      "def f(c, frac):\n"
                      "    one = Cyc(1, 1, (1,))\n"
                      "    half = scalars.Cyc(1, 2, (1,))\n"
                      "    return c.num[0], c.den, frac.denominator, Cyc.one(), one, half\n")
    assert cyc_internals(source) == [(5, "Cyc(...)"), (6, "Cyc(...)"), (7, ".den"), (7, ".num")]
