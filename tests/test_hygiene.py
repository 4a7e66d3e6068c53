"""Every name a module imports is used in that module.

A stdlib `ast` scan of every file under src/ and tests/; package
`__init__.py` files are skipped (they import to re-export), and so are
`from __future__` imports.
"""

import ast
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
