"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "symalg"

#: Imports kept for their effect.  __init__.py re-exports the public names,
#: and morphisms imports modality so that modality registers its rules.
EXEMPT = {("morphisms.py", "modality")}


def unused_imports(source: str):
    """The names that source imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_import():
    assert unused_imports("import os.path\nfrom a import b as c, d\nd()\n") == ["c", "os"]
    found = [f"{path.name}: {name}" for path in sorted(PKG.glob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))
             if (path.name, name) not in EXEMPT]
    assert found == []
