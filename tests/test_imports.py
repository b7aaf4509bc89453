"""Every name a module of the package imports is used in that module, every
private module-level name is read somewhere in the package, and no module
imports itself through others."""

import ast
import graphlib
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "symalg"


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
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_private_names(sources: dict):
    """The module-level `_names` (not dunders) that sources, {file name:
    source}, define and never read, as sorted "file: name" strings.  A read
    is a loaded name or an attribute of that name in any of the sources."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        found += [f"{name}: {d}" for d in defined - read
                  if d.startswith("_") and not d.startswith("__")]
    return sorted(found)


def test_no_unread_private_name():
    sample = {"a.py": "_used, _dead = 1, 2\n__all__ = []\nclass _C: pass\n"
                      "def _f():\n    return _used\n",
              "b.py": "import a\nfrom a import _f\n_f()\na._C\n_gone: int = 0\n"}
    assert unread_private_names(sample) == ["a.py: _dead", "b.py: _gone"]
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PKG.glob("*.py"))}
    assert unread_private_names(sources) == []


def import_cycle(sources: dict):
    """A cycle of relative imports among sources, {module name: source}, as
    the list of its modules, each importing the next, or None."""
    graph = {name: {(node.module or a.name) for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.ImportFrom) and node.level for a in node.names}
             for name, source in sources.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as e:
        return e.args[1][::-1]
    return None


def test_relative_imports_are_acyclic():
    sample = {"a": "from .b import x\n", "b": "from . import c\n",
              "c": "from .a import y\nimport os\n", "d": "from .a import z\n"}
    assert import_cycle(sample) == ["a", "b", "c", "a"]
    assert import_cycle({**sample, "c": "import a\n"}) is None
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PKG.glob("*.py"))
               if path.name != "__init__.py"}
    assert import_cycle(sources) is None
