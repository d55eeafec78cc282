"""Source hygiene: no module of the package or of this suite imports a
name it never uses.  Names listed in a module's __all__ count as used,
since re-exporting them is the point of the import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "htype").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) for every imported name the source never uses."""
    tree = ast.parse(source)
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
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_unused_imports():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "import json\n__all__ = ['b']\nprint(json.dumps(d))\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp")]


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 15
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in MODULES for line, name in unused_imports(path.read_text())]
    assert found == []
