"""Source hygiene: no module of the package or of this suite imports a
name it never uses, and the package defines no function, class or
method that no other line of the package refers to.  Names listed in a
module's __all__ count as used, since re-exporting them is the point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "htype").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Package names no package code calls, each kept for one outside caller.
UNREFERENCED_ALLOWED = {
    "words.check_involution_system": "imported by bench/workloads.py",
    "clifford_rep.GeneratorSet.apply_word": "wrapped by bench/tracer.py",
}


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
    used |= exported_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exported_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unreferenced_definitions(sources):
    """Qualified names of the functions, classes and methods defined in
    sources, a dict module name -> source, that no name or attribute
    outside their own body refers to; dunder methods and names in a
    module's __all__ are left out.  A name defined in a class body is
    reached only as an attribute, so only an attribute refers to it: a
    local variable of the same name does not."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []

    def visit(body, prefix, exported, kinds):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            inside = {id(n) for n in ast.walk(node)}
            if not (name in exported or name.startswith("__") and name.endswith("__")
                    or any(ref == name and isinstance(n, kinds) and id(n) not in inside
                           for ref, n in refs)):
                found.append(prefix + name)
            visit(node.body, prefix + name + ".", (),
                  ast.Attribute if isinstance(node, ast.ClassDef) else (ast.Name, ast.Attribute))

    for module, tree in trees.items():
        visit(tree.body, module + ".", exported_names(tree), (ast.Name, ast.Attribute))
    return sorted(found)


def test_the_check_finds_unused_imports():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "import json\n__all__ = ['b']\nprint(json.dumps(d))\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp")]


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 15
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in MODULES for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_check_finds_unreferenced_definitions():
    source = ("__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def used(): return helper()\n"
              "def helper():\n    def inner(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "class Box:\n"
              "    def __init__(self): pass\n"
              "    def method(self): pass\n"
              "    def called(self): pass\n"
              "used(); Box().called()\n")
    assert unreferenced_definitions({"m": source}) == [
        "m.Box.method", "m.helper.inner", "m.recursive"]
    other = "from m import recursive\nrecursive(3)\n"
    assert unreferenced_definitions({"m": source, "n": other}) == [
        "m.Box.method", "m.helper.inner"]
    local = "def tally(rows):\n    method = len(rows)\n    return method\ntally([])\n"
    assert unreferenced_definitions({"m": source, "n": other, "o": local}) == [
        "m.Box.method", "m.helper.inner"]


def test_the_package_defines_nothing_it_never_calls():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert len(sources) > 6
    assert unreferenced_definitions(sources) == sorted(UNREFERENCED_ALLOWED)
