"""Static checks over the library source, by `ast` alone: every private
top-level name is used somewhere in the package, every public top-level
function or class is reached from somewhere, and every import outside
`__init__.py` is used in its own module. Also, README's library map has a
row for every module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "magkit"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def read_names(tree):
    """Every name the tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def defined_names(tree):
    """Names bound at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def imported_names(tree):
    """Names bound by import statements, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_private_top_level_name_is_used():
    used = set().union(*map(read_names, MODULES.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in MODULES.items()
        for name in defined_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert unused == []


def perfbench_names():
    """The string constants and attribute reads of perfbench/*.py: the
    harness looks magkit names up by string, so these keep a name reached."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_top_level_name_is_reached():
    # read somewhere in the package, exported by __init__, or named by perfbench
    exported = {
        alias.asname or alias.name
        for node in MODULES["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached = set().union(*map(read_names, MODULES.values())) | exported | perfbench_names()
    idle = [
        f"{module.removesuffix('.py')}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in reached
    ]
    assert idle == []


def test_every_import_is_used_in_its_module():
    unused = [
        f"{module}:{name}"
        for module, tree in MODULES.items()
        if module != "__init__.py"
        for name in imported_names(tree)
        if name not in read_names(tree)
    ]
    assert unused == []


def test_every_module_has_a_library_map_row():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `magkit\.(\w+)`", section, re.MULTILINE))
    modules = {name.removesuffix(".py") for name in MODULES} - {"__init__"}
    assert sorted(modules - rows) == []
