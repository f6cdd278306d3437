"""A stdlib stand-in for a linter on src/liftspin, read with `ast`: no
module imports a name it never reads, and every module-level private
function or class, and every private method, is referenced somewhere in
the package.  Both catch code
that a deletion leaves behind.  Also: outside `euler` the packed root
counts are only compared, no module reads another's private names, only
`laurent` imports json, so there is one JSON writer, and what importing the
CLI loads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liftspin"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level `__all__`, which re-exports imports."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    tree = _tree(path)
    used = _names_read(tree) | _exported(tree)
    unused = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{path.name} imports {unused} and never reads them"


def test_every_private_def_is_referenced():
    trees = [(path, _tree(path)) for path in MODULES]
    referenced = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    # module-level defs and classes, and the methods of every class
    scopes = [(path, "", tree) for path, tree in trees]
    scopes += [(path, f"{cls.name}.", cls) for path, tree in trees
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    unreferenced = [f"{path.name}:{owner}{node.name}" for path, owner, scope in scopes
                    for node in scope.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in referenced]
    assert not unreferenced, f"private defs nothing references: {unreferenced}"


def test_rows_are_only_compared_outside_euler():
    # euler owns the packed root counts and `LocalFactor.runs` decodes
    # them; every other module may only compare them
    uses = []
    for path in MODULES:
        if path.name == "euler.py":
            continue
        tree = _tree(path)
        compared = {id(operand) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                    and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    for operand in (node.left, *node.comparators)}
        uses += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "rows"
                 and id(node) not in compared]
    assert not uses, f".rows read other than by == or != outside euler: {uses}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    reads = []
    for path in MODULES:
        tree = _tree(path)
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        # modules bound by `import x` and `from . import x`
        modules = {alias.asname or alias.name for node in imports
                   if isinstance(node, ast.Import) or node.module is None for alias in node.names}
        reads += [f"{path.name}:{node.lineno} {alias.name}" for node in imports
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if _private(alias.name)]
        reads += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules
                  and _private(node.attr)]
    assert not reads, f"private names read from another module: {reads}"


def test_only_laurent_imports_json():
    importers = [path.name for path in MODULES if path.name != "laurent.py"
                 for node in ast.walk(_tree(path))
                 if (isinstance(node, ast.Import)
                     and any(alias.name.split(".")[0] == "json" for alias in node.names))
                 or (isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "json")]
    assert not importers, f"json imported outside laurent: {importers}"


# dataclasses and what it pulls in, fractions with decimal and numbers, and
# json's decoder, which every CLI run would import first
HEAVY_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize",
                 "fractions", "decimal", "numbers", "json.decoder"}

IMPORT_SCRIPT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import liftspin.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_modules():
    # a diff, not an absence check: `site` may import some of them already
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_SCRIPT, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "liftspin.cli" in loaded
    assert not loaded & HEAVY_IMPORTS, sorted(loaded & HEAVY_IMPORTS)
