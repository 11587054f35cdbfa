"""Every module of the package (its ``__init__`` aside, which re-exports),
of the tests and of the demos uses each name it imports, the package uses
every private function, method and class it defines, and the package, a
demo or the benchmark reads every public one.

A name counts as used when the module reads it anywhere outside its import
statements: as a name, as the root of an attribute, or inside an
annotation written as a string.  A private definition (a name with one
leading underscore, dunders aside) counts as used when some module of the
package reads it as a name or an attribute, or imports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pircons").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted((line, name) for name, line
                    in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_definition_is_used():
    defined, used = [], set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [d for d in defined if d[2] not in used]
    assert not unused, f"private definitions nothing reads: {unused}"


# Public definitions that no built-in path reads: ``hecke.characterize``
# stays, because acceptance criterion 10 checks the characterization of the
# C' basis with it (``test_acceptance``).
READ_BY_TESTS_ONLY = {("hecke.py", "characterize")}


def test_every_public_definition_is_read():
    """Every public function, class and method of the package is read, by
    the rule above, by the package, a demo or the benchmark.  The
    package's ``__init__`` only re-exports, so its imports read nothing."""
    readers = [p for p in PACKAGE if p.name != "__init__.py"] \
        + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    defined, used = [], set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if path in PACKAGE and not node.name.startswith("_"):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unread = [d for d in defined if d[2] not in used
              and (d[0], d[2]) not in READ_BY_TESTS_ONLY]
    assert not unread, f"public definitions nothing reads: {unread}"
