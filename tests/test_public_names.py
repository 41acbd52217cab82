"""Every name ``rldp`` exports has a reader: another library module, or the
acceptance criteria.  A public name that only its own unit tests call is
dead weight on the package surface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rldp"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def _loaded(path):
    """The names a file loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    return names


def test_every_public_name_has_a_reader():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_loaded, readers))
    exported = _exported()
    assert exported
    assert [name for name in exported if name not in read] == []
