"""Every name ``rldp`` exports, and every public top-level function or class
of an ``rldp`` module, has a reader: a library module, or the acceptance
criteria.  A public name that only its own unit tests call is dead weight on
the package surface."""

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


def _defined(path):
    """The public functions and classes a module defines at its top level."""
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _read():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*map(_loaded, readers))


def test_every_public_name_has_a_reader():
    exported, read = _exported(), _read()
    assert exported
    assert [name for name in exported if name not in read] == []


# Unread, and kept only while its 158 test ids are more than one change may
# delete; the entry goes when the function does, or gains a reader.
_AWAITING_REMOVAL = [("measures.py", "path_bl_distance")]


def test_every_public_definition_has_a_reader():
    defined = [(p.name, name) for p in sorted(PACKAGE.glob("*.py"))
               for name in _defined(p)]
    assert len(defined) > len(_exported())
    read = _read()
    unread = [(m, name) for m, name in defined if name not in read]
    assert unread == _AWAITING_REMOVAL
