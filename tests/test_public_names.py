"""Every name ``rldp`` exports, every top-level function, class or constant
of an ``rldp`` module, public or private, every public method or property
of an ``rldp`` class and every field it keeps has a reader: a library
module, the acceptance criteria, or the benchmark (``perfbench``).  A name
that only its own unit tests read is dead weight on the package."""

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


def _top_level(path):
    """(name, public function or class) for each name a module defines at
    its top level, the names it assigns (its constants) included."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, not node.name.startswith("_")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                yield name.id, False


def _methods(path):
    """The public methods and properties, as (class, name), of the classes a
    module defines at its top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name, item.name


def _defined(path):
    """The public functions and classes a module defines at its top level."""
    return [name for name, public in _top_level(path) if public]


def _readers():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers.append(ROOT / "tests" / "test_acceptance.py")
    readers.extend((ROOT / "perfbench").glob("*.py"))
    return readers


def _read():
    return set().union(*map(_loaded, _readers()))


def test_every_public_name_has_a_reader():
    exported, read = _exported(), _read()
    assert exported
    assert [name for name in exported if name not in read] == []


# Public definitions that no reader reaches yet, each waiting for the change
# that deletes it; none is waiting now.
_AWAITING_REMOVAL = []


def test_every_public_definition_has_a_reader():
    defined = [(p.name, name) for p in sorted(PACKAGE.glob("*.py"))
               for name in _defined(p)]
    assert len(defined) > len(_exported())
    read = _read()
    unread = [(m, name) for m, name in defined if name not in read]
    assert unread == _AWAITING_REMOVAL


def test_every_public_method_has_a_reader():
    methods = [(p.name, cls, name) for p in sorted(PACKAGE.glob("*.py"))
               for cls, name in _methods(p)]
    assert methods
    read = _read()
    assert [m for m in methods if m[2] not in read] == []


def _unread_imports(path):
    """The names a module binds by an import and never loads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - loaded)


def test_every_import_is_read():
    # ``__init__`` imports in order to export; every other module imports
    # only what it reads
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unread = [(p.name, name) for p in modules for name in _unread_imports(p)]
    assert unread == []


def _summary_builders(path):
    """(module, enclosing function) of each direct ``MeasureSummary(...)``
    call in a module; the function is None at module level."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == "MeasureSummary":
                    found.add((path.name, where))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_model_builds_a_summary():
    # a summary holds its points and their mean, so only the constructors
    # that take the mean from the points may build one
    builders = set().union(*map(_summary_builders, PACKAGE.glob("*.py")))
    assert builders == {("model.py", "from_points"), ("model.py", "replica")}


def test_every_other_top_level_name_has_a_reader():
    # constants, public or private, and private functions and classes
    others = [(p.name, name) for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"
              for name, public in _top_level(p) if not public]
    assert others
    read = _read()
    assert [(m, name) for m, name in others if name not in read] == []


# Results that ``cli`` writes whole into ``result.json`` through
# ``dataclasses.asdict``: that call reads every field, so none needs a
# reader by name.
_WRITTEN_WHOLE = {"LaplaceEstimate", "VariationalEstimate", "RateEstimate",
                  "SubmartingaleReport", "SubmartingaleEntry"}


def _fields(path):
    """(class, name) of each annotated field of a top-level class, and of
    each attribute one of its methods sets on ``self``."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                              ast.Name):
                yield node.name, item.target.id
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                yield node.name, sub.attr


def _loaded_attributes(path):
    """The attribute names a file loads, ``x.name`` read rather than set."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_has_a_reader():
    # Like the checks above it matches by name alone, so a field is taken
    # as read when any attribute of that name is: ``TestFunction.d`` would
    # pass while some other ``.d`` is loaded.
    fields = {(p.name, cls, name) for p in sorted(PACKAGE.glob("*.py"))
              for cls, name in _fields(p) if cls not in _WRITTEN_WHOLE}
    assert fields
    read = set().union(*map(_loaded_attributes, _readers()))
    assert sorted(f for f in fields if f[2] not in read) == []
