"""Every name a `src/sgdlab` module, a `tests` file or a `perfbench` script
imports is used in that file, and every module-level name, method and
class-level attribute `src/sgdlab` defines is read by the package or by
perfbench, not by tests alone.

No linter runs on this project, and a deletion easily leaves an import, a
helper or a method behind. `__init__.py` re-exports by importing, and a
statement marked `# noqa: F401` keeps a name bound for callers elsewhere
(perfbench's tracer patches some at `harness`); both are exempt from the
import check, and the names `__init__.py` re-exports are public API, exempt
from the read check. Dunders are exempt too, and so are the annotated fields
of a dataclass or NamedTuple: a record's fields are its format, read
positionally (a trace line) or only by its callers.
"""

import ast
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sgdlab"
PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))
MODULES = PACKAGE + sorted(TESTS.glob("*.py")) + PERFBENCH


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import pi, tau  # noqa: F401\nprint(np.ones(1))\n")
    assert unused_imports(source) == ["2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list[str]:
    """The functions, classes and assigned names at a module's top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def read_names(source: str) -> set[str]:
    """Every name the source reads: a loaded name, an attribute, an imported
    name, or a string equal to one (perfbench's tracer patches by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_flags_only_unread_definitions():
    source = ("X = 1\nY: int = 2\ndef f():\n    return X\nclass C:\n    pass\n"
              "def _g():\n    pass\n")
    assert defined_names(source) == ["X", "Y", "f", "C", "_g"]
    assert {"X", "f", "C"} <= read_names(source + "f()\nz = C\n")
    assert not {"Y", "_g"} & read_names(source + "f()\nz = C\n")


def class_members(source: str) -> list[str]:
    """'Class.name' for each method and class-level assignment of every class
    in the source, but the annotated fields of a dataclass or NamedTuple."""
    members = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        record = (any(ast.unparse(d).split("(")[0].endswith("dataclass")
                      for d in cls.decorator_list)
                  or any(ast.unparse(b).endswith("NamedTuple") for b in cls.bases))
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) or (isinstance(node, ast.AnnAssign)
                                                  and not record):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            members += [f"{cls.name}.{name}" for name in names]
    return members


def test_flags_only_unread_members():
    source = textwrap.dedent("""\
        from dataclasses import dataclass
        @dataclass(frozen=True)
        class R:
            field: int
            def used(self):
                return self.field
        class C:
            flag: bool = False
            kind = 'c'
            a, b = 1, 2
            def __init__(self):
                pass
            def read(self):
                return self.flag, self.kind, self.a
            def take(self, i):
                return i
        def f():
            class Local:
                def helper(self):
                    pass
            return Local, R(1).used(), C().read()
        """)
    assert class_members(source) == ["R.used", "C.flag", "C.kind", "C.a", "C.b",
                                     "C.__init__", "C.read", "C.take", "Local.helper"]
    read = read_names(source)
    assert {"used", "flag", "kind", "a", "read"} <= read
    assert not {"b", "take", "helper"} & read


def read_outside_tests() -> set[str]:
    """The names the package and perfbench read, and the package's exports."""
    return set().union(*(read_names(p.read_text(encoding="utf-8"))
                         for p in PACKAGE + PERFBENCH + [SRC / "__init__.py"]))


def test_every_package_definition_is_read_outside_tests():
    read = read_outside_tests()
    unread = [f"{p.stem}.{name}" for p in PACKAGE
              for name in defined_names(p.read_text(encoding="utf-8"))
              if name not in read and not name.startswith("__")]
    assert unread == []


def test_every_method_and_class_attribute_is_read_outside_tests():
    read = read_outside_tests()
    unread = [f"{p.stem}.{member}" for p in PACKAGE
              for member in class_members(p.read_text(encoding="utf-8"))
              if (name := member.split(".")[1]) not in read and not name.startswith("__")]
    assert unread == []
