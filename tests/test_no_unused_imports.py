"""Every name a `src/sgdlab` module, a `tests` file or a `perfbench` script
imports is used in that file.

No linter runs on this project, and a deletion easily leaves an import behind.
`__init__.py` re-exports by importing, and a statement marked `# noqa: F401`
keeps a name bound for callers elsewhere (perfbench's tracer patches some at
`harness`); both are exempt.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sgdlab"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py"))
           + sorted((TESTS.parent / "perfbench").glob("*.py")))


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
