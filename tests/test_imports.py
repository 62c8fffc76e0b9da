"""Every imported name is used: an unused-import check with stdlib `ast`.

Each Python file under src/, tests/ and tools/ is parsed; a name bound by
an `import` or `from ... import` must be referenced somewhere else in that
file, or listed in its `__all__`.  An import line ending in
`# noqa: F401` is exempt, as with pyflakes.

The program itself needs numpy only: importing the CLI loads no scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "tools")
               for path in (ROOT / folder).rglob("*.py"))


def imported_names(tree, lines):
    """(bound name, line) for every import not marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def referenced_names(tree):
    """Names read anywhere in the module, plus the strings of `__all__`."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = referenced_names(tree)
    return [(name, line) for name, line in imported_names(tree, source.splitlines())
            if name not in used]


def test_every_tree_has_python_files():
    for folder in ("src", "tests", "tools"):
        assert any(path.is_relative_to(ROOT / folder) for path in FILES), folder


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{name} (line {line})" for name, line in unused)


def test_checker_flags_unused_and_honours_noqa():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "from json import dumps, loads as parse\n"
              "import xml.dom\n"
              "print(parse, xml.dom)\n")
    assert unused_imports(source) == [("os", 1), ("dumps", 3)]


def test_cli_import_loads_no_scipy():
    probe = ("import sys, mlfewshot.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
