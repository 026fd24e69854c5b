"""Every module of the package and of the test suite uses each name it
imports.  A line marked `# noqa: F401` is exempt: an import kept for its
effect, such as probing whether an extension loads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that `source` never reads.  A
    name counts as read where it appears as a name or in `__all__`;
    `__future__` imports and lines marked `# noqa: F401` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_flags_and_exempts():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import a.b\n"
              "from x import (\n    y,\n    z,  # noqa: F401\n)\n"
              "from w import v as u\n"
              "__all__ = ['y']\n"
              "print(sys.argv, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (8, "u")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in (ROOT / "src" / "wspkit", ROOT / "tests")
             for path in sorted(top.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
