"""The package imports nothing beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

import saloha

PACKAGE_DIR = Path(saloha.__file__).resolve().parent


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib_or_saloha():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_top_level_modules(path)
        if name != "saloha" and name not in sys.stdlib_module_names
    }
    assert not foreign
