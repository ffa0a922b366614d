"""Source hygiene of the package modules.

Each module under ``src/cavityq`` uses every name it imports, so a
refactor that leaves an import behind fails here, and no source line is
wider than 88 columns.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cavityq"
MODULES = sorted(SRC.glob("*.py"))
MAX_COLUMNS = 88


def imported_names(tree):
    """Every name an import statement binds, outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_modules_are_found():
    assert {"hilbert.py", "channels.py", "protocols.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_over_88_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [n for n, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert wide == []
