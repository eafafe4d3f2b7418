"""Import rules of the ``aek`` package's own modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aek"


def test_package_modules_import_public_names_and_use_them():
    """No module of ``aek`` imports a ``_private`` name from a sibling,
    and every name a module imports is used in it, so a deletion cannot
    leave an import behind.  ``__init__.py`` imports to re-export and
    is held to the first rule only."""
    private, unused = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                where = f"{path.name}:{node.lineno} {alias.name}"
                if (isinstance(node, ast.ImportFrom) and node.level
                        and alias.name.startswith("_")):
                    private.append(where)
                name = (alias.asname or alias.name).split(".")[0]
                if path.name != "__init__.py" and name not in used:
                    unused.append(where)
    assert not private
    assert not unused
