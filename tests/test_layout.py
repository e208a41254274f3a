"""The library holds only what the CLI and the scripts use.

Every public name in ``kacdepth.__all__`` must be referenced (as a name, an
attribute or an import) from ``cli.py``, from ``scripts/*.py`` or from a
library module; ``__init__.py`` re-exports and does not count.  A name only
the tests need belongs under ``tests/`` (see ``tests/oracles.py``).
"""

import ast
from pathlib import Path

import kacdepth

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_non_test_user():
    library = [p for p in (ROOT / "src" / "kacdepth").glob("*.py") if p.name != "__init__.py"]
    used = _referenced_names([*library, *(ROOT / "scripts").glob("*.py")])
    public = [n for n in kacdepth.__all__ if not n.startswith("__")]
    assert [n for n in public if n not in used] == []
