"""The package declares what it imports.

Every third-party top-level module imported anywhere under ``src/`` must
be a runtime dependency in ``pyproject.toml`` — otherwise ``pip install``
yields a package that fails at import time.  Stdlib only: ``ast`` reads
the imports, ``tomllib`` the declaration; nothing is installed.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src"
PROJECT = "repro"


def _imported_top_levels() -> dict[str, str]:
    """Top-level module name → one file importing it (absolute imports)."""
    found: dict[str, str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], str(path.relative_to(REPO)))
    return found


def _declared() -> set[str]:
    """Distribution names of ``[project] dependencies``, normalized."""
    with open(REPO / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.split(r"[\s<>=!~;\[(]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in project.get("dependencies", [])
    }


def test_every_third_party_import_is_declared():
    third_party = {
        name: where
        for name, where in _imported_top_levels().items()
        if name not in sys.stdlib_module_names and name != PROJECT
    }
    assert third_party, "the scan found no third-party import at all"
    declared = _declared()
    missing = {
        name: where for name, where in third_party.items() if name not in declared
    }
    assert not missing, f"imported under src/ but not declared: {missing}"

