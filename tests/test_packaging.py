import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaseirls"


def third_party_imports():
    """Root names of the package's absolute imports that are neither stdlib nor its own."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            names.update(roots)
    return names - set(sys.stdlib_module_names) - {"phaseirls"}


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a requirement string starts with its distribution name
    return {re.match(r"[A-Za-z0-9_.\-]+", req).group(0) for req in project["dependencies"]}


def test_imports_match_declared_dependencies():
    assert third_party_imports() == declared_dependencies()
