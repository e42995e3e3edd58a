import ast
import importlib.util
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


PERFBENCH = ROOT / "perfbench"
# public names that no program code calls: the paper's two objectives (the
# console script ``cli.entry`` counts as used through the module's __main__ guard)
UNREFERENCED_BY_DESIGN = {"objective.eval_f", "objective.eval_f_delta"}


def _trees(directory):
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(directory.glob("*.py"))
    }


def public_surface():
    """``module.name`` of each ``__all__`` entry and each public module-level function."""
    names = set()
    for path, tree in _trees(PACKAGE).items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(f"{path.stem}.{elt.value}" for elt in node.value.elts)
    return names


def _read_names(tree):
    """Each name read as ``name`` or ``obj.name``, with the top-level definition it sits in."""
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
    return found


def referenced_names():
    """Names read anywhere in the benchmark or the package, with the package module of each read."""
    refs = set()
    for path, tree in _trees(PACKAGE).items():
        refs.update((path.stem, name, owner) for name, owner in _read_names(tree))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the traced run looks these attributes up by name
    refs.update((None, attr, None) for _, attr, _, _ in tracing.TARGETS)
    for tree in _trees(PERFBENCH).values():
        refs.update((None, name, None) for name, _ in _read_names(tree))
    return refs


def test_every_public_name_is_used_by_the_program():
    refs = referenced_names()

    def used(qualified):
        module, name = qualified.split(".")
        # a read inside the name's own definition (recursion) is not a use
        return any(n == name and (m, owner) != (module, name) for m, n, owner in refs)

    unused = {q for q in public_surface() if not used(q)}
    assert unused == UNREFERENCED_BY_DESIGN
