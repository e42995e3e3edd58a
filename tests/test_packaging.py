import argparse
import ast
import dataclasses
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


def _read_by(qualified, refs):
    """Whether ``module.name`` is read in ``refs`` other than inside its own definition."""
    module, name = qualified.split(".")
    # a read inside the name's own definition (recursion) is not a use
    return any(n == name and (m, owner) != (module, name) for m, n, owner in refs)


def test_every_public_name_is_used_by_the_program():
    refs = referenced_names()
    unused = {q for q in public_surface() if not _read_by(q, refs)}
    assert unused == UNREFERENCED_BY_DESIGN


# the solver modules, and the modules whose reads do not put a name on the solve path
SOLVER_MODULES = {"operators", "preconditioner"}
OFF_PATH_MODULES = {"diagnostics", "cli", "__init__"}


def test_solver_modules_hold_only_the_solve_path():
    # a public name that only the block formulation, the CLI or the re-exports
    # read belongs in diagnostics
    refs = {
        (path.stem, name, owner)
        for path, tree in _trees(PACKAGE).items()
        if path.stem not in OFF_PATH_MODULES
        for name, owner in _read_names(tree)
    }
    solver = {q for q in public_surface() if q.split(".")[0] in SOLVER_MODULES}
    assert {q for q in solver if not _read_by(q, refs)} == set()
    # the check sees the names it is meant to judge
    assert {"operators.recover_slacks", "preconditioner.sylvester_solve"} <= solver


# buffer parameters: the caller owns every grid a function writes into
BUFFER_PARAMS = {"out", "flux", "scratch"}


def defaulted_buffer_params():
    """``module.function(param)`` for each buffer parameter of the package that has a default."""
    found = set()
    for path, tree in _trees(PACKAGE).items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update(
                f"{path.stem}.{node.name}({a.arg})" for a in defaulted if a.arg in BUFFER_PARAMS
            )
    return found


def test_buffer_parameters_have_no_default():
    assert defaulted_buffer_params() == set()


def readme_cli_flags():
    """Each ``--flag`` token in README's ``## CLI`` section, its subsections included."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)(?=^## )", text, re.M | re.S).group(1)
    return set(re.findall(r"--[a-z][a-z0-9-]*", section))


def parser_long_options():
    """Each long option of the CLI's subcommands, ``--help`` left out."""
    from phaseirls import cli

    (subparsers,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        opt
        for sub in subparsers.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }


def test_readme_documents_every_cli_option():
    assert readme_cli_flags() == parser_long_options()


def readme_trace_keys():
    """The keys of README's ``--trace`` record, in order."""
    text = (ROOT / "README.md").read_text()
    record = re.search(r"The `--trace` file is JSON lines.*?`(\{.*?\})`", text, re.S).group(1)
    return re.findall(r'"(\w+)":', record)


def test_readme_trace_schema_is_the_iteration_record():
    from phaseirls.irls import IterationRecord

    assert readme_trace_keys() == [f.name for f in dataclasses.fields(IterationRecord)]


# numpy calls that form or factor a dense matrix; np.linalg.norm and the
# preconditioner's np.outer DCT basis are vector work and stay allowed
DENSE_CALLS = {
    f"np.{name}" for name in ("kron", "block", "eye", "identity", "diag")
} | {
    f"np.linalg.{name}"
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "inv", "pinv", "solve", "lstsq")
}


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def dense_calls():
    """``module: call`` for each dense-matrix numpy call in the package."""
    return {
        f"{path.stem}: {name}"
        for path, tree in _trees(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _dotted(node.func)) in DENSE_CALLS
    }


def test_only_diagnostics_forms_dense_matrices():
    calls = dense_calls()
    assert {c for c in calls if not c.startswith("diagnostics: ")} == set()
    # the check sees the calls it is meant to find
    assert "diagnostics: np.kron" in calls and "diagnostics: np.linalg.eigvalsh" in calls
