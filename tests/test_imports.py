"""Each module of the package imports on its own in a fresh interpreter.

The package re-exports nothing, so no import order is fixed for callers:
a module that works only after another has been imported fails here. The
source is also read as a whole: only episodes.write_output opens files for
writing, so every output keeps its replace-on-success rule, and every
exception type but the base DetaError is raised somewhere, so none is kept
that no caller can meet. Every function, class and method of the package is
used by the package, the benchmark or the console script, since what only
tests use belongs in tests/oracles.py. Every source and test file parses as
the declared Python floor, 3.10.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "deta").glob("*.py") if p.stem != "__init__")


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_python("-c", f"import deta.{module}")
    assert done.returncode == 0, done.stderr


def test_cli_runs_as_a_module():
    done = run_python("-m", "deta.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: deta")


def _write_calls(tree):
    """Calls that open a file for writing.

    That is open with a mode holding w, x, a or + (or one that is not a
    literal; for a method's open the first argument is taken as its mode),
    and write_text or write_bytes.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open":
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wxa+")
                   for m in modes):
                yield node


def test_only_write_output_opens_files_for_writing():
    writers, elsewhere = [], []
    for path in sorted((SRC / "deta").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        if path.name == "episodes.py":
            (write_output,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "write_output"]
            inside = {id(n) for n in ast.walk(write_output)}
        for call in _write_calls(tree):
            (writers if id(call) in inside else elsewhere).append(f"{path.name}:{call.lineno}")
    assert len(writers) == 2, writers  # the temporary file and the in-place write
    assert elsewhere == [], f"files opened for writing outside episodes.write_output: {elsewhere}"


def test_every_exception_type_is_raised_by_name():
    errors = ast.parse((SRC / "deta" / "errors.py").read_text(encoding="utf-8"))
    declared = {n.name for n in errors.body if isinstance(n, ast.ClassDef)} - {"DetaError"}
    raised = set()
    for path in (SRC / "deta").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert declared and declared <= raised, f"exception types nothing raises: {sorted(declared - raised)}"


def _references(tree) -> list[str]:
    """Names a tree refers to: names, attribute names, imported names and string constants.

    Strings count because the benchmark's tracer names the methods it wraps by string.
    """
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.alias):
            refs.append(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.append(node.value)
    return refs


def test_every_definition_is_used_outside_tests():
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    definitions = []  # (where, name, the definition's node)
    package_refs = Counter()
    for path in sorted((SRC / "deta").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        package_refs.update(_references(tree))
        for node in tree.body:
            if isinstance(node, defs):
                definitions.append((f"{path.stem}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{path.stem}.{node.name}.{m.name}", m.name, m)
                    for m in node.body
                    if isinstance(m, defs[:2]) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    outside = set()
    for path in (SRC.parent / "perfbench").glob("*.py"):
        outside.update(_references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    outside.update(re.findall(r'"deta\.\w+:(\w+)"', (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")))
    unused = [
        where for where, name, node in definitions
        if name not in outside and package_refs[name] <= _references(node).count(name)
    ]
    assert unused == [], f"defined in src/deta but used only by tests, if at all: {unused}"


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(SRC.parent)) for top in (SRC, SRC.parent / "tests") for p in top.rglob("*.py")
))
def test_parses_as_python_3_10(path):
    source = (SRC.parent / path).read_text(encoding="utf-8")
    ast.parse(source, filename=path, feature_version=(3, 10))
