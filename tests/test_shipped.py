"""What the shipped package holds and loads: no public code and no setting
that only the tests use, and no scipy module at import time."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The paper's x-domain result, D^alpha[lambda_k] for the symmetric operator
# and for every kind: public although only the tests call it.
PAPER_RESULTS = {"frac_lap_lambda", "op_lambda"}

# Settings the shipped code never passes, kept as the tests' way in: the
# CLI's argv, through which they drive every command, and the quadrature's
# alternative forms, the reference they check its default form against.
TEST_SETTINGS = {("main", "argv"), ("quad_operator", "representation")}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _identifiers(node):
    """Names, attributes, imported names and dotted-name strings (perfbench
    resolves its spans from strings such as "basis.synthesize") in node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                found.update(sub.value.split("."))
    return found


def _shipped_files():
    files = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "perfbench").rglob("*.py"))


def _defaulted_parameters(func, is_method):
    """(position, name) of each parameter of func that has a default; the
    position counts positional arguments of a call, None if keyword-only."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i - is_method, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def _public_functions(tree):
    """(name, node, is_method) of each public function and public method of
    a public class at the top level of a module."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt, False
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub.name, sub, True


def _passed(tree):
    """(callee name, positional count or None for *args, keyword names or
    None for **kwargs) of each call in tree, with import aliases resolved
    to the imported name."""
    aliases = {a.asname: a.name for sub in ast.walk(tree)
               if isinstance(sub, ast.ImportFrom) for a in sub.names if a.asname}
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call):
            continue
        f = sub.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in sub.args)
        keywords = {k.arg for k in sub.keywords}
        yield (aliases.get(name, name), None if starred else len(sub.args),
               None if None in keywords else keywords)


def test_every_setting_is_passed_outside_the_tests():
    # A parameter with a default that no shipped call passes is a setting
    # only the tests use.  Calls are matched by name, as above.
    trees = [(path, ast.parse(path.read_text())) for path in _shipped_files()]
    calls = [call for _, tree in trees for call in _passed(tree)]
    unpassed = []
    for path, tree in trees:
        if not path.is_relative_to(SRC):
            continue
        for name, func, is_method in _public_functions(tree):
            if name in PAPER_RESULTS:
                continue
            for position, param in _defaulted_parameters(func, is_method):
                if (name, param) in TEST_SETTINGS:
                    continue
                if not any(
                    callee == name and (
                        count is None or keywords is None or param in keywords
                        or (position is not None and position < count)
                    )
                    for callee, count, keywords in calls
                ):
                    unpassed.append(f"{path.relative_to(ROOT)}:{name}({param})")
    assert not unpassed, f"settings only the tests pass: {unpassed}"


def test_every_public_definition_is_used_outside_the_tests():
    files = _shipped_files()
    # One identifier set per top-level statement, so that a definition's
    # own body does not count as a use of it.
    statements = []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path, stmt, _identifiers(stmt)))
    unused = []
    for path, stmt, _ in statements:
        if path.is_relative_to(SRC) and isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = stmt.name
            if name.startswith("_") or name in PAPER_RESULTS:
                continue
            if not any(name in ids for _, other, ids in statements if other is not stmt):
                unused.append(f"{path.relative_to(ROOT)}:{name}")
    assert not unused, f"public definitions only the tests use: {unused}"


def _private_reads(tree):
    """(line, text) of each read of another rfspectral module's private
    name in tree: `from .mod import _x`, or `mod._x` on a module bound by
    an import."""
    def ours(module, level):
        return level > 0 or (module or "").split(".")[0] == "rfspectral"

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    modules = set()
    found = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and ours(sub.module, sub.level):
            for a in sub.names:
                if private(a.name):
                    source = "." * sub.level + (sub.module or "")
                    found.append((sub.lineno, f"from {source} import {a.name}"))
                else:
                    # Possibly a module, as in `from . import evolve as ev`.
                    modules.add(a.asname or a.name)
        elif isinstance(sub, ast.Import):
            modules.update(a.asname or a.name for a in sub.names
                           if ours(a.name, 0))
    for sub in ast.walk(tree):
        if (isinstance(sub, ast.Attribute) and private(sub.attr)
                and isinstance(sub.value, ast.Name) and sub.value.id in modules):
            found.append((sub.lineno, f"{sub.value.id}.{sub.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    # A private name is its module's own; another module that needs it
    # needs a public one.
    found = [
        f"{path.relative_to(ROOT)}:{line}: {text}"
        for path in sorted((SRC / "rfspectral").glob("*.py"))
        for line, text in _private_reads(ast.parse(path.read_text()))
    ]
    assert not found, f"private names read across modules: {found}"


def test_import_loads_no_scipy():
    # scipy serves two leaf uses, the erf reference values (scipy.special)
    # and the oracle's quadrature (scipy.integrate); each loads it only when
    # it runs.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "import sys, rfspectral, rfspectral.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"
