"""What the shipped package holds and loads: no public code that only the
tests call, and no scipy module at import time."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The paper's x-domain result: public although only the tests call it.
PAPER_RESULTS = {"frac_lap_lambda", "op_lambda", "hyp2f1_terminating"}

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


def test_every_public_definition_is_used_outside_the_tests():
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py"))
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
