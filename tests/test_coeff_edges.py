"""weakgen and dsreduction decide on the engines' values at k=1: neither reads
a Coeff back at k=1 (.at_one()), and from coeffs they import only Coeff, to
record results, and ONE."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "walgebra"
ALLOWED = {"Coeff", "ONE"}


def test_k1_decisions_read_engine_values_not_coeffs():
    found = []
    for name in ("weakgen.py", "dsreduction.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "at_one":
                found.append(f"{where}: .at_one")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("coeffs"):
                found += [f"{where}: {a.name}" for a in node.names if a.name not in ALLOWED]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{where}: {a.name}" for a in node.names
                          if a.name.split(".")[-1] == "coeffs"]
    assert not found, found
