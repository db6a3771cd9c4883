"""The runtime is stdlib-only: every absolute import in the package names a
module of the standard library (the package itself is imported relatively)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "walgebra"


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; newer syntax such as
    # except* is a SyntaxError under this feature version
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
