"""The runtime is stdlib-only: every absolute import in the package names a
module of the standard library (the package itself is imported relatively),
and the package's import graph stays light."""

import ast
import json
import os
import subprocess
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


def test_import_loads_no_typing_and_keeps_two_dataclasses():
    # `import walgebra` (and its CLI) in an interpreter started with -s -S,
    # no PYTHON* variables and only src/ besides the standard library on the
    # path loads no typing.  ClosureStep and ClosureReport stay dataclasses,
    # since the benchmark's gate tests build tampered copies of them with
    # dataclasses.replace; they are why dataclasses is imported at all
    probe = (
        "import dataclasses, json, sys\n"
        "import walgebra, walgebra.cli\n"
        "mods = [m for n, m in sys.modules.items() if n.startswith('walgebra')]\n"
        "dcs = sorted(f'{m.__name__}.{k}' for m in mods for k, v in vars(m).items()\n"
        "             if isinstance(v, type) and v.__module__ == m.__name__\n"
        "             and dataclasses.is_dataclass(v))\n"
        "print(json.dumps({'typing': 'typing' in sys.modules, 'path': sys.path,\n"
        "                  'file': walgebra.__file__, 'dataclasses': dcs}))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run([sys.executable, "-s", "-S", "-c", probe], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert Path(seen["file"]).resolve() == SRC / "__init__.py"
    assert [p for p in seen["path"] if p and not p.startswith(sys.base_prefix)] == []
    assert seen["typing"] is False
    assert seen["dataclasses"] == ["walgebra.weakgen.ClosureReport", "walgebra.weakgen.ClosureStep"]
