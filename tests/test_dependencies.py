"""The runtime needs only numpy: no module of the package imports scipy,
which the tests keep as an oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msvseg"


def _imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_no_module_of_the_package_imports_scipy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    for path in files:
        top = {name.split(".")[0] for name in _imported_modules(path)}
        assert "scipy" not in top, path.name


def test_importing_the_package_loads_no_scipy_module():
    code = ("import sys, msvseg, msvseg.cli, msvseg.metrics, msvseg.gradcheck; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
