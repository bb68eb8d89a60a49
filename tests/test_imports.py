"""Module boundaries inside the package: no module imports another's private names,
and the package itself re-exports nothing."""
import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "priorshift"


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name ``path`` imports from the
    package; dunders such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("priorshift"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    bad = {p.name: _private_imports(p) for p in modules}
    assert {name: found for name, found in bad.items() if found} == {}


def test_checker_flags_private_and_spares_dunder(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from . import __version__\n"
                   "from .denoiser import _film, forward\n"
                   "from priorshift.latent import _decode_track\n"
                   "from numpy import _private\n")
    assert _private_imports(src) == [".denoiser._film", "priorshift.latent._decode_track"]


def test_package_import_loads_no_module_of_its_own():
    """The package exports only ``__version__``: callers import the modules
    they use, and importing the package alone loads none of them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, priorshift\n"
            "print(sorted(m for m in sys.modules if m.startswith('priorshift.')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
