"""Cold start: importing the CLI loads no heavy scipy subpackage.

The package needs only the normal and Student-t functions, which it
takes from ``scipy.special``. ``scipy.stats`` alone costs about a second
to import, so a stray import of it (or of ``scipy.integrate`` or
``scipy.optimize``, which it pulls in) is caught here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = f"import sys, bvm.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
