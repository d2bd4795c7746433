"""Importing the package stays cheap: no module loads SciPy at import time.

SciPy is imported inside the function that needs it (today only
``tables.chi2_independence``), because importing it costs more than the rest
of the package's start-up.  The test process has SciPy loaded already, so the
check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
import balancelab
names = [m.name for m in pkgutil.iter_modules(balancelab.__path__)]
for name in names:
    importlib.import_module("balancelab." + name)
print(json.dumps({"modules": names, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_importing_every_module_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(seen["modules"]) == sorted(m.name for m in pkgutil.iter_modules([str(SRC / "balancelab")]))
    assert seen["scipy"] == []
