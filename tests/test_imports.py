"""No path through the package loads SciPy.

Importing SciPy costs more than the rest of the package's start-up, and on
the sampled path it was the largest part of the set-up: the chi-squared test
returns its statistic and degrees of freedom, and a caller that wants the
p-value imports SciPy itself.  The test process has SciPy loaded already, so
each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import balancelab
names = [m.name for m in pkgutil.iter_modules(balancelab.__path__)]
for name in names:
    importlib.import_module("balancelab." + name)
print(json.dumps({"modules": names, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

SAMPLED_PROBE = """
import json, sys
from balancelab.balancing import BalanceSpec, JointTarget, Mechanism, balance_batch
from balancelab.bayesnet import sample_cbn
from balancelab.tables import chi2_independence
from balancelab.templates import graph_template
batch = sample_cbn(graph_template("C").net, 2000, 5)
tests = []
for mechanism, seed in [("importance_weights", None), ("subsample_majority", 3), ("upsample_minority", 3)]:
    out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism(mechanism), seed))
    out.empirical_table()
    tests.append(chi2_independence(out, "Y", "Z"))
print(json.dumps({"tests": tests, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def probe(code: str) -> dict:
    """The JSON line that ``code`` prints last, run in a fresh interpreter on the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_importing_every_module_loads_no_scipy():
    seen = probe(IMPORT_PROBE)
    assert sorted(seen["modules"]) == sorted(m.name for m in pkgutil.iter_modules([str(SRC / "balancelab")]))
    assert seen["scipy"] == []


def test_sampled_balancing_path_loads_no_scipy():
    seen = probe(SAMPLED_PROBE)
    assert len(seen["tests"]) == 3 and all(dof == 1 for _, dof in seen["tests"])
    assert seen["scipy"] == []
