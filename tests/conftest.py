"""Shared test settings.

Hypothesis runs derandomized, with no deadline and no example database, so
every property test draws the same examples on every run, does not fail on a
slow or loaded host, and writes no example database into the checkout.  Its
remaining storage (the constants cache) goes to a temporary directory, so a
test run leaves no ``.hypothesis/`` behind.
"""

import tempfile
import warnings

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")  # removed at exit
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# Hypothesis reports a falsifying example through libcst, whose import emits a
# DeprecationWarning that the pytest settings turn into an error; that error
# aborted the whole run at the first failing property test.  Importing libcst
# once here, with the warning silenced, lets such a test fail on its own.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
