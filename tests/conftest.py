"""Shared test settings.

Property-based tests run under a derandomized Hypothesis profile with a
bounded example count, so every run of the suite checks the same examples
within the acceptance time budgets.

The suite imports the package from this tree's ``src`` (``pythonpath`` in
pyproject.toml); the ``python -m cavityq`` subprocesses some tests start
get the same directory first on their ``PYTHONPATH``.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

settings.register_profile(
    "cavityq",
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
)
settings.load_profile("cavityq")
