"""Shared test settings.

Property-based tests run under a derandomized Hypothesis profile with a
bounded example count, so every run of the suite checks the same examples
within the acceptance time budgets.
"""

from hypothesis import settings

settings.register_profile(
    "cavityq",
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
)
settings.load_profile("cavityq")
