"""Test-suite settings shared by every module under ``tests/``.

Hypothesis runs with a derandomized profile: each property test draws the
same examples on every run, so the suite's outcome is reproducible.
"""

from hypothesis import settings

settings.register_profile("spindiode", derandomize=True, deadline=None, database=None)
settings.load_profile("spindiode")
