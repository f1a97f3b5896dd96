"""Hypothesis runs the same examples on every run: derandomized, with no
example database carried between runs.  Tests keep their own
``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
