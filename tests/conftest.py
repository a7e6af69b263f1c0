"""Hypothesis settings shared by every property test.

Exact arithmetic makes single examples slow on a loaded host, so the
per-example deadline is off; each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("skewflow", deadline=None)
settings.load_profile("skewflow")
