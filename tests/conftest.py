"""Shared pytest configuration.

Property tests run under a hypothesis profile without a per-example
deadline (timing on small shared machines varies too much for one) and
with derandomized example generation, so every run checks the same cases.
"""

from hypothesis import settings

settings.register_profile("groupwalk", deadline=None, derandomize=True)
settings.load_profile("groupwalk")
