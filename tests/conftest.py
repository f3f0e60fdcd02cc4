"""One Hypothesis profile for every property test: deterministic example
sequences, no example database on disk and no per-example deadline.  Each
test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("hamsel", deadline=None, database=None, derandomize=True)
settings.load_profile("hamsel")
