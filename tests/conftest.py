"""Settings for the whole tier-1 run.

Every property test draws the same examples on every run: hypothesis derives
them from the test itself (`derandomize`) and keeps no example database, so
no `.hypothesis/` directory replays old examples or slows a used checkout.
Each test still sets its own `max_examples` and `deadline`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
