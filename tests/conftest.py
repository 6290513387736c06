from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; no example database is written.
settings.register_profile("cyclelab", derandomize=True, database=None, deadline=None)
settings.load_profile("cyclelab")
