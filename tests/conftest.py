from hypothesis import settings

# one derandomized profile keeps every property test deterministic across runs
settings.register_profile("recipkit", derandomize=True, deadline=None)
settings.load_profile("recipkit")
