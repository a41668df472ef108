"""Settings shared by every test module."""

from hypothesis import settings

# deterministic examples and no example database written next to the tests
settings.register_profile("adfq", derandomize=True, database=None, deadline=None)
settings.load_profile("adfq")
