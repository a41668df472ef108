"""Settings shared by every test module."""

from hypothesis import settings

# deterministic examples and no example database written next to the tests
settings.register_profile("adfq", derandomize=True, database=None, deadline=None)
# fresh random examples, many of them, still with no database; select it with
# `pytest --hypothesis-profile=adfq-explore`, which overrides the load below
settings.register_profile("adfq-explore", max_examples=2000, database=None, deadline=None)
settings.load_profile("adfq")
