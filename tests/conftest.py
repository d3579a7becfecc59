"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run and on every machine."""

from hypothesis import settings

settings.register_profile("sensorq", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("sensorq")
