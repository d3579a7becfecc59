"""Hypothesis profiles: every property test draws the same examples on every
run and on every machine. "sensorq" is the default; "sensorq-deep" draws ten
times as many (`pytest --hypothesis-profile=sensorq-deep tests/test_ingest.py
tests/test_metrics.py tests/test_agent.py tests/test_env.py`)."""

from hypothesis import settings

settings.register_profile("sensorq", derandomize=True, deadline=None, max_examples=100)
settings.register_profile("sensorq-deep", derandomize=True, deadline=None, max_examples=1000)
settings.load_profile("sensorq")
