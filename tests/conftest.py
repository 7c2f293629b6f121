from hypothesis import settings

# `pytest --hypothesis-profile=ci tests/test_cli_fuzz.py tests/test_oracles.py`
# runs more examples than the default profile; derandomize makes a failure
# reproduce from the same command.  A test that fixes its own max_examples
# keeps it; the oracle draws take a quarter of the profile's.
settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)
