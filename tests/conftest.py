"""The Hypothesis profile every property test runs under; without Hypothesis
the property tests skip themselves and no profile is loaded."""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # the same examples on every run, no deadline on a shared machine, no
    # example database
    settings.register_profile("suite", derandomize=True, deadline=None, database=None,
                              max_examples=60)
    settings.load_profile("suite")
