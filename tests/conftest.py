"""Test configuration: hypothesis draws the same examples on every run.

The ``derandomized`` profile seeds each property from a hash of its test
function, so that two runs of the suite on the same code test the same
examples.  Passing ``--hypothesis-seed N`` (to explore other examples) or
``--hypothesis-profile NAME`` runs with that instead.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)


def pytest_configure(config):
    if config.getoption("--hypothesis-seed") is None and config.getoption("--hypothesis-profile") is None:
        settings.load_profile("derandomized")
