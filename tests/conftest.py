"""Shared pytest configuration for the test suite."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')")
