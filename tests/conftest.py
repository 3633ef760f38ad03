"""Fixtures shared by every test module."""

import pytest

from structdr import experiment


@pytest.fixture(autouse=True)
def stop_sweep_helpers():
    """Stop the sweep helpers that a test leaves: a helper runs the code it
    was forked with, so one forked under a test's monkeypatches would serve
    the sweeps of later tests with them."""
    yield
    experiment._stop_helpers()
