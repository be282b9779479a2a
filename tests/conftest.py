"""Fixtures shared across test modules."""

import pytest

from ncsim.cli import RunConfig, load_or_build_tables


@pytest.fixture(scope="session")
def tables():
    """Both standard plant classes' threshold tables, built once per session, uncached."""
    return load_or_build_tables(RunConfig(L_values=(2,)), log=lambda *a: None)
