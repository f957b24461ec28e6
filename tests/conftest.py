"""Shared fixtures."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def src_on_child_pythonpath(monkeypatch):
    """Put this checkout's src/ first on PYTHONPATH, as an absolute path.

    Subprocesses started from another working directory then import maskvid
    from this checkout, whether or not the package is installed.
    """
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC] + rest))
