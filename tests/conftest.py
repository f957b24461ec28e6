"""Shared fixtures."""

import os
from concurrent import futures

import pytest

# one BLAS thread, as importing maskvid sets it, before any test module
# imports numpy; subprocesses inherit it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def src_on_child_pythonpath(monkeypatch):
    """Put this checkout's src/ first on PYTHONPATH, as an absolute path.

    Subprocesses started from another working directory then import maskvid
    from this checkout, whether or not the package is installed.
    """
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC] + rest))


class _InlinePool:
    """Stands in for tensor._POOL: runs each submitted half at once, here."""

    def __init__(self, log: list):
        self.log = log

    def submit(self, run, fn, *args):
        # run is the Context.run that carries the caller's numpy error state
        self.log.append(fn.__qualname__.split(".")[0])
        future = futures.Future()
        future.set_result(run(fn, *args))
        return future


@pytest.fixture
def split_log(monkeypatch):
    """The ops (`linear`, `attention_block`) of every split call, in order.

    The pool is replaced, so splits are logged on any number of cores.
    """
    from maskvid import tensor

    log = []
    monkeypatch.setattr(tensor, "_POOL", _InlinePool(log))
    return log
