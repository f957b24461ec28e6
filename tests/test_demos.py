"""The demos import only names maskvid still has, and the quick one runs."""

import importlib.util
import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SCRIPTS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def _load(filename):
    # each demo keeps main() behind __main__, so loading runs only its imports
    spec = importlib.util.spec_from_file_location(f"demo_{filename[:-3]}",
                                                  os.path.join(DEMOS, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("filename", SCRIPTS)
def test_demo_imports(filename):
    assert callable(_load(filename).main)


def test_masking_demo_runs(capsys):
    _load("02_masking_strategies.py").main()
    out = capsys.readouterr().out
    for strategy in ("tube", "random", "frame"):
        assert f"== {strategy} " in out
