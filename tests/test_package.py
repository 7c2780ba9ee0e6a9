"""Every name in an __all__ resolves, in the package and in each module."""

import importlib

import pytest

MODULES = ["counting", "expsums", "invariants", "padic", "polynomials", "series"]


@pytest.mark.parametrize("module", ["padicsums"] + [f"padicsums.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(mod.__all__) == len(set(mod.__all__))
