"""Every name in an __all__ resolves, and the package exports each module's __all__."""

import importlib

import pytest

MODULES = ["counting", "expsums", "invariants", "padic", "polynomials", "series"]


@pytest.mark.parametrize("module", ["padicsums"] + [f"padicsums.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(mod.__all__) == len(set(mod.__all__))


def test_package_exports_every_module_all_in_module_order():
    import padicsums

    names = [n for m in MODULES for n in importlib.import_module(f"padicsums.{m}").__all__]
    assert padicsums.__all__ == names
