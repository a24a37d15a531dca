"""Every name a nullcert module lists in __all__ exists, so that
`from nullcert.<module> import *` keeps working as code is deleted."""

import importlib
import pkgutil

import pytest

import nullcert

MODULES = ["nullcert"] + [
    f"nullcert.{info.name}" for info in pkgutil.iter_modules(nullcert.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
