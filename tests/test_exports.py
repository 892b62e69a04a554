"""Each module's ``__all__`` matches what it defines."""

import importlib
import inspect
import pkgutil

import pytest

import wenonet

MODULES = [
    importlib.import_module(f"wenonet.{info.name}")
    for info in pkgutil.iter_modules(wenonet.__path__)
]


@pytest.mark.parametrize(
    "mod", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_exactly_the_public_definitions(mod):
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    assert [n for n in defined if n not in mod.__all__] == []
