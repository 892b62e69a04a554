"""Each module's ``__all__`` matches what it defines, and the program reads every name in it."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import wenonet

ROOT = Path(__file__).parents[1]

#: Exported names that nothing in the program reads, each kept for a reason of its own.
UNREAD_EXPORTS = {
    "wenonet.ratnet.eno_filter",  # acceptance criterion 9 checks the filter is idempotent
    "wenonet.solver.exact_solution",  # integrated by quadrature to check exact_cell_averages
}

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


def _names_read() -> set[str]:
    """Every name a Name or Attribute loads, or a ``from`` import brings in, under
    ``src/wenonet``, ``bench`` and ``demos``."""
    read = set()
    for folder in ("src/wenonet", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
    return read


def test_every_export_is_read_by_the_program():
    read = _names_read()
    unread = {
        f"{mod.__name__}.{name}"
        for mod in MODULES
        for name in getattr(mod, "__all__", ())
        if name not in read
    }
    assert unread == UNREAD_EXPORTS
