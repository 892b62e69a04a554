"""The program reads every public name: a name is public when it has no leading underscore."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import wenonet

ROOT = Path(__file__).parents[1]

#: Public names that nothing in the program reads, each kept for a reason of its own.
UNREAD_PUBLIC = {
    "wenonet.ratnet.eno_filter",  # acceptance criterion 9 checks the filter is idempotent
    "wenonet.solver.exact_solution",  # integrated by quadrature to check exact_cell_averages
}

MODULES = [
    importlib.import_module(f"wenonet.{info.name}")
    for info in pkgutil.iter_modules(wenonet.__path__)
]


def _public_names(mod) -> set[str]:
    """The public functions and classes ``mod`` defines, and its public module-level
    constants (the targets of an assignment in the module body)."""
    names = {
        name
        for name, obj in vars(mod).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__
    }
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


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


def test_every_public_name_is_read_by_the_program():
    read = _names_read()
    unread = {
        f"{mod.__name__}.{name}"
        for mod in MODULES
        for name in _public_names(mod)
        if name not in read
    }
    assert unread == UNREAD_PUBLIC
