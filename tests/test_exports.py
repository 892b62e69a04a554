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
    "wenonet.solver.exact_solution",  # integrated by quadrature to check exact_cell_averages
}

MODULES = {
    info.name: importlib.import_module(f"wenonet.{info.name}")
    for info in pkgutil.iter_modules(wenonet.__path__)
}


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


def _module_of(node, aliases: dict[str, str]) -> str | None:
    """The module that the expression ``node`` stands for, if it is one of ``MODULES``:
    a name bound to it, or an attribute chain ending in its name (``self.wn.train``)."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in MODULES:
        return node.attr
    return None


def _reads(tree, own: str | None) -> set[tuple[str, str]]:
    """Each ``(module, name)`` that the file ``tree`` reads: ``from`` imports of a
    module, ``x.name`` where ``x`` stands for a module, and, when the file holds
    module ``own``, its bare names."""
    aliases, read = {}, set()
    package = [(1, None), (0, "wenonet")]  # ``from . import m`` and ``from wenonet import m``
    for node in ast.walk(tree):  # the names bound to a module: imports first
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in package:
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.removeprefix("wenonet.") in MODULES:
                    aliases[a.asname] = a.name.removeprefix("wenonet.")
    for node in ast.walk(tree):  # then plain assignments such as ``tr = self.wn.train``
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, module = node.targets[0], _module_of(node.value, aliases)
            if isinstance(target, ast.Name) and module:
                aliases[target.id] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level == 1 else node.module.removeprefix("wenonet.")
            if module in MODULES:
                read.update((module, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = _module_of(node.value, aliases)
            if module:
                read.add((module, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            read.add((own, node.id))
    return read


def _names_read() -> set[tuple[str, str]]:
    """Each ``(module, name)`` read under ``src/wenonet``, ``bench`` and ``demos``."""
    read = set()
    for folder in ("src/wenonet", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            own = path.stem if folder == "src/wenonet" and path.stem in MODULES else None
            read |= _reads(ast.parse(path.read_text()), own)
    return read


def test_every_public_name_is_read_by_the_program():
    read = _names_read()
    unread = {
        f"wenonet.{module}.{name}"
        for module, mod in MODULES.items()
        for name in _public_names(mod)
        if (module, name) not in read
    }
    assert unread == UNREAD_PUBLIC
