"""Checks on the package's source text."""

import ast
from pathlib import Path

import ghzqss

PACKAGE = Path(ghzqss.__file__).parent


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level(tree: ast.Module, kinds):
    """The nodes of ``kinds`` outside every function and class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            yield node
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(ghzqss.__all__)  # re-exported
        for node in _module_level(tree, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_module_level_name_is_used():
    # A function, class or assigned name that no module of the package reads
    # is dead code; re-exports and dunders are read from outside.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    read = set(ghzqss.__all__)
    for tree in trees.values():
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for name, tree in trees.items():
        for node in _module_level(tree, _SCOPES + (ast.Assign, ast.AnnAssign)):
            if isinstance(node, _SCOPES):
                defined = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            for d in defined:
                if d not in read and not (d.startswith("__") and d.endswith("__")):
                    unused.append(f"{name}:{node.lineno} {d}")
    assert unused == []
