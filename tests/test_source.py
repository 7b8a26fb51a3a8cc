"""Checks on the package's source text."""

import ast
import re
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


def _unused_imports(directory: Path) -> list[str]:
    """``file:line name`` of each module-level import in ``directory`` that its module never reads."""
    unused = []
    for path in sorted(directory.glob("*.py")):
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
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports(PACKAGE) == []


def test_every_test_module_level_import_is_used():
    assert _unused_imports(Path(__file__).parent) == []


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


def test_the_script_starts_the_function_python_m_starts():
    # A regex, not tomllib, which Python 3.10 lacks.
    project = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^\[project\.scripts\]\nghzqss = "ghzqss\.(\w+):(\w+)"$', project, re.M).groups()
    entry = (PACKAGE / "__main__.py").read_text()
    assert f"from .{module} import {function}\n" in entry and entry.endswith(f"sys.exit({function}())\n")
    assert (PACKAGE / f"{module}.py").read_text().endswith(f'if __name__ == "__main__":\n    sys.exit({function}())\n')


#: NamedTuple fields that only the tests read: the seam through which they
#: check a batch's table path.
_TEST_SEAMS = ("path",)


def test_every_named_tuple_field_is_read():
    # A field that neither the package nor the benchmark reads as an
    # attribute is written for nothing.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    package = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    trees = package + [ast.parse(path.read_text()) for path in sorted(perfbench.glob("*.py"))]
    read = set(_TEST_SEAMS)
    for tree in trees:
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [
        f"{node.name}.{field.target.id}"
        for tree in package
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert unread == []


def _names_an_attack(node) -> bool:
    """``node`` holds an ``AttackKind.<member>``, however ``AttackKind`` is reached."""
    return any(
        isinstance(n, ast.Attribute) and (getattr(n.value, "id", None) or getattr(n.value, "attr", None)) == "AttackKind"
        for n in ast.walk(node)
    )


def test_only_the_adversary_compares_against_an_attack():
    # Every per-attack decision lives in adversary.py; elsewhere an attack is
    # a value to pass on (a default, a scenario's config), never a branch.
    compares = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "adversary.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and any(map(_names_an_attack, [node.left, *node.comparators]))
    ]
    assert compares == []
