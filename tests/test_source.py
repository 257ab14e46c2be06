"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polypush"


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that it never reads.

    A name listed in ``__all__`` is read by the module's importers, and an
    import whose lines carry ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# imported on first use by the functions that call them, so that importing
# polypush, and the CLI commands that never call them, load neither
DEFERRED_PACKAGES = ("scipy", "mpmath")


def import_time_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every import the module runs when it is imported:
    those outside function bodies."""
    found = []
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_deferred_package_at_import_time(path):
    eager = [f"{path.name}:{line} {module}" for line, module in import_time_imports(path)
             if module.split(".")[0] in DEFERRED_PACKAGES]
    assert eager == []


PERFBENCH = SRC.parents[1] / "perfbench"


def orphaned_private_helpers() -> list[str]:
    """Top-level ``_name`` functions and classes of the package that no code
    in the package or in perfbench reads beyond their own definition.

    A read is a name or attribute load, or a string equal to the name:
    perfbench wraps module attributes it names by string."""
    trees = {p: ast.parse(p.read_text()) for p in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            reads.setdefault(name, []).append((path, node.lineno))
    orphans = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            outside = [
                (p, line) for p, line in reads.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    return orphans


def test_no_orphaned_private_helpers():
    assert orphaned_private_helpers() == []
