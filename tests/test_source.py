"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polypush"
TESTS = Path(__file__).resolve().parent


def is_all_list(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def exported_names(tree: ast.Module) -> set[str]:
    """The names in the module's ``__all__``."""
    for node in tree.body:
        if is_all_list(node):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that it never reads.

    A name listed in ``__all__`` is read by the module's importers, and an
    import whose lines carry ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = exported_names(tree)
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


@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
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


# the modules that still call scipy.optimize, through _deferred: the r >= 3
# gauge search's refine and the lower-bound lab.  The local fits call _lm, and
# a fit that went back through scipy would import _deferred
DEFERRED_IMPORTERS = {"gauge.py", "lowerbound.py"}


def imports_deferred(tree: ast.Module) -> bool:
    """Whether any import in the module names polypush._deferred."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "_deferred" for name in names):
            return True
    return False


def test_only_the_gauge_search_and_the_lab_import_deferred():
    importers = {p.name for p in SRC.glob("*.py") if imports_deferred(ast.parse(p.read_text()))}
    assert importers == DEFERRED_IMPORTERS


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of the module's references to functools' ``cache`` or
    ``lru_cache`` that are not an ``lru_cache`` call with a positive int
    ``maxsize``: ``cache``, a bare ``lru_cache`` or ``maxsize=None`` grow
    for the life of the process."""
    imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "functools" for a in n.names}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            ref = node.attr
        elif isinstance(node, ast.Name):
            ref = imported.get(node.id)
        else:
            continue
        if ref not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        sizes = [] if call is None else [kw.value for kw in call.keywords
                                         if kw.arg == "maxsize"] + call.args[:1]
        if not (ref == "lru_cache" and sizes and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int and sizes[0].value > 0):
            lines.append(node.lineno)
    return lines


def test_unbounded_caches_are_found():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache as lru\n"
        "@functools.lru_cache(maxsize=8)\ndef a(): pass\n"
        "@functools.lru_cache\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef c(): pass\n"
        "@functools.cache\ndef d(): pass\n"
        "@cache\ndef e(): pass\n"
        "@lru(16)\ndef f(): pass\n"
        "@lru()\ndef g(): pass\n"
    )
    assert sorted(unbounded_caches(tree)) == [5, 7, 9, 11, 15]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(ast.parse(path.read_text())) == []


# the encoders and the solver, which the recovery modules re-export for the
# benchmark's tracer but never call: their certificate is evaluated in
# closed form
RE_EXPORTED_ONLY = {"tensor_ring.py": ("encode_tensor_ring", "solve"),
                    "lowrank.py": ("encode_lowrank", "solve")}


def name_uses(tree: ast.Module, names) -> list[tuple[int, str]]:
    """(line, name) of every reference to ``names`` outside an import
    statement: the name loaded, or read as an attribute of ``relaxation``.
    The names an import binds are aliases, not references."""
    return sorted(
        (node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names
            and getattr(node.value, "id", None) == "relaxation")
    )


def imported_names(tree: ast.Module) -> set[str]:
    return {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
            for a in n.names}


def test_name_uses_are_found():
    tree = ast.parse("from .relaxation import solve\nx = solve(p)\n"
                     "y = relaxation.solve\nz = np.linalg.solve(A, b)\n")
    assert name_uses(tree, ("solve",)) == [(2, "solve"), (3, "solve")]


@pytest.mark.parametrize("module", sorted(RE_EXPORTED_ONLY))
def test_recoveries_only_re_export_the_encoders(module):
    tree = ast.parse((SRC / module).read_text())
    names = RE_EXPORTED_ONLY[module]
    assert imported_names(tree) >= set(names)
    assert name_uses(tree, names) == []


PERFBENCH = SRC.parents[1] / "perfbench"


# public names that no code in the package or in perfbench reaches, kept on
# purpose, each with its reason
KEPT_UNREACHED = {
    "extend_tail": "tail extension of a tensor-ring head (ROADMAP item 3)",
    "rotation_invariant_scale": "the C that factorize's docstring divides a "
                                "rotation-invariant seed's pair table by",
}


def read_names(tree: ast.Module):
    """(name, line) of every name or attribute load and every string in the
    module, outside its ``__all__`` list; a string counts because perfbench
    wraps module attributes it names by string.  The names an import
    statement binds are not loads, so they do not count either."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if is_all_list(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        pending.extend(ast.iter_child_nodes(node))


def unreached_definitions() -> list[tuple[str, str]]:
    """(where, name) of the top-level functions and classes of the package
    that no code in the package or in perfbench reads beyond their own
    definition."""
    trees = {p: ast.parse(p.read_text()) for p in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in read_names(tree):
            reads.setdefault(name, []).append((path, line))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            outside = [
                (p, line) for p, line in reads.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unreached.append((f"{path.name}:{node.lineno}", node.name))
    return unreached


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_orphaned_private_helpers():
    assert [u for u in unreached_definitions() if is_private(u[1])] == []


def test_no_unreached_public_names():
    # a kept name that gains a caller leaves the keep-list
    public = [u for u in unreached_definitions() if not is_private(u[1])]
    assert sorted(name for _, name in public) == sorted(KEPT_UNREACHED), public


def unset_settings(trees: list[ast.Module]) -> list[str]:
    """"Class.field" of every field with a default in a ``*Config`` dataclass
    of the trees that no call of that class in them passes by keyword: a
    setting only its default ever takes."""
    defaults = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and any(
                getattr(dec, "id", None) == "dataclass" for dec in node.decorator_list
            ):
                defaults[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                ]
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                cls = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed |= {(cls, kw.arg) for kw in node.keywords}
    return [f"{cls}.{name}" for cls, names in sorted(defaults.items())
            for name in names if (cls, name) not in passed]


def test_unset_settings_are_found():
    tree = ast.parse(
        "@dataclass\nclass AConfig:\n    r: int\n    tol: float = 1e-9\n    seed: int = 0\n"
        "@dataclass\nclass BConfig:\n    cap: int = 5\n"
        "class Table:\n    eta: float = 0.0\n"
        "a = AConfig(r=1, tol=1e-3)\n"
        "b = mod.BConfig(**opts)\n"
    )
    assert unset_settings([tree]) == ["AConfig.seed", "BConfig.cap"]


def test_every_setting_is_set_somewhere():
    # a config field that no call in the package or in perfbench sets is an
    # option in name only: make it a constant, or delete it
    paths = [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
    assert unset_settings([ast.parse(p.read_text()) for p in paths]) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
               for dec in node.decorator_list)


def record_fields(tree: ast.Module):
    """(class, name) of the fields and properties of each dataclass in the
    module."""
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and is_dataclass(cls)):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls, stmt.target.id
            elif isinstance(stmt, ast.FunctionDef) and any(
                getattr(dec, "id", None) == "property" for dec in stmt.decorator_list
            ):
                yield cls, stmt.name


def unread_fields(trees: dict[str, ast.Module], package: list[str]) -> list[str]:
    """"Class.name" of every field or property of a dataclass in the
    ``package`` trees that no tree reads as an attribute outside the class
    body.  Reads are matched by attribute name alone, so a field that shares
    its name with an attribute read elsewhere, such as ``eta``, ``d`` or
    ``residual``, counts as read."""
    reads: dict[str, list[tuple[str, int]]] = {}
    for key, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((key, node.lineno))
    return [f"{cls.name}.{name}" for key in package for cls, name in record_fields(trees[key])
            if all(k == key and cls.lineno <= line <= cls.end_lineno
                   for k, line in reads.get(name, []))]


def test_unread_fields_are_found():
    lib = ast.parse(
        "@dataclass\nclass Report:\n    x: int\n    y: int\n    z: int = 0\n"
        "    def total(self):\n        return self.z\n"
        "    @property\n    def w(self):\n        return 0\n"
        "@dataclass(frozen=True)\nclass Frozen:\n    v: int\n"
        "class Plain:\n    u: int\n"
        "def use(rep):\n    rep.y = 1\n    return rep.x\n"
    )
    bench = ast.parse("print(report.w)\n")
    assert unread_fields({"lib": lib, "bench": bench}, ["lib"]) == [
        "Report.y", "Report.z", "Frozen.v"]


# dataclass fields and properties that no code in the package or in perfbench
# reads as an attribute, kept on purpose, each with its reason
KEPT_UNREAD_FIELDS = {
    **{f"AssumptionReport{kind}.{name}": "`verify` writes every field through "
       "dataclasses.asdict"
       for kind, names in (("TR", ("m", "sigma_m", "flag", "warning")),
                           ("LR", ("sigma_min_M", "sigma_min_H", "sigma_min_K",
                                   "k_skipped", "flag_psi", "flag_kappa")))
       for name in names},
    "RecoveryReport.diagnostics": "the run manifest's trace (ROADMAP item 13)",
    "LBInstance.net_a": "the lower-bound lab's product, its pair of networks",
    "LBInstance.net_b": "the lower-bound lab's product, its pair of networks",
    "Pseudoexpectation.moment_matrices": "the solver's primal blocks, checked by "
                                         "test_moment_matrix_invariants",
    "Pseudoexpectation.moment_bases": "the solver's primal blocks, checked by "
                                      "test_moment_matrix_invariants",
}


def test_no_unread_record_fields():
    # a field that nothing reads is a result in name only: read it, keep it
    # here with a reason, or delete it.  Matching by name cannot see a field
    # named like an attribute read elsewhere (unread_fields)
    paths = {p.name if p.parent == SRC else f"perfbench/{p.name}": p
             for p in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    trees = {key: ast.parse(p.read_text()) for key, p in paths.items()}
    package = sorted(key for key, p in paths.items() if p.parent == SRC)
    assert sorted(unread_fields(trees, package)) == sorted(KEPT_UNREAD_FIELDS)


# CLI commands that no perfbench workload runs, kept on purpose, each with
# its reason
KEPT_COMMANDS = {
    "verify": "reports the non-degeneracy diagnostics of a network, which no "
              "pipeline step reads",
    "lowerbound": "the lower-bound lab's matched-pair instance, outside the "
                  "recovery pipeline",
}


def string_constants(tree: ast.Module) -> set[str]:
    return {n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_cli_command_is_run_or_kept():
    # a command that no workload runs and nothing keeps is code nobody
    # measures: run it in perfbench, keep it here with a reason, or delete it
    import argparse

    from polypush import cli

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = set(sub.choices)
    run = commands & string_constants(ast.parse((PERFBENCH / "workloads.py").read_text()))
    assert sorted(commands - run) == sorted(KEPT_COMMANDS)
    assert not set(KEPT_COMMANDS) & run


# every value a caller can set: the fields of the config classes and the
# options of each CLI command.  A change that adds or removes a knob fails
# here until it edits the pin, so the change states it.
SETTABLE_FIELDS = {
    "TRConfig": ["r", "backend", "restarts", "rng_seed", "eta"],
    "LRConfig": ["r", "omega", "ell", "backend", "restarts", "rng_seed", "eta"],
    "AlignmentConfig": ["rng_seed"],
}
CLI_OPTIONS = {
    "generate": ["--kind", "--r", "--d", "--omega", "--ell", "--rho", "--base", "--seed",
                 "--out"],
    "sample": ["--network", "--n", "--seed", "--out"],
    "moments": ["--network", "--samples", "--kind", "--out"],
    "solve_tr": ["--table", "--r", "--truth", "--seed", "--out", "--eta", "--backend",
                 "--restarts"],
    "solve_lr": ["--table", "--r", "--omega", "--ell", "--truth", "--seed", "--out", "--eta",
                 "--backend", "--restarts"],
    "eval": ["--network", "--reference", "--seed", "--out"],
    "verify": ["--network", "--out"],
    "lowerbound": ["--r", "--restarts", "--tol", "--seed", "--out"],
}


def test_settable_values_are_pinned():
    import argparse
    import dataclasses

    from polypush import cli
    from polypush.gauge import AlignmentConfig
    from polypush.lowrank import LRConfig
    from polypush.tensor_ring import TRConfig

    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (TRConfig, LRConfig, AlignmentConfig)}
    assert fields == SETTABLE_FIELDS
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS
