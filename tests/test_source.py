"""Source checks that hold for every module of the package."""

import ast
import importlib
import pathlib
import sys

import pursuit

SOURCE = pathlib.Path(pursuit.__file__).parent
SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_no_assert_statements():
    # python -O strips assert statements, so no proof check may rely on one.
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        found += [f"{module.relative_to(SOURCE)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def imports(module: pathlib.Path) -> list[tuple[int, str]]:
    """(line, module name) of each import in module, a relative one named
    from the package root."""
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            name = node.module if node.level == 0 else ".".join(filter(None, ("pursuit", node.module)))
            found.append((node.lineno, name))
    return found


def test_imports_are_stdlib_or_pursuit():
    # The package has no runtime dependency: anything installed here
    # (networkx or numpy, say) would be an undeclared one.
    allowed = set(sys.stdlib_module_names) | {"pursuit"}
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        found += [f"{module.relative_to(SOURCE)}:{line} {name}" for line, name in imports(module) if name.split(".")[0] not in allowed]
    assert found == []


def test_referee_imports_only_graphs():
    # The referee re-checks the engine's traces, so it may not share code
    # with the engine: it imports the standard library and pursuit.graphs,
    # and graphs imports nothing else of the package.
    stdlib = set(sys.stdlib_module_names)
    allowed = {"referee.py": {"pursuit.graphs"}, "graphs.py": set()}
    found = []
    for name, own in allowed.items():
        found += [
            f"{name}:{line} {mod}"
            for line, mod in imports(SOURCE / name)
            if mod.split(".")[0] not in stdlib and mod not in own
        ]
    assert found == []


def test_no_module_reads_the_environment():
    # Budgets and limits are arguments of the call they bound, never
    # environment variables.
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{module.relative_to(SOURCE)}:{node.lineno} os.{name}" for name in names if name in reads]
    assert found == []


def test_benchmark_span_targets_resolve():
    # The benchmark's tracer wraps each TARGETS name through its owner's
    # __dict__, so deleting or moving one breaks a traced run.
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    missing = []
    for layer, qualnames in targets.items():
        module = importlib.import_module(f"pursuit.{layer}")
        for qual in qualnames:
            *owner_path, attr = qual.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if attr not in getattr(owner, "__dict__", {}):
                missing.append(f"{layer}.{qual}")
    assert missing == []


def test_private_names_are_used():
    # A private function or class that nothing else in the package names is
    # dead code: the public surface cannot reach it.
    trees = {m.relative_to(SOURCE): ast.parse(m.read_text(encoding="utf-8"), filename=str(m)) for m in sorted(SOURCE.rglob("*.py"))}
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append(node)
    orphans = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not defines or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = set(map(id, ast.walk(node)))
            if not any(id(r) not in own for r in refs.get(node.name, ())):
                orphans.append(f"{module}:{node.lineno} {node.name}")
    assert orphans == []


def test_exports_resolve():
    # Every name a module lists in __all__ must exist there, so deleting a
    # function without its export fails here rather than at a star import.
    missing = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        exports = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ]
        if not exports:
            continue
        name = ".".join(("pursuit", *module.relative_to(SOURCE).with_suffix("").parts)).removesuffix(".__init__")
        loaded = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in exports[-1] if not hasattr(loaded, export)]
    assert missing == []
