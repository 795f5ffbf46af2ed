"""Source checks that hold for every module of the package."""

import ast
import pathlib
import sys

import pursuit

SOURCE = pathlib.Path(pursuit.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so no proof check may rely on one.
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        found += [f"{module.relative_to(SOURCE)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_are_stdlib_networkx_or_pursuit():
    # networkx is the one declared runtime dependency; anything else
    # installed here (numpy, say) would be an undeclared one.
    allowed = set(sys.stdlib_module_names) | {"networkx", "pursuit"}
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside pursuit
            found += [f"{module.relative_to(SOURCE)}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []
