"""Every function in src/ is reached from src/, apart from a short allow-list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diacritize"

# Reached from outside src/: the pinned acceptance oracles call the first four,
# and argparse calls the last.
ALLOWED = {
    "classify.logistic_example_loss",
    "classify.logistic_example_grad",
    "classify.posterior",
    "pipeline.restore_text",
    "cli._Parser.error",
}


def unreferenced_functions():
    """Module-level functions and methods whose name src/ never uses.

    A name counts as used wherever it appears as a Name or an Attribute, so the
    scan matches by name only: a method named `count` that nothing calls would
    still hide behind every `list.count` call. Dunder methods, which Python
    calls itself, are left out.
    """
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("__")
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qualified for qualified, name in defined if name not in used}


def test_only_allow_listed_functions_go_unreferenced():
    assert unreferenced_functions() == ALLOWED
