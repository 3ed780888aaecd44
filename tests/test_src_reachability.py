"""Every function in src/ is reached from src/, apart from a short allow-list,
and every module in src/ uses every name it imports."""

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


def unused_imports():
    """(module, name) for each imported name that its module never uses.

    A name counts as used where it appears as a Name node, which covers
    attribute access through it (`np.array`). Names that a module re-exports
    through `__all__` count as used; `from __future__` imports are left out.
    """
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used - exported}
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == set()
