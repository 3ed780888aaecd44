"""Every function in src/ is reached from src/, apart from a short allow-list,
every module in src/ uses every name it imports, and the classifier's scoring
and training loops never call sum()."""

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


# Functions whose float sums must round alike on every Python: from 3.12,
# builtin sum() adds floats with compensation, so these add left to right.
NO_BUILTIN_SUM = ("Vectorizer.transform", "predict_scores", "_fit_sgd")


def calls_builtin_sum(source: str) -> dict[str, bool]:
    """Whether each module-level function and method (as Class.name) reaches builtin sum().

    A function reaches it by calling sum() itself or by calling, by bare name,
    a module-level function of the same source that reaches it.
    """
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
    callees = {
        name: {
            call.func.id
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for name, fn in functions
    }
    reaches = {name: "sum" in called for name, called in callees.items()}
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            if not reaches[name] and any(reaches.get(c, False) for c in called):
                reaches[name] = changed = True
    return reaches


def test_scoring_and_training_never_call_builtin_sum():
    probe = (
        "class V:\n    def t(self, x):\n        return [g(x)]\n\n"
        "def g(x):\n    return sum(x)\n\ndef f(x):\n    return x\n"
    )
    assert calls_builtin_sum(probe) == {"V.t": True, "g": True, "f": False}
    calls = calls_builtin_sum((SRC / "classify.py").read_text(encoding="utf-8"))
    assert {name: calls[name] for name in NO_BUILTIN_SUM} == dict.fromkeys(NO_BUILTIN_SUM, False)
