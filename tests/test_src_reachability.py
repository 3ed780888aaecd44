"""Every function and every class member in src/ is reached from src/, apart
from short allow-lists, every module in src/ uses every name it imports, the
classifier's scoring and training loops never call sum(), its SGD training
calls no numpy reduction, the token walks bind TokenKind's member before
they loop, and no module in src/ reads another module's underscore-prefixed
names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diacritize"

# Reached from outside src/, each with the reason it stays.
ALLOWED = {
    "classify.logistic_example_loss": "the criterion-3 oracle checks its gradient against finite differences",
    "classify.logistic_example_grad": "the criterion-3 oracle checks it against finite differences",
    "classify.posterior": "the criterion-3 oracle checks that naive Bayes posteriors sum to 1",
    "classify.predict": "the plain definition predict_at matches; criterion 3, tests and the bench tracer use it",
    "classify.train_classifier": "the criterion-3 oracle, the tests and the bench tracer train one model with it",
    "classify.Vectorizer.transform": "the plain definition predict_at matches; tests and the bench tracer use it",
    "pipeline.restore_text": "the criterion-8 and criterion-11 oracles restore text with it",
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
    assert unreferenced_functions() == set(ALLOWED)


# Class members no src/ code reads, each with the reason it stays.
ALLOWED_MEMBERS = {
    "classify.LinearModel.train_errors": "tests read it to see the perceptron's early stop",
    "classify.Vectorizer.fit": "the plain definition that _fold_set matches; tests and the bench tracer use it",
    "classify.Vectorizer.transform": "the plain definition predict_at matches; tests and the bench tracer use it",
    "corpus.Corpus.is_marked": "the acceptance oracles use it",
    "corpus.Corpus.stripped": "the acceptance oracles call it",
    **{
        f"corpus.CorpusStats.{name}": "`stats` writes every field out through __dict__"
        for name in (
            "all_tokens", "words_only", "vocab_size", "all_diac_words", "unique_diac_words",
            "amb_diac_words", "diac_vocab_size", "all_wordkeys", "unique_wordkeys", "ambiguous_wordkeys",
        )
    },
}


def unread_members():
    """Dataclass fields, methods and properties of src/ classes that src/ never reads as an attribute.

    A member counts as read wherever an attribute of that name is loaded
    (`x.name`, a call `x.name()` included); assigning it (`x.name = ...`,
    `x.name += ...`) or passing it to the constructor does not count. The scan
    matches by name only, as unreferenced_functions does. Dunder methods are
    left out.
    """
    members, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.append((f"{path.stem}.{node.name}.{item.target.id}", item.target.id))
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    members.append((f"{path.stem}.{node.name}.{item.name}", item.name))
        read |= {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return {qualified for qualified, name in members if name not in read}


def test_only_allow_listed_class_members_go_unread():
    assert unread_members() == set(ALLOWED_MEMBERS)


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
NO_BUILTIN_SUM = (
    "Vectorizer.transform", "_unit_tfidf", "_term_table", "_fold_set", "predict_scores", "predict", "_fit_sgd",
    "_train_folds", "TextClassifier.predict_at",
)


def calls_builtin_sum(source: str) -> dict[str, bool]:
    """Whether each module-level function and method (as Class.name) reaches builtin sum().

    A function reaches it by calling sum() itself or by calling, by bare name,
    a module-level function of the same source that reaches it.
    """
    return reaches(
        source,
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum",
    )


def test_scoring_and_training_never_call_builtin_sum():
    probe = (
        "class V:\n    def t(self, x):\n        return [g(x)]\n\n"
        "def g(x):\n    return sum(x)\n\ndef f(x):\n    return x\n"
    )
    assert calls_builtin_sum(probe) == {"V.t": True, "g": True, "f": False}
    calls = calls_builtin_sum((SRC / "classify.py").read_text(encoding="utf-8"))
    assert {name: calls[name] for name in NO_BUILTIN_SUM} == dict.fromkeys(NO_BUILTIN_SUM, False)


# Functions whose sums add left to right, as the serial SGD loop sums its
# margins and _unit_tfidf its norms: these numpy calls add in pairwise or BLAS
# order instead.
NO_NUMPY_REDUCTION = ("_fit_sgd", "_term_table", "_fold_set")
# Functions that train naive Bayes too, whose one numpy reduction is _fit_nb's
# row totals: numpy's sum there gives the bits that naive Bayes models keep.
NO_NUMPY_REDUCTION_BUT_NB = ("_train_models", "_train_folds", "fit_instances", "cv_fitter")


def is_numpy_reduction(node: ast.AST) -> bool:
    """Whether node calls np.sum or .sum(), np.dot or .dot(), np.matmul or @, np.einsum,
    np.linalg.norm or .norm(), or np.add.reduce."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func = node.func
    if func.attr in ("sum", "dot", "matmul", "einsum", "norm"):
        return True
    return func.attr == "reduce" and isinstance(func.value, ast.Attribute) and func.value.attr == "add"


def emptied(source: str, name: str) -> str:
    """source with the body of its module-level function name replaced by pass."""
    tree = ast.parse(source)
    [fn] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    fn.body = [ast.Pass()]
    return ast.unparse(tree)


def reaches(source: str, offends) -> dict[str, bool]:
    """Whether each module-level function and method (as Class.name) holds a node that offends,
    itself or through a module-level function of the same source that it calls by bare name."""
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
    result = {name: any(offends(node) for node in ast.walk(fn)) for name, fn in functions}
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            if not result[name] and any(result.get(c, False) for c in called):
                result[name] = changed = True
    return result


def test_sgd_training_never_calls_a_numpy_reduction():
    probe = "\n".join([
        "def a(x):\n    return np.sum(x)",
        "def b(x):\n    return x.sum(axis=1)",
        "def c(x, y):\n    return np.dot(x, y) + x.dot(y)",
        "def d(x, y):\n    return x @ y",
        "def e(x, y):\n    x @= y",
        "def f(x, y):\n    return np.matmul(x, y)",
        "def g(x):\n    return np.einsum('ij->i', x)",
        "def h(x):\n    return np.add.reduce(x, axis=1)",
        "def i(x):\n    return a(x)",
        "def j(x):\n    return np.add.accumulate(x, axis=1)[:, -1] + np.cumsum(x)",
        "class K:\n    def m(self, x):\n        return [h(x)]",
        "def n(x):\n    return np.sqrt(np.linalg.norm(x, axis=1))",
    ])
    found = reaches(probe, is_numpy_reduction)
    assert found == {**dict.fromkeys("abcdefghin", True), "j": False, "K.m": True}
    source = (SRC / "classify.py").read_text(encoding="utf-8")
    found = reaches(source, is_numpy_reduction)
    assert {name: found[name] for name in NO_NUMPY_REDUCTION} == dict.fromkeys(NO_NUMPY_REDUCTION, False)
    assert reaches(emptied(probe, "a"), is_numpy_reduction)["i"] is False
    apart_from_nb = reaches(emptied(source, "_fit_nb"), is_numpy_reduction)
    assert {name: apart_from_nb[name] for name in NO_NUMPY_REDUCTION_BUT_NB} == dict.fromkeys(NO_NUMPY_REDUCTION_BUT_NB, False)
    # The lockstep head and the serial loop are what _fit_sgd reaches by name.
    tree = ast.parse(source)
    fit_sgd = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_fit_sgd")
    called = {n.func.id for n in ast.walk(fit_sgd) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"_lockstep_head", "_serial_sgd"} <= called


# Functions that walk a corpus or a pipeline token by token. Each binds the
# member it compares with to a name first: on Python 3.11 a member read
# through its enum class costs about 120 ns, a bound name about 10.
NO_TOKEN_KIND_READ_IN_LOOP = (
    "corpus.variant_counts", "datasetgen.generate", "embed.build_cowords", "evaluate.full_text_eval",
    "pipeline.load_pipeline",
)
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def reads_token_kind_in_loop(source: str) -> dict[str, bool]:
    """Whether each module-level function and method (as Class.name) reads a member of
    TokenKind through the class (`TokenKind.WORD`) anywhere inside a loop or comprehension."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
    return {
        name: any(
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "TokenKind"
            for loop in ast.walk(fn) if isinstance(loop, LOOPS)
            for node in ast.walk(loop)
        )
        for name, fn in functions
    }


def test_token_walks_read_no_token_kind_member_in_a_loop():
    probe = "\n".join([
        "def a(line):\n    return [t for t in line if t.kind is TokenKind.WORD]",
        "def b(line):\n    for t in line:\n        if t.kind is not TokenKind.WORD:\n            continue",
        "def c(line):\n    word = TokenKind.WORD\n    return [t for t in line if t.kind is word]",
        "def d(lines):\n    while lines:\n        lines.pop().kind is TokenKind.DIGIT",
        "def e(t):\n    return t.kind is TokenKind.WORD",
        "class F:\n    def m(self, line):\n        return {t: TokenKind.WORD for t in line}",
    ])
    assert reads_token_kind_in_loop(probe) == {"a": True, "b": True, "c": False, "d": True, "e": False, "F.m": True}
    for qualified in NO_TOKEN_KIND_READ_IN_LOOP:
        module, name = qualified.split(".")
        assert reads_token_kind_in_loop((SRC / f"{module}.py").read_text(encoding="utf-8"))[name] is False, qualified


def private_reads(sources: dict[str, str]) -> set[str]:
    """"module: other._name" for each underscore-prefixed name that a module of sources
    reads from another module of sources.

    A module reads one as an attribute of a module it imported (`from . import
    other` or `from diacritize import other`, then `other._name`), or by
    importing it (`from .other import _name`). Dunder names are left out.
    """

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = set()
    for stem, source in sources.items():
        tree = ast.parse(source)
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "diacritize"):
                modules.update((a.asname or a.name, a.name) for a in node.names if a.name in sources)
            else:
                other = node.module if node.level == 1 else (node.module or "").removeprefix("diacritize.")
                if other in sources and other != stem:
                    found |= {f"{stem}: {other}.{a.name}" for a in node.names if private(a.name)}
        found |= {
            f"{stem}: {modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and private(node.attr)
        }
    return found


def test_no_module_reads_another_modules_private_names():
    probe = {
        "a": "from . import b\nx = b._hidden\ny = b.shown\nz = b.__doc__\n",
        "b": "from .c import _tool, tool\nimport os\nos._exit(0)\n",
        "c": "_tool = tool = 1\n",
        "d": "from diacritize import a as m\nm._x()\n",
        "e": "from diacritize.c import _tool\nfrom . import c\nc.tool\n",
        "f": "from .f import _self\n",
    }
    assert private_reads(probe) == {"a: b._hidden", "b: c._tool", "d: a._x", "e: c._tool"}
    assert private_reads({path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}) == set()
