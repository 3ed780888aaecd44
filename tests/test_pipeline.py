import gc
import inspect
import json
import math
import random

import numpy as np
import pytest
from conftest import state

from diacritize import classify, cli, datasetgen, embed, ngram, pipeline
from diacritize.corpus import corpus_from_lines, line_keys, strip_diacritics, surface_token, token_kind
from diacritize.errors import ModelError, ParseError
from diacritize.pipeline import (
    build_classifier_pipeline,
    build_embedding_pipeline,
    build_maps,
    build_ngram_pipeline,
    load_pipeline,
    match_case,
    restore_line,
    restore_text,
    save_pipeline,
)


@pytest.fixture(scope="module")
def training_corpus():
    # "si" is ambiguous and driven by the preceding trigger; "nwanyị" is a
    # marked unambiguous word; everything else is unmarked filler
    lines = []
    lines += ["nwanyị kwuru sì ya oma"] * 30
    lines += ["ha kwera sí ya oma"] * 20
    lines += ["otu onye bia"] * 10
    return corpus_from_lines(lines)


@pytest.fixture(scope="module")
def trained_sets(training_corpus):
    sets = datasetgen.generate(training_corpus)
    assert [s.wordkey for s in sets] == ["si"]
    return sets


@pytest.fixture(scope="module")
def vector_file(tmp_path_factory):
    rng = np.random.default_rng(6)
    words = {
        "sì": [1.0, 0.0, 0.0],
        "sí": [0.0, 1.0, 0.0],
        "kwuru": [0.9, 0.1, 0.0],
        "kwera": [0.1, 0.9, 0.0],
        "ya": rng.normal(size=3).tolist(),
        "oma": rng.normal(size=3).tolist(),
    }
    model = embed.EmbeddingModel(
        dim=3, vectors={w: np.array(v) for w, v in words.items()}
    )
    path = tmp_path_factory.mktemp("vecs") / "toy.vec"
    embed.save_vectors(model, path)
    return path


def surfaces(corp):
    return [[t.surface for t in line] for line in corp.lines]


class TestMaps:
    def test_disjoint_and_contents(self, training_corpus, trained_sets):
        unambiguous, index = build_maps(training_corpus, trained_sets)
        assert set(unambiguous) & set(index) == set()
        assert unambiguous["nwanyi"] == "nwanyị"
        assert "otu" not in unambiguous  # unmarked words need no entry
        assert index["si"] == [("sì", 30), ("sí", 20)]

    def test_ngram_pipeline_prepares_corpus_once(self, training_corpus, trained_sets, monkeypatch):
        calls = []
        real = ngram.prepare
        monkeypatch.setattr(ngram, "prepare", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        build_ngram_pipeline(training_corpus, trained_sets, n=2)
        assert len(calls) == 1


class TestMatchCase:
    def test_patterns(self):
        assert match_case("si", "sì") == "sì"
        assert match_case("Si", "sì") == "Sì"
        assert match_case("SI", "sì") == "SÌ"
        assert match_case("Ọ", "ọ") == "Ọ"


@pytest.fixture(scope="module", params=["ngram", "classifier", "embedding"])
def pipe(request, training_corpus, trained_sets, vector_file):
    if request.param == "ngram":
        return build_ngram_pipeline(training_corpus, trained_sets, n=2)
    if request.param == "classifier":
        return build_classifier_pipeline(
            training_corpus, trained_sets, kind=classify.LOGISTIC,
            window=5, hyper=classify.Hyper(epochs=30),
        )
    return build_embedding_pipeline(
        training_corpus, trained_sets, vector_file, scheme=embed.BASIC, window=5
    )


class TestRestoreText:
    def test_only_ambiguous_and_unambiguous_words_change(self, pipe):
        stripped = corpus_from_lines(["3 nwanyi kwuru si ya :"])
        out = restore_text(pipe, stripped)
        assert surfaces(out) == [["3", "nwanyị", "kwuru", "sì", "ya", ":"]]

    def test_ascii_line_unchanged(self, pipe):
        stripped = corpus_from_lines(["hello world 42 ."])
        out = restore_text(pipe, stripped)
        assert surfaces(out) == [["hello", "world", "42", "."]]

    def test_shape_preserved(self, pipe, training_corpus):
        stripped = training_corpus.stripped()
        out = restore_text(pipe, stripped)
        assert [len(l) for l in out.lines] == [len(l) for l in stripped.lines]
        for oline, sline in zip(out.lines, stripped.lines):
            for otok, stok in zip(oline, sline):
                assert otok.kind == stok.kind or stok.kind.value != "Word"

    def test_wordkey_preserving_round_trip(self, pipe, training_corpus):
        stripped = training_corpus.stripped()
        out = restore_text(pipe, stripped)
        for oline, sline in zip(out.lines, stripped.lines):
            for otok, stok in zip(oline, sline):
                assert strip_diacritics(otok.surface).lower() == stok.surface.lower()

    def test_byte_deterministic(self, pipe, training_corpus):
        stripped = training_corpus.stripped()
        a = restore_text(pipe, stripped)
        b = restore_text(pipe, stripped)
        assert surfaces(a) == surfaces(b)

    def test_capitalized_token_restores_with_case(self, pipe):
        out = restore_text(pipe, corpus_from_lines(["Nwanyi kwuru Si ya"]))
        assert surfaces(out)[0][0] == "Nwanyị"
        assert surfaces(out)[0][2] == "Sì"

    def test_empty_corpus(self, pipe):
        out = restore_text(pipe, corpus_from_lines([]))
        assert out.lines == []

    def test_one_token_per_restored_surface(self, pipe):
        stripped = corpus_from_lines(["nwanyi kwuru si ya , Nwanyi si", "ha kwera si nwanyi SI"])
        pairs = [(s, o) for line in stripped.lines for s, o in zip(line, restore_line(pipe, line))]
        restored = [o for s, o in pairs if o is not s]
        assert [t.surface for t in restored].count("nwanyị") == 2
        assert len({id(t) for t in restored}) == len({t.surface for t in restored})
        for tok in restored:
            assert tok is surface_token(tok.surface)
            assert tok.kind is token_kind(tok.surface)


class TestFamilyAgreement:
    def test_unambiguous_words_identical_across_families(
        self, training_corpus, trained_sets, vector_file
    ):
        pipes = [
            build_ngram_pipeline(training_corpus, trained_sets, n=2),
            build_classifier_pipeline(
                training_corpus, trained_sets, window=5, hyper=classify.Hyper(epochs=5)
            ),
            build_embedding_pipeline(
                training_corpus, trained_sets, vector_file, scheme=embed.BASIC
            ),
        ]
        stripped = corpus_from_lines(["nwanyi otu onye bia ."])
        outputs = [surfaces(restore_text(p, stripped)) for p in pipes]
        assert outputs[0] == outputs[1] == outputs[2]


class TestPersistence:
    def test_ngram_round_trip(self, training_corpus, trained_sets, tmp_path):
        pipe = build_ngram_pipeline(training_corpus, trained_sets, n=2)
        path = tmp_path / "pipe.json"
        save_pipeline(pipe, path)
        again = load_pipeline(path)
        stripped = training_corpus.stripped()
        assert surfaces(restore_text(again, stripped)) == surfaces(
            restore_text(pipe, stripped)
        )

    def test_classifier_round_trip(self, training_corpus, trained_sets, tmp_path):
        pipe = build_classifier_pipeline(
            training_corpus, trained_sets, window=5, hyper=classify.Hyper(epochs=10)
        )
        path = tmp_path / "pipe.json"
        save_pipeline(pipe, path)
        again = load_pipeline(path)
        stripped = training_corpus.stripped()
        assert surfaces(restore_text(again, stripped)) == surfaces(
            restore_text(pipe, stripped)
        )

    def test_embedding_round_trip_rederives_enhancement(
        self, training_corpus, trained_sets, vector_file, tmp_path
    ):
        pipe = build_embedding_pipeline(
            training_corpus, trained_sets, vector_file, scheme=embed.TWEAK1, window=5
        )
        path = tmp_path / "pipe.json"
        save_pipeline(pipe, path)
        again = load_pipeline(path)
        stripped = training_corpus.stripped()
        assert surfaces(restore_text(again, stripped)) == surfaces(
            restore_text(pipe, stripped)
        )

    @pytest.mark.parametrize(
        "family, setting, value",
        [("ngram", "n", True), ("ngram", "n", 0),
         ("classifier", "epochs", 0), ("classifier", "l2", -1.0), ("classifier", "learning_rate", 0.0),
         ("classifier", "window", 4),
         ("embedding", "window", 4), ("embedding", "window", 1), ("embedding", "window", True),
         ("embedding", "top_n", -1), ("embedding", "top_n", True)],
    )
    def test_settings_the_loader_refuses_are_refused_at_build(
        self, family, setting, value, training_corpus, trained_sets, vector_file, tmp_path, monkeypatch
    ):
        build = {
            "ngram": lambda **kw: build_ngram_pipeline(training_corpus, trained_sets, **kw),
            "classifier": lambda **kw: build_classifier_pipeline(training_corpus, trained_sets, **kw),
            "embedding": lambda **kw: build_embedding_pipeline(
                training_corpus, trained_sets, vector_file, scheme=embed.TWEAK1, **kw
            ),
        }[family]
        hyper = setting in ("epochs", "l2", "learning_rate")
        path = tmp_path / "pipe.json"
        save_pipeline(build(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        specs = doc["restorer"]["models"].values() if family == "classifier" else [doc["restorer"]]
        for spec in specs:
            (spec["hyper"] if hyper else spec)[setting] = value
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError) as loaded:
            load_pipeline(path)
        path.unlink()
        # The builder's first step that counts, trains or reads the vectors.
        work = []
        module, step = {"ngram": (ngram, "_count"), "classifier": (classify, "_train_models"),
                        "embedding": (embed, "load_vectors")}[family]
        monkeypatch.setattr(module, step, lambda *a: work.append(a))
        with pytest.raises(ParseError) as built:
            save_pipeline(build(**{"hyper": classify.Hyper(**{setting: value})} if hyper else {setting: value}), path)
        # The classifier loader names the wordkey of the first model it refuses.
        wordkey = next(iter(doc["restorer"]["models"])) if family == "classifier" else None
        where = f"classifier for wordkey {wordkey!r}: " if wordkey else ""
        assert loaded.value.message == where + str(built.value)
        assert work == [] and not path.exists()


# Characters that stress the JSON string escaping: diacritics, combining
# marks, quotes, backslashes, control and separator characters, astral ones.
AWKWARD_CHARS = "aZ09 àáịọṅụ\u0300\u0301\u0323\"'\\/\x00\x01\x08\t\n\r\x1f\x7f\u2028\u2029😀𝔸\U0010fffd"
AWKWARD_NUMBERS = (-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3, 2**100, -(2**70), 0, -1, True, False, None)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(AWKWARD_CHARS) for _ in range(rng.randrange(8)))


def random_value(rng: random.Random, depth: int = 0):
    pick = rng.randrange(8 if depth < 4 else 4)
    if pick == 0:
        return random_string(rng)
    if pick == 1:
        return rng.choice(AWKWARD_NUMBERS)
    if pick == 2:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-300, 300)
    if pick == 3:
        return rng.randrange(-(2**80), 2**80)
    size = rng.randrange(5)
    if pick in (4, 5):
        return {random_string(rng): random_value(rng, depth + 1) for _ in range(size)}
    items = [random_value(rng, depth + 1) for _ in range(size)]
    return items if pick == 6 else tuple(items)


class PayloadRestorer:
    def __init__(self, payload):
        self.payload = payload

    def to_payload(self):
        return self.payload


class TestWriterBytes:
    """save_pipeline writes the bytes `json.dump(payload, fh, ensure_ascii=False)` wrote."""

    def test_random_payloads(self, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "pipe.json"
        for _ in range(200):
            pipe = pipeline.Pipeline(
                family=random_string(rng),
                restorer=PayloadRestorer(random_value(rng)),
                unambiguous={random_string(rng): random_string(rng) for _ in range(rng.randrange(4))},
                variant_index={
                    random_string(rng): [(random_string(rng), rng.randrange(10**6)) for _ in range(3)]
                    for _ in range(rng.randrange(4))
                },
                lowercase=rng.random() < 0.5,
            )
            payload = {
                "family": pipe.family,
                "fallback": "echo",
                "lowercase": pipe.lowercase,
                "unambiguous": {k: pipe.unambiguous[k] for k in sorted(pipe.unambiguous)},
                "variant_index": {k: [list(v) for v in pipe.variant_index[k]] for k in sorted(pipe.variant_index)},
                "restorer": pipe.restorer.payload,
            }
            with open(tmp_path / "dump.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, ensure_ascii=False)
                fh.write("\n")
            save_pipeline(pipe, path)
            assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.json", "pipe.json"]

    @pytest.mark.parametrize("number", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_number_writes_nothing(self, tmp_path, number):
        # JSON holds no infinity or NaN, so load_pipeline would refuse the file
        path = tmp_path / "pipe.json"
        path.write_text("before\n", encoding="utf-8")
        restorer = PayloadRestorer({"models": {"ka": {"weights": [[0.5, number]], "bias": [0.0]}}})
        pipe = pipeline.Pipeline(family="classifier", restorer=restorer, unambiguous={}, variant_index={})
        with pytest.raises(ModelError) as info:
            save_pipeline(pipe, path)
        assert str(info.value) == f"{path}: not written: the pipeline holds an infinite or NaN number"
        assert path.read_text(encoding="utf-8") == "before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["pipe.json"]


class TestLoadValidation:
    """Malformed pipeline files are refused at load, before any output is written."""

    def test_message_is_path_colon_message(self, training_corpus, trained_sets, tmp_path):
        path = tmp_path / "pipe.json"
        save_pipeline(build_ngram_pipeline(training_corpus, trained_sets, n=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["unambiguous"][","] = "x"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_pipeline(path)
        assert str(info.value) == f"{path}: routing key ',' is not a word"
        path.write_text("{\n  oops", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_pipeline(path)
        assert str(info.value).startswith(f"{path}:2: invalid pipeline JSON: ")
        assert str(ParseError("bad row", line=4)) == "4: bad row"
        assert str(ParseError("bad row")) == "bad row"

    @pytest.mark.parametrize(
        "family, where, value, code",
        [
            ("ngram", ["restorer", "model", "levels", 1, "k"], 7, 2),
            ("ngram", ["restorer", "n"], 9, 2),
            ("classifier", ["restorer", "models", "si", "weights"], [[0.0]], 2),
            ("classifier", ["restorer", "models", "si", "kind"], "bogus", 2),
            ("ngram", ["family"], "rules", 2),
            # a routing key that is not a word: train never writes one
            ("ngram", ["unambiguous", ","], "x", 2),
            ("ngram", ["variant_index", "7"], [["7", 3], ["7̀", 2]], 2),
            # a form that does not strip to its routing key: a pipeline may only add marks
            ("ngram", ["unambiguous", "oma"], "dog", 2),
            ("ngram", ["unambiguous", "nwanyi"], "Nwanyị", 2),
            ("ngram", ["variant_index", "si"], [["sì", 30], ["dog", 20]], 2),
            ("ngram", ["variant_index", "si"], [["sì", 30], ["sì", 20]], 2),
            ("classifier", ["variant_index", "si"], [["sì", 30], ["sị", 20]], 2),
            ("classifier", ["restorer", "models", "si", "classes", 1], "dog", 2),
            # n-gram integers that are not ints
            ("ngram", ["restorer", "model", "max_n"], True, 2),
            ("ngram", ["restorer", "model", "levels", 0, "k"], True, 2),
            ("ngram", ["restorer", "model", "levels", 1, "k"], "2", 2),
            ("ngram", ["restorer", "model", "levels", 1, "k"], 2.0, 2),
        ],
    )
    def test_refused_at_load(
        self, family, where, value, code, training_corpus, trained_sets, tmp_path, capsys
    ):
        if family == "ngram":
            pipe = build_ngram_pipeline(training_corpus, trained_sets, n=2)
        else:
            pipe = build_classifier_pipeline(
                training_corpus, trained_sets, window=5, hyper=classify.Hyper(epochs=5)
            )
        path = tmp_path / "pipe.json"
        save_pipeline(pipe, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError if code == 2 else ModelError):
            load_pipeline(path)
        text = tmp_path / "in.txt"
        text.write_text("nwanyi kwuru si ya oma\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        argv = ["restore", "--model", str(path), "--in", str(text), "--out", str(out)]
        assert cli.main(argv) == code
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


class TestCollectorPause:
    """load_pipeline pauses the cyclic collector while it decodes, checks and builds, and leaves it as it was."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def files(self, pipe, tmp_path):
        good, bad_family, bad_restorer = tmp_path / "good.json", tmp_path / "family.json", tmp_path / "restorer.json"
        save_pipeline(pipe, good)
        doc = json.loads(good.read_text(encoding="utf-8"))
        bad_family.write_text(json.dumps({**doc, "family": "rules"}, ensure_ascii=False), encoding="utf-8")
        bad_restorer.write_text(json.dumps({**doc, "restorer": {}}, ensure_ascii=False), encoding="utf-8")
        return good, (bad_family, bad_restorer)

    def test_the_collector_is_paused_during_a_load_and_runs_after_it(self, pipe, tmp_path, collector, monkeypatch):
        good, bad = self.files(pipe, tmp_path)
        during = []
        reader = pipeline.FAMILIES[pipe.family]
        real = reader.from_payload.__func__
        monkeypatch.setattr(reader, "from_payload", classmethod(lambda cls, *a: during.append(gc.isenabled()) or real(cls, *a)))
        gc.enable()
        assert load_pipeline(good).family == pipe.family
        assert gc.isenabled() and during == [False]
        for path in bad:
            with pytest.raises(ParseError):
                load_pipeline(path)
            assert gc.isenabled()
        assert during == [False, False]

    def test_a_collector_the_caller_disabled_stays_disabled(self, pipe, tmp_path, collector):
        good, bad = self.files(pipe, tmp_path)
        gc.disable()
        assert load_pipeline(good).family == pipe.family
        assert not gc.isenabled()
        for path in bad:
            with pytest.raises(ParseError):
                load_pipeline(path)
            assert not gc.isenabled()


def family_pipelines(training_corpus, trained_sets, vector_file):
    """A pipeline of every restorer: n-gram, each classifier kind and each embedding scheme."""
    yield build_ngram_pipeline(training_corpus, trained_sets, n=2)
    for kind in classify.KINDS:
        hyper = classify.Hyper(epochs=5)
        yield build_classifier_pipeline(training_corpus, trained_sets, kind=kind, window=5, hyper=hyper)
    for scheme in embed.SCHEMES:
        yield build_embedding_pipeline(training_corpus, trained_sets, vector_file, scheme=scheme, window=5)


def refuse_instance(*args, **kwargs):
    raise AssertionError("an Instance was built")


class TestRestorerProtocol:
    """Every family's restorer answers predict_instance(keys, i, restored) for one line's keys."""

    @pytest.mark.parametrize("family", sorted(pipeline.FAMILIES))
    def test_every_family_keeps_the_protocol(self, family):
        cls = pipeline.FAMILIES[family]
        assert list(inspect.signature(cls.predict_instance).parameters) == ["self", "keys", "i", "restored"]
        assert isinstance(inspect.getattr_static(cls, "from_payload"), classmethod)
        assert callable(inspect.getattr_static(cls, "to_payload"))

    def test_restoring_leaves_every_model_as_it_was(self, training_corpus, trained_sets, vector_file):
        """No restorer keeps state: its fields, its models' fields among them, hold what they held when built."""
        text = corpus_from_lines(["nwanyi kwuru si ya , Ha kwera SI si", "si oma si ka"] * 3)
        families = []
        for pipe in family_pipelines(training_corpus, trained_sets, vector_file):
            before = state(pipe.restorer)
            restore_text(pipe, text)
            assert state(pipe.restorer) == before, pipe.family
            families.append(pipe.family)
        assert len(families) == 1 + len(classify.KINDS) + len(embed.SCHEMES)

    def test_restore_line_builds_no_instance(self, pipe, monkeypatch):
        line = corpus_from_lines(["nwanyi kwuru si ya , Ha kwera SI si"]).lines[0]
        expected = restore_line(pipe, line)
        monkeypatch.setattr(datasetgen.Instance, "__init__", refuse_instance)
        assert restore_line(pipe, line) == expected

    def test_tweak2_builds_each_coword_set_once(self, training_corpus, trained_sets, vector_file, monkeypatch):
        """The restorer builds every variant's coword set when it is built; restoring builds none."""
        built = []
        monkeypatch.setattr(embed, "frozenset", lambda words: built.append(1) or frozenset(words), raising=False)
        pipe = build_embedding_pipeline(training_corpus, trained_sets, vector_file, scheme=embed.TWEAK2, window=5)
        assert len(built) == sum(len(pairs) for pairs in pipe.variant_index.values())
        built.clear()
        monkeypatch.setattr(embed, "set", lambda *words: built.append(1) or set(*words), raising=False)
        line = corpus_from_lines(["nwanyi kwuru si ya , Ha kwera SI si"]).lines[0]
        assert [t.surface for t in restore_line(pipe, line)].count("sì") == 1
        assert built == []

    def test_each_ambiguous_form_is_the_restorers_answer(self, pipe, training_corpus):
        extra = corpus_from_lines(["si si ha kwera si nwanyi si", "ya si kwuru si oma si si"])
        calls = 0
        for line in training_corpus.stripped().lines + extra.lines:
            keys = line_keys(line, pipe.lowercase)
            # the lines are lowercase and unmarked: an echoed token's surface is its key
            forms = [tok.surface for tok in restore_line(pipe, line)]
            for i, key in enumerate(keys):
                if key in pipe.variant_index:
                    assert forms[i] == pipe.restorer.predict_instance(keys, i, forms[:i])
                    calls += 1
        assert calls == 50 + 8  # one per "si"
