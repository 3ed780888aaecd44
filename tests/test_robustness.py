"""Seeded mutation tests: malformed pipeline and dataset files never crash the CLI.

Each trial applies one random edit to a valid file (delete a key or list
element, swap a value for another JSON type, set an integer to -1 or 10**6,
empty a list) and runs the command on it. The command must exit 0, 2 or 3
and never raise. A restore that fails must fail at load, before it creates
its output file. A vectors file with a wrong header, a short row or a
non-numeric or non-finite component, any input file that is not valid
UTF-8, and a dataset or pipeline nested too deeply for json's scanner, end
with exit code 2 and a one-line message.
"""

import copy
import json
import os
import random

import numpy as np
import pytest

from diacritize import classify, cli, datasetgen, embed, pipeline
from diacritize import ngram
from diacritize.corpus import corpus_from_lines

LINES = (
    ["nwanyị kwuru sì ya oma"] * 12
    + ["ha kwera sí ya oma"] * 8
    + ["otu onye bia ."] * 4
)
RESTORE_INPUT = "nwanyi kwuru si ya oma\nHa kwera SI ya .\notu 3 bia si\n"
OTHER_TYPES = ["null", "true", "7", "2.5", '"x"', "[]", "{}"]


def mutate(doc, rng) -> str:
    """Apply one random edit in place below the root; returns what was done."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        parent, node = node, node[key]
    ops = ["delete", "retype"]
    if isinstance(node, int) and not isinstance(node, bool):
        ops += ["int", "int"]
    if isinstance(node, list) and node:
        ops += ["empty", "empty"]
    op = rng.choice(ops)
    if op == "delete":
        del parent[key]
    elif op == "retype":
        parent[key] = json.loads(
            rng.choice([t for t in OTHER_TYPES if type(json.loads(t)) is not type(node)])
        )
    elif op == "int":
        parent[key] = rng.choice([-1, 10**6])
    else:
        parent[key] = []
    return f"{op} at {key!r} (was {str(node)[:40]})"


def run_cli(argv, what):
    try:
        code = cli.main(argv)
    except Exception as exc:  # report which mutation crashed the command
        pytest.fail(f"{what}: {' '.join(argv[:2])} raised {exc!r}")
    assert code in (0, 2, 3), f"{what}: {' '.join(argv[:2])} exited {code}"
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("robust")
    corp = corpus_from_lines(LINES)
    (work / "corpus.txt").write_text("\n".join(LINES) + "\n", encoding="utf-8")
    sets = datasetgen.generate(corp)
    datasetgen.write_dataset(sets, work / "sets.jsonl")
    rng = np.random.default_rng(4)
    words = ["sì", "sí", "kwuru", "kwera", "ya", "oma", "nwanyị", "ha"]
    vectors = embed.EmbeddingModel(dim=3, vectors={w: rng.normal(size=3) for w in words})
    embed.save_vectors(vectors, work / "toy.vec")
    hyper = classify.Hyper(epochs=5)
    pipes = {
        "ngram": pipeline.build_ngram_pipeline(corp, sets, n=3),
        "logistic": pipeline.build_classifier_pipeline(
            corp, sets, kind=classify.LOGISTIC, window=5, hyper=hyper
        ),
        "naive_bayes": pipeline.build_classifier_pipeline(
            corp, sets, kind=classify.MULTINOMIAL_NB, window=5, hyper=hyper
        ),
        "embedding": pipeline.build_embedding_pipeline(
            corp, sets, work / "toy.vec", scheme=embed.TWEAK2, window=5
        ),
    }
    for name, pipe in pipes.items():
        pipeline.save_pipeline(pipe, work / f"{name}.json")
    (work / "in.txt").write_text(RESTORE_INPUT, encoding="utf-8")
    return work


@pytest.mark.parametrize("name", ["ngram", "logistic", "naive_bayes", "embedding"])
def test_mutated_pipeline_fails_at_load_or_restores(name, files, tmp_path, capsys):
    base = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    rng = random.Random(f"pipeline-{name}")
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    for trial in range(80):
        doc = copy.deepcopy(base)
        what = f"{name} trial {trial}: {mutate(doc, rng)}"
        model.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        out.unlink(missing_ok=True)
        if run_cli(argv, what):
            assert not out.exists(), f"{what}: failed after writing output"
    capsys.readouterr()


def test_mutated_dataset_never_crashes(files, tmp_path, capsys):
    records = [
        json.loads(line)
        for line in (files / "sets.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    rng = random.Random("dataset")
    data, out = str(tmp_path / "sets.jsonl"), str(tmp_path / "pipe.json")
    corpus = str(files / "corpus.txt")
    commands = [
        ["train", "ngram", corpus, "--dataset", data, "-n", "2", "-o", out],
        ["train", "clf", corpus, "--dataset", data, "--epochs", "2", "--window", "5", "-o", out],
        [
            "eval", "cv", "--corpus", corpus, "--dataset", data, "-k", "3",
            "--vectors", str(files / "toy.vec"), "--window", "5",
            "--restorer", "ngram:2", "--restorer", "clf:logistic", "--restorer", "emb:tweak1",
        ],
    ]
    for trial in range(100):
        mutated = copy.deepcopy(records)
        what = f"dataset trial {trial}: {mutate(mutated, rng)}"
        with open(data, "w", encoding="utf-8") as fh:
            for record in mutated:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        for argv in commands:
            run_cli(argv, what)
    capsys.readouterr()


def run_data_error(argv, what, capsys):
    """The command exits 2 with one line on stderr and no traceback."""
    assert run_cli(argv, what) == 2, what
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, f"{what}: {err!r}"


def with_bad_byte(src, dst):
    """dst is src with one 0xff byte, never valid UTF-8, put after its first line."""
    data = src.read_bytes()
    cut = data.index(b"\n") + 1 if b"\n" in data[:-1] else len(data) // 2
    dst.write_bytes(data[:cut] + b"\xff" + data[cut:])
    return str(dst)


def reader_command(kind, files, tmp_path, corrupt):
    """The command that reads a file of this kind first, with corrupt(good, dst) in its place."""
    tsv = tmp_path / "odd.tsv"
    tsv.write_text("sì sí kwuru ya kwuru\noma ha ya sì oma\n".replace(" ", "\t"), encoding="utf-8")
    good = {
        "corpus": files / "corpus.txt", "dataset": files / "sets.jsonl", "vectors": files / "toy.vec",
        "pipeline": files / "ngram.json", "tsv": tsv, "restore-in": files / "in.txt",
    }
    paths = {k: str(v) for k, v in good.items()}
    paths[kind] = corrupt(good[kind], tmp_path / f"bad-{good[kind].name}")
    out = str(tmp_path / "out")
    return {
        "corpus": ["train", "ngram", paths["corpus"], "--dataset", paths["dataset"], "-o", out],
        "dataset": ["train", "ngram", paths["corpus"], "--dataset", paths["dataset"], "-o", out],
        "vectors": ["intrinsic", "oddword", "--vectors", paths["vectors"], "--data", paths["tsv"]],
        "pipeline": ["restore", "--model", paths["pipeline"], "--in", paths["restore-in"], "--out", out],
        "tsv": ["intrinsic", "oddword", "--vectors", paths["vectors"], "--data", paths["tsv"]],
        "restore-in": ["restore", "--model", paths["pipeline"], "--in", paths["restore-in"], "--out", out],
    }[kind], paths[kind]


READERS = ["corpus", "dataset", "vectors", "pipeline", "tsv", "restore-in"]


@pytest.mark.parametrize("kind", READERS)
def test_non_utf8_file_is_a_data_error(kind, files, tmp_path, capsys):
    argv, _ = reader_command(kind, files, tmp_path, with_bad_byte)
    run_data_error(argv, f"non-UTF-8 {kind}", capsys)


@pytest.mark.parametrize("kind", READERS)
def test_non_utf8_message_names_the_file_and_its_byte_offset(kind, files, tmp_path, capsys):
    """The bad byte sits past the text reader's first 8 KiB chunk; blank lines are skipped or kept."""

    def late_bad_byte(src, dst):
        dst.write_bytes(src.read_bytes() + b"\n" * 9000 + b"\xff\n")
        return str(dst)

    argv, path = reader_command(kind, files, tmp_path, late_bad_byte)
    assert run_cli(argv, kind) == 2
    offset = os.path.getsize(path) - 2
    assert capsys.readouterr().err == f"diacritize: data error: {path}: invalid UTF-8 at byte offset {offset}\n"


def mutate_vectors(lines, how):
    """One edit to the lines of a word2vec text file."""
    lines = list(lines)
    vocab, dim = (int(v) for v in lines[0].split())
    row = lines[2].split(" ")
    if how == "header-count":
        lines[0] = f"{vocab + 1} {dim}"
    elif how == "header-words":
        lines[0] = f"{vocab} dim"
    elif how == "dim":
        lines[0] = f"{vocab} {dim + 1}"
    elif how == "field-count":
        lines[2] = " ".join(row[:-1])
    else:
        row[2] = {"non-numeric": "0.5x", "nan": "nan", "inf": "-inf"}[how]
        lines[2] = " ".join(row)
    return lines


@pytest.mark.parametrize("how", ["header-count", "header-words", "dim", "field-count", "non-numeric", "nan", "inf"])
def test_mutated_vectors_are_a_data_error(how, files, tmp_path, capsys):
    lines = (files / "toy.vec").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.vec"
    bad.write_text("\n".join(mutate_vectors(lines, how)) + "\n", encoding="utf-8")
    spec = json.loads((files / "embedding.json").read_text(encoding="utf-8"))
    spec["restorer"]["vectors_path"] = str(bad)
    model = tmp_path / "pipe.json"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    corpus, data, out = str(files / "corpus.txt"), str(files / "sets.jsonl"), tmp_path / "out"
    commands = [
        ["eval", "cv", "--corpus", corpus, "--dataset", data, "-k", "3", "--vectors", str(bad),
         "--window", "5", "--restorer", "emb:tweak2"],
        ["train", "emb", corpus, "--dataset", data, "--vectors", str(bad), "-o", str(out)],
        ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)],
    ]
    for argv in commands:
        run_data_error(argv, f"vectors {how}", capsys)
        assert not out.exists(), f"vectors {how}: {argv[0]} wrote its output"


def classifier_spec(files):
    spec = json.loads((files / "logistic.json").read_text(encoding="utf-8"))
    return spec, next(iter(spec["restorer"]["models"].values()))


NUMBER_BREAKS = [
    ("idf", "true"), ("idf", '"1.5"'), ("bias", '"0.25"'), ("weights", "false"), ("weights", '"0"'),
    ("class_log_prior", "true"), ("feature_log_prob", '"-1.5"'),
]


@pytest.mark.parametrize("field, value", NUMBER_BREAKS)
def test_classifier_number_that_is_not_a_json_number_is_a_data_error(field, value, files, tmp_path, capsys):
    nb = field in ("class_log_prior", "feature_log_prob")
    spec = json.loads((files / ("naive_bayes.json" if nb else "logistic.json")).read_text(encoding="utf-8"))
    clf = next(iter(spec["restorer"]["models"].values()))
    source = clf["nb_params"] if nb else clf
    row = source[field][0] if field in ("weights", "feature_log_prob") else source[field]
    row[0] = json.loads(value)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"{field} {value}", capsys)
    assert not out.exists()
    with pytest.raises(classify.ParseError, match=f"classifier {field} must hold finite JSON numbers"):
        classify.classifier_from_payload(clf)


@pytest.mark.parametrize("value", ["pairs", "[]", '"x"', "null"])
def test_unambiguous_that_is_not_an_object_is_a_data_error(value, files, tmp_path, capsys):
    spec = json.loads((files / "ngram.json").read_text(encoding="utf-8"))
    assert spec["unambiguous"]
    spec["unambiguous"] = [list(kv) for kv in spec["unambiguous"].items()] if value == "pairs" else json.loads(value)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"unambiguous {value}", capsys)
    assert not out.exists()
    with pytest.raises(pipeline.ParseError, match="unambiguous must be an object"):
        pipeline.load_pipeline(model)


@pytest.mark.parametrize(
    "argv",
    [["eval", "cv", "--restorer", "ngram:3"], ["eval", "cv", "--restorer", "clf:logistic"],
     ["eval", "cv", "--restorer", "emb:basic"], ["train", "ngram"]],
    ids=["cv-ngram", "cv-clf", "cv-emb", "train-ngram"],
)
def test_target_token_that_does_not_strip_to_its_wordkey_is_a_data_error(argv, files, tmp_path, capsys):
    # n-gram CV met such a token mid-run (exit 3); classifier and embedding CV scored it
    records = [json.loads(line) for line in (files / "sets.jsonl").read_text(encoding="utf-8").splitlines()]
    records[1]["tokens"][records[1]["target"]] = "zzz"
    data = tmp_path / "sets.jsonl"
    data.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out"
    corpus = str(files / "corpus.txt")
    if argv[0] == "train":
        argv = [*argv, corpus, "--dataset", str(data), "-o", str(out)]
    else:
        argv = [*argv, "--corpus", corpus, "--vectors", str(files / "toy.vec"), "--dataset", str(data),
                "-k", "2", "--report", str(out)]
    run_data_error(argv, "target zzz", capsys)
    assert not out.exists()
    with pytest.raises(datasetgen.ParseError, match="target token 'zzz' does not strip to wordkey") as err:
        datasetgen.read_dataset(data)
    assert err.value.line == 2


@pytest.mark.parametrize("field", ["weights", "bias", "idf"])
def test_integer_too_large_for_a_float_is_a_data_error(field, files, tmp_path, capsys):
    spec, clf = classifier_spec(files)
    row = clf["weights"][0] if field == "weights" else clf[field]
    row[0] = 10**400
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, field, capsys)
    assert not out.exists()


@pytest.mark.parametrize("index", ['"0"', "0.0", "true", "null"])
def test_vocabulary_index_that_is_not_an_integer_is_a_data_error(index, files, tmp_path, capsys):
    spec, clf = classifier_spec(files)
    term = min(clf["vocabulary"], key=clf["vocabulary"].get)
    assert clf["vocabulary"][term] == 0
    clf["vocabulary"][term] = json.loads(index)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, index, capsys)
    assert not out.exists()
    with pytest.raises(classify.ParseError, match="vocabulary indices"):
        classify.classifier_from_payload(clf)


def break_ngram_entry(levels, how):
    """One bad entry in an n-gram model's levels (k -> entries), as a hand edit makes it."""
    if how == "context of three words at k=2":
        levels[2][0][0] = ["ha", "ha", "kwera"]
    elif how == "string context":
        levels[2][0][0] = levels[2][0][0][0]
    elif how == "context word that is not a string":
        levels[2][0][0] = [7]
    elif how == "variant that is not a string":
        levels[1][0][1] = ["sì"]
    elif how == "suffix missing at k-1":
        levels[3][0][0][1] = "unseen"
    elif how == "no unigram row":
        levels[1].clear()
    else:
        levels[1][0][2] = json.loads(how.removeprefix("count "))


NGRAM_BREAKS = [
    "context of three words at k=2", "string context", "context word that is not a string",
    "variant that is not a string", "suffix missing at k-1", "no unigram row",
    "count true", "count 0", "count -1", "count 2.0", 'count "2"',
]


@pytest.mark.parametrize("how", NGRAM_BREAKS)
def test_bad_ngram_entry_is_a_data_error_at_load(how, files, tmp_path, capsys):
    spec = json.loads((files / "ngram.json").read_text(encoding="utf-8"))
    model_spec = spec["restorer"]["model"]
    levels = {level["k"]: level["entries"] for level in model_spec["levels"]}
    assert sorted(levels) == [1, 2, 3] and all(levels.values())
    break_ngram_entry(levels, how)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, how, capsys)
    assert not out.exists()
    with pytest.raises(ngram.ParseError, match="n-gram"):
        ngram.model_from_payload(model_spec, {})


def break_counts(spec, how):
    """One count in a classifier pipeline made something other than a non-negative int."""
    clf = next(iter(spec["restorer"]["models"].values()))
    pairs = next(iter(spec["variant_index"].values()))
    if how == "class_counts shorter than classes":
        clf["class_counts"] = clf["class_counts"][:-1]
    elif how == "class_counts longer, of floats":
        clf["class_counts"] = [c + 0.9 for c in clf["class_counts"]] + [2.9]
    elif how.startswith("class_counts "):
        clf["class_counts"][0] = json.loads(how.removeprefix("class_counts "))
    else:
        pairs[0][1] = json.loads(how.removeprefix("variant count "))
    return clf


COUNT_BREAKS = [
    "class_counts shorter than classes", "class_counts longer, of floats",
    "class_counts 2.9", "class_counts true", "class_counts -1",
    "variant count 2.9", "variant count true", "variant count -1", 'variant count "2"',
]


@pytest.mark.parametrize("how", COUNT_BREAKS)
def test_count_that_is_not_a_non_negative_integer_is_a_data_error_at_load(how, files, tmp_path, capsys):
    spec = json.loads((files / "logistic.json").read_text(encoding="utf-8"))
    clf = break_counts(spec, how)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, how, capsys)
    assert not out.exists()
    match = "class_counts" if how.startswith("class") else "non-negative integer count"
    with pytest.raises(pipeline.ParseError, match=match):
        pipeline.load_pipeline(model)
    if how.startswith("class"):
        with pytest.raises(classify.ParseError, match="class_counts"):
            classify.classifier_from_payload(clf)


@pytest.mark.parametrize(
    "field, value",
    [("target", '"1"'), ("target", "1.7"), ("target", "true"), ("line", "2.5"), ("count", "4.5"), ("count", '"4"')],
)
def test_non_integer_field_in_a_dataset_is_a_data_error(field, value, files, tmp_path, capsys):
    records = [json.loads(line) for line in (files / "sets.jsonl").read_text(encoding="utf-8").splitlines()]
    header, instance = records[0], records[1]
    if field == "count":
        header["variants"][0][1] = json.loads(value)
    else:
        instance[field] = json.loads(value)
    data, out = tmp_path / "sets.jsonl", tmp_path / "pipe.json"
    data.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    argv = ["train", "ngram", str(files / "corpus.txt"), "--dataset", str(data), "-o", str(out)]
    run_data_error(argv, f"{field} {value}", capsys)
    assert not out.exists()


@pytest.mark.parametrize("window", ["9.5", '"9"', "true", "4", "1"])
def test_classifier_window_that_breaks_the_window_rule_is_a_data_error(window, files, tmp_path, capsys):
    spec, clf = classifier_spec(files)
    clf["window"] = json.loads(window)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, window, capsys)
    assert not out.exists()
    with pytest.raises(classify.ParseError, match="classifier window"):
        classify.classifier_from_payload(clf)


@pytest.mark.parametrize("n", ["2.9", "true", "3.0", '"2"', "0", "4"])
def test_ngram_order_that_is_not_an_integer_in_range_is_a_data_error_at_load(n, files, tmp_path, capsys):
    spec = json.loads((files / "ngram.json").read_text(encoding="utf-8"))
    assert spec["restorer"]["n"] == 3
    spec["restorer"]["n"] = json.loads(n)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"n {n}", capsys)
    assert not out.exists()
    with pytest.raises(ngram.ParseError, match="n-gram order"):
        ngram.NGramRestorer.from_payload(spec["restorer"], {})


@pytest.mark.parametrize("count", ["2.9", "true", "2.0", '"2"', "-1"])
def test_coword_count_that_is_not_a_non_negative_integer_is_a_data_error_at_load(count, files, tmp_path, capsys):
    spec = json.loads((files / "embedding.json").read_text(encoding="utf-8"))
    pairs = next(pairs for pairs in spec["restorer"]["cowords"].values() if pairs)
    assert type(pairs[0][1]) is int
    pairs[0][1] = json.loads(count)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"coword count {count}", capsys)
    assert not out.exists()
    with pytest.raises(embed.ParseError, match="embedding cowords"):
        embed.EmbeddingRestorer.from_payload(spec["restorer"], {})


HYPER_BREAKS = [
    ("epochs", '"x"'), ("epochs", "true"), ("epochs", "2.0"), ("epochs", "null"), ("epochs", "0"), ("epochs", "-1"),
    ("seed", "1.5"), ("seed", "false"), ("seed", '"0"'),
    ("l2", "[1]"), ("l2", '"0.1"'), ("l2", "null"), ("l2", "Infinity"), ("l2", "NaN"),
    ("alpha", "true"), ("alpha", "-Infinity"), pytest.param("alpha", "1" + "0" * 400, id="alpha-int-too-large-for-a-float"),
    ("learning_rate", '"0.1"'), ("learning_rate", "false"), ("learning_rate", "NaN"), ("learning_rate", "{}"),
    ("learning_rate", "0"), ("learning_rate", "-0.5"), ("l2", "-1e-4"),
]


@pytest.mark.parametrize("field, value", HYPER_BREAKS)
def test_classifier_hyper_field_of_the_wrong_type_is_a_data_error(field, value, files, tmp_path, capsys):
    spec, clf = classifier_spec(files)
    assert field in clf["hyper"]
    clf["hyper"][field] = json.loads(value)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"hyper {field} {value}", capsys)
    assert not out.exists()
    with pytest.raises(classify.ParseError, match=f"classifier hyper {field}"):
        classify.classifier_from_payload(clf)


@pytest.mark.parametrize(
    "field, value", [("learning_rate", "null"), ("learning_rate", "0.5"), ("learning_rate", "1"), ("l2", "0"),
                     ("alpha", "2"), ("epochs", "1"), ("seed", "-3")],
)
def test_classifier_hyper_field_of_the_right_type_loads(field, value, files, tmp_path):
    spec, clf = classifier_spec(files)
    clf["hyper"][field] = json.loads(value)
    model = tmp_path / "pipe.json"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    loaded = pipeline.load_pipeline(model)
    assert [getattr(c.model.hyper, field) for c in loaded.restorer.classifiers.values()][0] == json.loads(value)


@pytest.mark.parametrize("value", ['"no"', '"true"', "0", "1", "null", "[]"])
def test_pipeline_lowercase_that_is_not_a_boolean_is_a_data_error(value, files, tmp_path, capsys):
    spec = json.loads((files / "logistic.json").read_text(encoding="utf-8"))
    assert spec["lowercase"] is True
    spec["lowercase"] = json.loads(value)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"lowercase {value}", capsys)
    assert not out.exists()
    with pytest.raises(pipeline.ParseError, match="lowercase must be true or false"):
        pipeline.load_pipeline(model)


def test_pipeline_without_lowercase_loads_as_true(files, tmp_path, capsys):
    spec = json.loads((files / "logistic.json").read_text(encoding="utf-8"))
    del spec["lowercase"]
    model, out, ref = tmp_path / "pipe.json", tmp_path / "out.txt", tmp_path / "ref.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    assert pipeline.load_pipeline(model).lowercase is True
    for path, dst in ((model, out), (files / "logistic.json", ref)):
        argv = ["restore", "--model", str(path), "--in", str(files / "in.txt"), "--out", str(dst)]
        assert run_cli(argv, "no lowercase key") == 0
    assert out.read_bytes() == ref.read_bytes()
    capsys.readouterr()


def restore_refused(spec, files, tmp_path, capsys, what):
    """restore with spec as its pipeline exits 2 with one line that names the file; returns that line."""
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    assert run_cli(argv, what) == 2, what
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, f"{what}: {err!r}"
    assert err.startswith(f"diacritize: data error: {model}: "), f"{what}: {err!r}"
    assert not out.exists()
    return err


def break_marks(spec, how) -> str:
    """One form of a pipeline that does not only add marks to its routing key; returns the refusal."""
    key, pairs = next(iter(spec["variant_index"].items()))
    if how == "unambiguous form of another word":
        spec["unambiguous"]["oma"] = "dog"
        return "unambiguous form 'dog' does not strip to wordkey 'oma'"
    if how == "unambiguous form of another case":
        spec["unambiguous"]["nwanyi"] = "Nwanyị"
        return "unambiguous form 'Nwanyị' does not strip to wordkey 'nwanyi'"
    if how == "variant of another wordkey":
        pairs[-1][0] = "dog"
        return f"variant 'dog' does not strip to wordkey {key!r}"
    if how == "variant listed twice":
        pairs[-1][0] = pairs[0][0]
        return f"variant {pairs[0][0]!r} is listed twice for wordkey {key!r}"
    spec["restorer"]["models"][key]["classes"][-1] = "dog"
    return f"classifier for wordkey {key!r} has classes not among its variants: ['dog']"


MARK_BREAKS = [
    (name, how)
    for name in ("ngram", "logistic", "naive_bayes", "embedding")
    for how in (
        "unambiguous form of another word", "unambiguous form of another case",
        "variant of another wordkey", "variant listed twice",
        *(["classifier class that is not a variant"] if name in ("logistic", "naive_bayes") else []),
    )
]


@pytest.mark.parametrize("name, how", MARK_BREAKS)
def test_pipeline_form_that_does_not_strip_to_its_key_is_a_data_error(name, how, files, tmp_path, capsys):
    spec = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    refusal = break_marks(spec, how)
    assert restore_refused(spec, files, tmp_path, capsys, how).endswith(f": {refusal}\n")


def break_ngram_integer(restorer, how):
    """One n-gram max_n or level k made something other than an int, as a hand edit makes it."""
    model = restorer["model"]
    if how == "max_n true, one level":
        # true == 1, so this file loads and restores at order 1 unless max_n is typed
        model["levels"], model["max_n"], restorer["n"] = model["levels"][:1], True, 1
    elif how.startswith("max_n "):
        model["max_n"] = json.loads(how.removeprefix("max_n "))
    else:
        value = json.loads(how.removeprefix("k "))
        model["levels"][0 if value is True else 1]["k"] = value


NGRAM_INTEGER_BREAKS = ["max_n true, one level", 'max_n "3"', "max_n 3.0", "k true", 'k "2"', "k 2.0"]


@pytest.mark.parametrize("how", NGRAM_INTEGER_BREAKS)
def test_ngram_max_n_or_k_that_is_not_an_integer_is_a_data_error_at_load(how, files, tmp_path, capsys):
    spec = json.loads((files / "ngram.json").read_text(encoding="utf-8"))
    break_ngram_integer(spec["restorer"], how)
    restore_refused(spec, files, tmp_path, capsys, how)
    with pytest.raises(ngram.ParseError, match="n-gram"):
        ngram.model_from_payload(spec["restorer"]["model"], {})


@pytest.mark.parametrize("top_n", ["2.5", "true", "-1", '"50"', "null", "50.0"])
def test_embedding_top_n_that_is_not_a_non_negative_integer_is_a_data_error_at_load(top_n, files, tmp_path, capsys):
    spec = json.loads((files / "embedding.json").read_text(encoding="utf-8"))
    assert spec["restorer"]["top_n"] == 50
    spec["restorer"]["top_n"] = json.loads(top_n)
    restore_refused(spec, files, tmp_path, capsys, f"top_n {top_n}")
    with pytest.raises(embed.ParseError, match="embedding top_n"):
        embed.EmbeddingRestorer.from_payload(spec["restorer"], {})


@pytest.mark.parametrize(
    "name, where, value",
    [
        ("ngram", ["restorer", "model", "levels", 2, "k"], 7),
        ("ngram", ["restorer", "n"], 9),
        ("logistic", ["restorer", "models", "si", "kind"], ["x"]),
        ("naive_bayes", ["restorer", "models", "si", "window"], 4),
        ("embedding", ["restorer", "scheme"], "bogus"),
        ("embedding", ["restorer", "cowords"], {"sì": [["ya", -1]]}),
        ("embedding", ["restorer", "cowords"], {}),  # the fixture's scheme is tweak2, which needs cowords
        ("embedding", ["restorer", "vectors_path"], 7),
        ("embedding", ["restorer", "vectors_path"], ""),
        ("embedding", ["restorer", "vectors_fingerprint"], {"bytes": 1}),
        ("ngram", ["family"], "rules"),
    ],
)
def test_a_family_readers_refusal_names_the_pipeline_file(name, where, value, files, tmp_path, capsys):
    spec = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    node = spec
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    restore_refused(spec, files, tmp_path, capsys, f"{name} {where[-1]}")


@pytest.mark.parametrize("field", ["classes", "class_counts"])
@pytest.mark.parametrize("form", ["object", "string"])
def test_classifier_classes_or_counts_that_are_not_a_list_are_a_data_error(field, form, files, tmp_path, capsys):
    """An object would read as its keys and a string as its characters, so neither stands in for the list,
    not even an object keyed by the classes themselves."""
    spec, clf = classifier_spec(files)
    items = list(map(str, clf[field]))
    clf[field] = dict.fromkeys(items, 0) if form == "object" else "".join(items)
    err = restore_refused(spec, files, tmp_path, capsys, f"{field} {form}")
    assert f"classifier {field} must be" in err
    with pytest.raises(classify.ParseError, match=f"classifier {field} must be"):
        classify.classifier_from_payload(clf)


def test_a_vectors_file_error_keeps_its_own_path(files, tmp_path, capsys):
    vectors = tmp_path / "bad.vec"
    vectors.write_text("2 3\nsì 1 2\n", encoding="utf-8")
    spec = json.loads((files / "embedding.json").read_text(encoding="utf-8"))
    spec["restorer"]["vectors_path"] = str(vectors)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, "short vectors row", capsys)
    with pytest.raises(embed.ParseError) as info:
        pipeline.load_pipeline(model)
    assert info.value.path == str(vectors)
    assert str(info.value).startswith(f"{vectors}:2: ")


DATASET_MARK_BREAKS = ["header variant of another wordkey", "header variant listed twice", "label that is not a variant"]


@pytest.mark.parametrize("how", DATASET_MARK_BREAKS)
def test_dataset_form_that_is_not_of_its_wordkey_is_a_data_error(how, files, tmp_path, capsys):
    records = [json.loads(line) for line in (files / "sets.jsonl").read_text(encoding="utf-8").splitlines()]
    header = records[0]
    if how == "header variant of another wordkey":
        header["variants"][-1][0] = "dog"
        line = 1
    elif how == "header variant listed twice":
        header["variants"][-1][0] = header["variants"][0][0]
        line = 1
    else:
        records[2]["label"] = "dog"
        line = 3
    data, out = tmp_path / "sets.jsonl", tmp_path / "pipe.json"
    data.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    argv = ["train", "ngram", str(files / "corpus.txt"), "--dataset", str(data), "-o", str(out)]
    assert run_cli(argv, how) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, f"{how}: {err!r}"
    assert err.startswith(f"diacritize: data error: {data}:{line}: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train ngram", "eval cv", "restore"])
def test_json_nested_too_deeply_is_a_data_error(command, files, tmp_path, capsys):
    """10,000 nested lists overflow json's scanner; the command refuses the file with one line."""
    deep = "[" * 10_000 + "]" * 10_000 + "\n"
    out = tmp_path / "out"
    if command == "restore":
        bad = tmp_path / "pipe.json"
        bad.write_text(deep, encoding="utf-8")
        argv = ["restore", "--model", str(bad), "--in", str(files / "in.txt"), "--out", str(out)]
        where = f"{bad}: "
    else:
        bad = tmp_path / "sets.jsonl"
        header = (files / "sets.jsonl").read_text(encoding="utf-8").splitlines()[0]
        bad.write_text(f"{header}\n{deep}", encoding="utf-8")
        argv = {
            "train ngram": ["train", "ngram", str(files / "corpus.txt"), "--dataset", str(bad), "-o", str(out)],
            "eval cv": ["eval", "cv", "--corpus", str(files / "corpus.txt"), "--dataset", str(bad),
                        "--restorer", "ngram:2", "-k", "2", "--report", str(out)],
        }[command]
        where = f"{bad}:2: "
    assert run_cli(argv, command) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, f"{command}: {err!r}"
    assert err.startswith(f"diacritize: data error: {where}"), err
    assert not out.exists()
