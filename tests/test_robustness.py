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
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

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
SRC = Path(__file__).resolve().parents[1] / "src"
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


# A classifier's number fields: the pipeline that holds each, and whether it is a list of rows.
NUMBER_FIELDS = {
    "idf": ("logistic", False), "bias": ("logistic", False), "weights": ("logistic", True),
    "class_log_prior": ("naive_bayes", False), "feature_log_prob": ("naive_bayes", True),
}
# JSON texts, each put in place of a field's first number, that are no finite JSON number.
NUMBER_BREAKS = [
    ("idf", "true"), ("idf", '"1.5"'), ("bias", '"0.25"'), ("weights", "false"), ("weights", '"0"'),
    ("class_log_prior", "true"), ("feature_log_prob", '"-1.5"'),
    *[(field, text) for field in NUMBER_FIELDS for text in ("NaN", "Infinity", "-Infinity", "1e999", "null", "[0.5]")],
]
# Where a written file holds this string, the file holds the JSON text of a break in its place.
RAW = "@raw@"


def number_field(doc, field):
    """The first classifier of a pipeline document, and the object that holds field."""
    clf = next(iter(doc["restorer"]["models"].values()))
    return clf, clf["nb_params"] if field in ("class_log_prior", "feature_log_prob") else clf


def refused_numbers(doc, field, files, tmp_path, capsys, what, raw="") -> dict:
    """restore exits 2 on doc, written with raw in place of RAW; the decoded classifier is returned."""
    text = json.dumps(doc, ensure_ascii=False).replace(json.dumps(RAW), raw)
    model, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    model.write_text(text, encoding="utf-8")
    argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
    run_data_error(argv, f"{field} {what}", capsys)
    assert not out.exists()
    return number_field(json.loads(text), field)[0]


@pytest.mark.parametrize("field, value", NUMBER_BREAKS)
def test_classifier_number_that_is_not_a_json_number_is_a_data_error(field, value, files, tmp_path, capsys):
    name, rows = NUMBER_FIELDS[field]
    doc = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    _, source = number_field(doc, field)
    (source[field][0] if rows else source[field])[0] = RAW
    clf = refused_numbers(doc, field, files, tmp_path, capsys, value, raw=value)
    with pytest.raises(classify.ParseError, match=f"^classifier {field} must hold finite JSON numbers"):
        classify.classifier_from_payload(clf)


# Edits of a number field's shape: of a flat list, and of a list of rows.
FLAT_BREAKS = {
    "short": lambda v: v[:-1],
    "long": lambda v: [*v, 0.5],
    "nested": lambda v: [[x] for x in v],
    "object": lambda v: dict(enumerate(v)),
}
ROW_BREAKS = {
    "ragged": lambda rows: [rows[0][:-1], *rows[1:]],
    "short rows": lambda rows: [row[:-1] for row in rows],
    "long rows": lambda rows: [[*row, 0.5] for row in rows],
    "nested": lambda rows: [[[x] for x in row] for row in rows],
    "flat": lambda rows: rows[0],
    "fewer rows": lambda rows: rows[:-1],
    "more rows": lambda rows: [*rows, rows[0]],
}


@pytest.mark.parametrize("field, how", [
    (field, how) for field, (_, rows) in NUMBER_FIELDS.items() for how in (ROW_BREAKS if rows else FLAT_BREAKS)
])
def test_classifier_numbers_of_the_wrong_shape_are_a_data_error(field, how, files, tmp_path, capsys):
    name, rows = NUMBER_FIELDS[field]
    doc = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    _, source = number_field(doc, field)
    assert all(len(row) > 1 for row in (source[field] if rows else [source[field]]))
    source[field] = (ROW_BREAKS if rows else FLAT_BREAKS)[how](source[field])
    clf = refused_numbers(doc, field, files, tmp_path, capsys, how)
    with pytest.raises(classify.ParseError, match=f"^classifier {field} must hold finite JSON numbers, of shape"):
        classify.classifier_from_payload(clf)


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_classifier_json_int_loads_as_a_float_and_restores_the_same_bytes(field, files, tmp_path):
    """An int where the writer put an integral float loads as that float; a -0.0 keeps its sign."""
    name, rows = NUMBER_FIELDS[field]
    texts = {}
    for form in ("float", "int"):
        doc = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
        _, source = number_field(doc, field)
        row = source[field][0] if rows else source[field]
        row[0], row[-1] = (-2.0, -0.0) if form == "float" else (-2, -0.0)
        texts[form] = json.dumps(doc, ensure_ascii=False)
    assert texts["int"] == texts["float"].replace("-2.0", "-2", 1) != texts["float"]
    outputs = {}
    for form, text in texts.items():
        model, out = tmp_path / f"{form}.json", tmp_path / f"{form}.txt"
        model.write_text(text, encoding="utf-8")
        argv = ["restore", "--model", str(model), "--in", str(files / "in.txt"), "--out", str(out)]
        assert cli.main(argv) == 0
        outputs[form] = out.read_bytes()
        loaded = pipeline.load_pipeline(model)
        clf = next(iter(loaded.restorer.classifiers.values()))
        numbers = {"idf": clf.vectorizer.idf, "feature_log_prob": clf.model.rows, "weights": clf.model.rows}
        value = numbers.get(field, clf.model.offsets)
        row = value[0] if rows else value
        assert type(row[0]) is float and row[0] == -2.0
        assert math.copysign(1.0, row[-1]) == -1.0 and row[-1] == 0.0
        resaved = tmp_path / f"{form}.resaved.json"
        pipeline.save_pipeline(loaded, resaved)
        assert resaved.read_text(encoding="utf-8") == texts["float"] + "\n"
    assert outputs["int"] == outputs["float"]


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


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_integer_too_large_for_a_float_is_a_data_error(field, files, tmp_path, capsys):
    name, rows = NUMBER_FIELDS[field]
    doc = json.loads((files / f"{name}.json").read_text(encoding="utf-8"))
    _, source = number_field(doc, field)
    (source[field][0] if rows else source[field])[0] = 10**400
    clf = refused_numbers(doc, field, files, tmp_path, capsys, "10**400")
    # The refusal names the field, and the pipeline's names the wordkey too.
    message = f"classifier {field} must hold finite JSON numbers, of shape"
    with pytest.raises(classify.ParseError, match=f"^{message}"):
        classify.classifier_from_payload(clf)
    key = next(iter(doc["restorer"]["models"]))
    with pytest.raises(pipeline.ParseError, match=re.escape(f": classifier for wordkey {key!r}: {message}")):
        pipeline.load_pipeline(tmp_path / "pipe.json")


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
    with pytest.raises(classify.ParseError, match="^window size must be an odd integer >= 3, got "):
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


def test_ngram_max_n_past_the_level_count_is_refused_before_anything_is_built(files, tmp_path):
    """max_n is checked against the number of levels first, so a huge one builds no list of its ks.

    The command runs in a child with its address space capped at 1.5 GB: a
    reader that built range(1, max_n + 1) would ask for terabytes and end
    there in MemoryError instead of taking the host's memory.
    """
    spec = json.loads((files / "ngram.json").read_text(encoding="utf-8"))
    model = spec["restorer"]["model"]
    model["max_n"], model["levels"] = 10**12, model["levels"][:1]
    path, out = tmp_path / "pipe.json", tmp_path / "out.txt"
    path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "from diacritize import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["restore", "--model", str(path), "--in", str(files / "in.txt"), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == (
        f"diacritize: data error: {path}: n-gram model needs one level for each k in 1..{10**12}, got k = [1]\n"
    )
    assert proc.returncode == 2 and not out.exists()


@pytest.mark.parametrize("header", ["0 100000000000000000000", "2 4611686018427387904"])
def test_vectors_dim_that_no_array_can_hold_is_a_data_error_at_line_1(header, files, tmp_path, capsys):
    vectors = tmp_path / "wide.vec"
    vectors.write_text(header + "\n", encoding="utf-8")
    argv, _ = reader_command("vectors", files, tmp_path, lambda good, dst: str(vectors))
    run_data_error(argv, header, capsys)
    message = f"{vectors}:1: dim must be at most {sys.maxsize // 8}, got "
    with pytest.raises(embed.ParseError, match=re.escape(message)):
        embed.load_vectors(vectors)


@pytest.mark.parametrize("edit, reason", [
    (lambda clf: clf["weights"][0].pop(), "classifier weights must hold finite JSON numbers, of shape"),
    (lambda clf: clf.pop("window"), "malformed: 'window'"),
], ids=["short weights row", "no window"])
def test_a_classifier_refusal_names_its_wordkey(edit, reason, files, tmp_path, capsys):
    spec, clf = classifier_spec(files)
    edit(clf)
    key = next(iter(spec["restorer"]["models"]))
    err = restore_refused(spec, files, tmp_path, capsys, reason)
    assert err.startswith(f"diacritize: data error: {tmp_path / 'pipe.json'}: classifier for wordkey {key!r}: {reason}")


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


def test_an_alignment_count_too_large_for_a_float_is_a_data_error_at_its_line(files, tmp_path, capsys):
    """It used to end in an OverflowError traceback once project weighed the count."""
    align, out = tmp_path / "align.tsv", tmp_path / "out.vec"
    align.write_text(f"oma\tsì\t1\noma\tha\t{10**400}\n", encoding="utf-8")
    argv = ["project", "--vectors", str(files / "toy.vec"), "--align", str(align), "-o", str(out)]
    assert run_cli(argv, "huge count") == 2
    err = capsys.readouterr().err
    assert err == f"diacritize: data error: {align}:2: count must be at most {sys.float_info.max}\n"
    assert not out.exists()


NON_FINITE_WRITES = {
    # a coword's vector times its count overflows: the enhanced vector was written as 'inf inf'
    "enhance": (["3 2", "ká 1.0 0.0", "kà 0.0 1.0", "x 1.7e308 1.7e308"], None,
                "{out}: not written: the vectors hold an infinite or NaN component"),
    # the weighted sum overflows while the counts do not
    "project sum": (["2 2", "x 1e300 0.0", "z 0.0 1.0"], "y\tx\t10000000000\ny\tz\t1\n",
                    "{out}: not written: the vectors hold an infinite or NaN component"),
    # the counts overflow too: the mean was written as '0.0 nan'
    "project counts": (["2 2", "x 2.0 1.0", "z 2.0 0.0"], f"y\tx\t{10**308}\ny\tz\t{10**308}\n",
                       "the counts weighting a vector mean sum past the largest float"),
}


@pytest.mark.parametrize("case", NON_FINITE_WRITES)
def test_a_vector_past_the_float_range_is_a_model_error_and_writes_nothing(case, tmp_path, capsys):
    rows, align_rows, message = NON_FINITE_WRITES[case]
    vectors, align, out = tmp_path / "in.vec", tmp_path / "align.tsv", tmp_path / "out.vec"
    vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")
    if case == "enhance":
        corpus, data = tmp_path / "corpus.txt", tmp_path / "sets.jsonl"
        corpus.write_text("x ká y\nx ká\nz kà\n", encoding="utf-8")
        datasetgen.write_dataset(datasetgen.generate(corpus_from_lines(["x ká y", "x ká", "z kà"])), data)
        argv = ["enhance", "--vectors", str(vectors), "--corpus", str(corpus), "--dataset", str(data),
                "--scheme", "tweak1", "-o", str(out)]
    else:
        align.write_text(align_rows, encoding="utf-8")
        argv = ["project", "--vectors", str(vectors), "--align", str(align), "-o", str(out)]
    assert run_cli(argv, case) == 3
    captured = capsys.readouterr()
    assert captured.err == f"diacritize: model error: {message.format(out=out)}\n"
    assert not out.exists()


def test_wordsim_scores_too_large_for_a_pearson_r_are_a_data_error(tmp_path, capsys):
    """It used to print 'wordsim pearson nan' after a numpy warning, and exit 0."""
    vectors, data = tmp_path / "in.vec", tmp_path / "ws.tsv"
    vectors.write_text("3 2\na 1.0 0.0\nb 0.0 1.0\nc 1.0 1.0\n", encoding="utf-8")
    data.write_text("a\tb\t1e308\na\tc\t-1e308\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["intrinsic", "wordsim", "--vectors", str(vectors), "--data", str(data)], "wordsim") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "diacritize: data error: similarity scores too large for a Pearson r in floats\n")


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
