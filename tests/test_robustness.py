"""Seeded mutation tests: malformed pipeline and dataset files never crash the CLI.

Each trial applies one random edit to a valid file (delete a key or list
element, swap a value for another JSON type, set an integer to -1 or 10**6,
empty a list) and runs the command on it. The command must exit 0, 2 or 3
and never raise. A restore that fails must fail at load, before it creates
its output file.
"""

import copy
import json
import random

import numpy as np
import pytest

from diacritize import classify, cli, datasetgen, embed, pipeline
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
