import argparse
import builtins
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diacritize import classify, corpus, datasetgen, embed, evaluate, ngram
from diacritize.cli import build_parser, main
from diacritize.corpus import strip_diacritics
from diacritize.errors import ModelError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
FIXTURE = str(DATA / "fixture_corpus.txt")
GOLDEN = DATA / "golden_dataset.jsonl"

# sha256 of `train clf --kind KIND` pipelines and of the `eval cv` report for
# clf:logistic (and for clf:multinomial_nb) with -k 3, both on the fixture
# corpus and the golden dataset.
CLF_PIPELINE_SHA = {
    "linear_svm": "078ee1cedf4b6ab4954a47fd01da847c9db5af529d1008e8b7ac4058ae1e297a",
    "logistic": "034ab780e6e46a4fb47bc33224bb12e3d506080c35bdf6a2d156ba3e753a5667",
    "multinomial_nb": "dfae5c2edece44abcb0c55ff1d66782a5f6080796749b0934346dfe4df8dad3c",
    "perceptron": "9798f7843cbe49b38b5ae0c32dd356153788959f95afa6b0f51a680749c48166",
}
# sha256 of `train ngram -n N` pipelines on the fixture corpus and the golden dataset.
NGRAM_PIPELINE_SHA = {
    1: "e5a2369f3883ad9027bf37f840c5bfa71f524138518911155a8c8d9b8fa59a3e",
    5: "fd576bebc2461f17eb75e4b5918bc16a4f11f4878335754c39c6a3e7cf8e0d7b",
}
CV_CLF_REPORT_SHA = "611293da2d88a7ae88e1f431d757ba07b5beb8a9dc7fa3f9f85dd0b9d4ce423d"
CV_NB_REPORT_SHA = "25547e00334126c487f18de7a6c98fb031bdb9d6397cdb198716968401425b6a"
# sha256 of `eval cv -k 3 --report` with the given n-gram restorers, on the
# fixture corpus and the golden dataset.
CV_NGRAM_REPORT_SHA = {
    ("ngram:1", "ngram:5"): "467fe298eee5b705fb0a715b5f6d409afe47541951291f16be74ad6a9fad183e",
    ("ngram:2",): "3115a542a136c5852e7b1d45399d4e74247bfea1a550f9ba2707ce2429f48059",
}

# sha256 of `restore` on the stripped fixture corpus, through a `train ngram -n 5`
# pipeline, a `train clf` (logistic) pipeline and a `train clf --kind KIND`
# pipeline of each other kind, all trained on the fixture corpus and the golden
# dataset. Naive Bayes is pinned on its own: only it scores from the class prior.
RESTORED_SHA = {
    "ngram": "b1c1009ac71f5c79207839dac1c222d7a0eab605ba1c0d4f61698d06d73909d8",
    "clf": "7795080815d00db2815be53e13177fd73e5d2c751f97f32b7d4d163fbd0cfc0c",
    "clf:perceptron": "bb5d27800e11e6d1bdbd7d89756ae26cd27071a4baad27a15acd4be3469b6ccb",
    "clf:linear_svm": "7795080815d00db2815be53e13177fd73e5d2c751f97f32b7d4d163fbd0cfc0c",
    "clf:multinomial_nb": "6f2738837f1edaa0e5b7940ca5efc81cbd6662bcc9fe63198bcb70d1d924e6ff",
}
# sha256 of `stats` on the fixture corpus, without and with --lowercase.
STATS_SHA = {
    False: "c0ec5436fb6aa2db5a86f5a699392fa0fff8f6cbdb7fe89d868f37022a2ed78e",
    True: "883a1a9dae86ac4c50acbf74acdf377bcdfa2b90487cde67e2fdd660f27fb842",
}
# sha256 of `eval cv -k 2 --tsv` for ngram:1 + ngram:2, on the fixture corpus and
# the golden dataset.
CV_TSV_SHA = "37388907e0d97a4bf0d9d6254d325d7f00fad20dd77f209b1c6cfdce43fceb81"
# sha256 of `project -o` on TestProjectEnhance's source vectors and alignment.
PROJECT_SHA = "395b5820cb5dc45c73ac8ca31e917379c3335f6a010e8f2f39a36c4617677a79"
# sha256 of `enhance --scheme tweak3 -o` on the `vectors_file` vectors, the
# fixture corpus and the golden dataset.
ENHANCE_SHA = "0c8bb254c82a98e7fa1bbc3fb5ceef8f75ff0c61cce717d6bfc72cd72d07c242"
# sha256 of `eval cv -k 3 --report` for emb:tweak1 + emb:tweak2, on the fixture
# corpus, the golden dataset and the `vectors_file` vectors.
CV_TWEAK_REPORT_SHA = "e0e5c04800cacdabb778538395c667467895a874479fb5df6031b020ba2a6482"
# sha256 of `eval cv -k 3 --report` for emb:SCHEME alone, on the same inputs.
CV_EMB_REPORT_SHA = {
    "basic": "daad71e57c9110487700c8fc168b7a1ac5697ca03d4853d6d8940d17afdb7c5c",
    "tweak3": "3e844928c342f02f7740e4146519ad225ffd7adf56b4284410a54fb5ea9a13e6",
}
# sha256 of `restore` on the stripped fixture corpus through a `train emb
# --scheme SCHEME` pipeline on the same inputs. The restored text is pinned, not
# the pipeline, which names its vectors file by absolute path.
RESTORED_EMB_SHA = {
    "basic": "edebbce0d7f2c4021ddfc6535dfc4a3cf03b4c927364096933ce7772aa82027c",
    "tweak1": "8da3519615451b2aa008fc34c65449bdaca91bb10bef2f99c16d12a5d511c6dc",
    "tweak2": "ae43ced8412f32071f9db5afac25c4a2dfa926c4dd2d74f9423f13df3585d5c8",
    "tweak3": "dbe3793c124e77d649b7d54339d85fced4408853e0c62da0cbebfb55a7f075d1",
}
# A `train ngram -n 5` pipeline in the older layout, whose restorer.model also
# holds copies of variant_index and unambiguous, and a lowercase flag.
INNER_MAPS_PIPELINE = DATA / "ngram_pipeline_inner_maps.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def dataset_file(tmp_path, capsys):
    path = tmp_path / "sets.jsonl"
    code, _, _ = run(capsys, "dataset", FIXTURE, "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def vectors_file(tmp_path):
    rng = np.random.default_rng(3)
    words = ["ákwà", "ákwá", "ógè", "ògè",
             "dị", "di", "ùdó", "údó",
             "nwanyị", "oma", "nwa", "mmiri", "oke", "ha"]
    model = embed.EmbeddingModel(
        dim=4, vectors={w: rng.normal(size=4) for w in words}
    )
    path = tmp_path / "toy.vec"
    embed.save_vectors(model, path)
    return str(path)


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "stats", FIXTURE, "--bogus")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", str(tmp_path / "nope.txt"))
        assert code == 2


class TestStats:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "stats", FIXTURE)
        assert code == 0
        payload = json.loads(out)
        assert payload["lines"] == 25
        assert payload["ambiguous_wordkeys"] >= 4
        assert payload["all_wordkeys"] == payload["unique_wordkeys"] + payload["ambiguous_wordkeys"]

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_reproduces_pinned_bytes(self, capsys, tmp_path, lowercase):
        flags = ["--lowercase"] if lowercase else []
        code, out, _ = run(capsys, "stats", FIXTURE, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STATS_SHA[lowercase]
        path = tmp_path / "stats.json"
        assert run(capsys, "stats", FIXTURE, *flags, "--out", str(path))[0] == 0
        assert sha256(path) == STATS_SHA[lowercase]


class TestDataset:
    def test_reproduces_golden_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "sets.jsonl"
        code, _, _ = run(capsys, "dataset", FIXTURE, "-o", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == GOLDEN.read_bytes()

    def test_gate_flags(self, capsys, tmp_path):
        out_path = tmp_path / "sets.jsonl"
        code, out, _ = run(
            capsys, "dataset", FIXTURE, "-o", str(out_path), "--varnt-distrib", "1.0"
        )
        assert code == 0
        keys = set()
        with open(out_path, encoding="utf-8") as fh:
            for line in fh:
                keys.add(json.loads(line)["wordkey"])
        assert "okpu" in keys  # skew gate disabled

    def test_bad_param_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "dataset", FIXTURE, "-o", str(tmp_path / "x"), "--varnt-rep", "2.0"
        )
        assert code == 2


class TestTrainRestore:
    def test_ngram_end_to_end(self, capsys, tmp_path, dataset_file):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "ngram", FIXTURE, "--dataset", dataset_file,
            "-n", "2", "-o", str(model),
        )
        assert code == 0
        stripped = tmp_path / "stripped.txt"
        stripped.write_text("nwanyi ziri akwa oma\n", encoding="utf-8")
        out_file = tmp_path / "restored.txt"
        code, _, _ = run(
            capsys, "restore", "--model", str(model),
            "--in", str(stripped), "--out", str(out_file),
        )
        assert code == 0
        restored = out_file.read_text(encoding="utf-8").strip().split(" ")
        assert restored[0] == "nwanyị"
        assert restored[2] in ("ákwà", "ákwá")

    def test_restore_empty_input(self, capsys, tmp_path, dataset_file):
        model = tmp_path / "pipe.json"
        run(capsys, "train", "ngram", FIXTURE, "--dataset", dataset_file, "-o", str(model))
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out_file = tmp_path / "out.txt"
        code, _, _ = run(
            capsys, "restore", "--model", str(model), "--in", str(empty),
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == ""

    def test_restore_determinism(self, capsys, tmp_path, dataset_file):
        model = tmp_path / "pipe.json"
        run(capsys, "train", "clf", FIXTURE, "--dataset", dataset_file,
            "--kind", "multinomial_nb", "--window", "5", "-o", str(model))
        stripped = tmp_path / "in.txt"
        stripped.write_text("o zutara akwa na ahia ukwu\noge ruru ka ha bia\n", encoding="utf-8")
        outs = []
        for name in ("a.txt", "b.txt"):
            out_file = tmp_path / name
            code, _, _ = run(
                capsys, "restore", "--model", str(model),
                "--in", str(stripped), "--out", str(out_file),
            )
            assert code == 0
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]

    def test_train_emb_requires_vectors(self, capsys, tmp_path, dataset_file):
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", dataset_file,
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_emb_pipeline_round_trip(self, capsys, tmp_path, dataset_file, vectors_file):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", dataset_file,
            "--vectors", vectors_file, "--scheme", "tweak1", "-o", str(model),
        )
        assert code == 0
        stripped = tmp_path / "in.txt"
        stripped.write_text("nwanyi ziri akwa oma\n", encoding="utf-8")
        out_file = tmp_path / "restored.txt"
        code, _, _ = run(
            capsys, "restore", "--model", str(model),
            "--in", str(stripped), "--out", str(out_file),
        )
        assert code == 0

    def test_emb_pipeline_restores_from_another_directory(
        self, capsys, tmp_path, dataset_file, vectors_file, monkeypatch
    ):
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        (train_dir / "vectors.txt").write_bytes(Path(vectors_file).read_bytes())
        model = tmp_path / "pipe.json"
        monkeypatch.chdir(train_dir)
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", dataset_file,
            "--vectors", "vectors.txt", "-o", str(model),
        )
        assert code == 0
        stripped = tmp_path / "in.txt"
        stripped.write_text("nwanyi ziri akwa oma\n", encoding="utf-8")
        out_file = tmp_path / "restored.txt"
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "restore", "--model", str(model),
            "--in", str(stripped), "--out", str(out_file),
        )
        assert code == 0, err
        assert out_file.read_text(encoding="utf-8").strip()

    def train_emb_on_a_copy(self, capsys, tmp_path, dataset_file, vectors_file):
        vectors = tmp_path / "copy.vec"
        vectors.write_bytes(Path(vectors_file).read_bytes())
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", dataset_file,
            "--vectors", str(vectors), "-o", str(model),
        )
        assert code == 0
        return model, vectors

    @pytest.mark.parametrize("swap", ["dim", "words", "bytes", "sha256"])
    def test_a_vectors_file_swapped_after_training_exits_two(
        self, capsys, tmp_path, dataset_file, vectors_file, swap
    ):
        # Each swap differs from the trained file first in the field it names,
        # in the order the loader compares them: dim, words, bytes, sha256.
        model, vectors = self.train_emb_on_a_copy(capsys, tmp_path, dataset_file, vectors_file)
        trained = embed.load_vectors(vectors)
        words = dict(trained.vectors)
        if swap == "dim":
            embed.save_vectors(embed.EmbeddingModel(3, {w: v[:3] for w, v in words.items()}), vectors)
        elif swap == "words":
            embed.save_vectors(embed.EmbeddingModel(4, {**words, "extra": words["oma"]}), vectors)
        elif swap == "bytes":
            vectors.write_bytes(vectors.read_bytes() + b"\n")
        else:
            words["oma"], words["nwa"] = words["nwa"], words["oma"]
            embed.save_vectors(embed.EmbeddingModel(4, words), vectors)
            assert vectors.stat().st_size == Path(vectors_file).stat().st_size
        out = tmp_path / "restored.txt"
        code, stdout, err = run(capsys, "restore", "--model", str(model), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"diacritize: data error: {vectors}: not the vectors file the pipeline was trained with: {swap} ")
        assert not out.exists()

    def test_a_pipeline_without_a_vectors_fingerprint_still_loads(
        self, capsys, tmp_path, dataset_file, vectors_file
    ):
        model, _ = self.train_emb_on_a_copy(capsys, tmp_path, dataset_file, vectors_file)
        spec = json.loads(model.read_text(encoding="utf-8"))
        assert set(spec["restorer"].pop("vectors_fingerprint")) == {"bytes", "dim", "words", "sha256"}
        older = tmp_path / "older.json"
        older.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
        stripped = tmp_path / "in.txt"
        stripped.write_text("nwanyi ziri akwa oma\nogè di ya\n", encoding="utf-8")
        outs = []
        for pipe in (model, older):
            out = tmp_path / f"{pipe.stem}.txt"
            assert run(capsys, "restore", "--model", str(pipe), "--in", str(stripped), "--out", str(out))[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_model_file_is_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "restore", "--model", str(tmp_path / "nope.json"))
        assert code == 2

    def test_enhanced_emb_restore_logs_one_stderr_line(self, capsys, tmp_path, dataset_file, vectors_file):
        # Most variants of the dataset have no vector, so loading enhances with
        # skips. A fresh process writes warnings through logging's last-resort
        # handler, which pytest's own root handlers would stand in for here.
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", dataset_file,
            "--vectors", vectors_file, "--scheme", "tweak2", "-o", str(model),
        )
        assert code == 0
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "diacritize.cli", "restore", "--model", str(model)],
            input="nwanyi ziri akwa oma\n".encode(), capture_output=True, env=env,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.decode().splitlines()) == 1
        err = proc.stderr.decode().splitlines()
        assert len(err) == 1 and "skipped" in err[0], err


class TestEval:
    def test_cv_report(self, capsys, tmp_path, dataset_file):
        report = tmp_path / "report.json"
        tsv = tmp_path / "cmp.tsv"
        code, out, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            "--restorer", "ngram:1", "--restorer", "ngram:2",
            "-k", "2", "--report", str(report), "--tsv", str(tsv),
        )
        assert code == 0
        assert "ngram:1" in out and "ngram:2" in out
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert set(payload) == {"ngram:1", "ngram:2"}
        assert "akwa" in payload["ngram:1"]["per_wordkey"]
        assert "folds" in payload["ngram:1"]
        header = tsv.read_text(encoding="utf-8").splitlines()[0]
        assert header.split("\t")[:2] == ["wordkey", "count"]
        assert sha256(tsv) == CV_TSV_SHA

    def test_cv_clf_and_emb(self, capsys, tmp_path, dataset_file, vectors_file):
        code, out, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            "--restorer", "clf:multinomial_nb", "--restorer", "emb:basic",
            "--vectors", vectors_file, "-k", "2",
        )
        assert code == 0
        assert "clf:multinomial_nb" in out and "emb:basic" in out

    @pytest.mark.parametrize(
        "restorers, loads",
        [(["clf:logistic", "emb:basic"], 0), (["ngram:2"], 1), (["emb:tweak1"], 1)],
    )
    def test_corpus_read_only_when_a_restorer_needs_it(
        self, capsys, tmp_path, dataset_file, vectors_file, monkeypatch, restorers, loads
    ):
        calls = []
        real = corpus.load_corpus
        monkeypatch.setattr(corpus, "load_corpus", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        flags = [f for spec in restorers for f in ("--restorer", spec)]
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            "--vectors", vectors_file, "-k", "3", *flags,
        )
        assert code == 0
        assert len(calls) == loads

    @pytest.mark.parametrize("restorers, loads", [(["ngram:2"], 0), (["clf:logistic"], 0), (["emb:basic"], 1)])
    def test_vectors_read_only_when_an_emb_restorer_needs_them(
        self, capsys, tmp_path, dataset_file, vectors_file, monkeypatch, restorers, loads
    ):
        calls = []
        real = embed.load_vectors
        monkeypatch.setattr(embed, "load_vectors", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        flags = [f for spec in restorers for f in ("--restorer", spec)]
        vectors = vectors_file if loads else str(tmp_path / "nonexistent.vec")
        code, _, err = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            "--vectors", vectors, "-k", "2", *flags,
        )
        assert (code, err) == (0, "")
        assert len(calls) == loads

    @pytest.mark.parametrize("restorers", [["clf:logistic"], ["clf:multinomial_nb", "emb:basic"]])
    def test_cv_needs_no_corpus_when_no_restorer_reads_it(
        self, capsys, tmp_path, dataset_file, vectors_file, restorers
    ):
        flags = ["--vectors", vectors_file, "-k", "3", *(f for spec in restorers for f in ("--restorer", spec))]
        reports = {}
        for corpus_flags in ([], ["--corpus", FIXTURE]):
            report = tmp_path / f"report{len(corpus_flags)}.json"
            code, out, err = run(
                capsys, "eval", "cv", "--dataset", dataset_file, *corpus_flags, *flags, "--report", str(report)
            )
            assert (code, err) == (0, "")
            reports[len(corpus_flags)] = (out, report.read_bytes())
        assert reports[0] == reports[2]

    @pytest.mark.parametrize("restorers", [["ngram:2"], ["emb:tweak1"], ["clf:logistic", "ngram:1"]])
    def test_cv_without_corpus_exits_two_when_a_restorer_reads_it(
        self, capsys, tmp_path, dataset_file, vectors_file, restorers
    ):
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "eval", "cv", "--dataset", dataset_file, "--vectors", vectors_file,
            *(f for spec in restorers for f in ("--restorer", spec)), "--report", str(report),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "--corpus" in err
        assert not report.exists()

    def test_bad_restorer_spec(self, capsys, dataset_file):
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            "--restorer", "magic:9",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--restorer", "ngram:x"],
            ["--restorer", "ngram:0"],
            ["--restorer", "ngram:-2"],
            ["--restorer", f"ngram:{ngram.MAX_ORDER + 1}"],
            ["--restorer", "ngram:2", "-k", "1"],
            ["--restorer", "clf:logistic", "-k", "0"],
            ["--restorer", "clf:bogus"],
            ["--restorer", "emb:bogus"],
            [],
            ["--restorer", "emb:basic"],  # with no --vectors
        ],
    )
    def test_bad_cv_arguments_exit_two_with_one_line(self, capsys, tmp_path, dataset_file, flags):
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
            *flags, "--report", str(report),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("diacritize: data error: ")
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "ngram", FIXTURE, "-o", "{out}"],
            ["train", "clf", FIXTURE, "-o", "{out}"],
            ["eval", "cv", "--restorer", "clf:logistic", "-k", "3", "--report", "{out}"],
        ],
    )
    def test_a_dataset_with_no_sets_exits_two(self, capsys, tmp_path, argv):
        dataset, out = tmp_path / "none.jsonl", tmp_path / "out.json"
        dataset.write_text("", encoding="utf-8")
        argv = [a.format(out=out) for a in argv]
        code, stdout, err = run(capsys, *argv, "--dataset", str(dataset))
        assert (code, stdout) == (2, "")
        assert err == f"diacritize: data error: dataset {dataset} holds no ambiguous sets\n"
        assert not out.exists()

    def test_fulltext(self, capsys, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("ákwa oma di\nulo nke ya\n", encoding="utf-8")
        restored = tmp_path / "restored.txt"
        restored.write_text("akwa oma di\nulo nke ya\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "fulltext", "--restored", str(restored), "--gold", str(gold)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["accuracy"] == pytest.approx(5 / 6)

    def test_fulltext_mismatch_is_data_error(self, capsys, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("a b\n", encoding="utf-8")
        restored = tmp_path / "r.txt"
        restored.write_text("a b c\n", encoding="utf-8")
        code, _, err = run(
            capsys, "eval", "fulltext", "--restored", str(restored), "--gold", str(gold)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gold", "{text}"], "eval fulltext requires --restored and --gold"),
            (["--restored", "{text}"], "eval fulltext requires --restored and --gold"),
            (["--restored", "{text}", "--gold", "{text}"], "no word tokens to score"),
        ],
    )
    def test_fulltext_with_nothing_to_score_exits_two(self, capsys, tmp_path, flags, message):
        text, report = tmp_path / "punct.txt", tmp_path / "report.json"
        text.write_text(". , !\n? 7\n", encoding="utf-8")
        flags = [f.format(text=text) for f in flags]
        code, stdout, err = run(capsys, "eval", "fulltext", *flags, "--report", str(report))
        assert (code, stdout) == (2, "")
        assert err == f"diacritize: data error: {message}\n"
        assert not report.exists()


class TestFlagRanges:
    """A --window, --top-n, --list-len, n-gram order or `train clf` hyperparameter that no command
    accepts exits 2 before any work."""

    def check_rejected(self, capsys, tmp_path, argv, out_flag):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, out_flag, str(out))
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("diacritize: data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("window", ["0", "4", "-1"])
    @pytest.mark.parametrize("family", ["clf", "emb"])
    def test_train_window(self, capsys, tmp_path, dataset_file, vectors_file, family, window):
        vectors = ["--vectors", vectors_file] if family == "emb" else []
        argv = ["train", family, FIXTURE, "--dataset", dataset_file, *vectors, "--window", window]
        self.check_rejected(capsys, tmp_path, argv, "-o")

    @pytest.mark.parametrize("window", ["0", "4", "-1"])
    @pytest.mark.parametrize("restorer", ["clf:logistic", "emb:basic"])
    def test_cv_window(self, capsys, tmp_path, dataset_file, vectors_file, restorer, window):
        argv = ["eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file, "--vectors", vectors_file,
                "--restorer", restorer, "-k", "3", "--window", window]
        self.check_rejected(capsys, tmp_path, argv, "--report")

    def test_window_zero_is_not_the_default(self, capsys, tmp_path):
        default, zero = tmp_path / "default.json", tmp_path / "zero.json"
        train = ["train", "clf", FIXTURE, "--dataset", str(GOLDEN), "-o"]
        assert run(capsys, *train, str(default))[0] == 0
        assert run(capsys, *train, str(zero), "--window", "0")[0] == 2
        assert sha256(default) == CLF_PIPELINE_SHA["logistic"]
        assert not zero.exists()

    @pytest.mark.parametrize("n", ["0", str(ngram.MAX_ORDER + 1), "2000"])
    def test_train_ngram_order(self, capsys, tmp_path, dataset_file, n):
        argv = ["train", "ngram", FIXTURE, "--dataset", dataset_file, "-n", n]
        self.check_rejected(capsys, tmp_path, argv, "-o")

    def test_train_ngram_takes_the_largest_order(self, capsys, tmp_path, dataset_file):
        out = tmp_path / "pipe.json"
        code, _, _ = run(capsys, "train", "ngram", FIXTURE, "--dataset", dataset_file,
                         "-n", str(ngram.MAX_ORDER), "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["restorer"]["n"] == ngram.MAX_ORDER

    @pytest.mark.parametrize("window", ["0", "4", "-1"])
    def test_enhance_window(self, capsys, tmp_path, dataset_file, vectors_file, window):
        argv = ["enhance", "--vectors", vectors_file, "--corpus", FIXTURE, "--dataset", dataset_file,
                "--window", window]
        self.check_rejected(capsys, tmp_path, argv, "-o")

    def test_enhance_accepts_an_odd_window(self, capsys, tmp_path, dataset_file, vectors_file):
        out = tmp_path / "out.vec"
        code, _, _ = run(capsys, "enhance", "--vectors", vectors_file, "--corpus", FIXTURE,
                         "--dataset", dataset_file, "--window", "3", "-o", str(out))
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "argv, out_flag",
        [
            (["train", "emb", FIXTURE, "--scheme", "tweak1"], "-o"),
            (["enhance", "--corpus", FIXTURE], "-o"),
            (["eval", "cv", "--corpus", FIXTURE, "--restorer", "emb:tweak1", "-k", "3"], "--report"),
        ],
    )
    def test_negative_top_n(self, capsys, tmp_path, dataset_file, vectors_file, argv, out_flag):
        argv = [*argv, "--dataset", dataset_file, "--vectors", vectors_file, "--top-n", "-1"]
        self.check_rejected(capsys, tmp_path, argv, out_flag)

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--lr", "nan", "learning_rate must be null or a finite number"),
         ("--lr", "inf", "learning_rate must be null or a finite number"),
         ("--l2", "inf", "l2 must be a finite number"), ("--l2", "nan", "l2 must be a finite number"),
         ("--epochs", "0", "epochs must be an integer >= 1"), ("--epochs", "-1", "epochs must be an integer >= 1"),
         ("--lr", "0", "learning_rate must be null or a number > 0"),
         ("--lr", "-5", "learning_rate must be null or a number > 0"),
         ("--l2", "-1000", "l2 must be a number >= 0"), ("--l2", "-0.5", "l2 must be a number >= 0")],
    )
    def test_train_clf_hyper(self, capsys, tmp_path, flag, value, rule):
        # the loader's rule, checked before the corpus or the dataset is opened
        out = tmp_path / "pipe.json"
        code, stdout, err = run(capsys, "train", "clf", str(tmp_path / "no-corpus.txt"),
                                "--dataset", str(tmp_path / "no-sets.jsonl"), flag, value, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"diacritize: data error: classifier hyper {rule}, got ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--kind", "perceptron", "--lr", "1.7e308"], "{out}: not written: the pipeline holds an infinite or NaN number"),
         (["--lr", "1e300"], "logistic learning rate 1e+300 times l2 0.0001 must be below 1"),
         (["--kind", "linear_svm", "--l2", "100"], "linear_svm learning rate 0.01 times l2 100.0 must be below 1"),
         # The epoch orders' table is refused before numpy allocates it, and before anything trains.
         (["--epochs", "1000000000000000000"],
          "1000000000000000000 epochs are too many: their example orders do not fit in memory"),
         (["--kind", "perceptron", "--epochs", "1000000000000000000"],
          "1000000000000000000 epochs are too many: their example orders do not fit in memory")],
    )
    def test_train_clf_that_cannot_train_a_finite_model_exits_three(self, capsys, tmp_path, flags, message):
        out = tmp_path / "pipe.json"
        code, stdout, err = run(capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN), *flags, "-o", str(out))
        assert (code, stdout) == (3, "")
        assert err == f"diacritize: model error: {message.format(out=out)}\n"
        assert not out.exists()

    def test_train_clf_takes_no_l2(self, capsys, tmp_path):
        out = tmp_path / "pipe.json"
        code, _, _ = run(capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN), "--l2", "0", "-o", str(out))
        assert code == 0
        assert run(capsys, "restore", "--model", str(out), "--in", FIXTURE)[0] == 0

    def test_train_clf_takes_one_epoch(self, capsys, tmp_path):
        out = tmp_path / "pipe.json"
        code, _, _ = run(capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN), "--epochs", "1", "-o", str(out))
        assert code == 0
        assert run(capsys, "restore", "--model", str(out), "--in", FIXTURE)[0] == 0

    @pytest.mark.parametrize("list_len", ["0", "-3"])
    def test_analogy_list_len(self, capsys, tmp_path, vectors_file, list_len):
        quads = tmp_path / "an.tsv"
        quads.write_text("ákwà\tákwá\tógè\tògè\n", encoding="utf-8")
        code, stdout, err = run(capsys, "intrinsic", "analogy", "--vectors", vectors_file, "--data", str(quads),
                                "--list-len", list_len)
        assert (code, stdout) == (2, "")
        assert err == f"diacritize: data error: --list-len must be >= 1, got {list_len}\n"


class TestGoldenEmbeddingCvBytes:
    def test_cowords_are_counted_once_for_every_tweak(self, capsys, tmp_path, vectors_file, monkeypatch):
        calls = []
        real = embed.build_cowords
        monkeypatch.setattr(embed, "build_cowords", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN),
            "--restorer", "emb:tweak1", "--restorer", "emb:tweak2",
            "--vectors", vectors_file, "-k", "3", "--report", str(report),
        )
        assert code == 0
        assert sha256(report) == CV_TWEAK_REPORT_SHA
        assert calls == [1]

    @pytest.mark.parametrize("scheme", sorted(CV_EMB_REPORT_SHA))
    def test_cv_report_of_one_scheme(self, capsys, tmp_path, vectors_file, scheme):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN),
            "--restorer", f"emb:{scheme}", "--vectors", vectors_file, "-k", "3", "--report", str(report),
        )
        assert code == 0
        assert sha256(report) == CV_EMB_REPORT_SHA[scheme]


class TestGoldenClassifierBytes:
    @pytest.mark.parametrize("kind", sorted(CLF_PIPELINE_SHA))
    def test_train_clf_pipeline(self, capsys, tmp_path, kind):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN),
            "--kind", kind, "-o", str(model),
        )
        assert code == 0
        assert sha256(model) == CLF_PIPELINE_SHA[kind]

    def cv_report(self, capsys, tmp_path, restorer="clf:logistic"):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN),
            "--restorer", restorer, "-k", "3", "--report", str(report),
        )
        assert code == 0
        return sha256(report)

    def test_cv_clf_report(self, capsys, tmp_path):
        assert self.cv_report(capsys, tmp_path) == CV_CLF_REPORT_SHA

    def test_cv_nb_report(self, capsys, tmp_path):
        assert self.cv_report(capsys, tmp_path, "clf:multinomial_nb") == CV_NB_REPORT_SHA

    def test_train_clf_reads_no_ngram_counts(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ngram, "prepare", lambda *a, **kw: calls.append(1))
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN), "-o", str(model),
        )
        assert code == 0
        assert sha256(model) == CLF_PIPELINE_SHA["logistic"]
        assert calls == []

    def test_cv_extracts_each_window_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = classify.extract_window

        def counted(tokens, target_index, n=9):
            calls.append((tokens, target_index))
            return real(tokens, target_index, n)

        monkeypatch.setattr(classify, "extract_window", counted)
        assert self.cv_report(capsys, tmp_path) == CV_CLF_REPORT_SHA
        # one window per instance, for all its training folds and its test fold
        assert len(calls) == sum(len(s.instances) for s in datasetgen.read_dataset(GOLDEN))


def serial_cv_fitter(kind, window=9, hyper=None):
    """The per-fold reference: each fold vectorizes its windows with Vectorizer.fit and
    transform, trains alone through train_classifier, and predicts by the plain
    definition, predict over the transformed window."""

    def fit(train):
        windows = [classify.extract_window(i.tokens, i.target, window) for i in train]
        vectorizer = classify.Vectorizer.fit(windows)
        X = [vectorizer.transform(w) for w in windows]
        model = classify.train_classifier(kind, X, [i.label for i in train], len(vectorizer.vocabulary), hyper)
        clf = classify.TextClassifier(window, vectorizer, model)
        return lambda inst: classify.predict(
            clf.model, clf.vectorizer.transform(classify.extract_window(inst.tokens, inst.target, window))
        )

    return fit


class TestBatchedClassifierCv:
    """`eval cv` queues the folds of a group of sets and trains them in one call, with each fold's bits."""

    @staticmethod
    def dataset(tmp_path):
        """Five 3-variant sets that enter the lockstep head together, a set with a
        single-class fold, and one too small to fold."""
        rng = random.Random(5)
        context = ["ala", "ebe", "ife", "oke", "ulo", "nne", "ego", "ama", "obi", "uwa"]
        sets = []
        for key in ("ba", "da", "ga", "ka", "ma"):
            forms = [key[0] + m for m in ("á", "à", "a")]
            sets.append((key, [(form, 4) for form in forms]))
        sets += [("na", [("ná", 5), ("nà", 1)]), ("ta", [("tá", 1), ("tà", 1)])]
        records = []
        for key, variants in sets:
            records.append({"wordkey": key, "variants": [list(v) for v in variants]})
            for c, (form, count) in enumerate(variants):
                for _ in range(count):
                    tokens = [rng.choice(context[c * 3 : c * 3 + 4]) for _ in range(3)] + [key, rng.choice(context)]
                    records.append({"wordkey": key, "tokens": tokens, "target": 3, "label": form, "line": len(records)})
        path = tmp_path / "batched.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        return path

    @staticmethod
    def cv(capsys, dataset, report, kind="logistic"):
        code, _, _ = run(
            capsys, "eval", "cv", "--dataset", str(dataset), "--restorer", f"clf:{kind}",
            "-k", "3", "--report", str(report),
        )
        assert code == 0
        return report.read_bytes()

    @staticmethod
    def recorded(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize("kind", [classify.LOGISTIC, classify.LINEAR_SVM])
    def test_one_call_enters_the_head_and_matches_serial_folds(self, capsys, tmp_path, monkeypatch, kind):
        dataset = self.dataset(tmp_path)
        heads = self.recorded(monkeypatch, classify, "_lockstep_head")
        trainings = self.recorded(monkeypatch, classify, "_train_models")
        real_crossval, results = evaluate.crossval, []

        def recorded_crossval(*a, **kw):
            result = real_crossval(*a, **kw)
            results.extend(result if isinstance(result, list) else [result])
            return result

        monkeypatch.setattr(evaluate, "crossval", recorded_crossval)
        batched = self.cv(capsys, dataset, tmp_path / "batched.json", kind)
        assert len(trainings) == 1 and len(heads) == 1
        batched_results, results[:] = results[:], []

        monkeypatch.setattr(classify, "cv_fitter", serial_cv_fitter)
        assert self.cv(capsys, dataset, tmp_path / "serial.json", kind) == batched
        assert len(results) == len(batched_results) == 7
        for got, want in zip(batched_results, results):
            assert (got.matrix.classes, got.matrix.cells) == (want.matrix.classes, want.matrix.cells)
            assert got.fold_accuracies == want.fold_accuracies
            assert (got.failed_folds, got.warnings) == (want.failed_folds, want.warnings)
        assert batched_results[5].failed_folds and "single class" in batched_results[5].warnings[0]
        assert "evaluated train-on-all" in batched_results[6].warnings[0]

    @pytest.mark.parametrize("rows, calls", [(1, 4), (20, 3)])
    def test_a_small_group_bound_trains_in_more_calls_with_the_same_bytes(
        self, capsys, tmp_path, monkeypatch, rows, calls
    ):
        trainings = self.recorded(monkeypatch, classify, "_train_models")
        assert hashlib.sha256(self.cv(capsys, GOLDEN, tmp_path / "one.json")).hexdigest() == CV_CLF_REPORT_SHA
        assert len(trainings) == 1
        trainings.clear()
        monkeypatch.setattr(classify, "_CV_BATCH_ROWS", rows)
        assert hashlib.sha256(self.cv(capsys, GOLDEN, tmp_path / "many.json")).hexdigest() == CV_CLF_REPORT_SHA
        assert len(trainings) == calls

    def test_an_error_inside_the_batch_is_no_failed_fold(self, capsys, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("batch broke")

        monkeypatch.setattr(classify, "_train_models", broken)
        report = tmp_path / "report.json"
        with pytest.raises(RuntimeError, match="batch broke"):
            main(["eval", "cv", "--dataset", str(GOLDEN), "--restorer", "clf:logistic", "-k", "3",
                  "--report", str(report)])
        capsys.readouterr()
        assert not report.exists()

    @staticmethod
    def counted_fitter(monkeypatch, raising):
        """Wrap classify.cv_fitter so its fit records each call's training instances, and the
        calls numbered in raising raise what raising maps them to."""
        calls = []
        real = classify.cv_fitter

        def fitter(kind, window=9, hyper=None):
            fit = real(kind, window=window, hyper=hyper)

            def counted(train):
                calls.append([(i.line, i.target) for i in train])
                if len(calls) - 1 in raising:
                    raise raising[len(calls) - 1]
                return fit(train)

            return counted

        monkeypatch.setattr(classify, "cv_fitter", fitter)
        return calls

    def test_each_planned_fold_is_fit_once(self, capsys, tmp_path, monkeypatch):
        plan = [
            (aset.wordkey, fold_no, [(i.line, i.target) for i in train])
            for aset in datasetgen.read_dataset(GOLDEN)
            for fold_no, train, _ in evaluate.fold_plan(aset, 3, 0)[0]
        ]
        report = tmp_path / "report.json"
        raising = {}
        calls = self.counted_fitter(monkeypatch, raising)

        def failed_folds():
            calls.clear()
            self.cv(capsys, GOLDEN, report)
            assert calls == [train for *_, train in plan]
            folds = json.loads(report.read_text(encoding="utf-8"))["clf:logistic"]["folds"]
            return {key: fold["failed_folds"] for key, fold in folds.items()}, folds

        # Single-class folds of the golden dataset fail on their own.
        untrainable, _ = failed_folds()
        assert sha256(report) == CV_CLF_REPORT_SHA
        raising.update(
            (n, ModelError(f"no fit {n}"))
            for n, (wordkey, fold_no, _) in enumerate(plan)
            if fold_no is not None and fold_no not in untrainable[wordkey] and n % 3 == 1
        )
        assert len(raising) > 1
        failed, folds = failed_folds()
        for n in raising:
            wordkey, fold_no, _ = plan[n]
            untrainable[wordkey].append(fold_no)
            assert folds[wordkey]["warnings"].count(f"{wordkey} fold {fold_no}: no fit {n}") == 1
        assert failed == {key: sorted(fold_nos) for key, fold_nos in untrainable.items()}

    def test_a_runtime_error_from_a_fit_is_no_failed_fold(self, capsys, tmp_path, monkeypatch):
        self.counted_fitter(monkeypatch, {4: RuntimeError("fit broke")})
        report = tmp_path / "report.json"
        with pytest.raises(RuntimeError, match="fit broke"):
            main(["eval", "cv", "--dataset", str(GOLDEN), "--restorer", "clf:logistic", "-k", "3",
                  "--report", str(report)])
        capsys.readouterr()
        assert not report.exists()

    def test_a_second_header_for_a_wordkey_exits_two(self, capsys, tmp_path):
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        lines.insert(6, lines[0])  # the akwa header again, after its fifth instance
        dataset = tmp_path / "twice.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "cv", "--dataset", str(dataset), "--restorer", "clf:logistic", "-k", "3")
        assert code == 2
        assert f"{dataset}:7: second header for wordkey 'akwa'" in err


# One restorer of each family and its report's pin (`eval cv -k 3` on the fixture
# corpus, the golden dataset and the `vectors_file` vectors).
CV_FAMILY_REPORT_SHA = {
    "clf:logistic": CV_CLF_REPORT_SHA,
    "ngram:2": CV_NGRAM_REPORT_SHA[("ngram:2",)],
    "emb:basic": CV_EMB_REPORT_SHA["basic"],
}


@pytest.mark.parametrize("restorer", sorted(CV_FAMILY_REPORT_SHA))
def test_cv_plans_each_set_once(capsys, tmp_path, vectors_file, monkeypatch, restorer):
    calls = []
    real = evaluate.stratified_folds
    monkeypatch.setattr(evaluate, "stratified_folds", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN), "--vectors", vectors_file,
        "--restorer", restorer, "-k", "3", "--report", str(report),
    )
    assert code == 0
    assert sha256(report) == CV_FAMILY_REPORT_SHA[restorer]
    assert len(calls) == len(datasetgen.read_dataset(GOLDEN))


class TestGoldenNgramPipelineBytes:
    @pytest.mark.parametrize("n", sorted(NGRAM_PIPELINE_SHA))
    def test_train_ngram_pipeline(self, capsys, tmp_path, n):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "ngram", FIXTURE, "--dataset", str(GOLDEN), "-n", str(n), "-o", str(model),
        )
        assert code == 0
        assert sha256(model) == NGRAM_PIPELINE_SHA[n]


class TestGoldenNgramCvBytes:
    def cv_report(self, capsys, tmp_path, restorers) -> str:
        report = tmp_path / "report.json"
        flags = [f for spec in restorers for f in ("--restorer", spec)]
        code, _, _ = run(
            capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN),
            *flags, "-k", "3", "--report", str(report),
        )
        assert code == 0
        return sha256(report)

    @pytest.mark.parametrize("restorers", sorted(CV_NGRAM_REPORT_SHA))
    def test_cv_ngram_report(self, capsys, tmp_path, restorers):
        assert self.cv_report(capsys, tmp_path, restorers) == CV_NGRAM_REPORT_SHA[restorers]

    def test_one_scan_and_one_count_at_the_largest_order(self, capsys, tmp_path, monkeypatch):
        scans, orders = [], []
        find, count = ngram.find_occurrences, ngram.train_from_occurrences

        def counted_find(*args, **kwargs):
            scans.append(1)
            return find(*args, **kwargs)

        def counted_count(prepared, occurrences, max_n, *args, **kwargs):
            orders.append(max_n)
            return count(prepared, occurrences, max_n, *args, **kwargs)

        monkeypatch.setattr(ngram, "find_occurrences", counted_find)
        monkeypatch.setattr(ngram, "train_from_occurrences", counted_count)
        restorers = ("ngram:1", "ngram:5")
        assert self.cv_report(capsys, tmp_path, restorers) == CV_NGRAM_REPORT_SHA[restorers]
        assert len(datasetgen.read_dataset(GOLDEN)) >= 2
        # every wordkey and both orders read the same one count, made at N=5
        assert scans == [1]
        assert orders == [5]


class TestGoldenRestoreBytes:
    @pytest.fixture()
    def stripped(self, tmp_path):
        path = tmp_path / "stripped.txt"
        text = Path(FIXTURE).read_text(encoding="utf-8")
        path.write_text(strip_diacritics(text), encoding="utf-8")
        return path

    def restore(self, capsys, model, stripped) -> str:
        out = stripped.with_name("restored.txt")
        code, _, _ = run(capsys, "restore", "--model", str(model), "--in", str(stripped), "--out", str(out))
        assert code == 0
        return sha256(out)

    @pytest.mark.parametrize("family, flags", [("ngram", ["-n", "5"]), ("clf", [])])
    def test_restore(self, capsys, tmp_path, stripped, family, flags):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", family, FIXTURE, "--dataset", str(GOLDEN), *flags, "-o", str(model),
        )
        assert code == 0
        assert self.restore(capsys, model, stripped) == RESTORED_SHA[family]

    @pytest.mark.parametrize("kind", ["perceptron", "linear_svm", "multinomial_nb"])
    def test_restore_clf_kind(self, capsys, tmp_path, stripped, kind):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "clf", FIXTURE, "--dataset", str(GOLDEN), "--kind", kind, "-o", str(model),
        )
        assert code == 0
        assert self.restore(capsys, model, stripped) == RESTORED_SHA[f"clf:{kind}"]

    @pytest.mark.parametrize("family, flags", [("ngram", ["-n", "5"]), ("clf", [])])
    def test_string_caches_cold_or_warm_give_the_same_bytes(self, capsys, tmp_path, stripped, family, flags):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", family, FIXTURE, "--dataset", str(GOLDEN), *flags, "-o", str(model),
        )
        assert code == 0
        for cache in (corpus._chunk_tokens, corpus.surface_token, corpus.token_kind, corpus.strip_diacritics):
            cache.cache_clear()
        assert self.restore(capsys, model, stripped) == RESTORED_SHA[family]
        assert corpus._chunk_tokens.cache_info().currsize > 0
        assert self.restore(capsys, model, stripped) == RESTORED_SHA[family]
        assert corpus._chunk_tokens.cache_info().hits > 0

    @pytest.mark.parametrize("scheme", embed.SCHEMES)
    def test_restore_emb_scheme(self, capsys, tmp_path, stripped, vectors_file, scheme):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "emb", FIXTURE, "--dataset", str(GOLDEN), "--vectors", vectors_file,
            "--scheme", scheme, "-o", str(model),
        )
        assert code == 0
        assert self.restore(capsys, model, stripped) == RESTORED_EMB_SHA[scheme]

    def test_older_ngram_layout_restores_identically(self, capsys, tmp_path, stripped):
        assert self.restore(capsys, INNER_MAPS_PIPELINE, stripped) == RESTORED_SHA["ngram"]

    def test_older_ngram_layout_differs_only_by_the_model_copies(self, capsys, tmp_path):
        model = tmp_path / "pipe.json"
        code, _, _ = run(
            capsys, "train", "ngram", FIXTURE, "--dataset", str(GOLDEN), "-n", "5", "-o", str(model),
        )
        assert code == 0
        older = json.loads(INNER_MAPS_PIPELINE.read_text(encoding="utf-8"))
        inner = older["restorer"]["model"]
        assert inner.pop("variant_index") == {
            k: sorted(v for v, _ in vs) for k, vs in older["variant_index"].items()
        }
        inner.pop("unambiguous")
        inner.pop("lowercase")
        assert json.loads(model.read_text(encoding="utf-8")) == older


class TestProjectEnhance:
    def test_project_command(self, capsys, tmp_path):
        src = tmp_path / "src.vec"
        src.write_text("2 2\neggs 1.0 0.0\ncloth 0.0 1.0\n", encoding="utf-8")
        align = tmp_path / "align.tsv"
        align.write_text(
            "àkwá\teggs\t7\nákwà\tcloth\t3\nákwà\teggs\t1\n",
            encoding="utf-8",
        )
        out = tmp_path / "proj.vec"
        code, _, _ = run(capsys, "project", "--vectors", str(src), "--align", str(align), "-o", str(out))
        assert code == 0
        model = embed.load_vectors(out)
        assert np.allclose(model.vectors["àkwá"], [1.0, 0.0])
        assert np.allclose(model.vectors["ákwà"], [0.25, 0.75])
        assert sha256(out) == PROJECT_SHA

    def test_enhance_command(self, capsys, tmp_path, dataset_file, vectors_file):
        out = tmp_path / "enh.vec"
        code, _, _ = run(
            capsys, "enhance", "--vectors", vectors_file, "--corpus", FIXTURE,
            "--dataset", dataset_file, "--scheme", "tweak3", "-o", str(out),
        )
        assert code == 0
        before = embed.load_vectors(vectors_file)
        after = embed.load_vectors(out)
        assert set(after.vectors) == set(before.vectors)
        assert not np.array_equal(
            after.vectors["ákwà"], before.vectors["ákwà"]
        )
        assert sha256(out) == ENHANCE_SHA


class TestIntrinsic:
    def test_all_three_tasks(self, capsys, tmp_path):
        vec = tmp_path / "v.vec"
        vec.write_text(
            "5 2\na 1.0 0.0\nb 0.9 0.1\nc 0.8 0.2\nz 0.0 1.0\nq -1.0 0.0\n",
            encoding="utf-8",
        )
        odd = tmp_path / "odd.tsv"
        odd.write_text("a\tb\tz\tc\tz\n", encoding="utf-8")
        code, out, _ = run(capsys, "intrinsic", "oddword", "--vectors", str(vec), "--data", str(odd))
        assert code == 0 and "1.0000" in out

        quads = tmp_path / "an.tsv"
        quads.write_text("a\tb\tb\tc\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "intrinsic", "analogy", "--vectors", str(vec), "--data", str(quads), "--list-len", "3"
        )
        assert code == 0 and "mrr" in out and "(list length 3)" in out

        ws = tmp_path / "ws.tsv"
        ws.write_text("a\tb\t9.0\na\tc\t7.0\na\tz\t1.0\n", encoding="utf-8")
        code, out, _ = run(capsys, "intrinsic", "wordsim", "--vectors", str(vec), "--data", str(ws))
        assert code == 0 and "pearson" in out

    @pytest.mark.parametrize(
        "task, rows, message",
        [
            ("analogy", ["a\tb\tc\tnone", "a\tnone\tc\td"], "no scoreable analogy quads"),
            ("wordsim", ["a\tb\t9.0", "a\tnone\t1.0"], "only 1 usable pairs; need at least 2"),
            ("wordsim", ["a\tb\t5.0", "a\tz\t5.0"], "zero variance in similarity scores"),
            ("wordsim", ["a\tb\thigh"], "{data}:1: score must be numeric"),
            ("wordsim", ["a\tb\t9.0", "a\tz\tnan"], "{data}:2: score must be finite"),
            ("wordsim", ["a\tb\t1e999", "a\tz\t1.0"], "{data}:1: score must be finite"),
            ("wordsim", ["a\tb\t9.0", "a\tz\t1.0", "b\tz\t-inf"], "{data}:3: score must be finite"),
            ("wordsim", ["a\tb\tINF"], "{data}:1: score must be finite"),
        ],
    )
    def test_data_with_nothing_to_score_exits_2(self, capsys, tmp_path, task, rows, message):
        vec, data = tmp_path / "v.vec", tmp_path / "data.tsv"
        vec.write_text("4 2\na 1.0 0.0\nb 0.9 0.1\nz 0.0 1.0\nq -1.0 0.0\n", encoding="utf-8")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "intrinsic", task, "--vectors", str(vec), "--data", str(data))
        assert (code, out) == (2, "")
        assert err == f"diacritize: data error: {message.format(data=data)}\n"

    def test_analogy_over_no_vectors_exits_2(self, capsys, tmp_path):
        vec = tmp_path / "empty.vec"
        vec.write_text("0 3\n", encoding="utf-8")
        quads = tmp_path / "an.tsv"
        quads.write_text("a\tb\tc\td\n", encoding="utf-8")
        code, out, err = run(capsys, "intrinsic", "analogy", "--vectors", str(vec), "--data", str(quads))
        assert (code, out) == (2, "")
        assert err == "diacritize: data error: no word vectors to rank\n"


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # String hashing is salted per process, so each seed runs in a process of
        # its own, and nothing that reaches an output may follow set order.
        script = (
            "import json, sys\n"
            "from diacritize.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        outputs = []
        for seed in ("1", "2"):
            work = tmp_path / seed
            work.mkdir()
            commands = [
                ["dataset", FIXTURE, "-o", "sets.jsonl"],
                ["train", "ngram", FIXTURE, "--dataset", "sets.jsonl", "-n", "3", "-o", "ngram.json"],
                ["stats", FIXTURE],
                ["stats", FIXTURE, "--lowercase"],
            ]
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands)], capture_output=True, env=env, cwd=work,
            )
            assert proc.returncode == 0, proc.stderr
            files = [(work / name).read_bytes() for name in ("sets.jsonl", "ngram.json")]
            outputs.append((proc.stdout, proc.stderr, *files))
        assert outputs[0] == outputs[1]
        assert b'"wordkey"' in outputs[0][2] and outputs[0][0]


class TestRestoreOutput:
    """`restore --out` replaces its file only when the whole input restored."""

    @pytest.fixture()
    def model(self, tmp_path, capsys, dataset_file):
        path = tmp_path / "pipe.json"
        code, _, _ = run(capsys, "train", "ngram", FIXTURE, "--dataset", dataset_file, "-o", str(path))
        assert code == 0
        return str(path)

    def test_bad_input_leaves_existing_output_untouched(self, capsys, tmp_path, model):
        work = tmp_path / "work"
        work.mkdir()
        infile, out = work / "in.txt", work / "out.txt"
        first = b"nwanyi ziri akwa oma\n"
        infile.write_bytes(first + b"\xffoma\n")
        out.write_bytes(b"earlier output\n")
        code, _, err = run(capsys, "restore", "--model", model, "--in", str(infile), "--out", str(out))
        assert code == 2
        assert err == f"diacritize: data error: {infile}: invalid UTF-8 at byte offset {len(first)}\n"
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in work.iterdir()) == ["in.txt", "out.txt"]

    def test_success_replaces_output(self, capsys, tmp_path, model):
        infile, out = tmp_path / "in.txt", tmp_path / "out.txt"
        infile.write_text("nwanyi ziri akwa oma\n", encoding="utf-8")
        out.write_text("earlier output, longer than the restored line\n", encoding="utf-8")
        code, _, _ = run(capsys, "restore", "--model", model, "--in", str(infile), "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("nwanyị ")
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []

    def test_output_to_a_device(self, capsys, tmp_path, model):
        infile = tmp_path / "in.txt"
        infile.write_text("nwanyi ziri akwa oma\n", encoding="utf-8")
        code, _, _ = run(capsys, "restore", "--model", model, "--in", str(infile), "--out", "/dev/null")
        assert code == 0

    def test_bad_stdin_keeps_its_message(self, capsys, monkeypatch, model):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"oma\n\xff\n"), encoding="utf-8"))
        code, out, err = run(capsys, "restore", "--model", model)
        assert code == 2
        assert err.startswith("diacritize: data error: input is not valid UTF-8 (0xff")


class TestReplaceOnSuccess:
    """A `train -o` or `--report` that fails mid-write leaves an existing file as it was."""

    EARLIER = b"earlier output\n"

    def test_failed_train_leaves_existing_pipeline(self, tmp_path):
        out = tmp_path / "pipe.json"
        out.write_bytes(self.EARLIER)
        # model_payload returns what the JSON encoder cannot serialize, after the
        # routing maps are encoded.
        script = (
            "import sys\n"
            "from diacritize import cli, ngram\n"
            "ngram.model_payload = lambda model: object()\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ["train", "ngram", FIXTURE, "--dataset", str(GOLDEN), "-o", str(out)]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env)
        assert proc.returncode != 0
        assert b"TypeError" in proc.stderr
        assert out.read_bytes() == self.EARLIER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.json"]

    def test_unwritable_output_names_the_path_asked_for(self, capsys, tmp_path):
        out = tmp_path / "missing" / "pipe.json"
        code, _, err = run(capsys, "train", "ngram", FIXTURE, "--dataset", str(GOLDEN), "-o", str(out))
        assert code == 2
        assert err == f"diacritize: [Errno 2] No such file or directory: '{out}'\n"

    def test_failed_fulltext_report_leaves_existing_report(self, capsys, tmp_path, monkeypatch):
        real = evaluate.full_text_eval
        # line_errors is written to the report only, after the scores
        monkeypatch.setattr(
            evaluate, "full_text_eval", lambda *a: {**real(*a), "line_errors": [object()]}
        )
        report = tmp_path / "report.json"
        report.write_bytes(self.EARLIER)
        with pytest.raises(TypeError):
            main(["eval", "fulltext", "--restored", FIXTURE, "--gold", FIXTURE, "--report", str(report)])
        capsys.readouterr()
        assert report.read_bytes() == self.EARLIER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_failed_cv_report_leaves_existing_report(self, capsys, tmp_path, monkeypatch):
        real = evaluate.crossval

        def unserializable_warnings(*args, **kwargs):
            result = real(*args, **kwargs)
            result.warnings.append(object())
            return result

        monkeypatch.setattr(evaluate, "crossval", unserializable_warnings)
        report = tmp_path / "report.json"
        report.write_bytes(self.EARLIER)
        argv = ["eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN),
                "--restorer", "ngram:2", "-k", "3", "--report", str(report)]
        with pytest.raises(TypeError):
            main(argv)
        capsys.readouterr()
        assert report.read_bytes() == self.EARLIER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class _FullDisk:
    """A text file opened for writing whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, text):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class TestEveryOutputReplacedOnSuccess:
    """An output file whose write fails partway keeps its earlier bytes."""

    EARLIER = b"earlier output\n"

    @pytest.mark.parametrize(
        "argv, out_flag",
        [
            (["stats", FIXTURE], "--out"),
            (["dataset", FIXTURE], "-o"),
            (["project", "--vectors", "{vectors}", "--align", "{align}"], "-o"),
            (["enhance", "--vectors", "{vectors}", "--corpus", FIXTURE, "--dataset", str(GOLDEN)], "-o"),
            (["eval", "cv", "--corpus", FIXTURE, "--dataset", str(GOLDEN), "--restorer", "ngram:2",
              "-k", "3"], "--tsv"),
        ],
    )
    def test_failed_write_leaves_existing_file(self, capsys, tmp_path, monkeypatch, vectors_file, argv, out_flag):
        align = tmp_path / "align.tsv"
        align.write_text("x\tákwà\t2\nx\tdị\t1\ny\toma\t1\n", encoding="utf-8")
        argv = [a.format(vectors=vectors_file, align=align) for a in argv]
        work = tmp_path / "work"
        work.mkdir()
        out = work / "out"
        out.write_bytes(self.EARLIER)
        real_open = builtins.open

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", full_disk_open)
        code, _, err = run(capsys, *argv, out_flag, str(out))
        assert code == 2
        assert err == "diacritize: [Errno 28] No space left on device\n"
        assert out.read_bytes() == self.EARLIER
        assert [p.name for p in work.iterdir()] == ["out"]

    def test_replaced_file_keeps_its_permissions(self, capsys, tmp_path):
        out = tmp_path / "pipe.json"
        out.write_bytes(self.EARLIER)
        out.chmod(0o600)
        code, _, _ = run(capsys, "train", "ngram", FIXTURE, "--dataset", str(GOLDEN), "-o", str(out))
        assert code == 0
        assert sha256(out) == NGRAM_PIPELINE_SHA[5]
        assert out.stat().st_mode & 0o777 == 0o600


# The option strings of each leaf command: every one is read by the command's
# handler, so no flag is accepted and then ignored.
LEAF_FLAGS = {
    "stats": {"--out", "--lowercase", "--no-lowercase"},
    "dataset": {"-o", "--out", "--varnt-rep", "--wdkey-rep", "--varnt-distrib", "--lowercase", "--no-lowercase"},
    "train ngram": {"--dataset", "-o", "--out", "--lowercase", "--no-lowercase", "-n"},
    "train clf": {
        "--dataset", "-o", "--out", "--lowercase", "--no-lowercase",
        "--kind", "--window", "--epochs", "--lr", "--l2", "--seed",
    },
    "train emb": {
        "--dataset", "-o", "--out", "--lowercase", "--no-lowercase",
        "--vectors", "--scheme", "--window", "--top-n",
    },
    "project": {"--vectors", "--align", "-o", "--out"},
    "enhance": {
        "--vectors", "--corpus", "--dataset", "--scheme", "--top-n", "--window",
        "--lowercase", "--no-lowercase", "-o", "--out",
    },
    "restore": {"--model", "--in", "--out"},
    "eval cv": {
        "--corpus", "--dataset", "--restorer", "--vectors", "--top-n", "-k", "--seed", "--window",
        "--lowercase", "--no-lowercase", "--report", "--tsv",
    },
    "eval fulltext": {"--restored", "--gold", "--report"},
    "intrinsic oddword": {"--vectors", "--data"},
    "intrinsic analogy": {"--vectors", "--data", "--list-len"},
    "intrinsic wordsim": {"--vectors", "--data"},
}
# An argv that parses for each leaf command, with every required argument given.
LEAF_ARGV = {
    "stats": ["C"],
    "dataset": ["C", "-o", "O"],
    "train ngram": ["C", "--dataset", "D", "-o", "O"],
    "train clf": ["C", "--dataset", "D", "-o", "O"],
    "train emb": ["C", "--dataset", "D", "-o", "O"],
    "project": ["--vectors", "V", "--align", "A", "-o", "O"],
    "enhance": ["--vectors", "V", "--corpus", "C", "--dataset", "D", "-o", "O"],
    "restore": ["--model", "M"],
    "eval cv": [],
    "eval fulltext": [],
    "intrinsic oddword": ["--vectors", "V", "--data", "T"],
    "intrinsic analogy": ["--vectors", "V", "--data", "T"],
    "intrinsic wordsim": ["--vectors", "V", "--data", "T"],
}


def leaf_parsers(parser, path=()):
    """(command words, parser) for every leaf command below parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def flag_actions(parser):
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


class TestFlagTable:
    def test_each_leaf_takes_only_the_flags_it_reads(self):
        leaves = dict(leaf_parsers(build_parser()))
        assert {cmd: {s for a in flag_actions(p) for s in a.option_strings} for cmd, p in leaves.items()} == LEAF_FLAGS
        # (command, flag) pairs: 103 before the leaf parsers, of which 58 were read;
        # 62 once each intrinsic task is a leaf that takes its own flags.
        assert sum(len(flag_actions(p)) for p in leaves.values()) == 62

    def test_shared_flags_carry_each_commands_default(self):
        defaults = {
            cmd: {a.dest: a.default for a in flag_actions(p) if a.dest in ("seed", "window", "lowercase")}
            for cmd, p in leaf_parsers(build_parser())
        }
        assert defaults == {
            "stats": {"lowercase": False},
            "dataset": {"lowercase": True},
            "train ngram": {"lowercase": True},
            "train clf": {"lowercase": True, "window": 9, "seed": 0},
            "train emb": {"lowercase": True, "window": 11},
            "project": {},
            "enhance": {"lowercase": True, "window": None},
            "restore": {},
            "eval cv": {"lowercase": True, "window": None, "seed": 0},
            "eval fulltext": {},
            "intrinsic oddword": {},
            "intrinsic analogy": {},
            "intrinsic wordsim": {},
        }

    @pytest.mark.parametrize("command", sorted(LEAF_FLAGS))
    def test_a_flag_of_another_command_exits_one_with_usage(self, capsys, command):
        argv = [*command.split(), *LEAF_ARGV[command]]
        build_parser().parse_args(argv)
        others = set().union(*LEAF_FLAGS.values()) - LEAF_FLAGS[command]
        assert others
        for flag in sorted(others):
            code, out, err = run(capsys, *argv, flag)
            assert code == 1, flag
            assert out == ""
            # The usage shown is the command's own.
            assert err.startswith(f"usage: diacritize {command} "), flag
            assert err.endswith(f"diacritize {command}: error: unrecognized arguments: {flag}\n"), flag

    def test_a_flag_shortened_to_a_prefix_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "train", "ngram", FIXTURE, "--data", str(GOLDEN), "-o", "O")
        assert code == 1
        assert err.startswith("usage: diacritize train ngram ")

    def test_every_readme_invocation_parses(self):
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
        commands = [
            shlex.split(command)
            for block in blocks
            for command in re.findall(r"(?:^|\|\s*)diacritize (.*)$", block.replace("\\\n", " "), flags=re.M)
        ]
        seen = set()
        for argv in commands:
            args = build_parser().parse_args(argv)
            seen.add(next(cmd for cmd, p in leaf_parsers(build_parser()) if p.get_default("handler") is args.handler))
        # The README shows every leaf command.
        assert seen == set(LEAF_FLAGS)

    def test_main_calls_share_no_parse_state(self, capsys, tmp_path, dataset_file):
        assert build_parser() is build_parser()
        for spec in ("ngram:1", "ngram:2"):
            report = tmp_path / f"{spec}.json"
            code, _, _ = run(
                capsys, "eval", "cv", "--corpus", FIXTURE, "--dataset", dataset_file,
                "--restorer", spec, "-k", "2", "--report", str(report),
            )
            assert code == 0
            assert set(json.loads(report.read_text(encoding="utf-8"))) == {spec}
        for lowercase in (True, False, True):
            code, out, _ = run(capsys, "stats", FIXTURE, *(["--lowercase"] if lowercase else []))
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STATS_SHA[lowercase]
