"""End-to-end text restoration: stripped lines in, marked lines out.

Each line's keys take one left-to-right walk, `datasetgen.route`, which
n-gram cross-validation shares: wordkeys with competing variants go to the
trained restorer, handed the line's restored forms so far; wordkeys with one
known marked form are replaced outright; other tokens echo verbatim. Every
routing key is a word, checked at load, so non-words always echo; and every
form strips to its key, also checked at load, so restoring a word only adds
marks and re-cases it. The maps are built from the training corpus and
serialized with the model, so restoration needs no corpus at inference time.

A builder refuses each setting that `load_pipeline` would refuse in its
file, with the loader's message and before anything is written: the n-gram
builder through `ngram.train` (`ngram.check_order`), the classifier builder
through `classify.fit_instances` (`classify.check_window` and
`check_hyper`), and the embedding builder before it reads the vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import classify, datasetgen, embed, ngram
from .corpus import Corpus, Token, TokenKind, line_keys, open_text, token_kind, variant_counts
from .corpus import collector_paused, replace_on_success, strip_diacritics, surface_token
from .errors import ModelError, ParseError

# The errors a caller of load_pipeline and restore_line catches are exported
# with the pipeline's own names.
__all__ = [
    "FAMILIES", "ModelError", "ParseError", "Pipeline", "build_classifier_pipeline",
    "build_embedding_pipeline", "build_maps", "build_ngram_pipeline", "load_pipeline",
    "match_case", "restore_line", "restore_text", "save_pipeline",
]

# Each family's restorer: predict_instance(keys, i, restored), to_payload() and
# the classmethod from_payload(spec, variant_index), which validates what it
# reads. `datasetgen.route` calls predict_instance once per ambiguous token:
# keys is the line's key tuple, keys[i] a key of variant_index, and restored
# the restored forms of keys[:i], which only the n-gram restorer reads.
FAMILIES = {
    "ngram": ngram.NGramRestorer,
    "classifier": classify.ClassifierBank,
    "embedding": embed.EmbeddingRestorer,
}


@dataclass
class Pipeline:
    family: str
    restorer: object
    unambiguous: dict[str, str]
    variant_index: dict[str, list[tuple[str, int]]]
    lowercase: bool = True


def build_maps(corpus, sets, lowercase: bool = True):
    """Replacement map and variant index with disjoint key sets.

    Wordkeys outside the generated dataset map to their most frequent marked
    form (identity mappings are omitted); dataset wordkeys carry their variant
    candidates and counts. corpus may be an ngram.PreparedCorpus, which holds
    that map already.
    """
    index = datasetgen.variant_index(sets)
    if isinstance(corpus, ngram.PreparedCorpus):
        forms = corpus.unambiguous
    else:
        forms = datasetgen.majority_forms(variant_counts(corpus, lowercase))
    unambiguous = {key: marked for key, marked in forms.items() if key not in index}
    return unambiguous, index


def build_ngram_pipeline(corpus, sets, n: int = ngram.ORDER, lowercase: bool = True) -> Pipeline:
    prepared = ngram.prepare(corpus, lowercase)
    unambiguous, index = build_maps(prepared, sets, lowercase)
    candidates = {key: [v for v, _ in variants] for key, variants in index.items()}
    model = ngram.train(prepared, n, candidates)
    return Pipeline(
        family="ngram",
        restorer=ngram.NGramRestorer(model=model, n=n),
        unambiguous=unambiguous,
        variant_index=index,
        lowercase=lowercase,
    )


def build_classifier_pipeline(
    corpus, sets, kind: str = classify.LOGISTIC, window: int = classify.WINDOW,
    hyper: classify.Hyper | None = None, lowercase: bool = True,
) -> Pipeline:
    unambiguous, index = build_maps(corpus, sets, lowercase)
    fitted = classify.fit_instances([aset.instances for aset in sets], kind, window=window, hyper=hyper)
    classifiers = {aset.wordkey: clf for aset, clf in zip(sets, fitted)}
    return Pipeline(
        family="classifier",
        restorer=classify.ClassifierBank(classifiers=classifiers),
        unambiguous=unambiguous,
        variant_index=index,
        lowercase=lowercase,
    )


def build_embedding_pipeline(
    corpus, sets, vectors_path, scheme: str = embed.BASIC,
    window: int | None = embed.WINDOW, top_n: int = embed.TOP_N, lowercase: bool = True,
) -> Pipeline:
    # As load_pipeline checks the file, before the vectors are read.
    embed.check_scheme(scheme)
    embed.check_settings(window, top_n)
    unambiguous, index = build_maps(corpus, sets, lowercase)
    model = embed.load_vectors(vectors_path)
    fingerprint = embed.vectors_fingerprint(vectors_path, model)
    cowords = None
    if scheme != embed.BASIC:
        cowords = embed.build_cowords(corpus, sets, top_n=top_n, lowercase=lowercase)
        model = embed.enhance(model, cowords, scheme=scheme)
    restorer = embed.EmbeddingRestorer(
        model=model, variant_index=index, scheme=scheme, window=window, cowords=cowords,
        vectors_path=str(Path(vectors_path).resolve()), top_n=top_n,
        vectors_fingerprint=fingerprint,
    )
    return Pipeline(
        family="embedding",
        restorer=restorer,
        unambiguous=unambiguous,
        variant_index=index,
        lowercase=lowercase,
    )


def match_case(original: str, marked: str) -> str:
    """Re-case a predicted lowercase form to follow the input token's casing."""
    if len(original) > 1 and original.isupper():
        return marked.upper()
    if original[:1].isupper():
        return marked[:1].upper() + marked[1:]
    return marked


def restore_line(pipeline: Pipeline, tokens: list[Token]) -> list[Token]:
    """Restore one line: the routing walk over its keys, then re-casing."""
    keys = line_keys(tokens, pipeline.lowercase)
    forms = datasetgen.route(keys, pipeline.variant_index, pipeline.unambiguous, pipeline.restorer.predict_instance)
    return [
        tok if marked is None else surface_token(match_case(tok.surface, marked))
        for tok, marked in zip(tokens, forms)
    ]


def restore_text(pipeline: Pipeline, stripped: Corpus) -> Corpus:
    """Restore a whole corpus; line and token shape are preserved exactly."""
    lines = [restore_line(pipeline, line) for line in stripped.lines]
    return Corpus(lines, is_marked=True)


def save_pipeline(pipeline: Pipeline, path) -> None:
    """Write the pipeline as one line of JSON, replacing path only on success.

    The whole payload is encoded in one call to the C encoder: `json.dump`
    would take the pure-Python encoder, for the same bytes. It is encoded
    before path is opened, and a non-finite number (an overflowed weight) is
    a ModelError that writes nothing: JSON holds no infinity or NaN, so
    load_pipeline would refuse the file.
    """
    payload = {
        "family": pipeline.family,
        "fallback": "echo",  # kept so files stay byte-identical; readers ignore it
        "lowercase": pipeline.lowercase,
        "unambiguous": {k: pipeline.unambiguous[k] for k in sorted(pipeline.unambiguous)},
        "variant_index": {
            k: [list(v) for v in pipeline.variant_index[k]]
            for k in sorted(pipeline.variant_index)
        },
        "restorer": pipeline.restorer.to_payload(),
    }
    try:
        # The payload is a tree of fresh dicts over the models' lists, strings
        # and numbers, so it holds no cycle: without check_circular the C
        # encoder keeps no marker per container, for the same bytes.
        text = json.dumps(payload, ensure_ascii=False, allow_nan=False, check_circular=False)
    except ValueError:
        raise ModelError(f"{path}: not written: the pipeline holds an infinite or NaN number") from None
    with replace_on_success(path) as fh:
        fh.write(text)
        fh.write("\n")


# Run as a decorator, the pause ends after the call returns, so the decoded
# payload, a local of the call, is freed before the collector resumes.
@collector_paused()
def load_pipeline(path) -> Pipeline:
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid pipeline JSON: {exc.msg}", line=exc.lineno, path=path)
        except RecursionError:
            raise ParseError("invalid pipeline JSON: nested too deeply", path=path) from None
    try:
        family = payload["family"]
        if family not in FAMILIES:
            raise ParseError(f"unknown pipeline family: {family!r}")
        # A pipeline may only add marks: every form it can emit strips to its routing key.
        for key, variants in payload["variant_index"].items():
            bad = datasetgen.bad_variants(key, variants)
            if bad:
                raise ParseError(bad)
        index = {k: [(v, c) for v, c in vs] for k, vs in payload["variant_index"].items()}
        unambiguous = payload["unambiguous"]
        if type(unambiguous) is not dict:
            raise ParseError("unambiguous must be an object of wordkey: form")
        if not all(isinstance(v, str) for v in unambiguous.values()):
            raise ParseError("unambiguous forms must be strings")
        word_kind = TokenKind.WORD
        for key in (*index, *unambiguous):
            if token_kind(key) is not word_kind:
                raise ParseError(f"routing key {key!r} is not a word")
        for key, form in unambiguous.items():
            if strip_diacritics(form) != key:
                raise ParseError(f"unambiguous form {form!r} does not strip to wordkey {key!r}")
        lowercase = payload.get("lowercase", True)
        if type(lowercase) is not bool:
            raise ParseError(f"lowercase must be true or false, got {lowercase!r}")
        return Pipeline(
            family=family,
            restorer=FAMILIES[family].from_payload(payload["restorer"], index),
            unambiguous=unambiguous,
            variant_index=index,
            lowercase=lowercase,
        )
    except ParseError as exc:
        if exc.path is not None:  # another file's error, such as the vectors file's
            raise
        raise ParseError(exc.message, line=exc.line, path=path) from exc
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed pipeline file: {exc}", path=path)
