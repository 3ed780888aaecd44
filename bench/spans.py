"""Span tracing of the toolkit from outside: timing wrappers swapped into its modules.

Only the traced run installs the wrappers; the untraced run calls the
program's functions untouched. Each wrapper records one span (name, start,
end, parent span, operation id) in flat arrays kept in memory; `save` writes
them out when the job ends. A function is wrapped at every binding its
callers use: `embed` imports `extract_window` by name from `classify`, so
both module attributes are swapped. `corpus.strip_diacritics` is left alone,
because a wrapper would defeat its cache; its `cache_info()` is read instead.
"""

from __future__ import annotations

import json
import logging
import time
from array import array
from collections import Counter

import numpy as np

from diacritize import classify, cli, corpus, datasetgen, embed, evaluate, ngram, pipeline

# Pipeline families as the metric names spell them.
FAMILY = {"ngram": "ngram", "classifier": "clf", "embedding": "emb"}


class Tracer:
    """Spans and counts of one job process, recorded while `active`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.ops: list[str] = ["-"]
        self.counts: Counter = Counter()
        self.label = "-"
        self.active = False
        self._stack: list[int] = []
        self._current_op = 0
        self._undo: list = []
        self._seen_windows: set = set()

    # -- recording -----------------------------------------------------------

    def begin_op(self, op: str) -> None:
        """Every span from now on belongs to a new operation (a line or a command)."""
        self.ops.append(op)
        self._current_op = len(self.ops) - 1

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span; name may be a callable read at call time.

        before(args, kwargs) and after(result) update counts; after may return a
        new span name (a family known only from the result).
        """

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(self._name_id(name() if callable(name) else name))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._current_op)
            self.end.append(0.0)
            if before is not None:
                before(args, kwargs)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = time.perf_counter()
                self.counts[f"raised.{self.names[self.name[idx]]}.{type(exc).__name__}"] += 1
                raise
            finally:
                self._stack.pop()
            self.end[idx] = time.perf_counter()
            if after is not None:
                renamed = after(result)
                if renamed:
                    self.name[idx] = self._name_id(renamed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _swap(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Swap timing wrappers into the toolkit's modules and start recording."""
        w = self.wrap
        simple = [
            (corpus, "load_corpus"), (corpus, "tokenize"),
            (datasetgen, "write_dataset"), (datasetgen, "read_dataset"),
            (ngram, "prepare"), (ngram, "find_occurrences"),
            (ngram, "train_from_occurrences"), (ngram, "model_payload"),
            (ngram, "model_from_payload"),
            (classify, "fit_instances"), (classify, "train_classifier"),
            (classify, "predict"), (classify, "classifier_payload"),
            (classify, "classifier_from_payload"),
            (embed, "load_vectors"), (embed, "build_cowords"), (embed, "enhance"),
            (evaluate, "stratified_folds"),
            (pipeline, "build_maps"), (pipeline, "save_pipeline"),
        ]
        for module, attr in simple:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self._swap(module, attr, w(name, getattr(module, attr)))

        def count_sets(sets):
            self.counts["datasetgen.sets"] += len(sets)
            self.counts["datasetgen.instances"] += sum(len(s.instances) for s in sets)

        self._swap(datasetgen, "generate", w("datasetgen.generate", datasetgen.generate, after=count_sets))

        def count_prefix(args, kwargs):
            self.counts["ngram.prefix_tokens"] += args[1].target

        self._swap(ngram, "restore_instance", w("ngram.restore_instance", ngram.restore_instance, before=count_prefix))

        vec = classify.Vectorizer
        self._swap(vec, "fit", classmethod(w("classify.Vectorizer.fit", vec.__dict__["fit"].__func__)))
        self._swap(vec, "transform", w("classify.Vectorizer.transform", vec.__dict__["transform"]))

        def count_window(args, kwargs):
            # Distinct instances per command; cv extracts each window once per
            # fold the instance takes part in.
            key = (self.label, args[0], args[1])
            if key not in self._seen_windows:
                self._seen_windows.add(key)
                self.counts[f"extract_window.distinct.{self.label}"] += 1
            self.counts[f"extract_window.calls.{self.label}"] += 1

        extract = w("classify.extract_window", classify.extract_window, before=count_window)
        self._swap(classify, "extract_window", extract)
        self._swap(embed, "extract_window", extract)

        def count_candidates(args, kwargs):
            self.counts["embed.candidates"] += len(list(args[2]))

        self._swap(embed, "restore_instance", w("embed.restore_instance", embed.restore_instance, before=count_candidates))

        self._swap(evaluate, "crossval", w("evaluate.crossval", self._crossval(evaluate.crossval)))

        def load_family(pipe):
            fam = FAMILY[pipe.family]
            restorer = pipe.restorer
            restorer.predict_instance = w(
                f"pipeline.predict_instance.{fam}", restorer.predict_instance
            )
            return f"pipeline.load_pipeline.{fam}"

        self._swap(pipeline, "load_pipeline", w("pipeline.load_pipeline", pipeline.load_pipeline, after=load_family))
        self._swap(pipeline, "restore_line", w(lambda: f"pipeline.restore_line.{self.label}", pipeline.restore_line))
        self._swap(pipeline, "match_case", w(lambda: f"pipeline.match_case.{self.label}", pipeline.match_case))
        self._swap(cli, "main", w(lambda: f"cli.main.{self.label}", cli.main))

        handler = _EmbedLogCounter(self.counts)
        log = logging.getLogger("diacritize.embed")
        level = log.level
        log.setLevel(logging.DEBUG)
        log.addHandler(handler)
        self._undo.append(lambda: (log.removeHandler(handler), log.setLevel(level)))
        self.active = True

    def _crossval(self, crossval):
        def traced_crossval(fit, aset, *args, **kwargs):
            fam = self.label.rsplit("_", 1)[-1]
            fit_span = self.wrap(f"evaluate.fit.{fam}", fit)

            def fit_then_wrap(train):
                return self.wrap(f"evaluate.predict.{fam}", fit_span(train))

            return crossval(fit_then_wrap, aset, *args, **kwargs)

        return traced_crossval

    def uninstall(self) -> None:
        self.active = False
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return start, end, parent, dur, dur - covered

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the counts.

        Self time is a span's duration minus the part its child spans cover;
        spans of one thread nest, so the children's durations add up to it.
        """
        _, _, _, dur, self_time = self.arrays()
        name = np.frombuffer(self.name, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        spans = {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts)}

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, op) and the lookup tables."""
        start, end, parent, _, _ = self.arrays()
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
            ops=np.array(json.dumps(self.ops)),
        )


class _EmbedLogCounter(logging.Handler):
    """Counts the embedding restorer's debug records of candidates scored by the prior."""

    def __init__(self, counts: Counter):
        super().__init__(level=logging.DEBUG)
        self.counts = counts

    def emit(self, record) -> None:
        if "scored by unigram prior" in record.msg:
            self.counts["embed.prior_fallbacks"] += 1

