"""Command-line interface.

Subcommands: stats, dataset, train (ngram|clf|emb), project, enhance,
restore, eval (cv|fulltext), intrinsic (oddword|analogy|wordsim).

Each leaf command takes only the flags its handler reads. `--seed`,
`--window` and `--lowercase/--no-lowercase` sit on the commands that use
them, each with that command's default: `--lowercase` is off for `stats`
and on elsewhere. A flag the command does not take, or one shortened to a
prefix, is a usage error.
Exit codes: 0 success, 1 usage, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import classify, corpus, datasetgen, embed, evaluate, ngram, pipeline
from .errors import DataError, ModelError

# The context window each family uses when --window is not given.
WINDOW_DEFAULT = {"clf": 9, "emb": 11}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # A prefix of a flag is not that flag: `--data` never reads as `--dataset`.
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        # A leaf command refuses what it cannot read itself, so the usage shown is its own.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _lowercase_flag(parser, default: bool = True) -> None:
    parser.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=default,
                        help="group words by their lowercase form")


def _leaf(sub, name: str, handler, help: str):
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    return p


def _intrinsic_leaf(intrinsic, task: str, handler, help: str):
    p = _leaf(intrinsic, task, handler, help)
    p.add_argument("--vectors", required=True)
    p.add_argument("--data", required=True)
    return p


def _train_leaf(train, family: str, handler, help: str):
    p = _leaf(train, family, handler, help)
    p.add_argument("corpus")
    p.add_argument("--dataset", required=True)
    p.add_argument("-o", "--out", required=True)
    _lowercase_flag(p)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing keeps no state in it."""
    parser = _Parser(prog="diacritize", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "stats", _cmd_stats, "corpus statistics as JSON")
    p.add_argument("corpus")
    p.add_argument("--out", default=None)
    _lowercase_flag(p, default=False)

    p = _leaf(sub, "dataset", _cmd_dataset, "generate the ambiguous dataset")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--varnt-rep", type=float, default=0.05)
    p.add_argument("--wdkey-rep", type=float, default=0.0001)
    p.add_argument("--varnt-distrib", type=float, default=0.75)
    _lowercase_flag(p)

    train = sub.add_parser("train", help="train a restoration pipeline")
    train = train.add_subparsers(dest="family", required=True)
    p = _train_leaf(train, "ngram", _cmd_train_ngram, "n-gram restorer")
    p.add_argument("-n", type=int, default=5, help="n-gram order")
    p = _train_leaf(train, "clf", _cmd_train_clf, "one linear classifier per wordkey")
    p.add_argument("--kind", default=classify.LOGISTIC, choices=classify.KINDS)
    p.add_argument("--window", type=int, default=WINDOW_DEFAULT["clf"], help="context window size")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p = _train_leaf(train, "emb", _cmd_train_emb, "word-embedding restorer")
    p.add_argument("--vectors", default=None, help="word2vec text file")
    p.add_argument("--scheme", default=embed.BASIC, choices=embed.SCHEMES)
    p.add_argument("--window", type=int, default=WINDOW_DEFAULT["emb"], help="context window size")
    p.add_argument("--top-n", type=int, default=50, help="cowords per variant")

    p = _leaf(sub, "project", _cmd_project, "project vectors across languages")
    p.add_argument("--vectors", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("-o", "--out", required=True)

    p = _leaf(sub, "enhance", _cmd_enhance, "enhance variant vectors from cowords")
    p.add_argument("--vectors", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--scheme", default=embed.TWEAK1, choices=embed.SCHEMES)
    p.add_argument("--top-n", type=int, default=50)
    p.add_argument("--window", type=int, default=None, help="coword window (default: the whole sentence)")
    _lowercase_flag(p)
    p.add_argument("-o", "--out", required=True)

    p = _leaf(sub, "restore", _cmd_restore, "restore stripped text")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
    p.add_argument("--out", default=None, help="output file (default stdout)")

    evals = sub.add_parser("eval", help="evaluate restorers")
    evals = evals.add_subparsers(dest="mode", required=True)
    p = _leaf(evals, "cv", _cmd_cv, "cross-validate restorers on a dataset")
    p.add_argument("--corpus", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--restorer", action="append", help="ngram:N | clf:KIND | emb:SCHEME, repeatable")
    p.add_argument("--vectors", default=None, help="word2vec text file (emb restorers)")
    p.add_argument("--top-n", type=int, default=50, help="cowords per variant (emb restorers)")
    p.add_argument("-k", type=int, default=10, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=0, help="fold and shuffle seed")
    p.add_argument("--window", type=int, default=None, help="context window size (default: per family)")
    _lowercase_flag(p)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--tsv", default=None, help="write the per-wordkey comparison TSV here")
    p = _leaf(evals, "fulltext", _cmd_fulltext, "score restored text against gold text")
    p.add_argument("--restored", default=None, help="restored text")
    p.add_argument("--gold", default=None, help="gold marked text")
    p.add_argument("--report", default=None, help="write the JSON report here")

    intrinsic = sub.add_parser("intrinsic", help="intrinsic embedding tasks")
    intrinsic = intrinsic.add_subparsers(dest="task", required=True)
    _intrinsic_leaf(intrinsic, "oddword", _cmd_oddword, "odd-one-out accuracy")
    p = _intrinsic_leaf(intrinsic, "analogy", _cmd_analogy, "analogy mean reciprocal rank")
    p.add_argument("--list-len", type=int, default=100, help="ranked list length")
    _intrinsic_leaf(intrinsic, "wordsim", _cmd_wordsim, "word-similarity Pearson correlation")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except ModelError as exc:
        print(f"diacritize: model error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"diacritize: data error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.start + 1].hex()
        print(f"diacritize: data error: input is not valid UTF-8 (0x{bad}: {exc.reason})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"diacritize: {exc}", file=sys.stderr)
        return 2


def _window(window: int | None) -> int | None:
    if window is not None and not classify.odd_window(window):
        raise DataError(f"--window must be an odd integer >= 3, got {window}")
    return window


def _order(n: int) -> int:
    if not 1 <= n <= ngram.MAX_ORDER:
        raise DataError(f"n-gram order must be in 1..{ngram.MAX_ORDER}, got {n}")
    return n


def _top_n(top_n: int) -> int:
    if top_n < 0:
        raise DataError(f"--top-n must be >= 0, got {top_n}")
    return top_n


def _cmd_stats(args) -> int:
    corp = corpus.load_corpus(args.corpus)
    text = corpus.compute_stats(corp, lowercase=args.lowercase).to_json()
    if args.out:
        with corpus.replace_on_success(args.out) as fh:
            print(text, file=fh)
    else:
        print(text)
    return 0


def _cmd_dataset(args) -> int:
    corp = corpus.load_corpus(args.corpus)
    params = datasetgen.GenParams(
        varnt_rep=args.varnt_rep, wdkey_rep=args.wdkey_rep, varnt_distrib=args.varnt_distrib,
        lowercase=args.lowercase,
    )
    sets = datasetgen.generate(corp, params)
    datasetgen.write_dataset(sets, args.out)
    total = sum(len(s.instances) for s in sets)
    print(f"wrote {len(sets)} ambiguous sets, {total} instances to {args.out}")
    return 0


def _train(args, build, **options) -> int:
    """Build a pipeline from the corpus and dataset and write it to --out."""
    corp = corpus.load_corpus(args.corpus)
    sets = datasetgen.read_dataset(args.dataset)
    if not sets:
        raise DataError(f"dataset {args.dataset} holds no ambiguous sets")
    pipe = build(corp, sets, lowercase=args.lowercase, **options)
    pipeline.save_pipeline(pipe, args.out)
    print(f"wrote {pipe.family} pipeline to {args.out}")
    return 0


def _cmd_train_ngram(args) -> int:
    return _train(args, pipeline.build_ngram_pipeline, n=_order(args.n))


def _cmd_train_clf(args) -> int:
    # The loader's rule, so that what train writes, restore reads.
    hyper = classify.checked_hyper(
        {"learning_rate": args.lr, "epochs": args.epochs, "l2": args.l2, "seed": args.seed}
    )
    window = _window(args.window)
    return _train(args, pipeline.build_classifier_pipeline, kind=args.kind, window=window, hyper=hyper)


def _cmd_train_emb(args) -> int:
    window, top_n = _window(args.window), _top_n(args.top_n)
    if not args.vectors:
        raise DataError("train emb requires --vectors")
    return _train(
        args, pipeline.build_embedding_pipeline,
        vectors_path=args.vectors, scheme=args.scheme, window=window, top_n=top_n,
    )


def _cmd_project(args) -> int:
    source = embed.load_vectors(args.vectors)
    align = embed.load_alignment(args.align)
    projected = embed.project(source, align)
    embed.save_vectors(projected, args.out)
    print(f"projected {len(projected.vectors)} words to {args.out}")
    return 0


def _cmd_enhance(args) -> int:
    window, top_n = _window(args.window), _top_n(args.top_n)  # window None: the whole sentence
    model = embed.load_vectors(args.vectors)
    corp = corpus.load_corpus(args.corpus)
    sets = datasetgen.read_dataset(args.dataset)
    cowords = embed.build_cowords(corp, sets, top_n=top_n, window=window, lowercase=args.lowercase)
    enhanced = embed.enhance(model, cowords, scheme=args.scheme)
    embed.save_vectors(enhanced, args.out)
    print(f"wrote enhanced vectors ({args.scheme}) to {args.out}")
    return 0


def _cmd_restore(args) -> int:
    pipe = pipeline.load_pipeline(args.model)
    with contextlib.ExitStack() as stack:
        instream = stack.enter_context(corpus.open_text(args.infile)) if args.infile else sys.stdin
        outstream = stack.enter_context(corpus.replace_on_success(args.out)) if args.out else sys.stdout
        for raw in instream:
            tokens = corpus.tokenize(corpus.normalize(raw.rstrip("\n")))
            restored = pipeline.restore_line(pipe, tokens)
            outstream.write(" ".join(t.surface for t in restored))
            outstream.write("\n")
    return 0


def _parse_restorer_spec(spec: str):
    family, _, detail = spec.partition(":")
    if family == "ngram":
        if not detail.isdecimal():
            raise DataError(f"expected ngram:N with N in 1..{ngram.MAX_ORDER}, got {spec!r}")
        return family, _order(int(detail))
    if family == "clf" and detail not in classify.KINDS:
        raise DataError(f"expected clf:KIND with KIND in {classify.KINDS}, got {spec!r}")
    if family == "emb" and detail not in embed.SCHEMES:
        raise DataError(f"expected emb:SCHEME with SCHEME in {embed.SCHEMES}, got {spec!r}")
    if family not in ("clf", "emb"):
        raise DataError(f"unknown restorer family in {spec!r}")
    return family, detail


def _cmd_fulltext(args) -> int:
    if not (args.restored and args.gold):
        raise DataError("eval fulltext requires --restored and --gold")
    result = evaluate.full_text_eval(corpus.load_corpus(args.restored), corpus.load_corpus(args.gold))
    summary = {k: v for k, v in result.items() if k != "line_errors"}
    print(json.dumps(summary, ensure_ascii=False, indent=2, sort_keys=True))
    if args.report:
        _write_report(result, args.report)
    return 0


def _write_report(payload, path) -> None:
    """An `eval` JSON report: sorted keys, two-space indent, a final newline."""
    with corpus.replace_on_success(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_cv(args) -> int:
    if not (args.dataset and args.restorer):
        raise DataError("eval cv requires --dataset and at least one --restorer")
    specs = [_parse_restorer_spec(s) for s in args.restorer]
    if args.k < 2:
        raise DataError(f"eval cv needs -k >= 2 folds, got {args.k}")
    window = _window(args.window)
    windows = {family: default if window is None else window for family, default in WINDOW_DEFAULT.items()}
    top_n = _top_n(args.top_n)
    embedded = any(f == "emb" for f, _ in specs)
    if embedded and not args.vectors:
        raise DataError("emb restorers need --vectors")
    orders = [n for f, n in specs if f == "ngram"]
    tweaked = any(f == "emb" and d != embed.BASIC for f, d in specs)
    # Only n-gram counts and embedding cowords read the corpus.
    if (orders or tweaked) and not args.corpus:
        raise DataError("ngram and enhanced emb restorers need --corpus")
    corp = corpus.load_corpus(args.corpus) if orders or tweaked else None
    sets = datasetgen.read_dataset(args.dataset)
    if not sets:
        raise DataError(f"dataset {args.dataset} holds no ambiguous sets")
    candidates = {s.wordkey: [v for v, _ in s.variants] for s in sets}
    emb_model = embed.load_vectors(args.vectors) if embedded else None
    # One n-gram count, at the largest order, serves every n-gram restorer, and
    # one coword table every enhanced embedding scheme.
    prepared = ngram.prepare(corp, args.lowercase) if orders else None
    ngram_counts = ngram.shared_counts(prepared, candidates, max(orders)) if orders else None
    cowords = embed.build_cowords(corp, sets, top_n=top_n, lowercase=args.lowercase) if tweaked else None

    reports: dict[str, evaluate.MetricReport] = {}
    payload = {}
    for spec, (family, detail) in zip(args.restorer, specs):
        model = emb_model
        if family == "emb" and detail != embed.BASIC:
            model = embed.enhance(emb_model, cowords, scheme=detail)
        if family == "clf":
            # One fit serves every set, and each group's folds train in one call.
            fit = classify.cv_fitter(detail, window=windows["clf"], hyper=classify.Hyper(seed=args.seed))
            results = (result for group in classify.cv_groups(sets, args.k)
                       for result in evaluate.crossval(fit, group, args.k, args.seed))
        else:
            fits = (_make_fitter(family, detail, ngram_counts, aset, candidates, windows, model, cowords)
                    for aset in sets)
            results = (evaluate.crossval(fit, aset, args.k, args.seed) for fit, aset in zip(fits, sets))
        per_wordkey, fold_details = {}, {}
        for aset, result in zip(sets, results):
            rep = evaluate.wordkey_report(result.matrix)
            rep.pop("per_class")
            per_wordkey[aset.wordkey] = rep
            fold_details[aset.wordkey] = {
                "fold_accuracies": result.fold_accuracies,
                "failed_folds": result.failed_folds,
                "warnings": result.warnings,
            }
        report = reports[spec] = evaluate.aggregate(per_wordkey)
        payload[spec] = {
            "aggregate": report.aggregate, "unweighted": report.unweighted,
            "per_wordkey": report.per_wordkey, "folds": fold_details,
        }
        agg = report.aggregate
        print(
            f"{spec}: accuracy {agg['accuracy']:.4f} precision {agg['precision']:.4f} "
            f"recall {agg['recall']:.4f} f1 {agg['f1']:.4f}"
        )

    if args.report:
        _write_report(payload, args.report)
    if args.tsv:
        baseline = "ngram:1" if "ngram:1" in reports else next(iter(reports))
        evaluate.write_comparison_tsv(reports, baseline, args.tsv)
    return 0


def _make_fitter(family, detail, ngram_counts, aset, candidates, windows, model, cowords):
    if family == "ngram":
        return ngram.cv_fitter(ngram_counts, aset, candidates, n=detail)
    return embed.cv_fitter(model, aset, scheme=detail, window=windows["emb"], cowords=cowords)


def _cmd_oddword(args) -> int:
    model, rows = embed.load_vectors(args.vectors), embed.load_oddword_tsv(args.data)
    got = [embed.odd_word(model, words) for words, _ in rows]
    skipped = got.count(None)
    correct = sum(g == odd for g, (_, odd) in zip(got, rows))
    usable = len(rows) - skipped
    score = correct / usable if usable else 0.0
    print(f"oddword accuracy {score:.4f} ({correct}/{usable} usable, {skipped} skipped)")
    return 0


def _cmd_analogy(args) -> int:
    if args.list_len < 1:
        raise DataError(f"--list-len must be >= 1, got {args.list_len}")
    model, quads = embed.load_vectors(args.vectors), embed.load_analogy_tsv(args.data)
    score = embed.analogy_mrr(model, quads, list_len=args.list_len)
    print(f"analogy mrr {score:.4f} over {len(quads)} quads (list length {args.list_len})")
    return 0


def _cmd_wordsim(args) -> int:
    model, pairs = embed.load_vectors(args.vectors), embed.load_wordsim_tsv(args.data)
    r, used = embed.wordsim_pearson(model, pairs)
    print(f"wordsim pearson {r:.4f} over {used}/{len(pairs)} usable pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
