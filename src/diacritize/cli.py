"""Command-line interface.

Subcommands: stats, dataset, train (ngram|clf|emb), project, enhance,
restore, eval (cv|fulltext), intrinsic (oddword|analogy|wordsim).
Exit codes: 0 success, 1 usage, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import classify, corpus, datasetgen, embed, evaluate, ngram, pipeline
from .errors import DataError, ModelError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for anything randomized")
    common.add_argument("--window", type=int, default=None, help="context window size")
    common.add_argument(
        "--lowercase",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="lowercase before processing (default depends on the command)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(prog="diacritize", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", parents=[common], help="corpus statistics as JSON")
    p.add_argument("corpus")
    p.add_argument("--out", default=None)

    p = sub.add_parser("dataset", parents=[common], help="generate the ambiguous dataset")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--varnt-rep", type=float, default=0.05)
    p.add_argument("--wdkey-rep", type=float, default=0.0001)
    p.add_argument("--varnt-distrib", type=float, default=0.75)

    p = sub.add_parser("train", parents=[common], help="train a restoration pipeline")
    p.add_argument("family", choices=["ngram", "clf", "emb"])
    p.add_argument("corpus")
    p.add_argument("--dataset", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("-n", type=int, default=5, help="n-gram order (ngram family)")
    p.add_argument("--kind", default=classify.LOGISTIC, choices=classify.KINDS)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--vectors", default=None, help="word2vec text file (emb family)")
    p.add_argument("--scheme", default=embed.BASIC, choices=embed.SCHEMES)
    p.add_argument("--top-n", type=int, default=50, help="cowords per variant (emb family)")

    p = sub.add_parser("project", parents=[common], help="project vectors across languages")
    p.add_argument("--vectors", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("enhance", parents=[common], help="enhance variant vectors from cowords")
    p.add_argument("--vectors", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--scheme", default=embed.TWEAK1, choices=embed.SCHEMES)
    p.add_argument("--top-n", type=int, default=50)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("restore", parents=[common], help="restore stripped text")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("eval", parents=[common], help="evaluate restorers")
    p.add_argument("mode", choices=["cv", "fulltext"])
    p.add_argument("--corpus", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument(
        "--restorer",
        action="append",
        default=None,
        help="ngram:N | clf:KIND | emb:SCHEME, repeatable",
    )
    p.add_argument("--vectors", default=None)
    p.add_argument("--top-n", type=int, default=50)
    p.add_argument("-k", type=int, default=10, help="cross-validation folds")
    p.add_argument("--restored", default=None, help="restored text (fulltext mode)")
    p.add_argument("--gold", default=None, help="gold marked text (fulltext mode)")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--tsv", default=None, help="write the per-wordkey comparison TSV here")

    p = sub.add_parser("intrinsic", parents=[common], help="intrinsic embedding tasks")
    p.add_argument("task", choices=["oddword", "analogy", "wordsim"])
    p.add_argument("--vectors", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--list-len", type=int, default=100)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _dispatch(args)
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


def _dispatch(args) -> int:
    handler = {
        "stats": _cmd_stats,
        "dataset": _cmd_dataset,
        "train": _cmd_train,
        "project": _cmd_project,
        "enhance": _cmd_enhance,
        "restore": _cmd_restore,
        "eval": _cmd_eval,
        "intrinsic": _cmd_intrinsic,
    }[args.command]
    return handler(args)


def _lowercase(args, default: bool) -> bool:
    return default if args.lowercase is None else args.lowercase


# The context window each family uses when --window is not given.
WINDOW_DEFAULT = {"clf": 9, "emb": 11}


def _window(args, default: int | None) -> int | None:
    if args.window is None:
        return default
    if args.window < 3 or args.window % 2 == 0:
        raise DataError(f"--window must be an odd integer >= 3, got {args.window}")
    return args.window


def _top_n(args) -> int:
    if args.top_n < 0:
        raise DataError(f"--top-n must be >= 0, got {args.top_n}")
    return args.top_n


def _cmd_stats(args) -> int:
    corp = corpus.load_corpus(args.corpus)
    text = corpus.compute_stats(corp, lowercase=_lowercase(args, default=False)).to_json()
    if args.out:
        with corpus.replace_on_success(args.out) as fh:
            print(text, file=fh)
    else:
        print(text)
    return 0


def _cmd_dataset(args) -> int:
    corp = corpus.load_corpus(args.corpus)
    params = datasetgen.GenParams(
        varnt_rep=args.varnt_rep,
        wdkey_rep=args.wdkey_rep,
        varnt_distrib=args.varnt_distrib,
        lowercase=_lowercase(args, default=True),
    )
    sets = datasetgen.generate(corp, params)
    datasetgen.write_dataset(sets, args.out)
    total = sum(len(s.instances) for s in sets)
    print(f"wrote {len(sets)} ambiguous sets, {total} instances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    # Flags that only the classifier and embedding families read; checked before any work.
    window = _window(args, WINDOW_DEFAULT[args.family]) if args.family in WINDOW_DEFAULT else None
    top_n = _top_n(args) if args.family == "emb" else None
    corp = corpus.load_corpus(args.corpus)
    sets = datasetgen.read_dataset(args.dataset)
    if not sets:
        raise DataError(f"dataset {args.dataset} holds no ambiguous sets")
    lowercase = _lowercase(args, default=True)
    if args.family == "ngram":
        pipe = pipeline.build_ngram_pipeline(corp, sets, n=args.n, lowercase=lowercase)
    elif args.family == "clf":
        hyper = classify.Hyper(
            learning_rate=args.lr, epochs=args.epochs, l2=args.l2, seed=args.seed
        )
        pipe = pipeline.build_classifier_pipeline(
            corp, sets, kind=args.kind, window=window, hyper=hyper, lowercase=lowercase,
        )
    else:
        if not args.vectors:
            raise DataError("train emb requires --vectors")
        pipe = pipeline.build_embedding_pipeline(
            corp, sets, args.vectors, scheme=args.scheme,
            window=window, top_n=top_n, lowercase=lowercase,
        )
    pipeline.save_pipeline(pipe, args.out)
    print(f"wrote {pipe.family} pipeline to {args.out}")
    return 0


def _cmd_project(args) -> int:
    source = embed.load_vectors(args.vectors)
    align = embed.load_alignment(args.align)
    projected = embed.project(source, align)
    embed.save_vectors(projected, args.out)
    print(f"projected {len(projected.vectors)} words to {args.out}")
    return 0


def _cmd_enhance(args) -> int:
    window = _window(args, None)  # None: the whole sentence
    top_n = _top_n(args)
    model = embed.load_vectors(args.vectors)
    corp = corpus.load_corpus(args.corpus)
    sets = datasetgen.read_dataset(args.dataset)
    cowords = embed.build_cowords(
        corp, sets, top_n=top_n, window=window,
        lowercase=_lowercase(args, default=True),
    )
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
    parts = spec.split(":")
    family = parts[0]
    if family == "ngram":
        if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
            raise DataError(f"expected ngram:N with N >= 1, got {spec!r}")
        return ("ngram", int(parts[1]))
    if family == "clf":
        if len(parts) != 2 or parts[1] not in classify.KINDS:
            raise DataError(f"expected clf:KIND with KIND in {classify.KINDS}, got {spec!r}")
        return ("clf", parts[1])
    if family == "emb":
        if len(parts) != 2 or parts[1] not in embed.SCHEMES:
            raise DataError(f"expected emb:SCHEME with SCHEME in {embed.SCHEMES}, got {spec!r}")
        return ("emb", parts[1])
    raise DataError(f"unknown restorer family in {spec!r}")


def _cmd_eval(args) -> int:
    if args.mode == "fulltext":
        if not (args.restored and args.gold):
            raise DataError("eval fulltext requires --restored and --gold")
        result = evaluate.full_text_eval(
            corpus.load_corpus(args.restored), corpus.load_corpus(args.gold)
        )
        summary = {k: v for k, v in result.items() if k != "line_errors"}
        text = json.dumps(summary, ensure_ascii=False, indent=2, sort_keys=True)
        print(text)
        if args.report:
            with corpus.replace_on_success(args.report) as fh:
                json.dump(result, fh, ensure_ascii=False, indent=2, sort_keys=True)
                fh.write("\n")
        return 0

    if not (args.corpus and args.dataset and args.restorer):
        raise DataError("eval cv requires --corpus, --dataset and at least one --restorer")
    specs = [_parse_restorer_spec(s) for s in args.restorer]
    if args.k < 2:
        raise DataError(f"eval cv needs -k >= 2 folds, got {args.k}")
    windows = {family: _window(args, default) for family, default in WINDOW_DEFAULT.items()}
    top_n = _top_n(args)
    if any(f == "emb" for f, _ in specs) and not args.vectors:
        raise DataError("emb restorers need --vectors")
    orders = [n for f, n in specs if f == "ngram"]
    tweaked = any(f == "emb" and d != embed.BASIC for f, d in specs)
    # Only n-gram counts and embedding cowords read the corpus.
    corp = corpus.load_corpus(args.corpus) if orders or tweaked else None
    sets = datasetgen.read_dataset(args.dataset)
    if not sets:
        raise DataError(f"dataset {args.dataset} holds no ambiguous sets")
    lowercase = _lowercase(args, default=True)
    candidates = {s.wordkey: [v for v, _ in s.variants] for s in sets}
    emb_model = embed.load_vectors(args.vectors) if args.vectors else None
    # One n-gram count, at the largest order, serves every n-gram restorer, and
    # one coword table every enhanced embedding scheme.
    ngram_counts = (
        ngram.shared_counts(ngram.prepare(corp, lowercase), candidates, max(orders))
        if orders
        else None
    )
    cowords = embed.build_cowords(corp, sets, top_n=top_n, lowercase=lowercase) if tweaked else None

    reports: dict[str, evaluate.MetricReport] = {}
    payload = {}
    for spec, (family, detail) in zip(args.restorer, specs):
        model = emb_model
        if family == "emb" and detail != embed.BASIC:
            model = embed.enhance(emb_model, cowords, scheme=detail)
        per_wordkey = {}
        fold_details = {}
        for aset in sets:
            fit = _make_fitter(
                family, detail, ngram_counts, aset, candidates, args.seed, windows, model, cowords
            )
            result = evaluate.crossval(fit, aset, k=args.k, seed=args.seed)
            rep = evaluate.wordkey_report(result.matrix)
            rep.pop("per_class")
            per_wordkey[aset.wordkey] = rep
            fold_details[aset.wordkey] = {
                "fold_accuracies": result.fold_accuracies,
                "failed_folds": result.failed_folds,
                "warnings": result.warnings,
            }
        report = evaluate.aggregate(per_wordkey)
        reports[spec] = report
        payload[spec] = {
            "aggregate": report.aggregate,
            "unweighted": report.unweighted,
            "per_wordkey": report.per_wordkey,
            "folds": fold_details,
        }
        agg = report.aggregate
        print(
            f"{spec}: accuracy {agg['accuracy']:.4f} precision {agg['precision']:.4f} "
            f"recall {agg['recall']:.4f} f1 {agg['f1']:.4f}"
        )

    if args.report:
        with corpus.replace_on_success(args.report) as fh:
            json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")
    if args.tsv:
        baseline = "ngram:1" if "ngram:1" in reports else next(iter(reports))
        evaluate.write_comparison_tsv(reports, baseline, args.tsv)
    return 0


def _make_fitter(family, detail, ngram_counts, aset, candidates, seed, windows, model, cowords):
    if family == "ngram":
        return ngram.cv_fitter(ngram_counts, aset, candidates, n=detail)
    if family == "clf":
        return classify.cv_fitter(detail, window=windows["clf"], hyper=classify.Hyper(seed=seed))
    return embed.cv_fitter(model, aset, scheme=detail, window=windows["emb"], cowords=cowords)


def _cmd_intrinsic(args) -> int:
    model = embed.load_vectors(args.vectors)
    if args.task == "oddword":
        rows = embed.load_oddword_tsv(args.data)
        correct = skipped = 0
        for words, odd in rows:
            got = embed.odd_word(model, words)
            if got is None:
                skipped += 1
            elif got == odd:
                correct += 1
        usable = len(rows) - skipped
        score = correct / usable if usable else 0.0
        print(f"oddword accuracy {score:.4f} ({correct}/{usable} usable, {skipped} skipped)")
    elif args.task == "analogy":
        quads = embed.load_analogy_tsv(args.data)
        score = embed.analogy_mrr(model, quads, list_len=args.list_len)
        print(f"analogy mrr {score:.4f} over {len(quads)} quads (list length {args.list_len})")
    else:
        pairs = embed.load_wordsim_tsv(args.data)
        r, used = embed.wordsim_pearson(model, pairs)
        print(f"wordsim pearson {r:.4f} over {used}/{len(pairs)} usable pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
