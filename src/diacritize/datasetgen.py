"""Generate the ambiguous restoration dataset from a marked corpus.

Word tokens are grouped by wordkey; three gates prune the groups:

  varnt_rep      minimum share a variant must hold within its wordkey
  wdkey_rep      minimum wordkey frequency per corpus word token
  varnt_distrib  maximum share the dominant variant may hold

Each surviving occurrence becomes one labeled instance: the stripped
sentence, the target position, and the original marked surface as label.

A dataset is written as JSON Lines and read back with every record checked,
in file order. Reading takes one call into json's C scanner per record and
keeps one token tuple per distinct line, which the line's instances share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .corpus import Corpus, TokenKind, line_keys, open_text, replace_on_success, strip_diacritics, variant_counts
from .errors import DataError, ParseError


@dataclass
class GenParams:
    varnt_rep: float = 0.05
    wdkey_rep: float = 0.0001
    varnt_distrib: float = 0.75
    lowercase: bool = True

    def validate(self) -> None:
        if not (0.0 <= self.varnt_rep < 1.0):
            raise DataError(f"varnt_rep must be in [0, 1), got {self.varnt_rep}")
        if not (0.0 < self.wdkey_rep < 1.0):
            raise DataError(f"wdkey_rep must be in (0, 1), got {self.wdkey_rep}")
        if not (0.0 < self.varnt_distrib <= 1.0):
            raise DataError(
                f"varnt_distrib must be in (0, 1], got {self.varnt_distrib}"
            )


@dataclass(frozen=True)
class Instance:
    tokens: tuple[str, ...]
    target: int
    label: str
    line: int = -1


@dataclass
class AmbiguousSet:
    wordkey: str
    variants: list[tuple[str, int]]
    instances: list[Instance] = field(default_factory=list)


def generate(corpus: Corpus, params: GenParams | None = None) -> list[AmbiguousSet]:
    """Apply the three pruning gates and emit one instance per surviving occurrence.

    Gate order: variant pruning (counts of dropped variants leave the wordkey
    total), then the wordkey appearance threshold against all corpus word
    tokens, then wordkeys with fewer than two surviving variants, then the
    dominant-share gate (strictly greater than varnt_distrib drops; boundary
    equality keeps). Output is ordered by descending surviving total, ties
    lexicographic, so serialized datasets are byte-stable.
    """
    params = params or GenParams()
    params.validate()

    table = variant_counts(corpus, params.lowercase)
    word_token_count = sum(sum(counts.values()) for counts in table.values())
    if word_token_count == 0:
        return []

    survivors: dict[str, dict[str, int]] = {}
    for key, counts in table.items():
        full_total = sum(counts.values())
        kept = {v: c for v, c in counts.items() if c / full_total >= params.varnt_rep}
        total = sum(kept.values())
        if total / word_token_count < params.wdkey_rep:
            continue
        if len(kept) < 2:
            continue
        if max(kept.values()) / total > params.varnt_distrib:
            continue
        survivors[key] = kept

    sets: dict[str, AmbiguousSet] = {}
    for key in sorted(survivors, key=lambda k: (-sum(survivors[k].values()), k)):
        kept = survivors[key]
        variants = sorted(kept.items(), key=lambda kv: (-kv[1], kv[0]))
        sets[key] = AmbiguousSet(wordkey=key, variants=variants)

    word_kind = TokenKind.WORD
    for line_no, line in enumerate(corpus.lines):
        keys = line_keys(line, params.lowercase)
        for idx, (tok, key) in enumerate(zip(line, keys)):
            if tok.kind is not word_kind or key not in sets:
                continue
            surface = tok.surface.lower() if params.lowercase else tok.surface
            if surface in survivors[key]:
                sets[key].instances.append(
                    Instance(tokens=keys, target=idx, label=surface, line=line_no)
                )

    return list(sets.values())


def majority_variant(counts) -> str:
    """The variant with the highest count; ties go to the smallest surface.

    counts is a list (or other re-iterable) of (variant, count) pairs. Every
    restorer falls back on this vote when it has nothing better to go on.
    """
    best = max(c for _, c in counts)
    return min(v for v, c in counts if c == best)


def route(keys, variant_index, unambiguous, step) -> list[str | None]:
    """The restore walk: each key's form, left to right, or None where its token echoes.

    A key in variant_index takes step(keys, i, restored), any other its
    unambiguous form; restored holds the forms so far, with the key where a
    token echoed.
    """
    restored: list[str] = []
    forms: list[str | None] = []
    for i, key in enumerate(keys):
        form = step(keys, i, restored) if key in variant_index else unambiguous.get(key)
        forms.append(form)
        restored.append(key if form is None else form)
    return forms


def bad_variants(key: str, variants) -> str | None:
    """What breaks the rule for a wordkey's variant list, as read from a file, if anything.

    The list must be a nonempty list of [variant, non-negative integer count]
    pairs, and each variant must strip to the key and be listed once: a
    wordkey's variants only add marks to it. A dataset header and a
    pipeline's variant index are both held to it.
    """
    if not (type(variants) is list and variants and all(
        type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is int and p[1] >= 0
        for p in variants
    )):
        return f"wordkey {key!r} needs a nonempty list of [variant, non-negative integer count] pairs"
    for j, (v, _) in enumerate(variants):
        if strip_diacritics(v) != key:
            return f"variant {v!r} does not strip to wordkey {key!r}"
        if any(v == w for w, _ in variants[:j]):
            return f"variant {v!r} is listed twice for wordkey {key!r}"
    return None


def majority_forms(table) -> dict[str, str]:
    """Wordkey -> its majority variant, from a `corpus.variant_counts` table.

    Wordkeys whose majority variant is the bare key itself are left out. A
    wordkey with one surface takes it without a vote.
    """
    forms = {}
    for key, counts in table.items():
        best = next(iter(counts)) if len(counts) == 1 else majority_variant(counts.items())
        if best != key:
            forms[key] = best
    return forms


def variant_index(sets) -> dict[str, list[tuple[str, int]]]:
    """Wordkey -> [(variant, count), ...] lookup from generated sets."""
    return {s.wordkey: list(s.variants) for s in sets}


def write_dataset(sets, path) -> None:
    """Serialize as JSON Lines: one header record per wordkey, then its instances."""
    with replace_on_success(path) as fh:
        for aset in sets:
            fh.write(_dumps({"wordkey": aset.wordkey, "variants": [list(v) for v in aset.variants]}))
            fh.write("\n")
            for inst in aset.instances:
                fh.write(
                    _dumps(
                        {
                            "wordkey": aset.wordkey,
                            "tokens": list(inst.tokens),
                            "target": inst.target,
                            "label": inst.label,
                            "line": inst.line,
                        }
                    )
                )
                fh.write("\n")


def read_dataset(path) -> list[AmbiguousSet]:
    """Read a dataset file, checking every record in file order.

    Each stripped line takes one call into json's C scanner. Only a line that
    the scan refuses, or does not consume to its end, goes to json.loads, so
    a refusal reads as json.loads words it. A record nested too deeply to
    decode is refused too. Instances of one token line share one tuple, as
    generate's do. A malformed record raises ParseError with its line number.
    """
    sets: list[AmbiguousSet] = []
    by_key: dict[str, tuple[AmbiguousSet, set[str]]] = {}
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                _read_record(_decode(raw), sets, by_key, shared)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=line_no, path=path)
            except RecursionError:
                raise ParseError("invalid JSON: nested too deeply", line=line_no, path=path) from None
            except (TypeError, ValueError) as exc:
                raise ParseError(str(exc), line=line_no, path=path)
    return sets


def _decode(raw: str):
    """The JSON value of a stripped line, as json.loads reads it, from one scan."""
    try:
        value, end = _scan_once(raw, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(raw):
        return json.loads(raw)  # raises, and words the refusal as it always has
    return value


def _all_strings(tokens) -> bool:
    """Whether tokens is a list of strings, tested in one C-level pass."""
    if type(tokens) is not list:
        return False
    try:
        "".join(tokens)
    except TypeError:
        return False
    return True


def _read_record(
    record, sets: list[AmbiguousSet], by_key: dict[str, tuple[AmbiguousSet, set[str]]],
    shared: dict[tuple[str, ...], tuple[str, ...]],
) -> None:
    """Add one dataset record to its set; a malformed record raises ValueError or TypeError.

    by_key maps each wordkey read so far to its set and the set of its
    variants; shared maps each token tuple read so far to itself.
    """
    if not isinstance(record, dict) or not isinstance(record.get("wordkey"), str):
        raise ValueError("record needs a string 'wordkey'")
    key = record["wordkey"]
    if "variants" in record:
        bad = bad_variants(key, record["variants"])
        if bad:
            raise ValueError(bad)
        variants = [(v, c) for v, c in record["variants"]]
        if key in by_key:
            raise ValueError(f"second header for wordkey {key!r}")
        aset = AmbiguousSet(wordkey=key, variants=variants)
        sets.append(aset)
        by_key[key] = aset, {v for v, _ in variants}
        return
    try:
        tokens, target, label = record["tokens"], record["target"], record["label"]
    except KeyError:
        missing = [k for k in ("tokens", "target", "label") if k not in record]
        raise ValueError(f"instance record missing {', '.join(missing)}") from None
    if key not in by_key:
        raise ValueError(f"instance for unknown wordkey '{key}'")
    aset, labels = by_key[key]
    line = record.get("line", -1)
    if not _all_strings(tokens):
        raise ValueError("'tokens' must be a list of strings")
    if not isinstance(label, str):
        raise ValueError("'label' must be a string")
    if label not in labels:
        raise ValueError(f"label {label!r} is not a variant of wordkey {key!r}")
    if type(target) is not int or type(line) is not int:
        name, value = ("target", target) if type(target) is not int else ("line", line)
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    if not 0 <= target < len(tokens):
        raise ValueError(f"'target' {target} is outside the {len(tokens)} tokens")
    if strip_diacritics(tokens[target]) != key:
        raise ValueError(f"target token {tokens[target]!r} does not strip to wordkey {key!r}")
    tokens = tuple(tokens)
    aset.instances.append(Instance(shared.setdefault(tokens, tokens), target, label, line))


# One encoder for every record: json.dumps with non-default options builds a
# new JSONEncoder per call. A record is a dict built on the spot from lists,
# strings and numbers, so it holds no cycle: without check_circular the C
# encoder keeps no marker per container, for the same bytes.
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False).encode
# One scanner for every record: json.loads goes through a decoder's Python
# methods on the way to it.
_scan_once = json.JSONDecoder().scan_once
