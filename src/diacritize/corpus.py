"""Corpus ingestion: Unicode normalization, token classification, wordkeys, statistics.

A corpus is plain UTF-8 text, one sentence (or verse) per line, tokens separated
by whitespace. Everything downstream keys off the *wordkey*: the form of a word
with every combining mark removed. This module owns that rule and the table
built from it: `line_keys` gives each token's key (lowercased first when asked),
and `variant_counts` counts a corpus's word surfaces by wordkey, lowering and
stripping each distinct surface once. Statistics, the dataset gates, the routing
maps and the restorers all read those two.

Four pure functions of one string are cached, because text repeats a small
vocabulary: `strip_diacritics`, `token_kind`, `surface_token` (the shared
frozen `Token` of a surface) and the per-chunk tokenizer behind `tokenize`.
The tokenizer builds its tokens through `surface_token`, and `restore` takes
each restored token from it, so one `Token` serves every occurrence of a
surface while the caches hold it. All four also run on the open text of
`restore`, so each is bounded to STRING_CACHE_SIZE entries, least recently
used first out. A cache never changes a result; `tokenize` builds a fresh list
per call. `functools.lru_cache` is thread-safe, so the caches are too.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import gc
import json
import os
import shutil
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import DataError

# Splitting marks kept attached to the left-hand piece, e.g. verb auxiliaries
# written "na-" and contracted prepositions written "n'".
_ATTACHED_MARKS = ("-", "'", "’")

# Entries kept by each string cache. A distinct word retains about 700 bytes
# over the four caches, and a restored form the tokenizer never saw up to 300
# more, so full caches hold at most about 30 MB, while a
# 12k-token training corpus plus 1k lines to restore fill at most 6.4k each.
# 32k types cover nearly every token of running text; rarer strings are
# recomputed, with the same results.
STRING_CACHE_SIZE = 1 << 15


class TokenKind(str, Enum):
    WORD = "Word"
    PUNCTUATION = "Punctuation"
    DIGIT = "Digit"
    SYMBOL = "Symbol"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind


@dataclass
class Corpus:
    lines: list[list[Token]]
    is_marked: bool = True

    def stripped(self) -> "Corpus":
        """Same line/token shape with every surface replaced by its wordkey."""
        out = [
            [Token(strip_diacritics(t.surface), t.kind) for t in line]
            for line in self.lines
        ]
        return Corpus(out, is_marked=False)


@dataclass
class CorpusStats:
    lines: int = 0
    all_tokens: int = 0
    words_only: int = 0
    vocab_size: int = 0
    all_diac_words: int = 0
    unique_diac_words: int = 0
    amb_diac_words: int = 0
    diac_vocab_size: int = 0
    all_wordkeys: int = 0
    unique_wordkeys: int = 0
    ambiguous_wordkeys: int = 0
    variants_histogram: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        payload["variants_histogram"] = {
            str(k): v for k, v in sorted(self.variants_histogram.items())
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)


def normalize(text: str) -> str:
    """NFC-compose a string so diacritic encodings become canonical."""
    return unicodedata.normalize("NFC", text)


@functools.lru_cache(maxsize=STRING_CACHE_SIZE)
def strip_diacritics(word: str) -> str:
    """Return the wordkey: decompose, drop all combining marks (Mn), recompose.

    Case is preserved; total and idempotent. Cached, since corpora repeat a
    small vocabulary millions of times. ASCII holds no combining mark, so an
    ASCII word is its own wordkey.
    """
    if word.isascii():
        return word
    decomposed = unicodedata.normalize("NFD", word)
    bare = "".join(c for c in decomposed if unicodedata.category(c) != "Mn")
    return unicodedata.normalize("NFC", bare)


@functools.lru_cache(maxsize=STRING_CACHE_SIZE)
def token_kind(surface: str) -> TokenKind:
    """Word if it has a letter, else Digit if it has a digit, else Punctuation/Symbol."""
    has_digit = False
    has_punct = False
    for c in surface:
        cat = unicodedata.category(c)
        if cat.startswith("L"):
            return TokenKind.WORD
        if cat.startswith("N"):
            has_digit = True
        elif cat.startswith("P"):
            has_punct = True
    if has_digit:
        return TokenKind.DIGIT
    if has_punct:
        return TokenKind.PUNCTUATION
    return TokenKind.SYMBOL


def tokenize(line: str) -> list[Token]:
    """Split an NFC line into classified tokens.

    Input is assumed pre-tokenized: whitespace separates tokens. Chunks that
    still glue an auxiliary or contraction to the next word ("na-agba",
    "n'ugbo") are split after the hyphen/apostrophe, keeping the mark on the
    left piece so "na-" and "n'" survive as single tokens. No characters are
    merged or dropped.
    """
    tokens: list[Token] = []
    for chunk in line.split():
        tokens.extend(_chunk_tokens(chunk))
    return tokens


@functools.lru_cache(maxsize=STRING_CACHE_SIZE)
def _chunk_tokens(chunk: str) -> tuple[Token, ...]:
    return tuple(map(surface_token, _split_attached(chunk)))


@functools.lru_cache(maxsize=STRING_CACHE_SIZE)
def surface_token(surface: str) -> Token:
    """The shared Token of a surface, with its kind."""
    return Token(surface, token_kind(surface))


def _split_attached(chunk: str) -> list[str]:
    pieces = []
    start = 0
    for i, c in enumerate(chunk):
        if c in _ATTACHED_MARKS and i + 1 < len(chunk):
            pieces.append(chunk[start : i + 1])
            start = i + 1
    pieces.append(chunk[start:])
    return [p for p in pieces if p]


def corpus_from_lines(lines) -> Corpus:
    return Corpus([tokenize(normalize(line)) for line in lines])


@contextlib.contextmanager
def open_text(path):
    """Open a named UTF-8 text file for reading.

    Bytes that are not UTF-8, met anywhere while the file is read, raise
    DataError naming the path and the offset of the first bad byte in the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {_bad_utf8_offset(path)}") from exc


def _bad_utf8_offset(path) -> int | None:
    """File offset of the first byte that does not decode as UTF-8.

    The text reader decodes in chunks and reports offsets inside its chunk,
    so the file is decoded again here, a block at a time.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 16)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # exc.object is the decoder's carried-over bytes plus block
                return done - (len(exc.object) - len(block)) + exc.start
            if not block:
                return None
            done += len(block)


@contextlib.contextmanager
def replace_on_success(path):
    """Write to a new file beside path, and move it onto path only if the block succeeds.

    A failed run leaves an existing file untouched and no temporary file
    behind; a replaced file keeps its permissions. A path naming a device or
    pipe is written directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # name the file asked for, not the temporary one
        raise
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, if it runs, for a bulk decode and build.

    Decoding a file makes a container for every JSON array and object, and
    the collector would scan them many times over while they are built.
    Around a load whose decoded payload is freed before the collector
    resumes, the pause saves the collector's scans of that payload. What the
    load keeps is scanned once afterwards, as it would have been during the
    load. A collector that the caller had disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_corpus(path) -> Corpus:
    """Read a one-sentence-per-line UTF-8 file into a Corpus."""
    with open_text(path) as fh:
        return corpus_from_lines(line.rstrip("\n") for line in fh)


def line_keys(tokens, lowercase: bool) -> tuple[str, ...]:
    """The key of each token: its surface, lowercased if asked, with every mark stripped."""
    # A list comprehension, then one tuple: tuple() over a generator is slower.
    return tuple([strip_diacritics(t.surface.lower() if lowercase else t.surface) for t in tokens])


def variant_counts(corpus: Corpus, lowercase: bool = False) -> dict[str, dict[str, int]]:
    """Wordkey -> {surface: count} over the corpus's word tokens.

    Surfaces are lowercased first if asked. Wordkeys, and the surfaces of each,
    keep the order in which the corpus first shows them. The raw surfaces are
    counted first, so each distinct one is lowered and stripped once: a lowered
    surface is first shown where the first raw surface that lowers to it is.
    """
    word_kind = TokenKind.WORD  # a bound name: a member read through its enum costs about 10x more
    surfaces = Counter([tok.surface for line in corpus.lines for tok in line if tok.kind is word_kind])
    table: dict[str, dict[str, int]] = {}
    for surface, count in surfaces.items():
        if lowercase:
            surface = surface.lower()
        row = table.setdefault(strip_diacritics(surface), {})
        row[surface] = row.get(surface, 0) + count
    return table


def compute_stats(corpus: Corpus, lowercase: bool = False) -> CorpusStats:
    """Corpus statistics over tokens, diacritized words, wordkeys and variants.

    A word is diacritized when stripping changes it; a wordkey is ambiguous
    when at least two distinct surfaces in the corpus share it. Case is
    preserved unless lowercase is set, which counts every word lowercased.
    """
    lines, table = corpus.lines, variant_counts(corpus, lowercase)
    stats = CorpusStats(lines=len(lines), all_tokens=sum(map(len, lines)), all_wordkeys=len(table))
    for key, variants in table.items():
        n = len(variants)
        stats.words_only += sum(variants.values())
        stats.vocab_size += n
        if n >= 2:
            stats.ambiguous_wordkeys += 1
            stats.variants_histogram[n] = stats.variants_histogram.get(n, 0) + 1
        else:
            stats.unique_wordkeys += 1
        for surface, count in variants.items():
            if surface != key:
                stats.all_diac_words += count
                stats.diac_vocab_size += 1
                if n >= 2:
                    stats.amb_diac_words += count
                else:
                    stats.unique_diac_words += count
    return stats
