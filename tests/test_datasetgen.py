import json
import unicodedata
from pathlib import Path

import pytest

from diacritize.corpus import corpus_from_lines, strip_diacritics
from diacritize.datasetgen import (
    AmbiguousSet,
    GenParams,
    Instance,
    generate,
    read_dataset,
    write_dataset,
)
from diacritize.errors import DataError, ParseError


def brute_force_filter(corp, varnt_rep=0.05, wdkey_rep=0.0001, varnt_distrib=0.75):
    """Independent reimplementation of the gates, straight from raw tokens.

    Works character-wise without the package's helpers: its own strip, its own
    counting, filters written as plain loops. Returns {wordkey: {variant: count}}.
    """

    def own_strip(word):
        nfd = unicodedata.normalize("NFD", word)
        return unicodedata.normalize(
            "NFC", "".join(c for c in nfd if unicodedata.category(c) != "Mn")
        )

    def is_word(tok):
        return any(unicodedata.category(c).startswith("L") for c in tok)

    tokens = []
    for line in corp.lines:
        for tok in line:
            if is_word(tok.surface):
                tokens.append(tok.surface.lower())

    raw = {}
    for tok in tokens:
        key = own_strip(tok)
        raw.setdefault(key, {})
        raw[key][tok] = raw[key].get(tok, 0) + 1

    kept = {}
    for key in raw:
        total = 0
        for v in raw[key]:
            total += raw[key][v]
        surviving = {}
        for v in raw[key]:
            if raw[key][v] / total >= varnt_rep:
                surviving[v] = raw[key][v]
        new_total = sum(surviving.values())
        if new_total == 0:
            continue
        if new_total / len(tokens) < wdkey_rep:
            continue
        if len(surviving) < 2:
            continue
        dominant = max(surviving.values())
        if dominant / new_total > varnt_distrib:
            continue
        kept[key] = surviving
    return kept


class TestGates:
    def test_minor_variant_prunes_to_unambiguous(self):
        # 3474 vs 5: the 5-count variant falls under 5% and the wordkey drops
        lines = ["mmadụ bi"] * 3474 + ["mmadu bi"] * 5
        sets = generate(corpus_from_lines(lines))
        assert [s.wordkey for s in sets if s.wordkey == "mmadu"] == []

    def test_balanced_wordkey_kept_with_all_instances(self):
        lines = ["áb x"] * 60 + ["àb x"] * 40 + ["filler word here four"] * 200
        sets = generate(corpus_from_lines(lines))
        assert len(sets) == 1
        aset = sets[0]
        assert aset.wordkey == "ab"
        assert aset.variants == [("áb", 60), ("àb", 40)]
        assert len(aset.instances) == 100

    def test_distrib_gate_disabled_at_one(self):
        lines = ["ká x"] * 80 + ["kà x"] * 20
        kept_default = generate(corpus_from_lines(lines))
        assert kept_default == []  # dominant share 0.80 > 0.75
        kept_open = generate(
            corpus_from_lines(lines), GenParams(varnt_distrib=1.0)
        )
        assert [s.wordkey for s in kept_open] == ["ka"]

    def test_boundary_equality_keeps(self):
        # dominant share exactly 0.75 stays in
        lines = ["dó x"] * 75 + ["dò x"] * 25
        sets = generate(corpus_from_lines(lines))
        assert [s.wordkey for s in sets] == ["do"]

    def test_empty_corpus(self):
        assert generate(corpus_from_lines([])) == []

    def test_invalid_params(self):
        with pytest.raises(DataError):
            GenParams(varnt_rep=1.0).validate()
        with pytest.raises(DataError):
            GenParams(wdkey_rep=0.0).validate()
        with pytest.raises(DataError):
            GenParams(varnt_distrib=0.0).validate()
        with pytest.raises(DataError):
            generate(corpus_from_lines(["a b"]), GenParams(varnt_distrib=1.5))

    def test_instances_carry_stripped_sentence_and_target(self):
        lines = ["Nke áb ukwu .", "àb bu ."] * 60
        sets = generate(corpus_from_lines(lines))
        aset = next(s for s in sets if s.wordkey == "ab")
        for inst in aset.instances:
            assert inst.tokens[inst.target] == "ab"
            assert strip_diacritics(inst.label) == "ab"
            assert all(t == t.lower() for t in inst.tokens)

    def test_one_instance_per_occurrence_in_same_sentence(self):
        # two occurrences in one sentence yield two instances
        lines = ["ákwa ya di n' elu àkwa ya"] * 30 + [
            "ákwa oma"
        ] * 30 + ["àkwa di"] * 30
        sets = generate(corpus_from_lines(lines))
        aset = next(s for s in sets if s.wordkey == "akwa")
        per_line = {}
        for inst in aset.instances:
            per_line[inst.line] = per_line.get(inst.line, 0) + 1
        assert max(per_line.values()) == 2
        assert len(aset.instances) == sum(c for _, c in aset.variants)


class TestGateOracle:
    def test_generate_matches_brute_force_on_engineered_corpus(self, gate_corpus):
        from collections import Counter

        corp, _ = gate_corpus
        sets = generate(corp)
        expected = brute_force_filter(corp)
        assert {s.wordkey for s in sets} == set(expected)
        for aset in sets:
            assert dict(aset.variants) == expected[aset.wordkey]
            assert len(aset.instances) == sum(expected[aset.wordkey].values())
            # instance labels recount exactly to the recorded variant counts
            assert Counter(i.label for i in aset.instances) == Counter(
                dict(aset.variants)
            )

    def test_every_survivor_respects_gate_ranges(self, gate_corpus):
        corp, _ = gate_corpus
        for aset in generate(corp):
            total = sum(c for _, c in aset.variants)
            for _, count in aset.variants:
                assert 0.05 <= count / total <= 0.75

    def test_instance_totals_match_occurrence_recount(self, gate_corpus):
        corp, _ = gate_corpus
        sets = generate(corp)
        surviving = {s.wordkey: {v for v, _ in s.variants} for s in sets}
        recount = 0
        for line in corp.lines:
            for tok in line:
                key = strip_diacritics(tok.surface.lower())
                if key in surviving and tok.surface.lower() in surviving[key]:
                    recount += 1
        assert sum(len(s.instances) for s in sets) == recount

    def test_deterministic_ordering(self, gate_corpus):
        corp, _ = gate_corpus
        sets = generate(corp)
        totals = [sum(c for _, c in s.variants) for s in sets]
        assert totals == sorted(totals, reverse=True)
        again = generate(corp)
        assert [s.wordkey for s in again] == [s.wordkey for s in sets]
        assert [s.variants for s in again] == [s.variants for s in sets]


class TestSerialization:
    def test_round_trip(self, gate_corpus, tmp_path):
        corp, _ = gate_corpus
        sets = generate(corp)
        path = tmp_path / "sets.jsonl"
        write_dataset(sets, path)
        again = read_dataset(path)
        assert again == sets

    def test_header_count_matches_sets(self, gate_corpus, tmp_path):
        corp, _ = gate_corpus
        sets = generate(corp)
        path = tmp_path / "sets.jsonl"
        write_dataset(sets, path)
        headers = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if "variants" in json.loads(line):
                    headers += 1
        assert headers == len(sets)

    def test_missing_label_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"wordkey":"ab","variants":[["áb",1],["àb",1]]}\n'
            '{"wordkey":"ab","tokens":["ab"],"target":0}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="label") as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "record, match",
        [
            ('{"wordkey":"ab","variants":[["áb","x"],["àb",1]]}', "integer count"),
            ('{"wordkey":"ab","variants":[["áb",-5],["àb",1]]}', "non-negative integer count"),
            ('{"wordkey":"ab","variants":[]}', "nonempty list"),
            ('{"wordkey":"ab","variants":[["áb",1,2]]}', r"\[variant, non-negative integer count\] pairs"),
            ('{"wordkey":"ab","tokens":"ab","target":0,"label":"áb"}', "tokens"),
            ('{"wordkey":"ab","tokens":["ab",3],"target":0,"label":"áb"}', "tokens"),
            ('{"wordkey":"ab","tokens":["ab"],"target":0,"label":5}', "label"),
            ('{"wordkey":"ab","tokens":["ab"],"target":99,"label":"áb"}', "target"),
            ('{"wordkey":"ab","tokens":["ab"],"target":-1,"label":"áb"}', "target"),
            # a dataset may only add marks: every variant strips to its wordkey, each label is a variant
            ('{"wordkey":"ab","variants":[["áb",1],["ác",1]]}', "does not strip to wordkey 'ab'"),
            ('{"wordkey":"ab","variants":[["áb",1],["Àb",1]]}', "does not strip to wordkey 'ab'"),
            ('{"wordkey":"ab","variants":[["áb",1],["áb",2]]}', "listed twice"),
            ('{"wordkey":"ab","tokens":["ab"],"target":0,"label":"ab"}', "not a variant of wordkey 'ab'"),
            ('{"wordkey":"ab","tokens":["ab"],"target":0,"label":"ác"}', "not a variant of wordkey 'ab'"),
            ('{"wordkey":"ab","tokens":["zzz","ab"],"target":0,"label":"áb"}', "target token 'zzz' does not strip"),
            ('{"wordkey":"ab","variants":[["áb",1],["àb",1]]}', "second header for wordkey 'ab'"),
        ],
    )
    def test_malformed_record_is_parse_error_with_line(self, tmp_path, record, match):
        path = tmp_path / "bad.jsonl"
        header = '{"wordkey":"ab","variants":[["áb",1],["àb",1]]}'
        instance = '{"wordkey":"ab","tokens":["ab"],"target":0,"label":"áb"}'
        path.write_text(f"{header}\n{instance}\n{record}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=match) as err:
            read_dataset(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}:3: ")

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"wordkey": oops\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert err.value.line == 1

    def test_instance_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"wordkey":"ab","tokens":["ab"],"target":0,"label":"áb"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="unknown wordkey"):
            read_dataset(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("target", '"1"'), ("target", "1.7"), ("target", "true"),
        ("line", "2.5"), ("line", '"0"'), ("line", "false"),
        ("count", "4.5"), ("count", '"4"'), ("count", "true"),
    ],
)
def test_non_integer_field_is_parse_error_with_line(tmp_path, field, value):
    header = '{"wordkey":"ab","variants":[["áb",COUNT],["àb",1]]}'
    record = '{"wordkey":"ab","tokens":["x","ab"],"target":TARGET,"label":"áb","line":LINE}'
    fields = {"COUNT": "1", "TARGET": "1", "LINE": "0"}
    fields[field.upper()] = value
    for name, text in fields.items():
        header, record = header.replace(name, text), record.replace(name, text)
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{header}\n{record}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="integer") as err:
        read_dataset(path)
    assert err.value.line == (1 if field == "count" else 2)


GOLDEN = Path(__file__).resolve().parent / "data" / "golden_dataset.jsonl"
HEADER = '{"wordkey":"ab","variants":[["áb",1],["àb",1]]}'
INSTANCE = '{"wordkey":"ab","tokens":["x","ab","y"],"target":1,"label":"áb","line":4}'


def reference_read(path):
    """A well-formed dataset read one json.loads per record, with no checks and no sharing."""
    sets, by_key = [], {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            record = json.loads(raw)
            if "variants" in record:
                aset = AmbiguousSet(record["wordkey"], [(v, c) for v, c in record["variants"]])
                sets.append(aset)
                by_key[aset.wordkey] = aset
            else:
                by_key[record["wordkey"]].instances.append(
                    Instance(tuple(record["tokens"]), record["target"], record["label"], record.get("line", -1))
                )
    return sets


class TestReader:
    def test_golden_dataset_reads_as_json_loads_reads_it_with_one_tuple_per_line(self):
        sets = read_dataset(GOLDEN)
        assert sets == reference_read(GOLDEN)
        instances = [inst for aset in sets for inst in aset.instances]
        assert len({id(inst.tokens) for inst in instances}) == len({inst.tokens for inst in instances})
        assert len({inst.tokens for inst in instances}) < len(instances)

    @pytest.mark.parametrize(
        "lines, bad",
        [
            ([HEADER, '{"wordkey": oops'], 2),
            ([HEADER, INSTANCE + " x"], 2),
            ([HEADER, INSTANCE[:-12]], 2),
            ([HEADER, "]"], 2),
            (["\ufeff" + HEADER, INSTANCE], 1),
        ],
        ids=["bad value", "extra data", "truncated", "no value", "BOM"],
    )
    def test_invalid_json_is_worded_as_json_loads_words_it(self, tmp_path, lines, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(lines[bad - 1])
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:{bad}: invalid JSON: {expected.value.msg}"

    @pytest.mark.parametrize(
        "record",
        [
            # the earlier instance's line and tokens, but for one element that is not a string
            '{"wordkey":"ab","tokens":["x","ab",7],"target":1,"label":"àb","line":4}',
            '{"wordkey":"ab","tokens":["x","ab",["y"]],"target":1,"label":"àb","line":4}',
        ],
        ids=["repeated line", "nested list"],
    )
    def test_tokens_that_are_not_all_strings_are_refused(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{HEADER}\n{INSTANCE}\n{record}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:3: 'tokens' must be a list of strings"
