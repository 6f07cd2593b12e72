import random
import re
import shutil
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempex import crf, features, pipeline, postproc
from tempex.config import RunConfig
from tempex.corpus import (CorpusError, Sequence, Token, assemble_document,
                           pack_sequences)
from tempex.features import (BOS, EOS, DATA_DIR, Featurizer, Gazetteer,
                             ObservationTable, TEMPLATES, collapsed_pattern,
                             expand_templates, extract_rows, match_gazetteer,
                             pattern, PROFILES, featurize_sequence)

from oracles import (StringKeys, encode_by_keys, from_strings, is_valid_bio,
                     keys_of)
from synth import build_corpus

MODEL1 = Featurizer("model1")


def strings(table):
    """Each position's observation keys, empty slots left out."""
    keys = keys_of(table.keys)
    return [[keys[c] for c in row if c >= 0] for row in table]


def expand(rows_per_sequence, templates, unigram, conj, index=None):
    """`expand_templates` of per-position rows, each distinct row passed
    once, as `extract_rows` passes one row per token type."""
    type_of: dict[tuple, int] = {}
    rows, types = [], []
    for row in (r for seq_rows in rows_per_sequence for r in seq_rows):
        t = type_of.setdefault(tuple(row.items()), len(type_of))
        if t == len(rows):
            rows.append(row)
        types.append(t)
    return expand_templates(rows, types, tuple(map(len, rows_per_sequence)),
                            templates, unigram, conj, index)


def expand_one(rows, templates, unigram, conj):
    """Observation keys per position of one sequence's rows."""
    return strings(expand([rows], templates, unigram, conj))


def position_rows(seq, featurizer):
    """The feature row of each position of `seq`."""
    rows, types = extract_rows([seq], featurizer)
    return [rows[t] for t in types.tolist()]


def make_seq(words):
    toks, pos = [], 0
    for w in words:
        toks.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sequence(tuple(toks))


class TestPattern:
    @pytest.mark.parametrize("word,expected", [
        ("Jan-2003", "Xxx-dddd"),
        ("", ""),
        ("iPhone7", "xXxxxxd"),
    ])
    def test_pattern(self, word, expected):
        assert pattern(word) == expected

    @pytest.mark.parametrize("word,expected", [
        ("Jan-2003", "Xx-d"),
        ("2003", "d"),
        ("NATO", "X"),
    ])
    def test_collapsed(self, word, expected):
        assert collapsed_pattern(word) == expected

    @given(st.text(max_size=40))
    def test_collapsed_is_collapsed_pattern(self, s):
        pat = pattern(s)
        collapsed = []
        for c in pat:
            if not collapsed or collapsed[-1] != c:
                collapsed.append(c)
        assert collapsed_pattern(s) == "".join(collapsed)


class TestMorphological:
    def test_period_of_day(self):
        [row] = position_rows(make_seq(["morning"]), MODEL1)
        assert row["period_of_day"] == "y"

    def test_past_ref(self):
        [row] = position_rows(make_seq(["ago"]), MODEL1)
        assert row["past_ref"] == "y"

    def test_digit_token(self):
        [row] = position_rows(make_seq(["7"]), MODEL1)
        assert row["digit"] == "y"
        assert row["number"] == "y"
        assert row["cardinal"] == "y"
        assert row["alphabetic"] == "n"

    def test_lemma_fallback_is_lowercased_surface(self):
        [row] = position_rows(make_seq(["Tomorrow"]), MODEL1)
        assert row["lemma"] == "tomorrow"

    def test_verb_tense_from_pos(self):
        seq = Sequence((Token("went", 0, 4, pos="VBD"),))
        [row] = position_rows(seq, MODEL1)
        assert row["verb_tense"] == "past"

    def test_deterministic(self):
        seq = make_seq(["Three", "days", "ago", "."])
        assert position_rows(seq, MODEL1) == position_rows(seq, MODEL1)


class TestGazetteer:
    CITIES = Gazetteer("cities", frozenset({
        ("new", "york"), ("new", "york", "city"), ("boston",)}))

    def test_full_phrase(self):
        seq = make_seq(["New", "York", "City"])
        assert match_gazetteer(seq, self.CITIES) == ["B", "I", "I"]

    def test_no_match(self):
        seq = make_seq(["no", "cities", "here"])
        assert match_gazetteer(seq, self.CITIES) == ["O", "O", "O"]

    def test_longest_wins(self):
        seq = make_seq(["in", "New", "York", "City", "today"])
        assert match_gazetteer(seq, self.CITIES) == \
            ["O", "B", "I", "I", "O"]

    @given(st.lists(st.sampled_from(
        ["new", "york", "city", "boston", "x"]), min_size=1, max_size=10))
    def test_output_is_valid_bio(self, words):
        assert is_valid_bio(match_gazetteer(make_seq(words), self.CITIES))


class TestTemplates:
    def test_fourteen_templates(self):
        assert len(TEMPLATES) == 14
        offsets = {t.offsets for t in TEMPLATES}
        assert (0,) in offsets and (-2, 2) in offsets
        assert (-1, 0, 1) in offsets

    def test_boundary_sentinel(self):
        rows = [{"word": "three"}]
        out = expand_one(rows, TEMPLATES, ("word",), ("word",))
        assert "T05\tword\t_BOS_\tthree" in out[0]

    def test_unigram_string(self):
        rows = [{"word": "three"}, {"word": "days"}]
        out = expand_one(rows, TEMPLATES, ("word",), ("word",))
        assert "T00\tword\tdays" in out[1]

    def test_count_is_templates_times_features(self):
        names = ("word", "pattern", "stem")
        rows = [{"word": "a", "pattern": "x", "stem": "a"}] * 4
        out = expand_one(rows, TEMPLATES, names, names)
        assert all(len(feats) == 14 * len(names) for feats in out)

    def test_deterministic_golden(self):
        seq = make_seq(["Three", "days", "ago"])
        a = strings(featurize_sequence([seq], MODEL1))
        b = strings(featurize_sequence([seq], MODEL1))
        assert a == b
        # byte-identical serialization
        assert "\n".join("\t".join(p) for p in a) == \
            "\n".join("\t".join(p) for p in b)


class TestProfiles:
    def test_model1_morphological_only(self):
        config = PROFILES["model1"]
        assert not config.use_syntax and not config.use_gazetteers

    def test_model2_adds_syntax(self):
        config = PROFILES["model2"]
        assert config.use_syntax
        assert "chunk" in config.unigram_features

    def test_model3_adds_gazetteers(self):
        assert PROFILES["model3"].use_gazetteers

    def test_model4_rejected(self):
        """No WordNet data, so no model4: a run configuration naming it
        is an error, not a model3 under a WordNet label."""
        assert list(PROFILES) == ["model1", "model2", "model3"]
        with pytest.raises(ValueError, match="model4"):
            RunConfig(profile="model4")

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            RunConfig(profile="model9")

    def test_gazetteer_features_reach_expansion(self, tmp_path):
        (tmp_path / "cities.txt").write_text("new york\n", encoding="utf-8")
        seq = make_seq(["New", "York", "today"])
        out = strings(featurize_sequence(
            [seq], Featurizer("model3", gazetteer_dir=tmp_path)))
        assert "T00\tgaz_cities\tB" in out[0]


class TestFeaturizer:
    """The digest covers exactly what featurization reads: the profile,
    the templates, the lexicon words and the gazetteers a profile uses."""

    def lexicons_without(self, tmp_path, word):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(DATA_DIR / "lexicons", lexicons)
        path = lexicons / "weekdays.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert word in lines
        path.write_text("\n".join(l for l in lines if l != word) + "\n",
                        encoding="utf-8")
        return lexicons

    def test_digest_is_deterministic_per_profile(self):
        assert Featurizer("model1").digest == MODEL1.digest
        assert len({Featurizer(p).digest for p in PROFILES}) == 3

    def test_lexicon_words_change_the_digest(self, tmp_path):
        lexicons = self.lexicons_without(tmp_path, "monday")
        featurizer = Featurizer("model1", lexicon_dir=lexicons)
        assert featurizer.digest != MODEL1.digest
        [row] = position_rows(make_seq(["Monday"]), featurizer)
        assert row["weekday"] == "n"

    def test_word_order_and_comments_do_not(self, tmp_path):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(DATA_DIR / "lexicons", lexicons)
        path = lexicons / "weekdays.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("# reordered\n" + "\n".join(reversed(lines)),
                        encoding="utf-8")
        assert Featurizer("model1", lexicon_dir=lexicons).digest == \
            MODEL1.digest

    def test_gazetteers_count_only_where_used(self, tmp_path):
        (tmp_path / "cities.txt").write_text("boston\n", encoding="utf-8")
        assert Featurizer("model1", gazetteer_dir=tmp_path).gazetteers == ()
        assert Featurizer("model1", gazetteer_dir=tmp_path).digest == \
            MODEL1.digest
        assert Featurizer("model3", gazetteer_dir=tmp_path).digest != \
            Featurizer("model3").digest


def reference_observations(rows, templates=TEMPLATES, unigram_features=(),
                           conjunction_features=()):
    """Position-by-position expansion: each position's observations, as
    (template id, feature name, value at each offset) tuples, repeated
    templates and names taken once."""
    templates = tuple(dict.fromkeys(templates))
    unigram_features = tuple(dict.fromkeys(unigram_features))
    conjunction_features = tuple(dict.fromkeys(conjunction_features))
    n = len(rows)

    def value(p, name):
        if p < 0:
            return BOS
        if p >= n:
            return EOS
        return rows[p].get(name, "_")

    out = []
    for p in range(n):
        feats = []
        for t in templates:
            names = (unigram_features if len(t.offsets) == 1
                     else conjunction_features)
            for f in names:
                feats.append((t.tid, f, *(value(p + o, f)
                                          for o in t.offsets)))
        out.append(feats)
    return out


def reference_expand(rows, templates=TEMPLATES, unigram_features=(),
                     conjunction_features=()):
    """The definition of the observation keys that `expand_templates`
    must reproduce exactly: each observation's fields, tab-joined."""
    return [list(map("\t".join, feats)) for feats in reference_observations(
        rows, templates, unigram_features, conjunction_features)]


def token_accepts(value):
    """Whether `corpus.Token` takes `value` as an annotation."""
    try:
        Token("x", 0, 1, lemma=value)
    except CorpusError:
        return False
    return True


# Pieces that could confuse the key layout if it were parsed or
# assembled carelessly: the separators and offset spellings of keys
# as they once were, template ids, feature names, sentinels.  Values
# exclude only what a token refuses: tabs and line breaks.
HOSTILE = ("|", "[", "]", "=", "+0", "[+0]", "[0]", "_BOS_", "_EOS_", "_",
           "|word[+1]=x", ":", "é", "時", "\u00a0", "a", "7", "T05", "word",
           " ", "\\t")
VALUES = st.one_of(st.text(max_size=6),
                   st.lists(st.sampled_from(HOSTILE), max_size=4).map(
                       "".join)).filter(token_accepts)
NAMES = ("word", "pattern", "stem", "gaz_x", "f[+0", "a|b")
ROWS = st.lists(st.dictionaries(st.sampled_from(NAMES), VALUES),
                max_size=6)
NAME_SETS = st.lists(st.sampled_from(NAMES), max_size=4)
TEMPLATE_SETS = st.one_of(st.just(TEMPLATES),
                          st.lists(st.sampled_from(TEMPLATES), max_size=6))


# several sequences per call, one-token (and empty) ones among them
SEQUENCES = st.lists(ROWS | st.lists(
    st.dictionaries(st.sampled_from(NAMES), VALUES), min_size=1,
    max_size=1), max_size=4)


def reference_table(rows, types, lengths, templates, unigram, conj,
                    index=None):
    """The table of the reference strings of each sequence, from
    `expand_templates`' arguments (training passes no index)."""
    assert index is None
    at = [0, *accumulate(lengths)]
    return from_strings(
        [reference_expand([rows[t] for t in types[a:b]], templates,
                          unigram, conj) for a, b in zip(at, at[1:])])


def old_extract_rows(seq, featurizer):
    """Row building as it was, one row per position: the oracle for the
    rows per token type of `extract_rows`."""
    rows = [features.token_features(tok, featurizer.lexicons)
            for tok in seq.tokens]
    if featurizer.config.use_syntax:
        for row, tok in zip(rows, seq.tokens):
            row["pos"] = tok.pos or "_"
            row["chunk"] = tok.chunk or "_"
            row["pnp"] = tok.pnp or "_"
    for gaz in featurizer.gazetteers:
        for row, lab in zip(rows, match_gazetteer(seq, gaz)):
            row[f"gaz_{gaz.name}"] = lab
    return rows


FEATURIZERS = {p: Featurizer(p) for p in PROFILES}


def annotated_seq(*tokens):
    """A sequence of (surface, pos, lemma, chunk, pnp) tokens."""
    toks, at = [], 0
    for surface, pos, lemma, chunk, pnp in tokens:
        toks.append(Token(surface, at, at + len(surface), pos, lemma, chunk,
                          pnp))
        at += len(surface) + 1
    return Sequence(tuple(toks))


class TestRowsPerType:
    """One row per token type gives every position the row, and so the
    observation strings, that one row per position gave."""
    # "May" with another lemma or POS, "in" with another chunk or PNP,
    # "York" inside and outside the us_cities phrase "new york city", and
    # a one-token sentence
    SEQS = [
        annotated_seq(("New", "NNP", None, "B-NP", None),
                      ("York", "NNP", None, "I-NP", None),
                      ("City", "NNP", None, "I-NP", None),
                      ("in", "IN", None, "B-PP", "B-PNP"),
                      ("May", "NNP", None, "B-NP", "I-PNP"),
                      (".", ".", None, "O", None)),
        annotated_seq(("York", "NNP", None, "B-NP", None),
                      ("May", "MD", "may", "B-VP", None),
                      ("grow", "VB", None, "I-VP", None),
                      ("in", "IN", None, "O", None),
                      ("May", "NNP", "May", "B-NP", None),
                      ("May", "NNP", None, "B-NP", None),
                      (".", ".", None, "O", None)),
        annotated_seq(("Today", "NN", None, "B-NP", None)),
    ]

    def type_of(self, featurizer):
        """Each (sentence, token) position's type."""
        _, types = extract_rows(self.SEQS, featurizer)
        at = [0, *accumulate(map(len, self.SEQS))]
        return [types[a:b].tolist() for a, b in zip(at, at[1:])]

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_same_rows_and_strings_as_per_position(self, profile):
        featurizer = FEATURIZERS[profile]
        old = [old_extract_rows(seq, featurizer) for seq in self.SEQS]
        rows, types = extract_rows(self.SEQS, featurizer)
        assert [rows[t] for t in types.tolist()] == [
            row for seq_rows in old for row in seq_rows]
        assert len(rows) < len(types)
        assert strings(featurize_sequence(self.SEQS, featurizer)) == [
            feats for seq_rows in old
            for feats in reference_expand(
                seq_rows, TEMPLATES, featurizer.unigram_features,
                featurizer.config.conjunction_features)]

    def test_types_split_on_what_the_profile_reads(self):
        m1, m2, m3 = (self.type_of(FEATURIZERS[p]) for p in PROFILES)
        # "May" by POS and lemma, under every profile
        assert len({m1[0][4], m1[1][1], m1[1][4]}) == 3
        # the PNP-only difference of the two May/NNP tokens, and the chunk
        # and PNP of "in", only where syntax is read
        assert m1[0][4] == m1[1][5] and m3[0][4] == m3[1][5]
        assert m2[0][4] != m2[1][5]
        assert m1[0][3] == m1[1][3] and m2[0][3] != m2[1][3]
        # "York" inside and outside a gazetteer phrase, only under model3
        assert m1[0][1] == m1[1][0] and m2[0][1] != m2[1][0]
        assert m3[0][1] != m3[1][0]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(PROFILES)), st.lists(st.lists(st.tuples(
        st.sampled_from(["new", "York", "city", "May", "in", "7", "."]),
        st.sampled_from([None, "NNP", "MD"]), st.sampled_from([None, "may"]),
        st.sampled_from([None, "B-NP"]), st.sampled_from([None, "B-PNP"])),
        min_size=1, max_size=6), max_size=4))
    def test_matches_per_position_rows(self, profile, seqs):
        featurizer = FEATURIZERS[profile]
        seqs = [annotated_seq(*tokens) for tokens in seqs]
        rows, types = extract_rows(seqs, featurizer)
        assert [rows[t] for t in types.tolist()] == [
            row for seq in seqs for row in old_extract_rows(seq, featurizer)]


class TestExpansionOracle:
    @settings(max_examples=300, deadline=None)
    @given(SEQUENCES, TEMPLATE_SETS, NAME_SETS, NAME_SETS)
    def test_matches_reference(self, rows_per_sequence, templates, unigram,
                               conj):
        """Several sequences per call (one-token ones too), values that
        spell separators, offsets and sentinels, missing features and
        repeated names: each position's strings are the reference's, and
        no window reads across a sequence boundary."""
        table = expand(rows_per_sequence, templates, unigram, conj)
        assert table.lengths == tuple(map(len, rows_per_sequence))
        assert table.codes.shape[0] == len(table)
        # filled in place, positions by slots, not copied from a transpose
        assert table.codes.flags.c_contiguous and table.codes.base is None
        assert table.codes.dtype == np.int32
        assert strings(table) == [
            feats for rows in rows_per_sequence
            for feats in reference_expand(rows, templates, unigram, conj)]

    @settings(max_examples=200, deadline=None)
    @given(SEQUENCES, TEMPLATE_SETS, NAME_SETS, NAME_SETS)
    def test_keys_are_injective(self, rows_per_sequence, templates, unigram,
                                conj):
        """Whatever the values spell, no two observations share a key:
        the table's keys are pairwise distinct, and each names one
        (template, feature, values) observation."""
        table = expand(rows_per_sequence, templates, unigram, conj)
        assert len(set(table.keys)) == len(table.keys)
        observations = [
            obs for rows in rows_per_sequence
            for feats in reference_observations(rows, templates, unigram,
                                                conj)
            for obs in feats]
        keys = [key for feats in strings(table) for key in feats]
        pairs = set(zip(observations, keys, strict=True))
        assert len(pairs) == len(set(observations)) == len(set(keys))

    @pytest.mark.parametrize("profile", ["model1", "model2", "model3"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_key_referenced(self, profile, data):
        """Rows of the profile's own names with hostile values, sentinels
        among them: every key the table holds is some slot's code, and
        the strings are still the reference's."""
        featurizer = FEATURIZERS[profile]
        unigram = featurizer.unigram_features
        conj = featurizer.config.conjunction_features
        row = st.dictionaries(st.sampled_from(unigram + conj), VALUES,
                              max_size=8)
        rows_per_sequence = data.draw(st.lists(st.lists(row, max_size=6),
                                               max_size=4))
        table = expand(rows_per_sequence, TEMPLATES, unigram, conj)
        referenced = np.zeros(len(table.keys), dtype=bool)
        referenced[table.codes[table.codes >= 0]] = True
        assert referenced.all()
        assert strings(table) == [
            feats for rows in rows_per_sequence
            for feats in reference_expand(rows, TEMPLATES, unigram, conj)]

    def test_from_strings_pads_rows_with_empty_slots(self):
        table = from_strings([[["a", "b"], ["b"]], [[]]])
        assert table.keys == ["a", "b"] and table.lengths == (2, 1)
        assert table.codes.dtype == np.int32
        assert table.codes.tolist() == [[0, 1], [1, -1], [-1, -1]]

    def test_matches_reference_on_every_profile(self):
        doc = build_corpus(n_sentences=40, seed=5)
        for profile in ("model1", "model2", "model3"):
            featurizer = Featurizer(profile)
            unigram = featurizer.unigram_features
            conj = featurizer.config.conjunction_features
            rows = [old_extract_rows(seq, featurizer)
                    for seq in doc.sequences]
            table = featurize_sequence(doc.sequences, featurizer)
            assert strings(table) == [
                feats for r in rows
                for feats in reference_expand(r, TEMPLATES, unigram, conj)]
            # each distinct key built once
            assert len(set(table.keys)) == len(table.keys)

    def test_model_file_identical_to_reference(self, tmp_path, monkeypatch):
        """A model trained on reference-expanded features is the one
        trained on `expand_templates`, saved and loaded back: the same
        key for each id and the same weights, bit for bit."""
        docs = [build_corpus(n_sentences=30, seed=11)]
        config = RunConfig(max_iter=40)
        model, _ = pipeline.train_on_docs(docs, config)
        crf.save_model(model, tmp_path / "new.crf")
        model = crf.load_model(tmp_path / "new.crf")
        monkeypatch.setattr(features, "expand_templates", reference_table)
        reference, _ = pipeline.train_on_docs(docs, config)
        assert keys_of(model.obs_index) == list(reference.obs_index)
        assert model.weights.tobytes() == reference.weights.tobytes()


def reference_index(sequences, cutoff):
    """Observation keys seen at least `cutoff` times, in order of
    first occurrence, with their counts."""
    counts: dict[str, int] = {}
    for seq in sequences:
        for feats in seq:
            for f in feats:
                counts[f] = counts.get(f, 0) + 1
    return [(f, n) for f, n in counts.items() if n >= cutoff]


class TestFeatureIndexOnTables:
    # values that made two observations spell one string in the earlier
    # `tid:f[o1]=v1|f[o2]=v2` keys: `x|word[0]=y` then `z` against `x`
    # then `y|word[0]=z`, and `a[+0]`, which was written `a[0]`
    AMBIGUOUS = [[{"word": "x|word[0]=y"}, {"word": "z"}, {"word": "a[+0]"}],
                 [{"word": "x"}, {"word": "y|word[0]=z"}, {"word": "a[0]"}],
                 [{"word": "z"}]]

    def check(self, table, sequences):
        for cutoff in (1, 2, 3):
            index = crf.build_feature_index(table, cutoff)
            want = reference_index(sequences, cutoff)
            assert keys_of(index) == [f for f, _ in want]
            model = crf.CrfModel(index, [0.0] * (3 * len(index) + 9))
            # every kept observation appears as often as the reference
            # counts it
            ids = model.encode(table)
            seen = [0] * len(index)
            for row in ids:
                for i in row.tolist():
                    seen[i] += 1
            assert seen == [n for _, n in want]

    def test_ambiguous_values_keep_distinct_keys(self):
        names = ("word", "word")  # a repeated name, expanded once
        table = expand(self.AMBIGUOUS, TEMPLATES, names, names)
        assert len(set(table.keys)) == len(table.keys)
        assert table.codes.shape[1] == len(TEMPLATES)
        self.check(table, [reference_expand(rows, TEMPLATES, names, names)
                           for rows in self.AMBIGUOUS])

    @settings(max_examples=100, deadline=None)
    @given(SEQUENCES.filter(bool), NAME_SETS, NAME_SETS)
    def test_matches_string_reference(self, rows_per_sequence, unigram,
                                      conj):
        table = expand(rows_per_sequence, TEMPLATES, unigram, conj)
        self.check(table, [reference_expand(rows, TEMPLATES, unigram, conj)
                           for rows in rows_per_sequence])


def unique_index(table, cutoff):
    """The feature index by `np.unique` and a dict comprehension, as
    `crf.build_feature_index` once built it: the oracle for its
    `np.bincount` version."""
    codes = table.codes.ravel()
    codes, first, counts = np.unique(codes[codes >= 0], return_index=True,
                                     return_counts=True)
    order = np.argsort(first)
    kept = codes[order][counts[order] >= cutoff].tolist()
    return {table.keys[c]: i for i, c in enumerate(kept)}


# tables with codes anywhere in their keys' range: keys no code
# references, empty slots, empty sequences
RAW_TABLES = st.integers(0, 12).flatmap(lambda n_keys: st.builds(
    lambda lengths, n_slots, codes: ObservationTable(
        StringKeys(f"k{i}" for i in range(n_keys)),
        np.array(codes[:sum(lengths) * n_slots], dtype=np.int32).reshape(
            sum(lengths), n_slots), tuple(lengths)),
    st.lists(st.integers(0, 5), min_size=1, max_size=5),
    st.integers(0, 4),
    st.lists(st.integers(-1, n_keys - 1), min_size=100, max_size=100)))


class TestIndexOracle:
    """`crf.build_feature_index` against `unique_index`, and the training
    gather against a lookup of each slot's key in it."""

    @staticmethod
    def check(table):
        for cutoff in (1, 2, 3):
            index = crf.build_feature_index(table, cutoff)
            want = unique_index(table, cutoff)
            assert list(index) == list(want)
            model = crf.CrfModel(index, np.zeros(3 * len(index) + 9))
            gathered = model.encode(table)
            assert gathered.indices.dtype == np.int32
            assert [ids.tolist() for ids in gathered] == [
                [want[table.keys[c]] for c in row
                 if c >= 0 and table.keys[c] in want]
                for row in table.codes.tolist()]

    @settings(max_examples=150, deadline=None)
    @given(SEQUENCES.filter(bool), TEMPLATE_SETS, NAME_SETS, NAME_SETS,
           st.randoms(use_true_random=False))
    def test_expanded_tables_and_slices(self, rows_per_sequence, templates,
                                        unigram, conj, rng):
        table = expand(rows_per_sequence, templates, unigram, conj)
        self.check(table)
        # a slice that skips sequences, so some keys are referenced by
        # no code of it
        n = len(rows_per_sequence)
        self.check(table.take(rng.sample(range(n), rng.randint(1, n))))

    @settings(max_examples=150, deadline=None)
    @given(RAW_TABLES)
    def test_raw_tables(self, table):
        self.check(table)


class TestTableSlices:
    """`take` of some sequences of a table gives their rows, and so the
    CRF index and encoding of featurizing them afresh."""
    # under T07, `x|word[+1]=y` then `z` spelled what `x` then
    # `y|word[+1]=z` spelled in the earlier `tid:f[o1]=v1|f[o2]=v2` keys
    AMBIGUOUS = [make_seq(["x|word[+1]=y", "z"]),
                 make_seq(["x", "y|word[+1]=z"])]

    @pytest.mark.parametrize("profile", ["model1", "model3"])
    def test_slice_equals_fresh_featurization(self, profile):
        featurizer = FEATURIZERS[profile]
        seqs = [*build_corpus(n_sentences=24, seed=3).sequences,
                *self.AMBIGUOUS]
        table = featurize_sequence(seqs, featurizer)
        assert len(set(table.keys)) == len(table.keys)
        n = len(seqs)
        rng = random.Random(profile)
        picks = [list(range(n)), [n - 1, 0, n - 2],
                 *(rng.sample(range(n), rng.randint(1, n))
                   for _ in range(6))]
        for pick in picks:
            part = table.take(pick)
            fresh = featurize_sequence([seqs[i] for i in pick], featurizer)
            assert part.keys is table.keys
            assert part.lengths == fresh.lengths
            assert part.codes.dtype == np.int32
            assert strings(part) == strings(fresh)
            for cutoff in (1, 2):
                index = crf.build_feature_index(part, cutoff)
                fresh_index = crf.build_feature_index(fresh, cutoff)
                assert keys_of(index) == keys_of(fresh_index)
                model, fresh_model = (
                    crf.CrfModel(i, [0.0] * (3 * len(i) + 9))
                    for i in (index, fresh_index))
                for a, b in zip(model.encode(part), fresh_model.encode(fresh),
                                strict=True):
                    assert a.tolist() == b.tolist()

    def test_ambiguous_values_train_distinct_observations(self):
        """The two windows are two observations, each with weights of its
        own: 674 features, where the earlier keys merged three pairs of
        observations into 671."""
        table = featurize_sequence(self.AMBIGUOUS, MODEL1)
        model = crf.train(table, [["B", "O"], ["O", "B"]],
                          crf.TrainConfig(max_iter=5))
        assert model.training_log["n_features"] == 674
        ids = {key: i for i, key in enumerate(keys_of(model.obs_index))}
        first = ids["T07\tword\tx|word[+1]=y\tz"]
        second = ids["T07\tword\tx\ty|word[+1]=z"]
        assert not np.array_equal(model.unary_weights()[first],
                                  model.unary_weights()[second])

    def test_empty_selection(self):
        table = featurize_sequence(self.AMBIGUOUS, MODEL1)
        empty = table.take([])
        assert empty.lengths == () and len(empty) == 0
        assert empty.codes.shape == (0, table.codes.shape[1])
        assert strings(empty) == []


def model_of(index):
    """A model of the observations of `index`, with zero weights."""
    return crf.CrfModel(index, np.zeros(3 * len(index) + 9))


def encoded(model, table):
    """`CrfModel.encode` of the table, as lists."""
    steps = model.encode(table)
    return steps.indices.tolist(), steps.indptr.tolist()


def by_keys(model, table):
    """The encoding by key string (`oracles.encode_by_keys`), as lists:
    the string path's."""
    steps = encode_by_keys(model, table)
    return steps.indices.tolist(), steps.indptr.tolist()


class TestVocabulary:
    """`tag` expands under the model's index: each slot gets the model's
    id, never a key, and those are exactly the ids that the string
    path's keys find."""

    @settings(max_examples=300, deadline=None)
    @given(SEQUENCES, SEQUENCES, TEMPLATE_SETS, NAME_SETS, NAME_SETS,
           st.randoms(use_true_random=False))
    def test_ids_equal_string_path(self, known, unseen, templates, unigram,
                                   conj, rng):
        """Values that spell separators, sentinels (a literal _BOS_,
        _EOS_ or _) and empty strings, observations in any order and
        some missing: the model's, and values it has never seen."""
        keys = expand(known, templates, unigram, conj).keys
        model = model_of(keys.subset(np.array(
            rng.sample(range(len(keys)), rng.randint(0, len(keys))),
            dtype=np.int64)))
        seqs = rng.sample(known + unseen, len(known + unseen))
        table = expand(seqs, templates, unigram, conj, model.obs_index)
        # the model's own index, whose codes `encode` takes as ids
        assert table.keys is model.obs_index
        assert table.lengths == tuple(map(len, seqs))
        assert table.codes.dtype == np.int32
        assert table.codes.flags.c_contiguous
        assert encoded(model, table) == by_keys(
            model, expand(seqs, templates, unigram, conj))

    # "May" by POS, lemma, chunk and PNP, and "New York City", a
    # us_cities phrase
    ANNOTATED = TestRowsPerType.SEQS

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_profiles_unseen_words_and_junk_keys(self, profile):
        """A model of observations no input below builds, as well as of
        the known sentences', with ids in shuffled order."""
        featurizer = FEATURIZERS[profile]
        sentinels = make_seq(["_BOS_", "_", "May", "_EOS_"])
        known = [*build_corpus(n_sentences=20, seed=3).sequences,
                 *self.ANNOTATED[:2], sentinels,
                 *build_corpus(n_sentences=5, seed=4).sequences]
        keys = featurize_sequence(known, featurizer).keys
        rng = random.Random(profile)
        model = model_of(keys.subset(np.array(
            rng.sample(range(len(keys)), len(keys)), dtype=np.int64)))
        unseen = [make_seq(["".join(rng.choice("qzxjKQ7_") for _ in
                                    range(rng.randint(1, 8)))
                            for _ in range(rng.randint(1, 12))])
                  for _ in range(6)]
        empty = Sequence(())
        for seqs in ([], [empty], unseen, [empty, *unseen, empty],
                     [sentinels, make_seq(["_EOS_", "x", "_BOS_"])],
                     [*unseen[:3], *self.ANNOTATED, *known[:-5][::-1]],
                     build_corpus(n_sentences=30, seed=9).sequences):
            table = featurize_sequence(seqs, featurizer, model.obs_index)
            strings = featurize_sequence(seqs, featurizer)
            assert table.codes.shape == strings.codes.shape
            assert encoded(model, table) == by_keys(model, strings)

    def test_no_dense_slot(self):
        """Word conjunctions alone, over more words than a dense table
        holds: no slot of the group reads a dense table."""
        rows = [[{"word": f"w{i}"} for i in range(features.DENSE_CODES)]]
        model = model_of(crf.build_feature_index(
            expand(rows, TEMPLATES, (), ("word",))))
        assert model.obs_index.radix[0] > features.DENSE_CODES
        seqs = [rows[0][::-1], [{"word": "w1"}, {"word": "new"}], []]
        assert encoded(model, expand(seqs, TEMPLATES, (), ("word",),
                                     model.obs_index)) == by_keys(
            model, expand(seqs, TEMPLATES, (), ("word",)))

    def test_other_templates_are_refused(self):
        index = featurize_sequence([], MODEL1).keys
        rows, types = extract_rows([make_seq(["May"])], MODEL1)
        with pytest.raises(ValueError, match="other templates"):
            expand_templates(rows, types, (1,), TEMPLATES[:5],
                             MODEL1.unigram_features,
                             MODEL1.config.conjunction_features, index)

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_label_documents_decode_as_the_string_path(self, profile,
                                                       monkeypatch):
        """Marginals, logZ and Viterbi paths of `label_documents`, batch
        by batch, are the bits of `_label_batch` over tables of their
        own, encoded by key string."""
        featurizer = FEATURIZERS[profile]
        config = RunConfig(profile=profile, max_iter=15)
        train = [*build_corpus(n_sentences=30, seed=3).sequences,
                 *self.ANNOTATED]
        model = pipeline.train_on_sequences(train, config, featurizer)
        priors = postproc.build_prior_table(train)
        docs = [replace(build_corpus(n_sentences=n, seed=s), id=f"d{s}")
                for s, n in ((5, 12), (6, 3), (7, 20))]
        docs.append(assemble_document("annotated", docs[0].dct,
                                      pack_sequences(self.ANNOTATED)))
        monkeypatch.setattr(pipeline, "BATCH_TOKENS", 150)
        seen = []
        for name in ("forward_backward", "viterbi"):
            original = getattr(crf, name)
            monkeypatch.setattr(crf, name, lambda m, t, f=original: (
                seen.append(f(m, t)) or seen[-1]))
        runs = []
        for string_path in (False, True):
            seen.clear()
            labels = []
            if string_path:
                monkeypatch.setattr(crf.CrfModel, "encode", encode_by_keys)
            for p in (priors, None):
                if string_path:
                    for batch in pipeline.document_batches(docs):
                        labels += pipeline._label_batch(
                            batch, model, featurizer, config, p,
                            featurize_sequence([seq for doc in batch
                                                for seq in doc.sequences],
                                               featurizer))
                else:
                    labels += pipeline.label_documents(
                        docs, model, featurizer, config, p)
            runs.append((labels, list(seen)))
        (labels, results), (string_labels, string_results) = runs
        assert labels == string_labels
        assert len(results) == len(string_results) == 2 * 3
        for a, b in zip(results, string_results):
            if isinstance(a[0], crf.MarginalTable):
                assert [(m.probs.tobytes(), np.float64(m.log_z).tobytes())
                        for m in a] == [
                    (m.probs.tobytes(), np.float64(m.log_z).tobytes())
                    for m in b]
            else:
                assert a == b


class TestMixedRadix:
    """A slot's offsets combine into one mixed-radix code (`_combine`),
    exact while radix ** arity stays within 2 ** 62, the code that both
    the key spelling and the vocabulary's step map read; one radix more
    is refused."""

    LARGEST = {1: 2 ** 62, 2: 2 ** 31, 3: 1_664_510}

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_largest_radix(self, arity, dense):
        largest = self.LARGEST[arity]
        assert largest ** arity <= 2 ** 62 < (largest + 1) ** arity
        # 5 is a dense slot
        radix = np.array([largest] + [5] * dense, dtype=np.int64)
        n = len(radix)
        rng = random.Random(arity)
        keys = {}
        for s, r in enumerate(radix.tolist()):
            picks = (0, 1, r - 2, r - 1, r // 2)
            for _ in range(6):
                keys.setdefault((s, tuple(rng.choice(picks)
                                          for _ in range(arity))),
                                len(keys))
        # each slot's keys, then the same values shifted by one code
        queries = [[v for (t, v) in keys if t == s] for s in range(n)]
        queries = [q + [tuple((x + 1) % radix[s] for x in v) for v in q]
                   for s, q in enumerate(queries)]
        width = max(map(len, queries))
        grid = np.zeros((n, width, arity), dtype=np.int64)
        for s, q in enumerate(queries):
            grid[s, :len(q)] = q
        digits = grid.transpose(2, 0, 1)  # offset, slot, position
        codes = features._combine(digits, radix[:, None])
        # the string path's codes, and its spelling by divmod
        for s, r in enumerate(radix.tolist()):
            for p in range(width):
                values = grid[s, p].tolist()
                assert int(codes[s, p]) == sum(
                    v * r ** (arity - 1 - k) for k, v in enumerate(values))
                rest, spelled = int(codes[s, p]), []
                for _ in range(arity):
                    rest, v = divmod(rest, r)
                    spelled.append(v)
                assert spelled[::-1] == values
        # the vocabulary's map from the keys' codes to their ids
        slots = np.array([s for s, _ in keys], dtype=np.int64)
        values = np.array([v for _, v in keys], dtype=np.int64)
        to_id = features._StepMap(
            slots, features._combine(values.T, radix[slots]),
            np.array(list(keys.values()), dtype=np.int64), radix ** arity)
        got = to_id(codes)
        for s in range(n):
            for p in range(width):
                want = keys.get((s, tuple(grid[s, p].tolist())), -1)
                assert got[s, p] == want
        # one radix more passes 2 ** 62, for either path
        radix[0] += 1
        with pytest.raises(features.FeatureError, match="2\\*\\*62"):
            features._combine(digits, radix[:, None])
        with pytest.raises(features.FeatureError):
            features._combine(values.T, radix[slots])


_OLD_CARDINAL = re.compile(r"\d+")
_OLD_ORDINAL = re.compile(r"\d+(st|nd|rd|th)")
_OLD_TIME = re.compile(r"\d{1,2}(:\d{2}){1,2}|\d{1,2}(am|pm|h)")
_OLD_DATE = re.compile(
    r"\d{4}|\d{1,2}[-/]\d{1,2}[-/]\d{2,4}|\d{4}[-/]\d{1,2}([-/]\d{1,2})?"
    r"|[a-z]{3,9}-\d{2,4}", re.IGNORECASE)
_OLD_DECIMAL = re.compile(r"\d+\.\d+")
_OLD_NUM_DOTS = re.compile(r"\d+(\.\d+)+")
_OLD_ACRONYM = re.compile(r"([A-Z]\.)+[A-Z]?")


def old_collapsed_pattern(surface):
    out = []
    for c in pattern(surface):
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


def old_token_features(tok, lex):
    """The row function as it was, with module-level `re` calls: the
    oracle for `features.token_features`."""
    B = {True: "y", False: "n"}
    w = tok.surface
    low = w.lower()
    full = re.fullmatch
    return {
        "word": w,
        "lemma": tok.lemma if tok.lemma else low,
        "stem": features.stem(w),
        "pattern": pattern(w),
        "collapsed_pattern": old_collapsed_pattern(w),
        "prefix3": w[:3],
        "suffix3": w[-3:],
        "upper_first": B[w[0].isupper()],
        "ends_with_s": B[low.endswith("s")],
        "no_letters": re.sub(r"[A-Za-z]", "", w) or "_",
        "no_letters_digits": re.sub(r"[A-Za-z0-9]", "", w) or "_",
        "verb_tense": features._PENN_TENSE.get(tok.pos or "", "_"),
        "lower": B[w.islower()],
        "alphabetic": B[w.isalpha()],
        "digit": B[w.isdigit()],
        "alphanumeric": B[w.isalnum()],
        "titled": B[w.istitle()],
        "capitalized": B[w[0].isupper() and w.isalpha()],
        "acronym": B[bool(full(_OLD_ACRONYM, w))],
        "number": B[w.isdigit() or low in features.CARDINAL_WORDS],
        "decimal_number": B[bool(full(_OLD_DECIMAL, w))],
        "number_with_dots": B[bool(full(_OLD_NUM_DOTS, w))],
        "stopword": B[low in lex.stopwords],
        "cardinal": B[bool(full(_OLD_CARDINAL, w))
                      or low in features.CARDINAL_WORDS],
        "ordinal": B[bool(full(_OLD_ORDINAL, low))
                     or low in features.ORDINAL_WORDS],
        "time": B[bool(full(_OLD_TIME, low))],
        "date": B[bool(full(_OLD_DATE, low)) or low in lex.months],
        "period_of_day": B[low in lex.periods_of_day],
        "weekday": B[low in lex.weekdays],
        "season": B[low in lex.seasons],
        "past_ref": B[low in lex.past_refs],
        "present_ref": B[low in lex.present_refs],
        "future_ref": B[low in lex.future_refs],
        "temporal_signal": B[low in lex.temporal_signals],
        "fuzzy_quantifier": B[low in lex.fuzzy_quantifiers],
        "modifier": B[low in lex.modifiers],
        "temporal_adverb": B[low in lex.temporal_adverbs],
        "adjective_suffix": B[low.endswith(features._ADJ_SUFFIXES)],
        "conjunction": B[low in lex.conjunctions],
        "preposition": B[low in lex.prepositions],
    }


# surfaces: runs of non-space characters, from the patterns' own
# alphabet (digits, separators, am/pm/st/th, month-like words), any
# letters, and characters outside ASCII that case-fold or count as digits
SURFACE_PIECES = st.sampled_from(
    ["1", "12", "2003", ":", "-", "/", ".", "am", "pm", "h", "st", "th",
     "Jan", "A.", "B", "x", "Monday", "ago", "ß", "İ", "K", "ſ", "٣",
     "²", "É", "時", "Ǆ", "ﬁ"])
SURFACES = st.one_of(
    st.lists(SURFACE_PIECES, min_size=1, max_size=5).map("".join),
    st.text(min_size=1, max_size=12)).filter(
        lambda w: w and not any(c.isspace() for c in w))


class TestRowOracle:
    @settings(max_examples=1000, deadline=None)
    @given(SURFACES, st.sampled_from([None, "VBD", "NN"]),
           st.sampled_from([None, "x"]))
    def test_rows_equal_old_function(self, surface, pos, lemma):
        tok = Token(surface, 0, len(surface), pos=pos, lemma=lemma)
        assert features.token_features(tok, MODEL1.lexicons) == \
            old_token_features(tok, MODEL1.lexicons)
