import re
import shutil
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from tempex import crf, features, pipeline
from tempex.config import RunConfig
from tempex.corpus import Sequence, Token, is_valid_bio
from tempex.features import (BOS, EOS, DATA_DIR, Featurizer, Gazetteer,
                             ObservationTable, TEMPLATES, collapsed_pattern,
                             expand_templates, extract_rows,
                             match_gazetteer, pattern, PROFILES,
                             featurize_sequence)

from synth import build_corpus

MODEL1 = Featurizer("model1")


def strings(table):
    """Each position's observation strings, empty slots left out."""
    return [[table.keys[c] for c in row if c >= 0] for row in table]


def expand(rows_per_sequence, templates, unigram, conj):
    """`expand_templates` of per-position rows, each distinct row passed
    once, as `extract_rows` passes one row per token type."""
    index: dict[tuple, int] = {}
    rows, types = [], []
    for row in (r for seq_rows in rows_per_sequence for r in seq_rows):
        t = index.setdefault(tuple(row.items()), len(index))
        if t == len(rows):
            rows.append(row)
        types.append(t)
    return expand_templates(rows, types, tuple(map(len, rows_per_sequence)),
                            templates, unigram, conj)


def expand_one(rows, templates, unigram, conj):
    """Observation strings per position of one sequence's rows."""
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
        assert "T05:word[-1]=_BOS_|word[0]=three" in out[0]

    def test_unigram_string(self):
        rows = [{"word": "three"}, {"word": "days"}]
        out = expand_one(rows, TEMPLATES, ("word",), ("word",))
        assert "T00:word[0]=days" in out[1]

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
        assert any("gaz_cities[0]=B" in f for f in out[0])


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


def reference_expand(rows, templates=TEMPLATES, unigram_features=(),
                     conjunction_features=()):
    """Position-by-position expansion: the definition of the observation
    strings that `expand_templates` must reproduce exactly."""
    unigram_features = tuple(unigram_features)
    conjunction_features = tuple(conjunction_features)
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
                parts = "|".join(
                    f"{f}[{o:+d}]={value(p + o, f)}".replace("[+0]", "[0]")
                    for o in t.offsets)
                feats.append(f"{t.tid}:{parts}")
        out.append(feats)
    return out


# Pieces that could confuse the string layout if it were parsed or
# assembled carelessly: the separators, the offset spellings, sentinels.
HOSTILE = ("|", "[", "]", "=", "+0", "[+0]", "[0]", "_BOS_", "_EOS_", "_",
           "|word[+1]=x", ":", "é", "時", "\u00a0", "a", "7")
VALUES = st.one_of(st.text(max_size=6),
                   st.lists(st.sampled_from(HOSTILE), max_size=4).map(
                       "".join))
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


def reference_table(rows, types, lengths, templates, unigram, conj):
    """The table of the reference strings of each sequence, from
    `expand_templates`' arguments."""
    at = [0, *accumulate(lengths)]
    return ObservationTable.from_strings(
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
        assert strings(table) == [
            feats for rows in rows_per_sequence
            for feats in reference_expand(rows, templates, unigram, conj)]

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
            # each distinct string built once (no ambiguous values here)
            assert len(set(table.keys)) == len(table.keys)

    def test_model_file_identical_to_reference(self, tmp_path, monkeypatch):
        """A model trained on reference-expanded features is saved byte
        for byte as the one trained on `expand_templates`."""
        docs = [build_corpus(n_sentences=30, seed=11)]
        config = RunConfig(max_iter=40)
        saved = []
        for name in ("new", "reference"):
            if name == "reference":
                monkeypatch.setattr(features, "expand_templates",
                                    reference_table)
            model, _ = pipeline.train_on_docs(docs, config)
            crf.save_model(model, tmp_path / f"{name}.crf")
            saved.append((tmp_path / f"{name}.crf").read_bytes())
        assert saved[0] == saved[1]


def reference_index(sequences, cutoff):
    """Observation strings seen at least `cutoff` times, in order of
    first occurrence, with their counts."""
    counts: dict[str, int] = {}
    for seq in sequences:
        for feats in seq:
            for f in feats:
                counts[f] = counts.get(f, 0) + 1
    return [(f, n) for f, n in counts.items() if n >= cutoff]


class TestFeatureIndexOnTables:
    # `x|word[0]=y` then `z` spells what `x` then `y|word[0]=z` spells,
    # and `a[+0]` is written as `a[0]`: different codes, one string
    AMBIGUOUS = [[{"word": "x|word[0]=y"}, {"word": "z"}, {"word": "a[+0]"}],
                 [{"word": "x"}, {"word": "y|word[0]=z"}, {"word": "a[0]"}],
                 [{"word": "z"}]]

    def check(self, table, sequences):
        for cutoff in (1, 2, 3):
            index = crf.build_feature_index(table, cutoff)
            want = reference_index(sequences, cutoff)
            assert list(index) == [f for f, _ in want]
            assert list(index.values()) == list(range(len(want)))
            model = crf.CrfModel(index, [0.0] * (3 * len(index) + 9))
            # every kept observation appears as often as the reference
            # counts it
            ids = model.encode(table)
            seen = [0] * len(index)
            for row in ids:
                for i in row.tolist():
                    seen[i] += 1
            assert seen == [n for _, n in want]

    def test_colliding_slots_merge(self):
        names = ("word", "word")  # a repeated name: two slots, one string
        table = expand(self.AMBIGUOUS, TEMPLATES, names, names)
        assert len(set(table.keys)) < len(table.keys)
        self.check(table, [reference_expand(rows, TEMPLATES, names, names)
                           for rows in self.AMBIGUOUS])

    @settings(max_examples=100, deadline=None)
    @given(SEQUENCES.filter(bool), NAME_SETS, NAME_SETS)
    def test_matches_string_reference(self, rows_per_sequence, unigram,
                                      conj):
        table = expand(rows_per_sequence, TEMPLATES, unigram, conj)
        self.check(table, [reference_expand(rows, TEMPLATES, unigram, conj)
                           for rows in rows_per_sequence])


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
