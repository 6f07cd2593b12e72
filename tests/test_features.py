import shutil

import pytest
from hypothesis import given, settings, strategies as st

from tempex import crf, features, pipeline
from tempex.config import RunConfig
from tempex.corpus import Sequence, Token, is_valid_bio
from tempex.features import (BOS, EOS, DATA_DIR, Featurizer, Gazetteer,
                             TEMPLATES, collapsed_pattern, expand_templates,
                             extract_rows, match_gazetteer, pattern,
                             PROFILES, featurize_sequence)

from synth import build_corpus

MODEL1 = Featurizer("model1")


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
        [row] = extract_rows(make_seq(["morning"]), MODEL1)
        assert row["period_of_day"] == "y"

    def test_past_ref(self):
        [row] = extract_rows(make_seq(["ago"]), MODEL1)
        assert row["past_ref"] == "y"

    def test_digit_token(self):
        [row] = extract_rows(make_seq(["7"]), MODEL1)
        assert row["digit"] == "y"
        assert row["number"] == "y"
        assert row["cardinal"] == "y"
        assert row["alphabetic"] == "n"

    def test_lemma_fallback_is_lowercased_surface(self):
        [row] = extract_rows(make_seq(["Tomorrow"]), MODEL1)
        assert row["lemma"] == "tomorrow"

    def test_verb_tense_from_pos(self):
        seq = Sequence((Token("went", 0, 4, pos="VBD"),))
        [row] = extract_rows(seq, MODEL1)
        assert row["verb_tense"] == "past"

    def test_deterministic(self):
        seq = make_seq(["Three", "days", "ago", "."])
        assert extract_rows(seq, MODEL1) == extract_rows(seq, MODEL1)


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
        out = expand_templates(rows, TEMPLATES, ("word",), ("word",))
        assert "T05:word[-1]=_BOS_|word[0]=three" in out[0]

    def test_unigram_string(self):
        rows = [{"word": "three"}, {"word": "days"}]
        out = expand_templates(rows, TEMPLATES, ("word",), ("word",))
        assert "T00:word[0]=days" in out[1]

    def test_count_is_templates_times_features(self):
        names = ("word", "pattern", "stem")
        rows = [{"word": "a", "pattern": "x", "stem": "a"}] * 4
        out = expand_templates(rows, TEMPLATES, names, names)
        assert all(len(feats) == 14 * len(names) for feats in out)

    def test_deterministic_golden(self):
        seq = make_seq(["Three", "days", "ago"])
        a = featurize_sequence(seq, MODEL1)
        b = featurize_sequence(seq, MODEL1)
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
        out = featurize_sequence(seq, Featurizer("model3",
                                                 gazetteer_dir=tmp_path))
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
        [row] = extract_rows(make_seq(["Monday"]), featurizer)
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


class TestExpansionOracle:
    @settings(max_examples=300, deadline=None)
    @given(ROWS, TEMPLATE_SETS, NAME_SETS, NAME_SETS)
    def test_matches_reference(self, rows, templates, unigram, conj):
        assert expand_templates(rows, templates, unigram, conj) == \
            reference_expand(rows, templates, unigram, conj)

    def test_matches_reference_on_every_profile(self):
        doc = build_corpus(n_sentences=40, seed=5)
        for profile in ("model1", "model2", "model3"):
            featurizer = Featurizer(profile)
            unigram = featurizer.unigram_features
            conj = featurizer.config.conjunction_features
            for seq in doc.sequences:
                rows = features.extract_rows(seq, featurizer)
                assert expand_templates(rows, TEMPLATES, unigram, conj) \
                    == reference_expand(rows, TEMPLATES, unigram, conj)

    def test_model_file_identical_to_reference(self, tmp_path, monkeypatch):
        """A model trained on reference-expanded features is saved byte
        for byte as the one trained on `expand_templates`."""
        docs = [build_corpus(n_sentences=30, seed=11)]
        config = RunConfig(max_iter=40)
        saved = []
        for name in ("new", "reference"):
            if name == "reference":
                monkeypatch.setattr(features, "expand_templates",
                                    reference_expand)
            model, _ = pipeline.train_on_docs(docs, config)
            crf.save_model(model, tmp_path / f"{name}.crf")
            saved.append((tmp_path / f"{name}.crf").read_bytes())
        assert saved[0] == saved[1]
