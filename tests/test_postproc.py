import numpy as np
import pytest
from hypothesis import given, strategies as st

from tempex.corpus import (LABELS, Document, Sequence, Token,
                           is_valid_bio, repair_bio)
from tempex.crf import MarginalTable
from tempex.postproc import (DEFAULT_THRESHOLD, PriorTable,
                             PostprocError, bio_fixer, build_prior_table,
                             probabilistic_correction, run_pipeline,
                             threshold_label_switcher)

import datetime


def make_seq(words, labels=None):
    toks, pos = [], 0
    for w in words:
        toks.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sequence(tuple(toks), tuple(labels) if labels else None)


def make_doc(sentences):
    seqs = []
    cursor = 0
    for words, labels in sentences:
        toks = []
        for w in words:
            toks.append(Token(w, cursor, cursor + len(w)))
            cursor += len(w) + 1
        seqs.append(Sequence(tuple(toks), tuple(labels)))
    return Document("d", datetime.date(2013, 4, 11), tuple(seqs), "")


def table_for(**dists):
    table = PriorTable()
    for tok, (b, i, o) in dists.items():
        table.counts[tok] = np.array([b, i, o], float)
        table.in_span_counts[tok] = int(b + i)
    return table


class TestPriorTable:
    def test_counting(self):
        # "ago" occurs 3x as I and 1x as O
        doc = make_doc([
            (["three", "days", "ago"], ["B", "I", "I"]),
            (["two", "weeks", "ago"], ["B", "I", "I"]),
            (["a", "year", "ago"], ["B", "I", "I"]),
            (["long", "ago", "lost"], ["O", "O", "O"]),
        ])
        table = build_prior_table(doc.sequences)
        dist = table.distribution("ago")
        assert dist == pytest.approx([0.0, 0.75, 0.25])

    def test_single_in_span_occurrence_excluded(self):
        doc = make_doc([
            (["ago"], ["B"]),
            (["ago"], ["O"]),
            (["ago"], ["O"]),
        ])
        table = build_prior_table(doc.sequences)
        assert "ago" not in table

    def test_never_in_span_excluded(self):
        doc = make_doc([
            (["the", "cat"], ["O", "O"]),
            (["the", "dog"], ["O", "O"]),
            (["today"], ["B"]),
            (["today"], ["B"]),
        ])
        table = build_prior_table(doc.sequences)
        assert "the" not in table and "today" in table

    def test_keys_lowercased(self):
        doc = make_doc([
            (["Today"], ["B"]),
            (["today"], ["B"]),
        ])
        table = build_prior_table(doc.sequences)
        assert table.distribution("TODAY") == pytest.approx([1.0, 0, 0])

    def test_unlabeled_corpus_rejected(self):
        doc = Document("d", datetime.date(2013, 4, 11),
                       (make_seq(["a"]),), "")
        with pytest.raises(PostprocError, match="gold"):
            build_prior_table(doc.sequences)

    def test_round_trip(self, tmp_path):
        doc = make_doc([
            (["three", "days", "ago"], ["B", "I", "I"]),
            (["two", "days", "ago"], ["B", "I", "I"]),
        ])
        table = build_prior_table(doc.sequences)
        path = tmp_path / "priors.tsv"
        table.save(path)
        loaded = PriorTable.load(path)
        for key in table.counts:
            assert loaded.distribution(key) == \
                pytest.approx(table.distribution(key))

    @given(st.lists(
        st.tuples(st.one_of(
            # few surfaces, so that tokens repeat, in several cases
            st.text("aAbBσΣİ.", min_size=1, max_size=2),
            st.text(st.characters(blacklist_categories=(
                "Cc", "Cs", "Zl", "Zp", "Zs")), min_size=1, max_size=4)),
            st.sampled_from(LABELS)),
        min_size=1, max_size=40))
    def test_save_load_round_trip(self, tmp_path_factory, tokens):
        """`load` reads back exactly what `save` wrote of any built
        table: lower-cased keys, each once."""
        seq = make_seq([w for w, _ in tokens],
                       repair_bio([lab for _, lab in tokens]))
        table = build_prior_table([seq])
        path = tmp_path_factory.mktemp("priors") / "p.tsv"
        table.save(path)
        loaded = PriorTable.load(path)
        assert loaded.counts.keys() == table.counts.keys()
        for key, count in table.counts.items():
            assert np.array_equal(loaded.counts[key], count)
        assert loaded.in_span_counts == table.in_span_counts


class TestProbabilisticCorrection:
    def test_arithmetic_mean(self):
        marginals = MarginalTable(np.array([[0.2, 0.1, 0.7]]), 0.0)
        priors = table_for(w=(0.8, 0.1, 0.1))
        seq = make_seq(["w"])
        adjusted, labels = probabilistic_correction(
            marginals, seq.tokens, priors)
        assert adjusted[0] == pytest.approx([0.5, 0.1, 0.4])
        assert labels == ["B"]

    def test_absent_token_unchanged(self):
        marginals = MarginalTable(np.array([[0.2, 0.1, 0.7]]), 0.0)
        adjusted, labels = probabilistic_correction(
            marginals, make_seq(["w"]).tokens, PriorTable())
        assert adjusted[0] == pytest.approx([0.2, 0.1, 0.7])
        assert labels == ["O"]

    def test_equal_prior_is_identity(self):
        marginals = MarginalTable(np.array([[0.3, 0.3, 0.4]]), 0.0)
        priors = table_for(w=(0.3, 0.3, 0.4))
        adjusted, _ = probabilistic_correction(
            marginals, make_seq(["w"]).tokens, priors)
        assert adjusted[0] == pytest.approx([0.3, 0.3, 0.4])

    def test_rows_still_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet([1, 1, 1], size=4)
            marginals = MarginalTable(probs, 0.0)
            priors = table_for(a=tuple(rng.dirichlet([1, 1, 1])))
            seq = make_seq(["a", "b", "a", "c"])
            adjusted, _ = probabilistic_correction(
                marginals, seq.tokens, priors)
            assert np.abs(adjusted.sum(axis=1) - 1).max() <= 1e-9


class TestBioFixer:
    def test_orphan_i_paper_example(self):
        seq = make_seq(["Three", "days", "ago", "."])
        assert bio_fixer(["O", "I", "I", "O"], seq.tokens) == \
            ["B", "I", "I", "O"]

    def test_adjacent_b_merge_paper_example(self):
        seq = make_seq(["Wednesday", "morning"])
        assert bio_fixer(["B", "B"], seq.tokens) == ["B", "I"]

    def test_punctuation_blocks_merge(self):
        seq = make_seq(["Friday", ".", "Monday"])
        assert bio_fixer(["B", "O", "B"], seq.tokens) == ["B", "O", "B"]

    def test_leading_i(self):
        seq = make_seq(["days", "ago"])
        assert bio_fixer(["I", "I"], seq.tokens) == ["B", "I"]

    def test_merge_after_i(self):
        seq = make_seq(["three", "days", "ago"])
        assert bio_fixer(["B", "I", "B"], seq.tokens) == ["B", "I", "I"]

    @given(st.lists(st.sampled_from(["B", "I", "O"]), min_size=0,
                    max_size=14),
           st.lists(st.booleans(), min_size=14, max_size=14))
    def test_always_valid_and_idempotent(self, labels, punct):
        words = ["." if p else f"w{i}" for i, p in enumerate(punct)]
        seq = make_seq(words[:len(labels)] or ["x"])
        labels = labels[:len(seq)]
        fixed = bio_fixer(labels, seq.tokens)
        assert is_valid_bio(fixed)
        assert bio_fixer(fixed, seq.tokens) == fixed


class TestThresholdSwitcher:
    def test_switch_above_threshold(self):
        priors = table_for(yesterday=(0.95, 0.03, 0.02))
        seq = make_seq(["yesterday"])
        out = threshold_label_switcher(["O"], seq.tokens, priors, 0.87)
        assert out == ["B"]

    def test_below_threshold_unchanged(self):
        priors = table_for(w=(0.80, 0.1, 0.1))
        out = threshold_label_switcher(
            ["O"], make_seq(["w"]).tokens, priors, 0.87)
        assert out == ["O"]

    def test_exactly_at_threshold_unchanged(self):
        priors = table_for(w=(0.87, 0.03, 0.10))
        out = threshold_label_switcher(
            ["O"], make_seq(["w"]).tokens, priors, 0.87)
        assert out == ["O"]

    def test_absent_token_unchanged(self):
        out = threshold_label_switcher(
            ["I"], make_seq(["w"]).tokens, PriorTable(), 0.5)
        assert out == ["I"]

    def test_theta_one_is_identity(self):
        priors = table_for(w=(1.0, 0.0, 0.0))
        out = threshold_label_switcher(
            ["O"], make_seq(["w"]).tokens, priors, 1.0)
        assert out == ["O"]


def reference_pipeline(marginals, tokens, priors, threshold):
    """The stage loop over the paper's stage order, as `run_pipeline`
    once ran it from a list of stage names."""
    labels = [LABELS[i] for i in np.argmax(marginals.probs, axis=1)]
    for stage in ("prob_correction", "bio_fixer", "threshold_switcher",
                  "bio_fixer"):
        if stage == "prob_correction":
            _, labels = probabilistic_correction(marginals, tokens, priors)
        elif stage == "bio_fixer":
            labels = bio_fixer(labels, tokens)
        elif stage == "threshold_switcher":
            labels = threshold_label_switcher(labels, tokens, priors,
                                              threshold)
    return labels


class TestPipeline:
    def test_default_stage_order(self):
        """Correction, fixer, switcher, fixer: each stage changes what
        the next one sees."""
        assert DEFAULT_THRESHOLD == 0.87
        seq = make_seq(["last", "Friday", "night", "."])
        probs = np.array([
            [0.3, 0.1, 0.6], [0.1, 0.2, 0.7],
            [0.6, 0.1, 0.3], [0.1, 0.1, 0.8]])
        priors = table_for(last=(0.9, 0.05, 0.05), friday=(0.2, 0.78, 0.02),
                           night=(0.92, 0.04, 0.04))
        marginals = MarginalTable(probs, 0.0)
        _, corrected = probabilistic_correction(marginals, seq.tokens,
                                                priors)
        assert corrected == ["B", "I", "B", "O"]
        assert bio_fixer(corrected, seq.tokens) == ["B", "I", "I", "O"]
        assert threshold_label_switcher(
            ["B", "I", "I", "O"], seq.tokens, priors,
            DEFAULT_THRESHOLD) == ["B", "I", "B", "O"]
        assert run_pipeline(marginals, seq.tokens, priors) == \
            ["B", "I", "I", "O"]
        # the fixer runs before the switcher: "a" opens a span on the
        # corrected I of "b", which the switcher then turns to O
        seq = make_seq(["a", "b"])
        marginals = MarginalTable(np.array([[0.1, 0.1, 0.8],
                                            [0.0, 1.0, 0.0]]), 0.0)
        assert run_pipeline(marginals, seq.tokens,
                            table_for(b=(0, 1, 9))) == ["B", "O"]

    @given(st.data())
    def test_equals_the_stage_loop(self, data):
        """`run_pipeline` gives the labels of the stage loop over random
        marginals, surfaces, prior tables and thresholds."""
        vocab = ["a", "A", "b", "c", ".", ",", "d"]
        n = data.draw(st.integers(1, 10))
        words = data.draw(st.lists(st.sampled_from(vocab), min_size=n,
                                   max_size=n))
        # one-hot rows and strong priors make stages disagree often
        weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        weights = data.draw(st.lists(
            st.tuples(weight, weight, weight).filter(
                lambda row: sum(row) > 0), min_size=n, max_size=n))
        probs = np.array(weights) / np.sum(weights, axis=1, keepdims=True)
        priors = table_for(**{
            w: counts for w, counts in data.draw(st.dictionaries(
                st.sampled_from(["a", "b", ".", "d"]),
                st.tuples(*[st.integers(0, 9)] * 3).filter(any))).items()})
        threshold = data.draw(st.floats(0.0, 1.0))
        seq = make_seq(words)
        marginals = MarginalTable(probs, 0.0)
        assert run_pipeline(marginals, seq.tokens, priors, threshold) == \
            reference_pipeline(marginals, seq.tokens, priors, threshold)

    def test_empty_priors_reduces_to_bio_fixer(self):
        seq = make_seq(["Three", "days", "ago", "."])
        probs = np.array([
            [0.1, 0.2, 0.7], [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        marginals = MarginalTable(probs, 0.0)
        out = run_pipeline(marginals, seq.tokens, PriorTable())
        raw = ["O", "I", "I", "O"]
        assert out == bio_fixer(raw, seq.tokens) == ["B", "I", "I", "O"]

    def test_output_always_valid_bio(self):
        rng = np.random.default_rng(1)
        priors = table_for(w1=(0.95, 0.04, 0.01), w3=(0.05, 0.9, 0.05))
        for _ in range(50):
            n = int(rng.integers(1, 10))
            seq = make_seq([f"w{rng.integers(0, 5)}" for _ in range(n)])
            marginals = MarginalTable(rng.dirichlet([1, 1, 1], size=n), 0.0)
            out = run_pipeline(marginals, seq.tokens, priors)
            assert is_valid_bio(out)
