import sys

import pytest
from hypothesis import given, strategies as st

from tempex.corpus import (CorpusError, Document, Sequence, TimexSpan,
                           Token, bio_to_spans, emit_inline_timex,
                           read_corpus, repair_bio, tokenize, write_corpus)
from tempex.normalizer import Timex

from oracles import is_valid_bio, spans_to_bio


def surfaces(text):
    return [t.surface for t in tokenize(text)]


class TestTokenize:
    def test_whitespace_and_terminal_punctuation(self):
        assert surfaces("Three days ago.") == ["Three", "days", "ago", "."]

    def test_hyphenated_month_year_stays_whole(self):
        assert surfaces("Jan-2003") == ["Jan-2003"]

    def test_decimal_number_stays_whole(self):
        assert surfaces("3.5 years") == ["3.5", "years"]

    def test_slash_date_stays_whole(self):
        assert surfaces("04/05/2013") == ["04/05/2013"]

    def test_punctuation_isolated(self):
        assert surfaces("well, (almost) done!") == \
            ["well", ",", "(", "almost", ")", "done", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_offsets_match_source(self):
        text = "On Jan-2003, 3.5 years passed."
        for tok in tokenize(text):
            assert text[tok.char_start:tok.char_end] == tok.surface

    @given(st.text(max_size=80))
    def test_no_whitespace_in_tokens_and_offsets_partition(self, text):
        toks = tokenize(text)
        last = 0
        for tok in toks:
            assert not any(c.isspace() for c in tok.surface)
            assert text[tok.char_start:tok.char_end] == tok.surface
            assert tok.char_start >= last
            # skipped characters are whitespace only
            assert text[last:tok.char_start].strip() == ""
            last = tok.char_end
        assert text[last:].strip() == ""


def make_seq(words, labels=None):
    toks, pos = [], 0
    for w in words:
        toks.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sequence(tuple(toks), tuple(labels) if labels else None)


class TestBioConversion:
    def test_span_to_bio(self):
        seq = make_seq(["three", "days", "ago", "."])
        span = TimexSpan(0, 0, 2)
        assert spans_to_bio([span], seq) == ["B", "I", "I", "O"]

    def test_no_spans_all_o(self):
        seq = make_seq(["a", "b"])
        assert spans_to_bio([], seq) == ["O", "O"]

    def test_adjacent_spans_not_merged(self):
        seq = make_seq(["Friday", "Monday", "x"])
        spans = [TimexSpan(0, 0, 0), TimexSpan(0, 1, 1)]
        assert spans_to_bio(spans, seq) == ["B", "B", "O"]

    def test_overlap_rejected(self):
        seq = make_seq(["a", "b", "c"])
        spans = [TimexSpan(0, 0, 1), TimexSpan(0, 1, 2)]
        with pytest.raises(CorpusError, match="overlap"):
            spans_to_bio(spans, seq)

    def test_bio_to_spans(self):
        seq = make_seq(["three", "days", "ago", "."])
        spans = bio_to_spans(["B", "I", "I", "O"], seq)
        assert len(spans) == 1
        assert (spans[0].first_token, spans[0].last_token) == (0, 2)

    def test_all_o(self):
        assert bio_to_spans(["O", "O"], make_seq(["a", "b"])) == []

    def test_strict_rejects_orphan_i(self):
        with pytest.raises(CorpusError, match="position 1"):
            bio_to_spans(["O", "I"], make_seq(["a", "b"]))

    def test_tolerant_promotes_orphan_i(self):
        spans = bio_to_spans(["O", "I", "I"], make_seq(["a", "b", "c"]),
                             tolerant=True)
        assert [(s.first_token, s.last_token) for s in spans] == [(1, 2)]

    @given(st.lists(st.sampled_from(["B", "I", "O"]), max_size=12))
    def test_tolerant_reads_the_repaired_labels(self, labels):
        seq = make_seq([f"w{i}" for i in range(len(labels))])
        fixed = repair_bio(labels)
        assert is_valid_bio(fixed) and repair_bio(fixed) == fixed
        assert [a == "O" for a in fixed] == [a == "O" for a in labels]
        assert bio_to_spans(fixed, seq) == \
            bio_to_spans(labels, seq, tolerant=True)

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=12))
    def test_round_trip(self, starts):
        # random non-overlapping spans over a 12-token sequence
        seq = make_seq([f"w{i}" for i in range(12)])
        spans, pos = [], 0
        for gap in starts:
            first = pos + gap
            last = first + 1
            if last >= 12:
                break
            spans.append(TimexSpan(0, first, last))
            pos = last + 2
        labels = spans_to_bio(spans, seq)
        assert bio_to_spans(labels, seq) == spans


def sample_doc():
    text = "It happened three days ago . Nothing since ."
    toks = tokenize(text)
    seq1 = Sequence(tuple(toks[:6]), ("O", "O", "B", "I", "I", "O"))
    seq2 = Sequence(tuple(toks[6:]), ("O", "O", "O"))
    import datetime
    return Document("d1", datetime.date(2013, 4, 11), (seq1, seq2), text)


class TestToken:
    """Annotations become parts of tab-separated observation keys, so a
    token refuses one that holds a tab or a line break."""

    @pytest.mark.parametrize("name", ["pos", "lemma", "chunk", "pnp"])
    @pytest.mark.parametrize("value", ["a\tb", "\t", "a\nb", "a\r", "\x0b",
                                       "a\x1c", "\x85", "a\u2028b"])
    def test_tab_or_line_break_refused(self, name, value):
        with pytest.raises(CorpusError, match=name):
            Token("x", 0, 1, **{name: value})

    def test_every_whitespace_character_refused_in_a_surface(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1)
                  if chr(c).isspace()]
        assert len(spaces) == 29
        for c in spaces:
            for surface in (c, f"a{c}", f"a{c}b"):
                with pytest.raises(CorpusError, match="surface"):
                    Token(surface, 0, len(surface))
        # a zero-width space is no whitespace to str.isspace
        assert Token("a\u200bb", 0, 3).surface == "a\u200bb"

    def test_other_annotations_kept(self):
        tok = Token("x", 0, 1, pos="NN P", lemma="", chunk="|x[+0]=",
                    pnp=" ")
        assert (tok.pos, tok.lemma, tok.chunk, tok.pnp) == \
            ("NN P", "", "|x[+0]=", " ")


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        doc = sample_doc()
        path = tmp_path / "corpus.tsv"
        write_corpus([doc], path)
        assert read_corpus(path) == [doc]

    def test_header_only(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("#doc d1 2013-04-11\n")
        [doc] = read_corpus(path)
        assert doc.id == "d1" and doc.sequences == ()

    def test_column_mismatch_cites_line(self, tmp_path):
        lines = ["#doc d1 2013-04-11"]
        for i in range(5):
            lines.append(f"w{i}\t{2 * i}\t{2 * i + 1}\t_\t_\t_\t_\tO")
        lines.append("bad\tline")
        path = tmp_path / "c.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match="line 7"):
            read_corpus(path)

    def test_missing_dct_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("#doc d1\nw\t0\t1\t_\t_\t_\t_\tO\n")
        with pytest.raises(CorpusError, match="#doc"):
            read_corpus(path)

    def test_invalid_dct(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("#doc d1 not-a-date\n")
        with pytest.raises(CorpusError, match="DCT"):
            read_corpus(path)

    def test_token_before_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("w\t0\t1\t_\t_\t_\t_\tO\n")
        with pytest.raises(CorpusError, match="before"):
            read_corpus(path)


class TestEmitInline:
    def test_no_timexes_identity(self):
        doc = sample_doc()
        assert emit_inline_timex(doc, []) == doc.raw_text

    def test_single_timex(self):
        doc = sample_doc()
        span = TimexSpan(0, 2, 4)
        tx = Timex(span, "DATE", "2013-04-08")
        out = emit_inline_timex(doc, [tx])
        assert ('<TIMEX3 tid="t1" type="DATE" value="2013-04-08">'
                "three days ago</TIMEX3>") in out

    def test_tids_in_textual_order(self):
        doc = sample_doc()
        early = Timex(TimexSpan(0, 2, 4), "DATE",
                      "2013-04-08")
        late = Timex(TimexSpan(1, 1, 1), "DATE",
                     "PAST_REF")
        out = emit_inline_timex(doc, [late, early])
        assert out.index('tid="t1"') < out.index('tid="t2"')
        assert ">three days ago<" in out.split('tid="t1"')[1]

    def test_overlap_rejected(self):
        doc = sample_doc()
        a = Timex(TimexSpan(0, 2, 4), "DATE", "2013")
        b = Timex(TimexSpan(0, 3, 5), "DATE", "2013")
        with pytest.raises(CorpusError, match="overlap"):
            emit_inline_timex(doc, [a, b])

    def test_strip_markup_restores_text(self):
        import re
        doc = sample_doc()
        tx = Timex(TimexSpan(0, 2, 4), "DATE",
                   "2013-04-08")
        out = emit_inline_timex(doc, [tx])
        assert re.sub(r"</?TIMEX3[^>]*>", "", out) == doc.raw_text
