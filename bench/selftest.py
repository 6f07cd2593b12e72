#!/usr/bin/env python3
"""Tests of the benchmark itself: every output check passes on a correct
output and fails on a deliberately corrupted one, and the generator's
gold is well formed.

    python3 bench/selftest.py

Takes a few seconds; no model is trained.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from tempex import corpus, crf, evaluation, normalizer  # noqa: E402


def inline(doc, timexes=None) -> str:
    """Inline TIMEX3 markup of `doc` with the given (default: gold)
    timexes, as `tempex tag` writes it."""
    out, cursor = [], 0
    for n, tx in enumerate(sorted(timexes or doc.timexes,
                                  key=lambda t: t.start), 1):
        out.append(doc.text[cursor:tx.start])
        out.append(f'<TIMEX3 tid="t{n}" type="{tx.type}" '
                   f'value="{tx.value}">{doc.text[tx.start:tx.end]}'
                   '</TIMEX3>')
        cursor = tx.end
    out.append(doc.text[cursor:])
    return "".join(out)


class TagCheck(unittest.TestCase):
    def setUp(self):
        self.docs = gen.generate(5, "test", 2, 8)
        self.gold = "\n".join(inline(d) for d in self.docs) + "\n"

    def test_gold_output_passes_with_perfect_scores(self):
        q = checks.check_tag(self.docs, self.gold)
        self.assertEqual((q.strict_f1, q.lenient_f1, q.type_accuracy,
                          q.value_accuracy), (1.0, 1.0, 1.0, 1.0))

    def test_partial_output_scores_below_one(self):
        doc = self.docs[0]
        first = doc.timexes[0]
        wider = gen.GoldTimex(first.start, first.end + 1, first.type,
                              first.value, first.family)
        lines = [inline(doc, [wider] + doc.timexes[1:]),
                 inline(self.docs[1], self.docs[1].timexes[1:])]
        q = checks.check_tag(self.docs, "\n".join(lines))
        self.assertLess(q.strict_f1, q.lenient_f1)
        self.assertLess(q.lenient_f1, 1.0)

    def test_changed_text_fails(self):
        bad = self.gold.replace(" the ", " teh ", 1)
        with self.assertRaisesRegex(checks.CheckError, "text changed"):
            checks.check_tag(self.docs, bad)

    def test_missing_document_fails(self):
        bad = self.gold.split("\n")[0]
        with self.assertRaisesRegex(checks.CheckError, "output documents"):
            checks.check_tag(self.docs, bad)

    def test_wrong_value_on_exact_span_fails(self):
        doc = self.docs[0]
        tx = doc.timexes[0]
        wrong = gen.GoldTimex(tx.start, tx.end, tx.type, tx.value + "X",
                              tx.family)
        lines = [inline(doc, [wrong] + doc.timexes[1:]), inline(self.docs[1])]
        with self.assertRaisesRegex(checks.CheckError, "normalized to"):
            checks.check_tag(self.docs, "\n".join(lines))

    def test_wrong_type_on_exact_span_fails(self):
        doc = self.docs[1]
        tx = doc.timexes[-1]
        wrong = gen.GoldTimex(tx.start, tx.end,
                              "SET" if tx.type != "SET" else "DATE",
                              tx.value, tx.family)
        lines = [inline(self.docs[0]), inline(doc, doc.timexes[:-1] + [wrong])]
        with self.assertRaisesRegex(checks.CheckError, "normalized to"):
            checks.check_tag(self.docs, "\n".join(lines))

    def test_disagreement_with_tempex_evaluation_fails(self):
        real = evaluation.match_spans

        def off_by_one(gold, pred, regime="strict"):
            counts, pairs = real(gold, pred, regime)
            return evaluation.MatchCounts(
                counts.true_positives - 1, counts.predicted_total,
                counts.gold_total), pairs

        with mock.patch.object(evaluation, "match_spans", off_by_one):
            with self.assertRaisesRegex(checks.CheckError, "F1"):
                checks.check_tag(self.docs, self.gold)

    def test_lenient_pairs_is_a_maximum_matching(self):
        gold = [(0, 5), (6, 10), (20, 25)]
        pred = [(3, 7), (8, 12), (30, 31)]
        self.assertEqual(len(checks.lenient_pairs(gold, pred)), 2)


class ModelCheck(unittest.TestCase):
    def model(self, **log):
        m = crf.CrfModel({"a": 0, "b": 1}, np.arange(15, dtype=float))
        m.training_log = {"converged": True, "message": "ok", **log}
        return m

    def test_identical_reload_passes(self):
        checks.check_model_reload(self.model(), self.model())

    def test_no_convergence_fails(self):
        with self.assertRaisesRegex(checks.CheckError, "convergence"):
            checks.check_model_reload(self.model(converged=False),
                                      self.model())

    def test_changed_weight_fails(self):
        other = self.model()
        other.weights[3] += 1e-12
        with self.assertRaisesRegex(checks.CheckError, "weights"):
            checks.check_model_reload(self.model(), other)

    def test_changed_index_fails(self):
        other = crf.CrfModel({"b": 0, "a": 1}, np.arange(15, dtype=float))
        with self.assertRaisesRegex(checks.CheckError, "index"):
            checks.check_model_reload(self.model(), other)

    def test_floor(self):
        checks.check_floor(0.5, 0.3)
        with self.assertRaisesRegex(checks.CheckError, "below"):
            checks.check_floor(0.2, 0.3)


def cv_output(on, off, t_line=None) -> str:
    lines = ["condition\trepeat\tfold\tstrict_f1"]
    for name, values in (("pipeline_on", on), ("pipeline_off", off)):
        for i, f1 in enumerate(values):
            lines.append(f"{name}\t{i // 2}\t{i % 2}\t{f1:.6f}")
    if t_line is None:
        test = evaluation.paired_t_test(on, off)
        t_line = (f"#paired_t\t{test['t']}\t{test['p_two_sided']}"
                  f"\t{test['degenerate']}")
    lines.append(t_line)
    return "\n".join(lines) + "\n"


class CvCheck(unittest.TestCase):
    ON = [0.61, 0.58, 0.7, 0.66]
    OFF = [0.6, 0.5, 0.69, 0.6]

    def test_correct_output_passes(self):
        on, off = checks.check_cv(cv_output(self.ON, self.OFF), 2, 2)
        self.assertAlmostEqual(on, sum(self.ON) / 4)
        self.assertAlmostEqual(off, sum(self.OFF) / 4)

    def test_degenerate_output_passes(self):
        checks.check_cv(cv_output(self.ON, self.ON), 2, 2)

    def test_missing_row_fails(self):
        text = cv_output(self.ON, self.OFF).replace(
            "pipeline_off\t1\t1\t0.600000\n", "")
        with self.assertRaisesRegex(checks.CheckError, "fold rows"):
            checks.check_cv(text, 2, 2)

    def test_wrong_t_fails(self):
        test = evaluation.paired_t_test(self.ON, self.OFF)
        line = (f"#paired_t\t{test['t'] * 1.01}\t{test['p_two_sided']}"
                "\tFalse")
        with self.assertRaisesRegex(checks.CheckError, "scipy"):
            checks.check_cv(cv_output(self.ON, self.OFF, line), 2, 2)

    def test_wrong_degenerate_flag_fails(self):
        with self.assertRaisesRegex(checks.CheckError, "degenerate"):
            checks.check_cv(cv_output(self.ON, self.OFF).replace(
                "\tFalse\n", "\tTrue\n"), 2, 2)
        with self.assertRaisesRegex(checks.CheckError, "degenerate"):
            checks.check_cv(cv_output(
                self.ON, self.ON, "#paired_t\tnan\tnan\tFalse"), 2, 2)

    def test_missing_t_line_fails(self):
        text = "".join(cv_output(self.ON, self.OFF).splitlines(True)[:-1])
        with self.assertRaisesRegex(checks.CheckError, "paired_t"):
            checks.check_cv(text, 2, 2)


class Generator(unittest.TestCase):
    def test_same_seed_same_corpus_other_seed_other_corpus(self):
        a = gen.generate(3, "train", 2, 8)
        b = gen.generate(3, "train", 2, 8)
        c = gen.generate(4, "train", 2, 8)
        self.assertEqual([d.text for d in a], [d.text for d in b])
        self.assertNotEqual([d.text for d in a], [d.text for d in c])

    def test_held_out_pools_are_disjoint(self):
        train, test = gen.POOLS["train"], gen.POOLS["test"]
        for key in train:
            self.assertFalse(set(train[key]) & set(test[key]), key)

    def test_spans_fall_on_token_boundaries(self):
        for seed in range(5):
            for doc in gen.generate(seed, "test", 3, 8):
                for tokens, labels in gen.tokens_and_labels(
                        doc, corpus.tokenize):
                    corpus.check_bio(labels)

    def test_misaligned_span_is_refused(self):
        doc = gen.generate(1, "train", 1, 8)[0]
        i, tx = next((i, t) for i, t in enumerate(doc.timexes)
                     if doc.text[t.start:t.start + 2].isalnum())
        doc.timexes[i] = gen.GoldTimex(tx.start + 1, tx.end, tx.type,
                                       tx.value, tx.family)
        with self.assertRaises(gen.GeneratorError):
            gen.tokens_and_labels(doc, corpus.tokenize)

    def test_every_family_is_generated(self):
        docs = gen.generate(0, "train", 4, 8)
        self.assertEqual({t.family for d in docs for t in d.timexes},
                         set(gen.FAMILIES))

    def test_values_are_well_formed(self):
        for doc in gen.generate(2, "test", 6, 8):
            for tx in doc.timexes:
                self.assertTrue(normalizer.validate_value(tx.type, tx.value),
                                (tx, doc.dct))

    def test_calendar_edges(self):
        from datetime import date
        self.assertEqual(gen.shift(date(2012, 1, 31), 1, "month"), "2012-02")
        self.assertEqual(gen.add_months(date(2012, 3, 31), -1),
                         date(2012, 2, 29))
        self.assertEqual(gen.shift(date(2012, 12, 31), 0, "week"),
                         "2013-W01")
        self.assertEqual(gen.weekday_date(date(2013, 4, 11), 3, "last"),
                         date(2013, 4, 4))
        self.assertEqual(gen.weekday_date(date(2013, 4, 11), 3, "past"),
                         date(2013, 4, 11))


if __name__ == "__main__":
    unittest.main()
