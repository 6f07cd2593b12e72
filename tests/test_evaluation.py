import math
import multiprocessing
import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest
import scipy.stats

from tempex.evaluation import (EvalError, EvalReport, MatchCounts,
                               attribute_accuracy, cross_validate,
                               fold_indices, match_spans, one_way_anova,
                               overall_score, paired_t_test, prf,
                               report_from_counts)

# Published benchmark rows (percent): per run, strict P/R/F1, lenient
# P/R/F1, value accuracy and overall score.  The integer match counts
# below were recovered by exhaustive search over (tp, predicted) with a
# common gold total of 138; see oracle_counts().
BENCHMARK = [
    # sP, sR, sF, lP, lR, lF, value, overall
    (78.57, 63.77, 70.40, 97.32, 78.99, 87.20, 77.06, 67.20),
    (79.82, 65.94, 72.22, 97.37, 80.43, 88.10, 75.68, 66.67),
    (76.07, 64.49, 69.80, 94.87, 80.43, 87.06, 77.48, 67.45),
    (78.86, 70.29, 74.33, 95.12, 84.78, 89.66, 76.92, 68.97),
    (77.68, 63.04, 69.60, 97.32, 78.99, 87.20, 77.06, 67.20),
    (81.98, 65.94, 73.09, 98.20, 78.99, 87.55, 77.98, 68.27),
]
GOLD_TOTAL = 138


def oracle_counts(p_pct, r_pct, gold=GOLD_TOTAL):
    """Brute-force the integer (tp, predicted) pair behind a P/R row."""
    best, best_err = None, math.inf
    for pred in range(1, 3 * gold):
        for tp in range(0, min(pred, gold) + 1):
            err = abs(100 * tp / pred - p_pct) + abs(100 * tp / gold - r_pct)
            if err < best_err:
                best, best_err = (tp, pred), err
    assert best_err < 0.02, f"no integer counts reproduce {p_pct}/{r_pct}"
    return MatchCounts(best[0], best[1], gold)


class TestMatchSpans:
    def test_strict_exact_extents_only(self):
        gold = [(0, 5), (10, 14)]
        pred = [(0, 5), (10, 15)]
        counts, alignment = match_spans(gold, pred, "strict")
        assert (counts.true_positives, counts.predicted_total,
                counts.gold_total) == (1, 2, 2)
        assert alignment == [(0, 0)]

    def test_lenient_any_overlap(self):
        counts, alignment = match_spans([(0, 5), (10, 14)],
                                        [(3, 7), (10, 15)], "lenient")
        assert counts.true_positives == 2
        assert sorted(alignment) == [(0, 0), (1, 1)]

    def test_lenient_touching_is_not_overlap(self):
        counts, _ = match_spans([(0, 5)], [(5, 8)], "lenient")
        assert counts.true_positives == 0

    def test_one_to_one(self):
        # Two predictions overlap the same gold span: only one may claim it.
        counts, alignment = match_spans([(0, 10)], [(0, 4), (5, 9)],
                                        "lenient")
        assert counts.true_positives == 1
        assert len(alignment) == 1

    def test_greedy_left_to_right(self):
        # Leftmost prediction claims the gold span first.
        _, alignment = match_spans([(0, 10)], [(6, 9), (1, 3)], "lenient")
        assert alignment == [(0, 1)]

    def test_overlapping_gold_rejected(self):
        with pytest.raises(EvalError, match="gold"):
            match_spans([(0, 5), (3, 8)], [], "strict")

    def test_overlapping_pred_rejected(self):
        with pytest.raises(EvalError, match="predicted"):
            match_spans([], [(0, 5), (4, 6)], "strict")

    def test_unknown_regime_rejected(self):
        with pytest.raises(EvalError, match="regime"):
            match_spans([(0, 1)], [(0, 1)], "fuzzy")

    def test_empty_inputs(self):
        counts, alignment = match_spans([], [], "strict")
        assert counts == MatchCounts(0, 0, 0) and alignment == []

    def test_strict_subset_of_lenient(self):
        rng = random.Random(3)
        for _ in range(200):
            def spans():
                out, pos = [], 0
                for _ in range(rng.randrange(0, 6)):
                    pos += rng.randrange(0, 4)
                    end = pos + rng.randrange(1, 5)
                    out.append((pos, end))
                    pos = end
                return out
            gold, pred = spans(), spans()
            strict, _ = match_spans(gold, pred, "strict")
            lenient, _ = match_spans(gold, pred, "lenient")
            assert strict.true_positives <= lenient.true_positives


class TestPrf:
    def test_simple_fractions(self):
        scores = prf(MatchCounts(3, 4, 6))
        assert scores["P"] == pytest.approx(0.75)
        assert scores["R"] == pytest.approx(0.5)
        assert scores["F1"] == pytest.approx(0.6)

    def test_zero_denominators(self):
        assert prf(MatchCounts(0, 0, 0)) == {"P": 0.0, "R": 0.0, "F1": 0.0}
        assert prf(MatchCounts(0, 5, 0))["R"] == 0.0
        assert prf(MatchCounts(0, 0, 5))["P"] == 0.0

    @pytest.mark.parametrize("row", BENCHMARK, ids=[f"run{i+1}" for i in
                                                    range(len(BENCHMARK))])
    def test_benchmark_rows(self, row):
        sp, sr, sf, lp, lr, lf = row[:6]
        for p_pct, r_pct, f_pct in ((sp, sr, sf), (lp, lr, lf)):
            scores = prf(oracle_counts(p_pct, r_pct))
            assert 100 * scores["P"] == pytest.approx(p_pct, abs=0.01)
            assert 100 * scores["R"] == pytest.approx(r_pct, abs=0.01)
            assert 100 * scores["F1"] == pytest.approx(f_pct, abs=0.01)


class TestAttributeAccuracy:
    def test_counts_equal_attributes_over_alignment(self):
        acc, degenerate = attribute_accuracy(
            [("DATE", "DATE"), ("TIME", "DURATION")])
        assert acc == pytest.approx(0.5) and not degenerate

    def test_uses_alignment_indices(self):
        """Pairs come from the alignment: gold span 1 with predicted
        span 0."""
        gold, pred = ["DATE", "TIME"], ["TIME"]
        acc, _ = attribute_accuracy([(gold[gi], pred[pi])
                                     for gi, pi in [(1, 0)]])
        assert acc == 1.0

    def test_empty_alignment_degenerate(self):
        acc, degenerate = attribute_accuracy([])
        assert acc == 0.0 and degenerate


class TestOverallScore:
    def test_fraction_scale(self):
        assert overall_score(0.8, 0.5) == pytest.approx(0.4)

    def test_percent_scale(self):
        assert overall_score(80.0, 50.0) == pytest.approx(40.0)

    def test_mixed_scales_rejected(self):
        with pytest.raises(EvalError, match="mixed"):
            overall_score(87.2, 0.77)

    def test_out_of_range_rejected(self):
        with pytest.raises(EvalError, match="range"):
            overall_score(101.0, 50.0)
        with pytest.raises(EvalError, match="range"):
            overall_score(-0.1, 0.5)

    @pytest.mark.parametrize("row", BENCHMARK, ids=[f"run{i+1}" for i in
                                                    range(len(BENCHMARK))])
    def test_benchmark_overall(self, row):
        lf, value, overall = row[5], row[6], row[7]
        assert overall_score(lf, value) == pytest.approx(overall, abs=0.02)


class TestFoldIndices:
    def test_sizes_differ_by_at_most_one(self):
        for n in (10, 20, 103, 250):
            for k in (2, 3, 7, 10):
                sizes = [len(f) for f in fold_indices(n, k)]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1

    def test_103_into_10(self):
        sizes = [len(f) for f in fold_indices(103, 10)]
        assert sorted(sizes) == [10] * 7 + [11] * 3

    def test_partition(self):
        folds = fold_indices(23, 4)
        assert sorted(i for f in folds for i in f) == list(range(23))


def reference_cross_validate(items, fold_fn, k, repeats, seed):
    """The serial loop that `cross_validate` ran before it ran folds on
    several CPUs."""
    rng = random.Random(seed)
    results, working = [], list(items)
    for rep in range(repeats):
        rng.shuffle(working)
        for fi, test_idx in enumerate(fold_indices(len(working), k)):
            test_set = set(test_idx)
            train = [working[i] for i in range(len(working))
                     if i not in test_set]
            test = [working[i] for i in test_idx]
            results.append((rep, fi, fold_fn(train, test)))
    return results


def folds_of(train, test):
    return tuple(train), tuple(test)


def sees_cpus(monkeypatch, n: int) -> int:
    """From now on `cross_validate` sees `n` CPUs, more than the machine
    may have."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    return n


CPU_COUNTS = (1, 2, 3)


class TestCrossValidate:
    def test_5x10_produces_50_reports(self, monkeypatch):
        items = list(range(103))
        for n in CPU_COUNTS:
            sees_cpus(monkeypatch, n)
            results = cross_validate(items, folds_of, k=10, repeats=5,
                                     seed=490)
            assert [(rep, fi) for rep, fi, _ in results] == \
                [(rep, fi) for rep in range(5) for fi in range(10)]
            for rep in range(5):
                folds = [report for r, _, report in results if r == rep]
                tested = [item for _, test in folds for item in test]
                assert sorted(tested) == items
                assert all(sorted(train + test) == items
                           for train, test in folds)

    def test_same_as_the_serial_loop(self, monkeypatch):
        items = list(range(37))
        want = reference_cross_validate(items, folds_of, k=4, repeats=3,
                                        seed=7)
        for n in CPU_COUNTS:
            sees_cpus(monkeypatch, n)
            assert cross_validate(items, folds_of, k=4, repeats=3,
                                  seed=7) == want

    def test_each_fold_partitions_items(self, monkeypatch):
        items = list(range(31))

        def fold_fn(train, test):
            assert sorted(train + test) == items
            assert not set(train) & set(test)
            return len(test)

        for n in CPU_COUNTS:
            sees_cpus(monkeypatch, n)
            results = cross_validate(items, fold_fn, k=10, repeats=2,
                                     seed=490)
            sizes = [r for _, _, r in results]
            assert all(size in (3, 4) for size in sizes)
            assert sum(sizes) == 2 * 31

    def test_deterministic(self):
        items = list(range(40))
        runs = [cross_validate(items, folds_of, k=5, repeats=3, seed=490)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_repeats_reshuffle(self):
        items = list(range(40))
        results = cross_validate(items, folds_of, k=5, repeats=2, seed=490)
        assert results[:5] != results[5:]

    def test_bad_k(self):
        with pytest.raises(EvalError, match="k"):
            cross_validate([1, 2, 3], lambda a, b: 0, k=1)
        with pytest.raises(EvalError, match="exceeds"):
            cross_validate([1, 2, 3], lambda a, b: 0, k=4)

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_bad_repeats(self, repeats):
        with pytest.raises(EvalError, match=f"repeats must be >= 1, got "
                                            f"{repeats}"):
            cross_validate([1, 2, 3], lambda a, b: 0, k=2, repeats=repeats)

    def test_first_failing_fold_raises(self, monkeypatch):
        """Of several folds that raise, wherever they run, the one a
        serial run reaches first is raised."""
        items = list(range(30))

        def fold_fn(train, test):
            if 7 in test or 11 in test:
                raise EvalError(f"fold testing {sorted(test)}")
            return len(test)

        with pytest.raises(EvalError) as serial:
            reference_cross_validate(items, fold_fn, k=6, repeats=2,
                                     seed=490)
        for n in CPU_COUNTS:
            sees_cpus(monkeypatch, n)
            with pytest.raises(EvalError) as pooled:
                cross_validate(items, fold_fn, k=6, repeats=2, seed=490)
            assert str(pooled.value) == str(serial.value)

    def test_leaves_no_process(self, monkeypatch):
        for n in CPU_COUNTS:
            sees_cpus(monkeypatch, n)
            cross_validate(list(range(20)), folds_of, k=5, repeats=1)
            assert multiprocessing.active_children() == []

    def test_a_killed_worker_raises(self, monkeypatch):
        """A worker that dies raises in the caller instead of leaving it
        waiting for the worker's folds."""
        sees_cpus(monkeypatch, 2)
        parent = os.getpid()

        def fold_fn(train, test):
            if os.getpid() != parent:
                os._exit(3)
            return len(test)

        raised = []

        def run():
            try:
                cross_validate(list(range(20)), fold_fn, k=2, repeats=1)
            except BrokenProcessPool as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert len(raised) == 1
        assert multiprocessing.active_children() == []


class TestPairedTTest:
    def test_against_scipy(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(3, 30)
            a = [rng.gauss(0.7, 0.1) for _ in range(n)]
            b = [x + rng.gauss(0.02, 0.05) for x in a]
            got = paired_t_test(a, b)
            want = scipy.stats.ttest_rel(a, b)
            assert got["t"] == pytest.approx(want.statistic, abs=1e-6)
            assert got["p_two_sided"] == pytest.approx(want.pvalue,
                                                       rel=1e-6, abs=1e-12)
            assert not got["degenerate"]

    def test_zero_variance_degenerate(self):
        out = paired_t_test([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
        assert out["degenerate"]
        assert math.isnan(out["t"]) and math.isnan(out["p_two_sided"])
        assert out["mean_diff"] == pytest.approx(-0.5)

    def test_identical_samples_degenerate(self):
        out = paired_t_test([1.0, 2.0], [1.0, 2.0])
        assert out["degenerate"] and out["mean_diff"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="length"):
            paired_t_test([1.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(EvalError, match="2 pairs"):
            paired_t_test([1.0], [2.0])


class TestOneWayAnova:
    def test_against_scipy(self):
        rng = random.Random(13)
        for _ in range(25):
            k = rng.randrange(2, 6)
            groups = [[rng.gauss(rng.uniform(0, 2), 1.0)
                       for _ in range(rng.randrange(2, 12))]
                      for _ in range(k)]
            got = one_way_anova(groups)
            want = scipy.stats.f_oneway(*groups)
            assert got["F"] == pytest.approx(want.statistic, rel=1e-6)
            assert got["p"] == pytest.approx(want.pvalue, rel=1e-6,
                                             abs=1e-12)
            assert not got["degenerate"]

    def test_all_constant_degenerate(self):
        out = one_way_anova([[1.0, 1.0], [1.0, 1.0]])
        assert out["degenerate"] and out["F"] == 0.0 and out["p"] == 1.0

    def test_constant_within_varying_between(self):
        out = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert out["degenerate"]
        assert math.isinf(out["F"]) and out["p"] == 0.0

    def test_bad_inputs(self):
        with pytest.raises(EvalError, match="2 groups"):
            one_way_anova([[1.0, 2.0]])
        with pytest.raises(EvalError, match="2 values"):
            one_way_anova([[1.0, 2.0], [1.0]])


class TestReport:
    def test_report_from_counts(self):
        report = report_from_counts(
            MatchCounts(88, 112, 138), MatchCounts(109, 112, 138),
            type_acc=0.8899, value_acc=0.7706)
        assert 100 * report.strict_f1 == pytest.approx(70.40, abs=0.01)
        assert 100 * report.lenient_f1 == pytest.approx(87.20, abs=0.01)
        assert 100 * report.overall == pytest.approx(67.20, abs=0.02)

    def test_no_attrs_no_overall(self):
        report = report_from_counts(MatchCounts(1, 2, 2),
                                    MatchCounts(2, 2, 2))
        assert report.overall is None and report.value_accuracy is None

    def test_tsv_and_table_render(self):
        report = report_from_counts(MatchCounts(1, 2, 2),
                                    MatchCounts(2, 2, 2), value_acc=0.5)
        tsv = report.as_tsv()
        assert "strict_f1\t0.5000" in tsv
        assert "overall_score" in tsv
        table = report.as_table()
        assert "50.00" in table

    def test_rows_order(self):
        names = [k for k, _ in EvalReport(value_accuracy=0.5,
                                          overall=0.2).rows()]
        assert names[:3] == ["strict_precision", "strict_recall",
                             "strict_f1"]
        assert names[-1] == "overall_score"
