"""Acceptance gate: one test per headline guarantee, one PASS/FAIL line
each (run with -s to see the lines on success)."""

import math
import random
from datetime import date, timedelta

import numpy as np
import scipy.stats

from tempex import pipeline as pl
from tempex.config import RunConfig
from tempex.corpus import Token
from tempex.crf import CrfModel, forward_backward, viterbi
from tempex.evaluation import (MatchCounts, one_way_anova, overall_score,
                               paired_t_test, prf)
from tempex.normalizer import normalize, validate_value
from tempex.postproc import (PriorTable, bio_fixer, build_prior_table,
                             threshold_label_switcher)

from oracles import StringIndex, is_valid_bio
from synth import build_corpus, split_corpus
from test_crf import T, brute_force, ll_grad, random_features, random_model
from test_evaluation import BENCHMARK, oracle_counts
from test_normalizer import fixture_expressions


def _report(name, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def _tokens(words):
    toks, pos = [], 0
    for w in words:
        toks.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return tuple(toks)


def test_overall_score_benchmark_reproduction():
    def check():
        for row in BENCHMARK:
            lenient_f1, value_acc, overall = row[5], row[6], row[7]
            got = overall_score(lenient_f1, value_acc)
            assert abs(got - overall) <= 0.02, (row, got)

    _report("benchmark overall column reproduced from lenient F1 x value "
            "accuracy (6 runs, +/-0.02)", check)


def test_prf_benchmark_reproduction():
    def check():
        for row in BENCHMARK:
            for p_pct, r_pct, f_pct in (row[0:3], row[3:6]):
                scores = prf(oracle_counts(p_pct, r_pct))
                assert abs(100 * scores["F1"] - f_pct) <= 0.01, row

    _report("benchmark F1 cells reproduced from P/R cells "
            "(12 rows, +/-0.01)", check)


def test_crf_correctness_suite():
    def check():
        rng = np.random.default_rng(490)
        for _ in range(100):
            model = random_model(rng)
            feats = random_features(rng, model.n_obs,
                                    int(rng.integers(1, 7)))
            log_z, marg, best = brute_force(model, feats)
            table = forward_backward(model, T([feats]))[0]
            assert abs(table.log_z - log_z) <= 1e-8 * max(1.0, abs(log_z))
            assert np.abs(table.probs - marg).max() <= 1e-8
            assert viterbi(model, T([feats]))[0] == best
        # gradient vs central differences on a <=100-weight toy model
        # 8*3+9 = 33 weights
        obs_index = StringIndex({f"g{i}": i for i in range(8)})
        weights = np.asarray(
            np.random.default_rng(7).normal(scale=0.8, size=33))
        model = CrfModel(obs_index, weights)
        batch = [([["g0", "g1"], ["g2"], ["g3", "g4"]], ["B", "I", "O"]),
                 ([["g5"], ["g6", "g7"]], ["O", "B"])]
        _, grad = ll_grad(model, batch)
        h = 1e-5
        for k in range(len(weights)):
            for sign, store in ((+1, "hi"), (-1, "lo")):
                w = weights.copy()
                w[k] += sign * h
                val, _ = ll_grad(
                    CrfModel(obs_index, w), batch)
                if sign > 0:
                    hi = val
                else:
                    lo = val
            assert abs(grad[k] - (hi - lo) / (2 * h)) <= 1e-6

    _report("CRF marginals/logZ/Viterbi match brute force (100 random "
            "models, rel 1e-8); gradient matches central differences "
            "(1e-6)", check)


def test_postprocessing_property_suite():
    def check():
        rng = random.Random(490)
        for _ in range(10_000):
            n = rng.randrange(0, 12)
            labels = [rng.choice("BIO") for _ in range(n)]
            words = [rng.choice([".", ",", "w", "day"]) for _ in range(n)]
            toks = _tokens(words)
            fixed = bio_fixer(labels, toks)
            assert is_valid_bio(fixed)
            assert bio_fixer(fixed, toks) == fixed
        # the two worked correction examples
        assert bio_fixer(["O", "I", "I", "O"],
                         _tokens(["Three", "days", "ago", "."])) == \
            ["B", "I", "I", "O"]
        assert bio_fixer(["B", "B"], _tokens(["Wednesday", "morning"])) == \
            ["B", "I"]
        # switcher honors strict > at the default threshold
        table = PriorTable()
        table.counts["at"] = np.array([87.0, 3.0, 10.0])
        table.in_span_counts["at"] = 90
        table.counts["above"] = np.array([88.0, 2.0, 10.0])
        table.in_span_counts["above"] = 90
        toks = _tokens(["at", "above"])
        out = threshold_label_switcher(["O", "O"], toks, table, 0.87)
        assert out == ["O", "B"]

    _report("bio_fixer idempotent + valid BIO on 10,000 random sequences; "
            "worked examples exact; switcher strict > at 0.87", check)


def test_end_to_end_synthetic_experiment():
    def check():
        doc = build_corpus(n_sentences=250, seed=7)
        train_doc, test_doc = split_corpus(doc, n_train=200)
        config = RunConfig(profile="model1")
        model, _ = pl.train_on_docs([train_doc], config)
        priors = build_prior_table(train_doc.sequences)
        featurizer = config.featurizer(model.profile)
        off = RunConfig(profile="model1", pipeline_enabled=False)
        labels_off = pl.label_document(test_doc, model, featurizer, off)
        f1_off = pl.spans_f1([test_doc], [labels_off], "strict")
        labels_on = pl.label_document(test_doc, model, featurizer, config,
                                      priors)
        f1_on = pl.spans_f1([test_doc], [labels_on], "strict")
        assert f1_off >= 0.95, f1_off
        assert f1_on >= f1_off, (f1_on, f1_off)

    _report("end-to-end 250-sentence experiment: strict F1 >= 0.95; "
            "default pipeline never lowers strict F1", check)


def test_normalizer_conformance():
    def check():
        anchor = date(2013, 4, 11)
        cases = fixture_expressions()
        assert len(cases) >= 200
        for expr, expected in cases:
            result = normalize(expr, anchor)
            assert result == expected, (expr, result, expected)
            assert validate_value(*result), (expr, result)
        for expr, expected in [
                (["tomorrow"], ("DATE", "2013-04-12")),
                (["three", "days", "ago"], ("DATE", "2013-04-08")),
                (["daily"], ("SET", "P1D")),
                (["the", "1990s"], ("DATE", "199")),
                (["now"], ("DATE", "PRESENT_REF"))]:
            assert normalize(expr, anchor) == expected
        rng = random.Random(490)
        deictic = [["today"], ["yesterday"], ["tomorrow"],
                   ["two", "days", "ago"], ["four", "days", "later"]]
        for _ in range(50):
            base = date(2000, 1, 1) + timedelta(days=rng.randint(0, 9000))
            k = rng.randint(-300, 300)
            a1 = base
            a2 = base + timedelta(days=k)
            for expr in deictic:
                _, v1 = normalize(expr, a1)
                _, v2 = normalize(expr, a2)
                delta = date.fromisoformat(v2) - date.fromisoformat(v1)
                assert delta == timedelta(days=k)

    _report("normalizer: 200-expression fixture 100% grammar-valid; five "
            "worked examples; anchor covariance over 50 anchors", check)


def test_statistics_against_oracles():
    def check():
        # hand computation: diffs (2, 1, 1) -> t = 4, df = 2, and for two
        # degrees of freedom the CDF is closed-form, so p = 1 - 4/sqrt(18)
        out = paired_t_test([3.0, 5.0, 7.0], [1.0, 4.0, 6.0])
        assert abs(out["t"] - 4.0) <= 1e-6
        assert abs(out["p_two_sided"] - (1 - 4 / math.sqrt(18))) <= 1e-6
        # hand computation: groups (1,2,3) and (2,3,4) -> F = 1.5 on
        # (1, 4) degrees of freedom
        res = one_way_anova([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert abs(res["F"] - 1.5) <= 1e-6
        rng = random.Random(490)
        for _ in range(20):
            n = rng.randrange(3, 25)
            a = [rng.gauss(0.0, 1.0) for _ in range(n)]
            b = [x + rng.gauss(0.1, 0.3) for x in a]
            got = paired_t_test(a, b)
            want = scipy.stats.ttest_rel(a, b)
            assert abs(got["t"] - want.statistic) <= 1e-6
            assert abs(got["p_two_sided"] - want.pvalue) <= 1e-6
            groups = [[rng.gauss(rng.uniform(0, 1), 1.0)
                       for _ in range(rng.randrange(2, 10))]
                      for _ in range(rng.randrange(2, 5))]
            got = one_way_anova(groups)
            want = scipy.stats.f_oneway(*groups)
            assert abs(got["F"] - want.statistic) <= 1e-6
            assert abs(got["p"] - want.pvalue) <= 1e-6
        # degenerate inputs return defined results, never a crash
        deg_t = paired_t_test([1.0, 2.0], [1.0, 2.0])
        assert deg_t["degenerate"] and math.isnan(deg_t["t"])
        deg_f = one_way_anova([[1.0, 1.0], [1.0, 1.0]])
        assert deg_f["degenerate"] and deg_f["p"] == 1.0

    _report("paired t-test / ANOVA match hand computation and an "
            "independent library to 1e-6; degenerate inputs handled",
            check)


def test_cv_determinism(tmp_path):
    def check():
        from tempex.cli import main
        from tempex import corpus as cp
        doc = build_corpus(n_sentences=40, seed=7)
        cp.write_corpus([doc], tmp_path / "c.tsv")
        (tmp_path / "run.ini").write_text("[crf]\nmax_iter = 40\n",
                                          encoding="utf-8")
        blobs = []
        for i in range(2):
            out = tmp_path / f"cv{i}.tsv"
            rc = main(["--config", str(tmp_path / "run.ini"),
                       "--seed", "490", "cv", str(tmp_path / "c.tsv"),
                       "--k", "2", "--repeats", "1",
                       "--output", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    _report("cv with seed 490 run twice is byte-identical", check)
