import itertools
import math

import numpy as np
import pytest

from tempex.crf import (CrfError, CrfModel, LABELS, build_feature_index,
                        forward_backward, load_model,
                        log_likelihood_and_gradient, save_model,
                        sequence_score, train, TrainConfig, viterbi)


def random_model(rng, n_obs=6):
    obs_index = {f"f{i}": i for i in range(n_obs)}
    weights = rng.normal(scale=1.5, size=n_obs * 3 + 9)
    return CrfModel(obs_index, weights)


def random_features(rng, n_obs, length):
    return [
        [f"f{i}" for i in rng.choice(n_obs, size=rng.integers(1, 4),
                                     replace=False)]
        for _ in range(length)
    ]


def brute_force(model, feats):
    """Enumerate all label paths: returns (logZ, marginals, best path)."""
    ids = model.encode(feats)
    unary = np.array([model.unary_weights()[i].sum(0) for i in ids])
    trans = model.transition_weights()
    n = len(feats)
    z = 0.0
    marg = np.zeros((n, 3))
    best = (-np.inf, None)
    for path in itertools.product(range(3), repeat=n):
        s = sum(unary[t, y] for t, y in enumerate(path))
        s += sum(trans[a, b] for a, b in zip(path, path[1:]))
        w = math.exp(s)
        z += w
        for t, y in enumerate(path):
            marg[t, y] += w
        if s > best[0]:
            best = (s, path)
    return math.log(z), marg / z, [LABELS[i] for i in best[1]]


class TestFeatureIndex:
    def test_slot_arithmetic(self):
        index = build_feature_index([[["f0"]]])
        assert len(index) == 1
        model = CrfModel(index, np.zeros(1 * 3 + 9))
        assert model.weights.shape == (12,)

    def test_cutoff_excludes_rare(self):
        feats = [[["common", "rare"], ["common"]]]
        index = build_feature_index(feats, cutoff=2)
        assert "common" in index and "rare" not in index

    def test_deterministic(self):
        feats = [[["a", "b"], ["c"]], [["b", "d"]]]
        assert build_feature_index(feats) == build_feature_index(feats)

    def test_empty_corpus(self):
        with pytest.raises(CrfError, match="empty"):
            build_feature_index([])


class TestForwardBackward:
    def test_uniform_model(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        table = forward_backward(model, [[["f0"], ["f0"]]])[0]
        assert np.allclose(table.probs, 1 / 3)
        assert table.log_z == pytest.approx(2 * math.log(3))

    def test_length_one_softmax(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        feats = [["f0", "f1"]]
        table = forward_backward(model, [feats])[0]
        scores = model.unary_weights()[[0, 1]].sum(0)
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        assert np.allclose(table.probs[0], expected)

    def test_empty_sequence(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        table = forward_backward(model, [[]])[0]
        assert len(table) == 0 and table.log_z == 0.0
        assert forward_backward(model, []) == [] == viterbi(model, [])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model = random_model(rng)
            feats = random_features(rng, 6, int(rng.integers(1, 5)))
            table = forward_backward(model, [feats])[0]
            log_z, marg, _ = brute_force(model, feats)
            assert table.log_z == pytest.approx(log_z, rel=1e-8)
            assert np.abs(table.probs - marg).max() < 1e-8

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            model = random_model(rng, n_obs=8)
            feats = random_features(rng, 8, int(rng.integers(1, 9)))
            table = forward_backward(model, [feats])[0]
            assert np.abs(table.probs.sum(axis=1) - 1).max() <= 1e-9

    def test_long_sequence_no_underflow(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        feats = random_features(rng, 6, 1000)
        table = forward_backward(model, [feats])[0]
        assert np.isfinite(table.log_z)
        assert np.abs(table.probs.sum(axis=1) - 1).max() <= 1e-9


class TestViterbi:
    def test_zero_weights_all_b(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        assert viterbi(model, [[["f0"]] * 4])[0] == ["B", "B", "B", "B"]

    def test_unary_favoring_o(self):
        w = np.zeros(12)
        w[2] = 10.0  # f0 with label O
        model = CrfModel({"f0": 0}, w)
        assert viterbi(model, [[["f0"]] * 5])[0] == ["O"] * 5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng)
            feats = random_features(rng, 6, int(rng.integers(1, 5)))
            path = viterbi(model, [feats])[0]
            best_score, _, best_path = None, None, None
            log_z, _, best_path = brute_force(model, feats)
            ids = model.encode(feats)
            got = sequence_score(model, ids,
                                 [LABELS.index(l) for l in path])
            want = sequence_score(model, ids,
                                  [LABELS.index(l) for l in best_path])
            assert got == pytest.approx(want, abs=1e-9)

    def test_beats_random_paths(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        feats = random_features(rng, 6, 8)
        ids = model.encode(feats)
        path = viterbi(model, [feats])[0]
        best = sequence_score(model, ids, [LABELS.index(l) for l in path])
        for _ in range(1000):
            path = list(rng.integers(0, 3, size=8))
            assert best >= sequence_score(model, ids, path) - 1e-9


class TestGradient:
    def test_uniform_value(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        value, _ = log_likelihood_and_gradient(model, [([["f0"]], ["B"])])
        assert value == pytest.approx(-math.log(3))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_obs=4)  # 21 weights
        batch = [
            (random_features(rng, 4, 3), ["B", "I", "O"]),
            (random_features(rng, 4, 2), ["O", "B"]),
        ]
        _, grad = log_likelihood_and_gradient(model, batch)
        h = 1e-5
        for i in range(len(model.weights)):
            wp = model.weights.copy()
            wp[i] += h
            wm = model.weights.copy()
            wm[i] -= h
            vp, _ = log_likelihood_and_gradient(
                CrfModel(model.obs_index, wp), batch)
            vm, _ = log_likelihood_and_gradient(
                CrfModel(model.obs_index, wm), batch)
            assert grad[i] == pytest.approx((vp - vm) / (2 * h), abs=1e-6)

    def test_large_c_removes_penalty(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        model.c = 1e12
        batch = [(random_features(rng, 6, 3), ["B", "I", "O"])]
        value, _ = log_likelihood_and_gradient(model, batch)
        ids = model.encode(batch[0][0])
        raw = sequence_score(model, ids, [0, 1, 2]) \
            - forward_backward(model, [batch[0][0]])[0].log_z
        assert value == pytest.approx(raw, abs=1e-9)

    def test_label_mismatch(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        with pytest.raises(CrfError):
            log_likelihood_and_gradient(model, [([["f0"]], ["B", "I"])])


def math_log_z(model, feats):
    """logZ by a pure-Python max-shift forward recursion (math module)."""
    w = model.unary_weights().tolist()
    trans = model.transition_weights().tolist()
    unary = [[sum(w[i][y] for i in ids) for y in range(3)]
             for ids in model.encode(feats)]

    def log_sum_exp(xs):
        m = max(xs)
        return m + math.log(sum(math.exp(x - m) for x in xs))

    alpha = unary[0]
    for u in unary[1:]:
        alpha = [u[b] + log_sum_exp([alpha[a] + trans[a][b]
                                     for a in range(3)])
                 for b in range(3)]
    return log_sum_exp(alpha)


class TestBatchedKernel:
    def test_ragged_batch_equals_sum_of_sequences(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, n_obs=8)
        batch = []
        for length in (1, 2, 7, 40):
            feats = random_features(rng, 8, length)
            labels = [LABELS[i] for i in rng.integers(0, 3, size=length)]
            batch.append((feats, labels))
        batch[2][0][3] = ["unseen_a", "unseen_b"]  # no known feature
        value, grad = log_likelihood_and_gradient(model, batch)
        singles = [log_likelihood_and_gradient(model, [pair])
                   for pair in batch]
        # each single result carries the L2 penalty once; the batch once
        extra = len(batch) - 1
        penalty = float(model.weights @ model.weights) / (2 * model.c)
        want_value = sum(v for v, _ in singles) + extra * penalty
        want_grad = sum(g for _, g in singles) + extra * model.weights \
            / model.c
        assert value == pytest.approx(want_value, abs=1e-10)
        assert np.abs(grad - want_grad).max() <= 1e-10

    def test_ragged_document_equals_sequences_alone(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, n_obs=8)
        doc = [random_features(rng, 8, n) for n in (7, 1, 0, 40, 2)]
        doc[0][3] = ["unseen_a", "unseen_b"]  # no known feature
        tables = forward_backward(model, doc)
        paths = viterbi(model, doc)
        assert [len(t) for t in tables] == [len(p) for p in paths] \
            == [7, 1, 0, 40, 2]
        for feats, table, path in zip(doc, tables, paths):
            alone = forward_backward(model, [feats])[0]
            assert path == viterbi(model, [feats])[0]
            assert np.abs(table.probs - alone.probs).max(initial=0.0) \
                <= 1e-12
            assert table.log_z == pytest.approx(alone.log_z, rel=1e-12)

    def test_zero_weights_ragged_document_all_b(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        lengths = (3, 1, 0, 5)
        assert viterbi(model, [[["f0"]] * n for n in lengths]) == \
            [["B"] * n for n in lengths]

    def test_long_sequence_log_z_matches_python_recursion(self):
        rng = np.random.default_rng(12)
        model = CrfModel({f"f{i}": i for i in range(6)},
                         rng.normal(scale=20.0, size=6 * 3 + 9))
        feats = random_features(rng, 6, 1000)
        table = forward_backward(model, [feats])[0]
        want = math_log_z(model, feats)
        assert np.isfinite(table.log_z)
        assert table.log_z == pytest.approx(want, rel=1e-8)


TOY_SENTENCES = [
    (["on", "January", str(d), ",", "2003", "."],
     ["O", "B", "I", "I", "I", "O"])
    for d in range(1, 21)
] + [
    (["nothing", "happened", "."], ["O", "O", "O"]),
    (["the", "cat", "sat", "."], ["O", "O", "O", "O"]),
]


def toy_features(words):
    # simple unigram+bigram observation features
    out = []
    for i, w in enumerate(words):
        prev = words[i - 1] if i else "_BOS_"
        out.append([f"w={w}", f"prev={prev}", f"isdigit={w.isdigit()}"])
    return out


class TestTrain:
    def make_batch(self):
        feats = [toy_features(w) for w, _ in TOY_SENTENCES]
        labels = [l for _, l in TOY_SENTENCES]
        return feats, labels

    def test_fits_separable_data(self):
        feats, labels = self.make_batch()
        model = train(feats, labels, TrainConfig(max_iter=100))
        for f, l in zip(feats, labels):
            assert viterbi(model, [f])[0] == l

    def test_objective_improved(self):
        feats, labels = self.make_batch()
        model = train(feats, labels, TrainConfig(max_iter=100))
        zero = CrfModel(model.obs_index,
                        np.zeros_like(model.weights), c=model.c)
        batch = list(zip(feats, labels))
        v0, _ = log_likelihood_and_gradient(zero, batch)
        v1, _ = log_likelihood_and_gradient(model, batch)
        assert v1 > v0

    def test_deterministic(self):
        feats, labels = self.make_batch()
        m1 = train(feats, labels, TrainConfig(max_iter=50))
        m2 = train(feats, labels, TrainConfig(max_iter=50))
        assert np.array_equal(m1.weights, m2.weights)

    def test_c_monotonicity(self):
        feats, labels = self.make_batch()
        batch = None
        lls = []
        for c in (0.1, 1.0, 10.0):
            model = train(feats, labels, TrainConfig(c=c, max_iter=100))
            batch = list(zip(feats, labels))
            value, _ = log_likelihood_and_gradient(model, batch)
            unpenalized = value + float(
                model.weights @ model.weights) / (2 * c)
            lls.append(unpenalized)
        assert lls[0] <= lls[1] + 1e-6 <= lls[2] + 2e-6

    def test_empty_corpus(self):
        with pytest.raises(CrfError, match="empty"):
            train([], [])


DIGEST = "0123456789abcdef" * 4


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        """Index, weights (bit for bit), profile and digest survive a save
        and load, also for an index whose ids are not in key order."""
        rng = np.random.default_rng(8)
        weights = rng.normal(size=4 * 3 + 9) * 1e-7
        model = CrfModel({"d": 2, "b": 0, "c": 3, "a": 1}, weights,
                         c=0.3, eta=1e-5, profile="model2", digest=DIGEST)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.obs_index == model.obs_index
        assert np.array_equal(loaded.weights, model.weights)
        assert (loaded.c, loaded.eta, loaded.profile, loaded.digest) == \
            (0.3, 1e-5, "model2", DIGEST)
        # one row per observation, then three transition rows
        assert len(path.read_text().splitlines()) == 6 + 4 + 3

    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        model.digest = DIGEST
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(100):
            feats = random_features(rng, 6, int(rng.integers(1, 7)))
            assert viterbi(model, [feats]) == viterbi(loaded, [feats])
            a = forward_backward(model, [feats])[0]
            b = forward_backward(loaded, [feats])[0]
            assert a.log_z == pytest.approx(b.log_z)

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("#version\tbogus-9\n")
        with pytest.raises(CrfError, match="bogus-9"):
            load_model(path)

    def test_weight_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_model(rng, n_obs=3)
        model.digest = DIGEST
        path = tmp_path / "model.tsv"
        save_model(model, path)
        text = path.read_text().replace("#n_features\t3", "#n_features\t4")
        path.write_text(text)
        with pytest.raises(CrfError, match="declares 4"):
            load_model(path)
