import itertools
import math

import numpy as np
import pytest
from scipy import sparse

from tempex import crf
from tempex.crf import (CrfError, CrfModel, LABELS, MarginalTable,
                        build_feature_index, forward_backward, load_model,
                        log_likelihood_and_gradient, save_model,
                        sequence_score, train, TrainConfig, viterbi)
from tempex.features import ObservationTable

# string-list sequences -> the table the CRF takes
T = ObservationTable.from_strings


def ll_grad(model, batch):
    """log_likelihood_and_gradient of (features, labels) pairs."""
    feats, labels = zip(*batch) if batch else ((), ())
    return log_likelihood_and_gradient(model, T(feats), labels)


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
    ids = model.encode(T([feats]))
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


def brute_force_pairs(model, feats):
    """Expected label-bigram counts (3, 3) of one sequence, by
    enumerating all label paths."""
    ids = model.encode(T([feats]))
    unary = np.array([model.unary_weights()[i].sum(0) for i in ids])
    trans = model.transition_weights()
    paths = list(itertools.product(range(3), repeat=len(feats)))
    scores = np.array([
        sum(unary[t, y] for t, y in enumerate(path))
        + sum(trans[a, b] for a, b in zip(path, path[1:]))
        for path in paths])
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    counts = np.zeros((3, 3))
    for p, path in zip(probs, paths):
        for a, b in zip(path, path[1:]):
            counts[a, b] += p
    return counts


class TestFeatureIndex:
    def test_slot_arithmetic(self):
        index = build_feature_index(T([[["f0"]]]))
        assert len(index) == 1
        model = CrfModel(index, np.zeros(1 * 3 + 9))
        assert model.weights.shape == (12,)

    def test_cutoff_excludes_rare(self):
        feats = [[["common", "rare"], ["common"]]]
        index = build_feature_index(T(feats), cutoff=2)
        assert "common" in index and "rare" not in index

    def test_deterministic(self):
        feats = [[["a", "b"], ["c"]], [["b", "d"]]]
        assert build_feature_index(T(feats)) == build_feature_index(T(feats))

    def test_empty_corpus(self):
        with pytest.raises(CrfError, match="empty"):
            build_feature_index(T([]))

    def test_keys_that_repeat_refused(self):
        """The index goes by codes, so two codes of one key would be two
        observations under one key."""
        table = ObservationTable(["a", "b", "a"],
                                 np.array([[0, 1], [2, -1]], dtype=np.int32),
                                 (2,))
        with pytest.raises(CrfError, match="share a key"):
            build_feature_index(table)


def split_encode(model, table):
    """The encoding as one id array per position, split from the gather
    of the table's codes: the reference for `CrfModel.encode`."""
    lookup = np.array([model.obs_index.get(k, -1) for k in table.keys]
                      + [-1], dtype=np.int32)
    ids = lookup[table.codes]
    kept = ids >= 0
    return np.split(ids[kept], np.cumsum(kept.sum(axis=1)))[:-1]


def stacked_batch(model, table, labels=None):
    """`_EncodedBatch`'s order, step-by-observation matrix and, given
    `labels`, groups, multiplicities and gold counts, built by stacking
    the per-position id arrays of `split_encode` in longest-first order:
    the reference for the batch built from the encoding's CSR arrays."""
    obs_ids = split_encode(model, table)
    lengths = table.lengths
    starts = np.cumsum((0, *lengths))
    order = sorted((i for i, n in enumerate(lengths) if n),
                   key=lambda i: -lengths[i])
    steps = [obs_ids[p] for i in order
             for p in range(starts[i], starts[i + 1])]
    indptr = np.cumsum([0] + [len(ids) for ids in steps])
    indices = np.concatenate([np.zeros(0, dtype=np.int64), *steps])
    x = sparse.csr_matrix((np.ones(len(indices)), indices, indptr),
                          shape=(len(steps), model.n_obs))
    if labels is None:
        return order, x
    label_ids = [[LABELS.index(l) for l in labs] for labs in labels]
    gold = np.zeros((len(steps), 3))
    gold[np.arange(len(steps)),
         [y for i in order for y in label_ids[i]]] = 1.0
    bigrams = [a * 3 + b for i in order
               for a, b in zip(label_ids[i], label_ids[i][1:])]
    group, xg = crf._group_columns(x.tocsc())
    empirical = np.concatenate([(xg.T @ gold).ravel(),
                                np.bincount(bigrams, minlength=9)])
    return order, xg, group, np.bincount(group, minlength=xg.shape[1]), \
        empirical


def same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


class TestEncode:
    """`CrfModel.encode`'s CSR arrays, and the batch built from them,
    against the per-position arrays they replaced."""

    @staticmethod
    def tables(rng):
        """Random tables: keys that spell one string, strings the model
        does not know, empty slots anywhere and empty sequences; then the
        empty table and a table of empty sequences."""
        for _ in range(40):
            n_keys = int(rng.integers(0, 10))
            keys = [f"f{i}" for i in rng.integers(0, 12, size=n_keys)]
            lengths = rng.integers(0, 6, size=rng.integers(0, 7))
            codes = rng.integers(-1, n_keys, size=(int(lengths.sum()),
                                                   int(rng.integers(0, 5))))
            yield ObservationTable(keys, codes.astype(np.int32),
                                   tuple(lengths.tolist()))
        yield ObservationTable([], np.zeros((0, 0), dtype=np.int32), ())
        yield ObservationTable(["f0"], np.zeros((0, 3), dtype=np.int32),
                               (0, 0))

    @staticmethod
    def model(rng):
        order = rng.permutation(8)  # f8 to f11 are unknown
        return CrfModel({f"f{i}": j for j, i in enumerate(order)},
                        np.zeros(8 * 3 + 9))

    def test_positions_match_split_arrays(self):
        rng = np.random.default_rng(41)
        for table in self.tables(rng):
            model = self.model(rng)
            encoded = model.encode(table)
            want = split_encode(model, table)
            assert len(encoded) == len(want) == len(table)
            for got, ids in zip(encoded, want, strict=True):
                assert got.dtype == ids.dtype == np.int32
                assert got.tolist() == ids.tolist()

    def test_batch_matches_stacked_positions(self):
        rng = np.random.default_rng(42)
        for table in self.tables(rng):
            model = self.model(rng)
            batch = crf._EncodedBatch(model, table)
            order, x = stacked_batch(model, table)
            assert batch.order == order
            assert same_csr(batch.x, x)

    def test_labeled_batch_matches_stacked_positions(self):
        rng = np.random.default_rng(43)
        for table in self.tables(rng):
            model = self.model(rng)
            labels = [[LABELS[y] for y in rng.integers(0, 3, size=n)]
                      for n in table.lengths]
            batch = crf._EncodedBatch(model, table, labels)
            order, xg, group, multiplicity, empirical = stacked_batch(
                model, table, labels)
            assert batch.order == order
            assert same_csr(batch.x, xg)
            assert batch.group.tolist() == group.tolist()
            assert batch.multiplicity.tolist() == multiplicity.tolist()
            assert batch.empirical.tobytes() == empirical.tobytes()


class TestForwardBackward:
    def test_uniform_model(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        table = forward_backward(model, T([[["f0"], ["f0"]]]))[0]
        assert np.allclose(table.probs, 1 / 3)
        assert table.log_z == pytest.approx(2 * math.log(3))

    def test_length_one_softmax(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        feats = [["f0", "f1"]]
        table = forward_backward(model, T([feats]))[0]
        scores = model.unary_weights()[[0, 1]].sum(0)
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        assert np.allclose(table.probs[0], expected)

    def test_empty_sequence(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        table = forward_backward(model, T([[]]))[0]
        assert len(table) == 0 and table.log_z == 0.0
        assert forward_backward(model, T([])) == [] == viterbi(model, T([]))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model = random_model(rng)
            feats = random_features(rng, 6, int(rng.integers(1, 5)))
            table = forward_backward(model, T([feats]))[0]
            log_z, marg, _ = brute_force(model, feats)
            assert table.log_z == pytest.approx(log_z, rel=1e-8)
            assert np.abs(table.probs - marg).max() < 1e-8

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            model = random_model(rng, n_obs=8)
            feats = random_features(rng, 8, int(rng.integers(1, 9)))
            table = forward_backward(model, T([feats]))[0]
            assert np.abs(table.probs.sum(axis=1) - 1).max() <= 1e-9

    def test_long_sequence_no_underflow(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        feats = random_features(rng, 6, 1000)
        table = forward_backward(model, T([feats]))[0]
        assert np.isfinite(table.log_z)
        assert np.abs(table.probs.sum(axis=1) - 1).max() <= 1e-9


class TestMarginalTable:
    """A table accepts exactly the rows whose sums `np.allclose(sums, 1.0,
    atol=1e-9)` accepts: |sum - 1| <= 1e-9 + 1e-5, and no NaN or inf."""

    @staticmethod
    def accepted(row_sum):
        try:
            MarginalTable(np.array([[row_sum, 0.0, 0.0]]), 0.0)
        except CrfError as exc:
            assert "do not sum to 1" in str(exc)
            return False
        return True

    def test_band_edges_match_allclose(self):
        for edge in (1.0 + 1e-9 + 1e-5, 1.0 - 1e-9 - 1e-5):
            below, above = edge, edge
            sums = [edge]
            for _ in range(20):
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
                sums += [below, above]
            verdicts = {self.accepted(x) for x in sums}
            assert verdicts == {True, False}
            for x in sums:
                assert self.accepted(x) == np.allclose(x, 1.0, atol=1e-9)

    def test_just_inside_and_outside(self):
        assert self.accepted(1.0 + 1.00009e-5)
        assert self.accepted(1.0 - 1.00009e-5)
        assert not self.accepted(1.0 + 1.00011e-5)
        assert not self.accepted(1.0 - 1.00011e-5)

    def test_nan_and_inf_rows_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(CrfError, match="do not sum to 1"):
                MarginalTable(np.array([[0.5, 0.5, 0.0], [bad, 0.0, 0.0]]),
                              0.0)


class TestViterbi:
    def test_zero_weights_all_b(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        assert viterbi(model, T([[["f0"]] * 4]))[0] == ["B", "B", "B", "B"]

    def test_unary_favoring_o(self):
        w = np.zeros(12)
        w[2] = 10.0  # f0 with label O
        model = CrfModel({"f0": 0}, w)
        assert viterbi(model, T([[["f0"]] * 5]))[0] == ["O"] * 5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng)
            feats = random_features(rng, 6, int(rng.integers(1, 5)))
            path = viterbi(model, T([feats]))[0]
            best_score, _, best_path = None, None, None
            log_z, _, best_path = brute_force(model, feats)
            ids = model.encode(T([feats]))
            got = sequence_score(model, ids,
                                 [LABELS.index(l) for l in path])
            want = sequence_score(model, ids,
                                  [LABELS.index(l) for l in best_path])
            assert got == pytest.approx(want, abs=1e-9)

    def test_beats_random_paths(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        feats = random_features(rng, 6, 8)
        ids = model.encode(T([feats]))
        path = viterbi(model, T([feats]))[0]
        best = sequence_score(model, ids, [LABELS.index(l) for l in path])
        for _ in range(1000):
            path = list(rng.integers(0, 3, size=8))
            assert best >= sequence_score(model, ids, path) - 1e-9


class TestGradient:
    def test_uniform_value(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        value, _ = ll_grad(model, [([["f0"]], ["B"])])
        assert value == pytest.approx(-math.log(3))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_obs=4)  # 21 weights
        batch = [
            (random_features(rng, 4, 3), ["B", "I", "O"]),
            (random_features(rng, 4, 2), ["O", "B"]),
        ]
        _, grad = ll_grad(model, batch)
        h = 1e-5
        for i in range(len(model.weights)):
            wp = model.weights.copy()
            wp[i] += h
            wm = model.weights.copy()
            wm[i] -= h
            vp, _ = ll_grad(
                CrfModel(model.obs_index, wp), batch)
            vm, _ = ll_grad(
                CrfModel(model.obs_index, wm), batch)
            assert grad[i] == pytest.approx((vp - vm) / (2 * h), abs=1e-6)

    def test_large_c_removes_penalty(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        model.c = 1e12
        batch = [(random_features(rng, 6, 3), ["B", "I", "O"])]
        value, _ = ll_grad(model, batch)
        ids = model.encode(T([batch[0][0]]))
        raw = sequence_score(model, ids, [0, 1, 2]) \
            - forward_backward(model, T([batch[0][0]]))[0].log_z
        assert value == pytest.approx(raw, abs=1e-9)

    def test_label_mismatch(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        with pytest.raises(CrfError):
            ll_grad(model, [([["f0"]], ["B", "I"])])

    def test_transition_counts_match_enumeration(self):
        """The expected label-bigram counts in the gradient (empirical
        minus gradient minus w/C) are the brute-force ones, on ragged
        batches holding sequences of length 1."""
        rng = np.random.default_rng(14)
        for _ in range(15):
            model = random_model(rng)
            lengths = rng.integers(1, 6, size=rng.integers(1, 5))
            batch = [(random_features(rng, 6, n),
                      [LABELS[i] for i in rng.integers(0, 3, size=n)])
                     for n in lengths]
            batch[0] = (batch[0][0][:1], batch[0][1][:1])
            _, grad = ll_grad(model, batch)
            empirical = np.zeros((3, 3))
            for _, labels in batch:
                for a, b in zip(labels, labels[1:]):
                    empirical[LABELS.index(a), LABELS.index(b)] += 1
            got = empirical - grad[-9:].reshape(3, 3) \
                - model.transition_weights() / model.c
            want = sum(brute_force_pairs(model, feats) for feats, _ in batch)
            assert np.abs(got - want).max() < 1e-8


def math_log_z(model, feats):
    """logZ by a pure-Python max-shift forward recursion (math module)."""
    w = model.unary_weights().tolist()
    trans = model.transition_weights().tolist()
    unary = [[sum(w[i][y] for i in ids) for y in range(3)]
             for ids in model.encode(T([feats]))]

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
        value, grad = ll_grad(model, batch)
        singles = [ll_grad(model, [pair])
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
        tables = forward_backward(model, T(doc))
        paths = viterbi(model, T(doc))
        assert [len(t) for t in tables] == [len(p) for p in paths] \
            == [7, 1, 0, 40, 2]
        for feats, table, path in zip(doc, tables, paths):
            alone = forward_backward(model, T([feats]))[0]
            assert path == viterbi(model, T([feats]))[0]
            assert np.abs(table.probs - alone.probs).max(initial=0.0) \
                <= 1e-12
            assert table.log_z == pytest.approx(alone.log_z, rel=1e-12)

    def test_zero_weights_ragged_document_all_b(self):
        model = CrfModel({"f0": 0}, np.zeros(12))
        lengths = (3, 1, 0, 5)
        assert viterbi(model, T([[["f0"]] * n for n in lengths])) == \
            [["B"] * n for n in lengths]

    def test_long_sequence_log_z_matches_python_recursion(self):
        rng = np.random.default_rng(12)
        model = CrfModel({f"f{i}": i for i in range(6)},
                         rng.normal(scale=20.0, size=6 * 3 + 9))
        feats = random_features(rng, 6, 1000)
        table = forward_backward(model, T([feats]))[0]
        want = math_log_z(model, feats)
        assert np.isfinite(table.log_z)
        assert table.log_z == pytest.approx(want, rel=1e-8)


def math_forward_backward(model, feats):
    """logZ and marginals by a pure-Python max-shift forward-backward
    recursion in log space (math module)."""
    w = model.unary_weights().tolist()
    trans = model.transition_weights().tolist()
    unary = [[sum(w[i][y] for i in ids) for y in range(3)]
             for ids in model.encode(T([feats]))]

    def log_sum_exp(xs):
        m = max(xs)
        return m + math.log(sum(math.exp(x - m) for x in xs))

    alpha = [unary[0]]
    for u in unary[1:]:
        alpha.append([u[b] + log_sum_exp([alpha[-1][a] + trans[a][b]
                                          for a in range(3)])
                      for b in range(3)])
    beta = [[0.0] * 3]
    for u in reversed(unary[1:]):
        beta.insert(0, [log_sum_exp([trans[a][b] + u[b] + beta[0][b]
                                     for b in range(3)])
                        for a in range(3)])
    log_z = log_sum_exp(alpha[-1])
    return log_z, np.exp(np.array(alpha) + np.array(beta) - log_z)


class TestScaledKernel:
    """The probability-space recursion against log-space references,
    where potentials span far more than a double's range."""

    def test_extreme_unary_long_sequence(self):
        """Unary weights of +-1e3 per observation over 1,000 steps."""
        rng = np.random.default_rng(15)
        weights = rng.normal(size=6 * 3 + 9)
        weights[:-9] = rng.choice([-1e3, 1e3], size=6 * 3)
        model = CrfModel({f"f{i}": i for i in range(6)}, weights)
        feats = random_features(rng, 6, 1000)
        table = forward_backward(model, T([feats]))[0]
        log_z, marg = math_forward_backward(model, feats)
        assert table.log_z == pytest.approx(log_z, rel=1e-8)
        assert np.abs(table.probs - marg).max() < 1e-8

    @staticmethod
    def peaked_model(spread):
        """A model where observation `start` puts all mass on O at the
        first step, and every transition out of O is `spread` nats below
        the others."""
        weights = np.zeros(2 * 3 + 9)
        weights[2] = 1e3                       # start, O
        weights[6 + 3 * 2: 6 + 3 * 3] = -spread  # O -> B, I, O
        return CrfModel({"start": 0, "f": 1}, weights)

    FEATS = [["start"], ["f"], ["f"], ["f"]]
    GOLD = ["O", "B", "I", "O"]

    def test_large_transition_spread_still_exact(self):
        model = self.peaked_model(600.0)
        table = forward_backward(model, T([self.FEATS]))[0]
        log_z, marg = math_forward_backward(model, self.FEATS)
        assert table.log_z == pytest.approx(log_z, rel=1e-8)
        assert np.abs(table.probs - marg).max() < 1e-8
        value, grad = ll_grad(model, [(self.FEATS, self.GOLD)])
        assert np.isfinite(value) and np.isfinite(grad).all()

    def test_underflow_is_a_typed_error(self, monkeypatch):
        """A transition spread of 800 nats underflows the normalizer:
        forward-backward, the objective and training raise CrfError."""
        model = self.peaked_model(800.0)
        with pytest.raises(CrfError, match="underflow"):
            forward_backward(model, T([self.FEATS]))
        with pytest.raises(CrfError, match="underflow"):
            ll_grad(model, [(self.FEATS, self.GOLD)])

        def minimize(fun, x0, **kwargs):
            assert x0.shape == model.weights.shape
            return fun(model.weights)

        monkeypatch.setattr(crf, "minimize", minimize)
        with pytest.raises(CrfError, match="underflow"):
            train(T([self.FEATS]), [self.GOLD])


def group_sums(batch, weights):
    """Per-observation weights summed by the labeled batch's groups, as
    `log_likelihood_and_gradient` sums them for `_ll_grad`."""
    sums = np.zeros(batch.multiplicity.size * 3 + 9)
    np.add.at(sums[:-9].reshape(-1, 3), batch.group,
              weights[:-9].reshape(-1, 3))
    sums[-9:] = weights[-9:]
    return sums


def same_bits(got, want):
    """Forward-backward or objective results, equal bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBufferReuse:
    """Forward-backward's buffers belong to the batch and every run on
    it fills them again: a run on a used batch gives the bits of a run
    on a fresh one."""

    # ragged; sequences of one step (no transitions); empty sequences
    # beside one; a batch whose active count falls to 1
    LENGTHS = [(7, 1, 0, 40, 2), (1, 1, 1), (0, 3, 0), (6, 2, 1)]

    @staticmethod
    def corpus(lengths, seed=31):
        rng = np.random.default_rng(seed)
        feats = [random_features(rng, 8, n) for n in lengths]
        labels = [[LABELS[y] for y in rng.integers(0, 3, size=n)]
                  for n in lengths]
        weights = [rng.normal(scale=1.5, size=8 * 3 + 9) for _ in "ab"]
        return T(feats), labels, weights

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_objective_a_b_a(self, lengths):
        table, labels, (a, b) = self.corpus(lengths)
        model = CrfModel({f"f{i}": i for i in range(8)}, a)
        batch = crf._EncodedBatch(model, table, labels)
        for weights in (a, b, a):
            sums = group_sums(batch, weights)
            fresh = crf._EncodedBatch(model, table, labels)
            same_bits(crf._ll_grad(batch, sums, 0.5, sums / 3),
                      crf._ll_grad(fresh, sums, 0.5, sums / 3))

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_decoding_batch_a_b_a(self, lengths):
        table, _, (a, b) = self.corpus(lengths)
        model = CrfModel({f"f{i}": i for i in range(8)}, a)
        batch = crf._EncodedBatch(model, table)
        for weights in (a, b, a):
            same_bits(crf._forward_backward(batch, weights),
                      crf._forward_backward(crf._EncodedBatch(model, table),
                                            weights))

    @pytest.mark.parametrize("lengths", LENGTHS + [(), (0, 0)])
    def test_forward_backward_twice(self, lengths):
        table, _, (a, _) = self.corpus(lengths)
        model = CrfModel({f"f{i}": i for i in range(8)}, a)
        first, second = forward_backward(model, table), \
            forward_backward(model, table)
        assert len(first) == len(second) == len(lengths)
        for x, y in zip(first, second):
            same_bits((x.probs, x.log_z), (y.probs, y.log_z))

    def test_underflow_then_reuse(self):
        """The 800-nat spread still raises CrfError on a used batch, and
        the batch then gives a fresh batch's bits again."""
        feats, gold = TestScaledKernel.FEATS, TestScaledKernel.GOLD
        good = TestScaledKernel.peaked_model(600.0).weights
        bad = TestScaledKernel.peaked_model(800.0)
        batch = crf._EncodedBatch(bad, T([feats]), [gold])
        decoding = crf._EncodedBatch(bad, T([feats]))
        for _ in range(2):
            same_bits(crf._ll_grad(batch, group_sums(batch, good), 0.0),
                      crf._ll_grad(crf._EncodedBatch(bad, T([feats]),
                                                     [gold]),
                                   group_sums(batch, good), 0.0))
            same_bits(crf._forward_backward(decoding, good),
                      crf._forward_backward(crf._EncodedBatch(
                          bad, T([feats])), good))
            with pytest.raises(CrfError, match="underflow"):
                crf._ll_grad(batch, group_sums(batch, bad.weights), 0.0)
            with pytest.raises(CrfError, match="underflow"):
                crf._forward_backward(decoding, bad.weights)


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
        model = train(T(feats), labels, TrainConfig(max_iter=100))
        for f, l in zip(feats, labels):
            assert viterbi(model, T([f]))[0] == l

    def test_objective_improved(self):
        feats, labels = self.make_batch()
        model = train(T(feats), labels, TrainConfig(max_iter=100))
        zero = CrfModel(model.obs_index,
                        np.zeros_like(model.weights), c=model.c)
        batch = list(zip(feats, labels))
        v0, _ = ll_grad(zero, batch)
        v1, _ = ll_grad(model, batch)
        assert v1 > v0

    def test_deterministic(self):
        feats, labels = self.make_batch()
        m1 = train(T(feats), labels, TrainConfig(max_iter=50))
        m2 = train(T(feats), labels, TrainConfig(max_iter=50))
        assert np.array_equal(m1.weights, m2.weights)

    def test_c_monotonicity(self):
        feats, labels = self.make_batch()
        batch = None
        lls = []
        for c in (0.1, 1.0, 10.0):
            model = train(T(feats), labels, TrainConfig(c=c, max_iter=100))
            batch = list(zip(feats, labels))
            value, _ = ll_grad(model, batch)
            unpenalized = value + float(
                model.weights @ model.weights) / (2 * c)
            lls.append(unpenalized)
        assert lls[0] <= lls[1] + 1e-6 <= lls[2] + 2e-6

    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_iterations_logged(self, max_iter):
        """The log holds the iterations taken: all of a budget too small
        to converge in, without convergence, and fewer than a large one,
        with it."""
        feats, labels = self.make_batch()
        log = train(T(feats), labels,
                    TrainConfig(max_iter=max_iter)).training_log
        if max_iter == 3:
            assert log["iterations"] == 3 and not log["converged"]
        else:
            assert 0 < log["iterations"] < 100 and log["converged"]

    def test_empty_corpus(self):
        with pytest.raises(CrfError, match="empty"):
            train(T([]), [])


class TestMinimize:
    """The optimizer on a strictly convex quadratic 0.5 x'Ax - b'x in 50
    dimensions, condition number 100, whose minimizer is A^-1 b."""

    @staticmethod
    def quadratic():
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        a = (q * np.geomspace(1.0, 100.0, 50)) @ q.T
        b = rng.standard_normal(50)
        return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), \
            np.linalg.solve(a, b)

    def test_reaches_the_minimizer(self):
        fun, x_star = self.quadratic()
        result = crf.minimize(fun, np.zeros(50), max_iter=1000, ftol=1e-15)
        assert result.success
        assert np.abs(result.x - x_star).max() < 1e-6
        assert result.fun == pytest.approx(fun(x_star)[0], rel=1e-12)

    def test_iteration_limit_is_no_convergence(self):
        fun, _ = self.quadratic()
        result = crf.minimize(fun, np.zeros(50), max_iter=3, ftol=1e-15)
        assert result.nit == 3 and not result.success

    def test_step_far_past_the_minimum_is_cut(self):
        """From |x0| = 0.5005 on 0.5 |x|^2, the first step of length 1
        ends just past the other side of the minimum, 5e-4 lower: enough
        for Armijo's test, and a relative reduction below `ftol`."""
        result = crf.minimize(lambda x: (0.5 * float(x @ x), x.copy()),
                              np.array([0.5005, 0.0]), max_iter=100,
                              ftol=1e-3)
        assert result.success and result.fun < 1e-6

    def test_short_step_is_lengthened(self):
        """From |x0| = 100 on 0.5 |x|^2, the first step of length 1
        leaves the slope at 0.99 of its size, and lowers f by 2%: below
        `ftol` 0.05.  The search doubles the step instead of stopping
        there."""
        result = crf.minimize(lambda x: (0.5 * float(x @ x), x.copy()),
                              np.array([100.0, 0.0]), max_iter=100,
                              ftol=0.05)
        assert result.success and result.fun < 1e-6

    def test_best_armijo_step_when_no_step_is_wolfe(self):
        """On |x - 0.3| the slope is 1 in size everywhere, so no step
        meets the curvature condition; the search returns its lowest
        point that passes Armijo's test."""
        result = crf.minimize(
            lambda x: (float(abs(x[0] - 0.3)), np.sign(x - 0.3)),
            np.zeros(1), max_iter=100, ftol=1e-3)
        assert result.success and abs(result.x[0] - 0.3) < 1e-3

    def test_trial_step_is_more_thuente(self):
        """In the two cases that bracket a minimizer, the trial step is
        the one MINPACK-2's `dcstep`, as scipy ships it, takes."""
        from scipy.optimize._dcsrch import dcstep
        rng = np.random.default_rng(17)
        for case in range(200):
            a, b = rng.uniform(0, 2, size=2)
            d_a = -math.copysign(rng.uniform(0.1, 10), b - a)
            f_a = rng.normal()
            if case % 2:  # case 1: f is higher at b
                f_b, d_b = f_a + rng.uniform(0.01, 5), rng.normal(scale=5)
            else:  # case 2: lower, and the slope has changed sign
                f_b = f_a - rng.uniform(0.01, 5)
                d_b = -d_a * rng.uniform(0.1, 2)
            want = dcstep(a, f_a, d_a, 0.0, 0.0, 0.0, b, f_b, d_b, False,
                          0.0, 1e10)[6]
            assert crf._trial_step(a, f_a, d_a, b, f_b, d_b) == \
                pytest.approx(want, rel=1e-12), case

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicities_give_the_full_space_iterates(self, seed):
        """0.5 x'Ax - b'x with A = P K P' + I and b = P c, where P copies
        each of 20 coordinates 1 to 3 times, is minimized from zero in
        full and over one entry per set of copies, given the copies'
        gradient and their counts as multiplicities.  The gradients agree
        on the copies to the bit, so the two runs differ only in how
        their inner products round: they take as many iterations to the
        same minimizer."""
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 4, size=20).astype(float)
        copy_of = np.repeat(np.arange(20), m.astype(int))
        p = np.zeros((copy_of.size, 20))
        p[np.arange(copy_of.size), copy_of] = 1.0
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        k = (q * np.geomspace(0.2, 1.0, 20)) @ q.T
        a = p @ k @ p.T + np.eye(copy_of.size)
        c = rng.standard_normal(20)
        b = p @ c

        def full(x):
            return 0.5 * x @ a @ x - b @ x, p @ (k @ (p.T @ x)) + x - b

        def reduced(v):
            return full(v[copy_of])[0], k @ (m * v) + v - c

        want = crf.minimize(full, np.zeros(copy_of.size), max_iter=1000,
                            ftol=1e-12)
        got = crf.minimize(reduced, np.zeros(20), max_iter=1000,
                           ftol=1e-12, multiplicity=m)
        assert want.success and got.success and got.nit == want.nit
        assert np.abs(got.x[copy_of] - want.x).max() <= 1e-12
        assert np.abs(want.x - np.linalg.solve(a, b)).max() < 1e-5

    def test_unit_multiplicities_change_no_bit(self):
        fun, _ = self.quadratic()
        want = crf.minimize(fun, np.zeros(50), max_iter=1000, ftol=1e-15)
        got = crf.minimize(fun, np.zeros(50), max_iter=1000, ftol=1e-15,
                           multiplicity=np.ones(50))
        assert got.nit == want.nit
        assert got.x.tobytes() == want.x.tobytes()

    def test_failed_line_search_is_no_convergence(self):
        """A gradient of the wrong sign: no step along the direction
        decreases the objective, and the start point comes back."""
        result = crf.minimize(lambda x: (float(x @ x), -2.0 * x),
                              np.ones(2), max_iter=100, ftol=1e-15)
        assert result.nit == 0 and not result.success
        assert np.array_equal(result.x, np.ones(2))


DIGEST = "0123456789abcdef" * 4


def dense_ll_grad(model, batch):
    """Value and gradient of `log_likelihood_and_gradient`, observation
    by observation: a dense token-by-observation count matrix per
    sequence and an enumeration of its label paths."""
    n = model.n_obs
    w = model.weights
    value = -float(np.add.reduce(w * w)) / (2 * model.c)
    grad = -w / model.c
    for feats, labels in batch:
        x = np.zeros((len(feats), n))
        for t, keys in enumerate(feats):
            for key in keys:
                if key in model.obs_index:
                    x[t, model.obs_index[key]] += 1

        def phi(path):
            v = np.zeros(w.size)
            for t, y in enumerate(path):
                v[y:3 * n:3] += x[t]
            for a, b in zip(path, path[1:]):
                v[3 * n + 3 * a + b] += 1
            return v

        paths = np.array([phi(p) for p in
                          itertools.product(range(3), repeat=len(feats))])
        scores = paths @ w
        log_z = scores.max() + math.log(np.exp(scores - scores.max()).sum())
        gold = phi([LABELS.index(lab) for lab in labels])
        value += float(gold @ w) - log_z
        grad += gold - np.exp(scores - log_z) @ paths
    return value, grad


def aliased_batch(rng, n_base=6, n_aliases=3, max_len=5):
    """Random sequences over `f0`..., where `g<i>` occurs exactly where
    `f<i>` does, so their columns coincide; gold labels at random; one
    sequence of length 1."""
    batch = []
    for n in [1, *rng.integers(1, max_len + 1, size=rng.integers(1, 4))]:
        feats = [keys + [f"g{k[1:]}" for k in keys
                         if int(k[1:]) < n_aliases]
                 for keys in random_features(rng, n_base, n)]
        batch.append((feats, [LABELS[i] for i in rng.integers(0, 3, size=n)]))
    return batch


def distinct_columns(table):
    """Each observation string's column of counts, {token: count}, and
    the number of distinct columns, worked out position by position."""
    column = {}
    for token, codes in enumerate(table.codes.tolist()):
        for code in codes:
            if code >= 0:
                counts = column.setdefault(table.keys[code], {})
                counts[token] = counts.get(token, 0) + 1
    return column, len({frozenset(c.items()) for c in column.values()})


class TestMergedColumns:
    """Training and the objective run over groups of observations whose
    token-by-observation columns are identical."""

    def test_objective_matches_dense_per_observation(self):
        """Weights that differ within a group, ragged batches with a
        length-1 sequence, and two never-seen observations (two zero
        columns, one group): the grouped objective is the dense one."""
        rng = np.random.default_rng(21)
        names = [f"f{i}" for i in range(6)] + [f"g{i}" for i in range(3)] \
            + ["unseen_a", "unseen_b"]
        merged = 0
        for _ in range(20):
            order = rng.permutation(len(names))
            model = CrfModel({names[i]: j for j, i in enumerate(order)},
                             rng.normal(scale=1.5, size=len(names) * 3 + 9),
                             c=float(rng.uniform(0.5, 2.0)))
            batch = aliased_batch(rng)
            value, grad = ll_grad(model, batch)
            want_value, want_grad = dense_ll_grad(model, batch)
            assert value == pytest.approx(want_value, abs=1e-10)
            assert np.abs(grad - want_grad).max() <= 1e-10
            feats, labels = zip(*batch)
            encoded = crf._EncodedBatch(model, T(feats), labels)
            merged += len(names) - encoded.multiplicity.size
        assert merged >= 20 * 4  # three alias pairs and the unseen pair

    @pytest.mark.parametrize("collide", [False, True])
    def test_only_identical_columns_merge(self, collide, monkeypatch):
        """The columns of `a` and `d` are equal; `b` and `c` have two
        entries, as `a` has, in other rows; `e` and `f` have one entry in
        the same row, counts 2 and 1.  With every entry hashing to 0, the
        columns with as many entries collide, and still only `a` and `d`
        merge."""
        if collide:
            monkeypatch.setattr(crf, "_row_hashes", lambda n: np.zeros(
                (n, 2), dtype=np.uint64))
        rng = np.random.default_rng(22)
        model = CrfModel({k: i for i, k in enumerate("abcdef")},
                         rng.normal(size=6 * 3 + 9))
        batch = [([["a", "b", "d"], ["a", "c", "d"],
                   ["b", "c", "e", "e", "f"]], ["B", "I", "O"])]
        feats, labels = zip(*batch)
        encoded = crf._EncodedBatch(model, T(feats), labels)
        assert encoded.group.tolist() == [0, 1, 2, 0, 3, 4]
        assert encoded.multiplicity.tolist() == [2, 1, 1, 1, 1]
        value, grad = ll_grad(model, batch)
        want_value, want_grad = dense_ll_grad(model, batch)
        assert value == pytest.approx(want_value, abs=1e-10)
        assert np.abs(grad - want_grad).max() <= 1e-10

    @staticmethod
    def aliased_toy():
        """The toy corpus with `W=<word>` beside every `w=<word>`."""
        feats = [[keys + ["W" + keys[0][1:]] for keys in toy_features(w)]
                 for w, _ in TOY_SENTENCES]
        return feats, [labels for _, labels in TOY_SENTENCES]

    def test_members_train_to_equal_weights(self, tmp_path):
        """Observations with one column have bitwise-equal weights, the
        log counts the distinct columns, and the model reloads bit for
        bit."""
        feats, labels = self.aliased_toy()
        table = T(feats)
        model = train(table, labels, TrainConfig(max_iter=100))
        column, n_distinct = distinct_columns(table)
        assert model.training_log["n_columns"] == n_distinct < len(column)
        unary = model.unary_weights()
        rows = {}
        for key, counts in column.items():
            rows.setdefault(frozenset(counts.items()), []).append(
                unary[model.obs_index[key]].tobytes())
        assert all(len(set(r)) == 1 for r in rows.values())
        model.digest = DIGEST
        save_model(model, tmp_path / "model.tsv")
        loaded = load_model(tmp_path / "model.tsv")
        assert loaded.obs_index == model.obs_index
        assert loaded.weights.tobytes() == model.weights.tobytes()

    def test_no_observation_column(self):
        """A cutoff that indexes no observation leaves no column: the
        transitions alone are trained."""
        model = train(T([[["a"], ["b"]]]), [["B", "I"]],
                      TrainConfig(cutoff=5))
        assert model.n_obs == model.training_log["n_columns"] == 0
        assert model.training_log["converged"]

    def test_iterates_are_the_per_observation_ones(self):
        """L-BFGS over every observation's own weight, on the
        per-observation objective, takes as many iterations and stops
        at the same weights, up to rounding."""
        feats, labels = self.aliased_toy()
        table = T(feats)
        config = TrainConfig(max_iter=100)
        model = train(table, labels, config)

        def objective(w):
            value, grad = log_likelihood_and_gradient(
                CrfModel(model.obs_index, w, c=config.c), table, labels)
            return -value, -grad

        full = crf.minimize(objective, np.zeros_like(model.weights),
                            config.max_iter, config.eta)
        assert full.nit == model.training_log["iterations"]
        assert np.abs(full.x - model.weights).max() <= 1e-7
        assert -full.fun == pytest.approx(
            model.training_log["final_objective"], rel=1e-10)


def saved_parts(path):
    """A saved model's header lines, weight block (the `#n_rows` distinct
    rows, then the transition rows) and `row<TAB>key` lines."""
    lines = path.read_text().splitlines()
    header = lines[:7]
    assert header[6].startswith("#n_rows\t")
    end = 7 + int(header[6].split("\t")[1]) + 3
    return header, lines[7:end], lines[end:]


def row_text(row):
    return "\t".join(map(repr, row))


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
        # four distinct rows, three transition rows, four observations
        header, block, observations = saved_parts(path)
        assert header[0] == "#version\ttempex-crf-3"
        assert (len(block), len(observations)) == (4 + 3, 4)
        assert [line.partition("\t")[2] for line in observations] == \
            ["b", "a", "d", "c"]

    def test_rows_are_per_weight_repr(self, tmp_path):
        """Each distinct unary row is written once as the `repr` of its
        weights, bit for bit: repeated values, both zeros, subnormals and
        large exponents; the transition rows follow, from B, I and O, and
        each observation names its row."""
        special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 1.7976931348623157e308,
                   -1e300, 1e-300, 1.0, -3.0, 0.1, 1 / 3, 123456789.125]
        rng = np.random.default_rng(16)
        weights = rng.choice(special, size=20 * 3 + 9)
        weights[:len(special)] = special
        weights[30:36] = weights[:6]  # observations 10, 11 repeat 0, 1
        model = CrfModel({f"k{i}": i for i in range(20)}, weights,
                         digest=DIGEST)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        rows = list(map(row_text, weights.reshape(-1, 3).tolist()))
        _, block, observations = saved_parts(path)
        assert block[-3:] == rows[20:]
        assert sorted(block[:-3]) == sorted(set(rows[:20]))
        assert len(block) - 3 < 20
        assert observations == [f"{block.index(rows[i])}\tk{i}"
                                for i in range(20)]
        loaded = load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()

    def test_rows_distinct_by_bit_pattern(self, tmp_path):
        """Rows that differ only in a zero's sign, or in the last bit, are
        two rows; bitwise-equal rows are one.  All read back bit for
        bit."""
        unary = [(0.0, -0.0, 5e-324), (-0.0, 0.0, 5e-324),
                 (0.0, -0.0, 5e-324), (1.7976931348623157e308, 2.5e-320, 1.0),
                 (1.7976931348623157e308, 2.5e-320, 1.0000000000000002),
                 (-0.0, 0.0, 5e-324)]
        weights = np.array(unary + [(-5e-324, -0.0, 0.0)] * 3).ravel()
        model = CrfModel({f"k{i}": i for i in range(6)}, weights,
                         digest=DIGEST)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        _, block, observations = saved_parts(path)
        assert sorted(block[:-3]) == sorted(set(map(row_text, unary)))
        assert len(block) == 4 + 3
        assert block[-3:] == ["-5e-324\t-0.0\t0.0"] * 3
        row_of = [int(line.partition("\t")[0]) for line in observations]
        assert row_of[0] == row_of[2] and row_of[1] == row_of[5]
        assert len(set(row_of)) == 4
        assert load_model(path).weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("distinct_rows", [1, 4, 23])
    def test_repeated_rows_reload_exactly(self, tmp_path, distinct_rows):
        """A model whose 23 weight rows (20 observations, 3 transitions)
        are all equal, repeat 4 rows in shuffled order, or are all
        distinct reloads bit for bit, each distinct unary row written
        once."""
        rng = np.random.default_rng(17)
        rows = rng.normal(size=(distinct_rows, 3))
        rows[0] = (0.0, -0.0, 5e-324)
        weights = rows[rng.permutation(np.arange(23) % distinct_rows)].ravel()
        model = CrfModel({f"k{i}": i for i in range(20)}, weights,
                         digest=DIGEST)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        _, block, _ = saved_parts(path)
        unary = {row_text(row) for row in weights[:60].reshape(-1, 3).tolist()}
        assert sorted(block[:-3]) == sorted(unary)
        assert load_model(path).weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("bad,message", [
        ("1.0\tx\t2.0", "bad weight"),
        ("1.0\tinf\t2.0", "bad weight"),
        ("1.0\t2.0", "expected w_B<TAB>w_I<TAB>w_O"),
    ])
    def test_repeated_bad_row_named_at_first_line(self, tmp_path, bad,
                                                  message):
        """A malformed weight row that occurs twice is reported at its
        first line."""
        model = CrfModel({f"k{i}": i for i in range(5)}, np.zeros(5 * 3 + 9),
                         digest=DIGEST)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        lines = path.read_text().splitlines()
        # one distinct row and three transition rows, lines 8 to 11
        assert lines[6:11] == ["#n_rows\t1"] + ["0.0\t0.0\t0.0"] * 4
        for lineno in (9, 11):
            lines[lineno - 1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CrfError, match=f"line 9: {message}"):
            load_model(path)

    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        model.digest = DIGEST
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(100):
            feats = random_features(rng, 6, int(rng.integers(1, 7)))
            assert viterbi(model, T([feats])) == viterbi(loaded, T([feats]))
            a = forward_backward(model, T([feats]))[0]
            b = forward_backward(loaded, T([feats]))[0]
            assert a.log_z == pytest.approx(b.log_z)

    def test_save_without_digest_refused(self, tmp_path):
        """A model `load_model` would refuse is not written at all."""
        path = tmp_path / "model.tsv"
        for digest in ("", "0" * 63, DIGEST.upper()):
            with pytest.raises(CrfError, match="digest"):
                save_model(CrfModel({"a": 0}, np.zeros(12), digest=digest),
                           path)
            assert not path.exists()

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
