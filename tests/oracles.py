"""Test oracles: independent scorers, BIO helpers, and the key strings
of the earlier model formats, which the tests compare observations by.

`from_strings` builds a table whose keys are plain strings, and a
`StringIndex` (key -> id) encodes such a table one `dict.get` per key,
so that the CRF's tests need no templates.  `spell` gives the key a
`tempex-crf-3` model wrote for an observation.
"""

import numpy as np

from tempex import crf
from tempex.corpus import CorpusError, Sequence, TimexSpan, check_bio
from tempex.features import TEMPLATES, ObservationTable, Observations


def spell(observation) -> str:
    """The `tempex-crf-3` key of an observation (`Observations[i]`): its
    template id, feature name and values, tab-joined."""
    return "\t".join(observation)


def keys_of(observations) -> list[str]:
    """Each observation's key, in id order."""
    return list(map(spell, observations))


class StringIndex(dict):
    """A model index over key strings (key -> id), for tables of string
    keys (`from_strings`)."""

    def lookup(self, keys) -> np.ndarray:
        return np.array([self.get(k, -1) for k in keys] + [-1],
                        dtype=np.int32)


class StringKeys(list):
    """A table's keys as strings: `crf.build_feature_index` indexes them
    into a `StringIndex`."""

    def subset(self, kept: np.ndarray) -> StringIndex:
        return StringIndex(zip(map(self.__getitem__, kept.tolist()),
                               range(kept.size)))


def string_model(index: dict, weights, **kwargs) -> crf.CrfModel:
    """A model over the key strings of `index` (key -> id)."""
    return crf.CrfModel(StringIndex(index), weights, **kwargs)


def key_index(keys) -> Observations:
    """An index of `keys` in id order, each a value of one unigram slot
    (T00, "key"), coded in sorted order, so that ids need not follow
    codes; a repeated key is one observation twice."""
    values = sorted(set(keys))
    return Observations([(TEMPLATES[0], "key")], [values], np.array(
        [(0, values.index(k)) for k in keys], dtype=np.int64).reshape(-1, 2))


def from_strings(sequences) -> ObservationTable:
    """The table of sequences given as per-position lists of observation
    strings, rows padded with empty slots."""
    index: dict[str, int] = {}
    rows = [[index.setdefault(f, len(index)) for f in feats]
            for seq in sequences for feats in seq]
    codes = np.full((len(rows), max(map(len, rows), default=0)), -1,
                    dtype=np.int32)
    for row, ids in zip(codes, rows):
        row[:len(ids)] = ids
    return ObservationTable(StringKeys(index), codes,
                            tuple(map(len, sequences)))


def string_ids(model: crf.CrfModel, table: ObservationTable) -> list:
    """Each position's ids by key string: every observation of the table
    spelled and looked up among the model's spelled observations, the
    reference for `CrfModel.encode`."""
    ids = {spell(o): i for i, o in enumerate(model.obs_index)}
    known = [ids.get(spell(o), -1) for o in table.keys]
    return [[known[c] for c in row if c >= 0 and known[c] >= 0]
            for row in table.codes.tolist()]


def encode_by_keys(model: crf.CrfModel, table: ObservationTable
                   ) -> crf.EncodedTable:
    """`CrfModel.encode` of any table, by key string (`string_ids`)."""
    ids = string_ids(model, table)
    return crf.EncodedTable(
        np.array([i for row in ids for i in row], dtype=np.int32),
        np.cumsum([0, *map(len, ids)], dtype=np.int64))


def sequence_score(model: crf.CrfModel, obs_ids: crf.EncodedTable,
                   label_ids) -> float:
    """Total score of one labeled sequence, summed position by position
    over `obs_ids`, the sequence's `CrfModel.encode`: the independent
    scorer the decoding tests compare against."""
    y = [int(lab) for lab in label_ids]
    unary = model.unary_weights()
    trans = model.transition_weights()
    return float(sum(unary[ids, lab].sum()
                     for ids, lab in zip(obs_ids, y, strict=True))
                 + sum(trans[a, b] for a, b in zip(y, y[1:])))


def log_likelihood_and_gradient(model: crf.CrfModel, table: ObservationTable,
                                labels):
    """Regularized conditional log-likelihood and its gradient.

    `labels` holds the gold labels of each sequence of `table`.  Value is
    sum log p(y|x) - ||w||^2 / (2C); the gradient is empirical minus
    expected feature counts minus w/C.  Computed by `crf._ll_grad` over
    the groups of identical observation columns, for any weights, equal
    within a group or not.
    """
    n_labels = crf.N_LABELS
    batch = crf._EncodedBatch(model, table, labels)
    w = model.weights
    n_unary = model.n_obs * n_labels
    sums = np.zeros(batch.multiplicity.size * n_labels + n_labels ** 2)
    np.add.at(sums[:-n_labels ** 2].reshape(-1, n_labels),
              batch.group, w[:n_unary].reshape(-1, n_labels))
    sums[-n_labels ** 2:] = w[n_unary:]
    value, grad = crf._ll_grad(batch, sums,
                               crf._dot(w, w) / (2.0 * model.c))
    return value, batch.expand(grad) - w / model.c


def is_valid_bio(labels) -> bool:
    try:
        check_bio(labels)
        return True
    except CorpusError:
        return False


def spans_to_bio(spans: list[TimexSpan], seq: Sequence) -> list[str]:
    """Project non-overlapping spans of one sequence onto BIO labels."""
    labels = ["O"] * len(seq)
    seen: list[TimexSpan] = []
    for span in sorted(spans, key=lambda s: s.first_token):
        if span.last_token >= len(seq):
            raise CorpusError(f"span {span} out of bounds")
        for other in seen:
            if (span.first_token <= other.last_token
                    and other.first_token <= span.last_token):
                raise CorpusError(f"overlapping spans {other} / {span}")
        seen.append(span)
        labels[span.first_token] = "B"
        for i in range(span.first_token + 1, span.last_token + 1):
            labels[i] = "I"
    return labels
