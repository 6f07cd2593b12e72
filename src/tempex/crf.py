"""Linear-chain CRF over the B/I/O label set.

Weights live in one flat vector: slot(obs, label) = obs_id * 3 + label,
followed by the 9 label-bigram transition slots.  All probability math is
done in log space.

Training, decoding and the tests share one path.  The observation table
of a list of sequences (a training corpus, or a batch of documents
when decoding; `features.ObservationTable`) is encoded once, one lookup
per distinct observation string, as a sparse token-by-observation matrix
over a length-padded, longest-first batch, so that one sparse product
scores every token.  One forward recursion then runs over the whole
batch: in the log semiring, where every step is a log-sum-exp shifted by
its maximum, it gives logZ and, with the backward pass, the marginals;
in the max-plus semiring it gives Viterbi.  Training collects expected
counts with the matrix's transpose.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import methodcaller
from pathlib import Path
from typing import Optional, Sequence as Seq

import numpy as np
from scipy import sparse
from scipy.optimize import minimize

from .corpus import LABELS, read_text
from .features import PROFILES, ObservationTable

MODEL_FORMAT_VERSION = "tempex-crf-2"
# L-BFGS history length (corrections kept).
LBFGS_HISTORY = 5

N_LABELS = len(LABELS)
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}


class CrfError(ValueError):
    pass


@dataclass
class MarginalTable:
    """Per-position label distributions plus the log-partition."""
    probs: np.ndarray  # (n, 3)
    log_z: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.probs) and not np.allclose(
                self.probs.sum(axis=1), 1.0, atol=1e-9):
            raise CrfError("marginal rows do not sum to 1")

    def __len__(self):
        return len(self.probs)


@dataclass
class CrfModel:
    obs_index: dict[str, int]          # observation string -> obs id
    weights: np.ndarray                # len = n_obs * 3 + 9
    c: float = 1.0
    eta: float = 1e-4
    profile: str = "model1"
    # features.Featurizer.digest of the featurizer it was trained with
    digest: str = ""
    training_log: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        expected = len(self.obs_index) * N_LABELS + N_LABELS * N_LABELS
        if self.weights.shape != (expected,):
            raise CrfError(
                f"weight vector has {self.weights.shape[0]} slots, "
                f"index requires {expected}")

    @property
    def n_obs(self) -> int:
        return len(self.obs_index)

    def unary_weights(self) -> np.ndarray:
        return self.weights[: self.n_obs * N_LABELS].reshape(-1, N_LABELS)

    def transition_weights(self) -> np.ndarray:
        return self.weights[self.n_obs * N_LABELS:].reshape(N_LABELS, N_LABELS)

    def encode(self, table: ObservationTable) -> list[np.ndarray]:
        """Observation ids of each position of `table`, in slot order;
        unknown observations and empty slots dropped.

        One `dict.get` per key of the table, then one gather of the
        table's codes; the lookup's extra last entry is what an empty
        slot (code -1) reads.
        """
        keys = table.keys
        lookup = np.fromiter(
            chain(map(self.obs_index.get, keys, repeat(-1, len(keys))),
                  (-1,)), dtype=np.int64, count=len(keys) + 1)
        ids = lookup[table.codes]
        kept = ids >= 0
        return np.split(ids[kept], np.cumsum(kept.sum(axis=1)))[:-1]


def build_feature_index(table: ObservationTable,
                        cutoff: int = 1) -> dict[str, int]:
    """Intern every observation string seen at least `cutoff` times.

    Slot order is first-occurrence order (position by position, slot by
    slot), so the index is deterministic for a fixed corpus.  Keys of the
    table that spell the same string are one observation: their counts
    add up and the first of them places it.  Keys are interned: models
    trained on similar corpora share most observation strings, and then
    share their storage.
    """
    if not table.lengths:
        raise CrfError("empty corpus")
    codes = table.codes.ravel()
    codes, first, counts = np.unique(codes[codes >= 0], return_index=True,
                                     return_counts=True)
    order = np.argsort(first)
    totals: dict[str, int] = {}
    for key, count in zip(map(table.keys.__getitem__, codes[order].tolist()),
                          counts[order].tolist()):
        totals[key] = totals.get(key, 0) + count
    return {sys.intern(f): i for i, f in
            enumerate(f for f, n in totals.items() if n >= cutoff)}


def _log_sum_exp(s: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(s))) over `axis`, shifted by the maximum."""
    m = s.max(axis=axis, keepdims=True)
    m += np.log(np.exp(s - m).sum(axis=axis, keepdims=True))
    return m.squeeze(axis)


class _EncodedBatch:
    """A table's sequences encoded once under `model`'s index, as one
    padded batch.

    The non-empty sequences are ordered longest first, so the ones still
    running at step t are the first `active[t]` of the batch; `order`
    maps each batch row to its input position.  `x` is the sparse
    step-by-observation count matrix in batch order, and `mask` marks the
    real steps of the padded (B, T) layout.  Given `labels`, `empirical`
    holds the gold feature counts in weight-vector order, so the gold
    paths' total score is `empirical @ weights`.
    """

    def __init__(self, model: CrfModel, table: ObservationTable,
                 labels=None):
        obs_ids = model.encode(table)
        lengths = table.lengths
        starts = np.cumsum((0, *lengths))
        self.n_input = len(lengths)
        self.order = sorted((i for i, n in enumerate(lengths) if n),
                            key=lambda i: -lengths[i])
        self.lengths = np.array([lengths[i] for i in self.order],
                                dtype=np.int64)
        steps = [obs_ids[p] for i in self.order
                 for p in range(starts[i], starts[i + 1])]
        indptr = np.cumsum([0] + [len(ids) for ids in steps])
        indices = np.concatenate([np.zeros(0, dtype=np.int64), *steps])
        self.x = sparse.csr_matrix(
            (np.ones(len(indices)), indices, indptr),
            shape=(len(steps), model.n_obs))
        self.mask = self.lengths[:, None] > np.arange(
            self.lengths.max(initial=0))
        self.active = self.mask.sum(axis=0)
        if labels is None:
            return
        label_ids = []
        for n, labs in zip(lengths, labels, strict=True):
            if n != len(labs):
                raise CrfError("feature/label length mismatch")
            try:
                label_ids.append([LABEL_INDEX[l] for l in labs])
            except KeyError as exc:
                raise CrfError(f"unknown label {exc.args[0]!r}") from exc
        gold_ids = [y for i in self.order for y in label_ids[i]]
        bigrams = [a * N_LABELS + b for i in self.order
                   for a, b in zip(label_ids[i], label_ids[i][1:])]
        gold = np.zeros((len(gold_ids), N_LABELS))
        gold[np.arange(len(gold_ids)), gold_ids] = 1.0
        self.empirical = np.concatenate([
            (self.x.T @ gold).ravel(),
            np.bincount(bigrams, minlength=N_LABELS * N_LABELS)])

    def unbatch(self, steps: np.ndarray) -> list[np.ndarray]:
        """Per-step rows in batch order, split back into the input
        sequences, in input order; an empty sequence gets no rows."""
        parts = dict(zip(self.order,
                         np.split(steps, np.cumsum(self.lengths)[:-1])))
        return [parts.get(i, steps[:0]) for i in range(self.n_input)]


def _unary(batch: _EncodedBatch, weights: np.ndarray) -> np.ndarray:
    """Label scores (B, T, 3) of the padded batch, `x @ W` on the real
    steps and zero past each sequence's end."""
    unary = np.zeros(batch.mask.shape + (N_LABELS,))
    unary[batch.mask] = batch.x @ weights[:-N_LABELS * N_LABELS].reshape(
        -1, N_LABELS)
    return unary


def _forward(batch: _EncodedBatch, unary: np.ndarray, trans: np.ndarray,
             plus) -> np.ndarray:
    """Forward scores in the semiring whose sum is `plus` (log-sum-exp or
    max) and whose product is +.  Step t computes only the first
    `active[t]` sequences, so padded steps stay zero."""
    alpha = np.zeros_like(unary)
    alpha[:, :1] = unary[:, :1]  # a slice: a batch of no steps passes
    for t in range(1, unary.shape[1]):
        k = batch.active[t]
        alpha[:k, t] = unary[:k, t] + plus(
            alpha[:k, t - 1, :, None] + trans, axis=1)
    return alpha


def _forward_backward(batch: _EncodedBatch, unary: np.ndarray,
                      trans: np.ndarray):
    """Log-space alpha and beta, both zero past each sequence's end, and
    logZ per sequence."""
    alpha = _forward(batch, unary, trans, _log_sum_exp)
    beta = np.zeros_like(unary)
    for t in range(unary.shape[1] - 2, -1, -1):
        k = batch.active[t + 1]
        beta[:k, t] = _log_sum_exp(
            trans + (unary[:k, t + 1] + beta[:k, t + 1])[:, None, :], axis=2)
    last = alpha[np.arange(len(batch.lengths)), batch.lengths - 1]
    return alpha, beta, _log_sum_exp(last, axis=1)


def _marginals(batch: _EncodedBatch, alpha: np.ndarray, beta: np.ndarray,
               log_z: np.ndarray) -> np.ndarray:
    """Label marginals of every real step (steps, 3), in batch order."""
    return np.exp((alpha + beta)[batch.mask]
                  - np.repeat(log_z, batch.lengths)[:, None])


def _viterbi(batch: _EncodedBatch, unary: np.ndarray,
             trans: np.ndarray) -> np.ndarray:
    """Best label id of every real step, in batch order: the max-plus
    forward recursion, then one backtrace over all sequences at once."""
    delta = _forward(batch, unary, trans, np.max)
    # back[:, t, b] is the best label at t given label b at t + 1;
    # argmax keeps the first maximum, so ties break by B < I < O
    back = np.argmax(delta[:, :-1, :, None] + trans, axis=2)
    rows = np.arange(len(batch.lengths))
    ends = batch.lengths - 1
    best = np.zeros(batch.mask.shape, dtype=np.int64)
    best[rows, ends] = np.argmax(delta[rows, ends], axis=1)
    for t in range(best.shape[1] - 2, -1, -1):
        k = batch.active[t + 1]
        best[:k, t] = back[rows[:k], t, best[:k, t + 1]]
    return best[batch.mask]


def forward_backward(model: CrfModel, table: ObservationTable
                     ) -> list[MarginalTable]:
    """Exact per-position marginals and logZ of each sequence of `table`,
    all sequences run as one batch."""
    batch = _EncodedBatch(model, table)
    alpha, beta, log_z = _forward_backward(
        batch, _unary(batch, model.weights), model.transition_weights())
    probs = _marginals(batch, alpha, beta, log_z)
    probs /= probs.sum(axis=1, keepdims=True)
    input_log_z = np.zeros(batch.n_input)
    input_log_z[batch.order] = log_z
    return [MarginalTable(p, float(z))
            for p, z in zip(batch.unbatch(probs), input_log_z)]


def viterbi(model: CrfModel, table: ObservationTable) -> list[list[str]]:
    """Maximum-probability label sequence of each sequence of `table`,
    all sequences run as one batch; argmax ties break by B < I < O."""
    batch = _EncodedBatch(model, table)
    best = _viterbi(batch, _unary(batch, model.weights),
                    model.transition_weights())
    return [[LABELS[y] for y in ids.tolist()] for ids in batch.unbatch(best)]


def sequence_score(model: CrfModel, obs_ids: list[np.ndarray],
                   label_ids: Seq[int]) -> float:
    """Total score of one labeled sequence, summed position by position:
    the independent scorer the decoding tests compare against."""
    y = [int(lab) for lab in label_ids]
    unary = model.unary_weights()
    trans = model.transition_weights()
    return float(sum(unary[ids, lab].sum()
                     for ids, lab in zip(obs_ids, y, strict=True))
                 + sum(trans[a, b] for a, b in zip(y, y[1:])))


def _ll_grad(batch: _EncodedBatch, weights: np.ndarray, c: float):
    """Penalized log-likelihood of a labeled batch, and its gradient."""
    n_unary = weights.size - N_LABELS * N_LABELS
    trans = weights[n_unary:].reshape(N_LABELS, N_LABELS)
    value = float(batch.empirical @ weights) \
        - float(weights @ weights) / (2.0 * c)
    grad = batch.empirical - weights / c
    unary = _unary(batch, weights)
    alpha, beta, log_z = _forward_backward(batch, unary, trans)
    value -= float(log_z.sum())
    grad[:n_unary] -= (
        batch.x.T @ _marginals(batch, alpha, beta, log_z)).ravel()
    pairs = batch.mask[:, 1:]  # steps (t, t + 1) within one sequence
    pair_scores = (alpha[:, :-1][pairs][:, :, None] + trans
                   + (unary[:, 1:] + beta[:, 1:])[pairs][:, None, :]
                   - np.repeat(log_z, batch.lengths - 1)[:, None, None])
    grad[n_unary:] -= np.exp(pair_scores).sum(axis=0).ravel()
    return value, grad


def log_likelihood_and_gradient(model: CrfModel, table: ObservationTable,
                                labels: Seq[Seq[str]]):
    """Regularized conditional log-likelihood and its gradient.

    `labels` holds the gold labels of each sequence of `table`.  Value is
    sum log p(y|x) - ||w||^2 / (2C); the gradient is empirical minus
    expected feature counts minus w/C.
    """
    return _ll_grad(_EncodedBatch(model, table, labels), model.weights,
                    model.c)


@dataclass
class TrainConfig:
    c: float = 1.0
    eta: float = 1e-4
    max_iter: int = 300
    cutoff: int = 1


def train(table: ObservationTable, labels: Seq[Seq[str]],
          config: Optional[TrainConfig] = None) -> CrfModel:
    """L2-regularized maximum likelihood via limited-memory quasi-Newton.

    Stops when the relative objective change falls below `eta` or after
    `max_iter` iterations.  Deterministic: same corpus and config yield
    identical weights.
    """
    config = config or TrainConfig()
    obs_index = build_feature_index(table, config.cutoff)
    model = CrfModel(
        obs_index,
        np.zeros(len(obs_index) * N_LABELS + N_LABELS * N_LABELS),
        c=config.c, eta=config.eta)
    batch = _EncodedBatch(model, table, labels)

    def objective(w):
        value, grad = _ll_grad(batch, w, config.c)
        if not np.isfinite(value):
            raise CrfError("non-finite training objective")
        return -value, -grad

    iterations = [0]
    result = minimize(
        objective, model.weights, jac=True, method="L-BFGS-B",
        callback=lambda _: iterations.__setitem__(0, iterations[0] + 1),
        options={"maxiter": config.max_iter, "maxcor": LBFGS_HISTORY,
                 "ftol": config.eta, "gtol": 1e-10})
    model.weights = np.asarray(result.x, dtype=float)
    model.training_log = {
        "iterations": iterations[0],
        "final_objective": -float(result.fun),
        "n_features": len(obs_index),
        "converged": bool(result.success),
        "message": str(result.message),
    }
    return model


# Row keys of the transition block: row a holds the weights of a -> B, I, O.
TRANSITION_KEYS = tuple(f"__T__:{lab}" for lab in LABELS)


def save_model(model: CrfModel, path) -> None:
    """Write a `tempex-crf-2` model: a header, then one row per
    observation, `key<TAB>w_B<TAB>w_I<TAB>w_O`, in id order, then the
    transition block, one row per from-label.  Keys are token-derived
    strings, which hold no tab or line break.  A model without a valid
    feature digest is refused before the file is opened, since
    `load_model` would refuse it."""
    try:
        _parse_digest(model.digest)
    except ValueError:
        raise CrfError(f"model has no valid feature digest "
                       f"({model.digest!r}); it could not be loaded back"
                       ) from None
    lines = [
        f"#version\t{MODEL_FORMAT_VERSION}",
        f"#labels\t{','.join(LABELS)}",
        f"#profile\t{model.profile}",
        f"#features\t{model.digest}",
        f"#hyperparams\tC={model.c!r},eta={model.eta!r}",
        f"#n_features\t{model.n_obs}",
    ]
    keys = sorted(model.obs_index, key=model.obs_index.__getitem__)
    # the weight vector's rows are the observations in id order, then
    # the transition matrix
    lines += [f"{key}\t{b!r}\t{i!r}\t{o!r}" for key, (b, i, o) in zip(
        keys + list(TRANSITION_KEYS),
        model.weights.reshape(-1, N_LABELS).tolist(), strict=True)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_digest(value: str) -> str:
    if not re.fullmatch("[0-9a-f]{64}", value):
        raise ValueError(value)
    return value


def _parse_hyperparams(value: str) -> tuple[float, float]:
    hp = dict(kv.split("=") for kv in value.split(","))
    return float(hp["C"]), float(hp["eta"])


def _parse_count(value: str) -> int:
    n = int(value)
    if n < 0:
        raise ValueError(n)
    return n


def _parse_profile(value: str) -> str:
    if value not in PROFILES:
        raise ValueError(value)
    return value


def _line_error(path, lineno: int, message: str) -> CrfError:
    return CrfError(f"{path}: line {lineno}: {message}")


def load_model(path) -> CrfModel:
    """Read a `tempex-crf-2` model file; any malformed content raises
    CrfError naming the file and, where there is one, the offending
    line.  Other format versions are rejected by name."""
    lines = read_text(path, CrfError).splitlines()
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, val = lines[i][1:].partition("\t")
        header[key] = val
        header_line[key] = i + 1
        i += 1

    def field(key, parse):
        if key not in header:
            raise CrfError(f"{path}: model header has no #{key} line")
        try:
            return parse(header[key])
        except (ValueError, KeyError, IndexError) as exc:
            raise _line_error(path, header_line[key],
                              f"bad #{key} value {header[key]!r}") from exc

    version = header.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise CrfError(
            f"{path}: model format {version!r} not supported (expected "
            f"{MODEL_FORMAT_VERSION!r}; retrain the model)")
    if header.get("labels") != ",".join(LABELS):
        raise CrfError(f"unexpected label set {header.get('labels')!r}")
    profile = field("profile", _parse_profile)
    digest = field("features", _parse_digest)
    c, eta = field("hyperparams", _parse_hyperparams)
    n_features = field("n_features", _parse_count)

    rows = list(filter(str.strip, lines[i:]))
    if len(rows) != n_features + N_LABELS:
        raise CrfError(
            f"{path}: model declares {n_features} features, so "
            f"{n_features + N_LABELS} weight rows with the transitions; "
            f"the file has {len(rows)}")
    # the whole weight block in bulk; row by row only to name a bad line
    keys, _, weights = zip(*map(methodcaller("partition", "\t"), rows))
    obs_index = dict(zip(keys[:n_features], range(n_features)))
    try:
        values = np.fromiter(map(float, "\t".join(weights).split("\t")),
                             dtype=float, count=N_LABELS * len(rows))
    except ValueError:
        values = None
    if (values is None or not np.isfinite(values).all()
            or set(map(str.count, weights, repeat("\t"))) != {N_LABELS - 1}
            or keys[n_features:] != TRANSITION_KEYS
            or len(obs_index) != n_features):
        _raise_row_error(path, lines, i, n_features)
    return CrfModel(obs_index, values, c=c, eta=eta, profile=profile,
                    digest=digest)


def _raise_row_error(path, lines: list[str], start: int,
                     n_features: int) -> None:
    """Raise the error of the first malformed weight row at or after
    line `start` (0-based), naming its line."""
    seen: set[str] = set()
    rows = ((lineno, line) for lineno, line in enumerate(lines[start:],
                                                          start + 1)
            if line.strip())
    for row, (lineno, line) in enumerate(rows):
        key, *weights = line.split("\t")
        if len(weights) != N_LABELS:
            raise _line_error(path, lineno,
                              "expected key<TAB>w_B<TAB>w_I<TAB>w_O")
        try:
            if not all(map(math.isfinite, map(float, weights))):
                raise ValueError
        except ValueError:
            raise _line_error(path, lineno,
                              f"bad weight in {line!r}") from None
        if row >= n_features and key != TRANSITION_KEYS[row - n_features]:
            raise _line_error(path, lineno, f"expected transition row "
                              f"{TRANSITION_KEYS[row - n_features]!r}, "
                              f"got {key!r}")
        elif row < n_features and key in seen:
            raise _line_error(path, lineno,
                              f"repeated observation key {key!r}")
        seen.add(key)
    raise CrfError(f"{path}: malformed weight rows")
