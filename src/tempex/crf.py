"""Linear-chain CRF over the B/I/O label set.

Weights live in one flat vector: slot(obs, label) = obs_id * 3 + label,
followed by the 9 label-bigram transition slots.

Training, decoding and the tests share one path.  The observation table
of a list of sequences (a training corpus, or a batch of documents
when decoding; `features.ObservationTable`) is encoded once as a sparse
token-by-observation matrix over a length-padded, longest-first batch,
so that one sparse product scores every token.  Training indexes its
table by codes (`build_feature_index`) and encodes it by one gather of
the code-to-id array the index gives; decoding looks each distinct key
up once, or, under a model's vocabulary, has the ids as codes.  Two
recursions then run over the whole batch.  Forward-backward runs in
probability space, on potentials shifted by their maxima and rescaled to
sum to 1 at every step (Rabiner, 1989, §V.A; CRFsuite's `crf1d`): it
gives logZ, the marginals and the expected transition counts, and
training collects the expected observation counts with the matrix's
transpose.  As in `crf1d`, its arrays are allocated once per batch and
filled in place on every run, so training reuses them across its
objective calls.  Viterbi runs in log space, in the max-plus semiring.

Training first groups the observations whose columns of that matrix
are identical: observations that always occur together get the same
gradient at every iterate, so they keep equal weights.  The objective
scores each group once, by its members' summed weights, and training
runs a two-loop L-BFGS (`minimize`) over one weight per group and label,
its inner products weighted by the group sizes, so that its iterates
are the per-observation ones up to rounding.  Those inner products, like
the objective's, are numpy sums (`_dot`), not BLAS calls, so a model
does not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import methodcaller
from pathlib import Path
from typing import Optional, Sequence as Seq

import numpy as np
from scipy import sparse

from .corpus import LABELS, read_text
from .features import PROFILES, ObservationTable

MODEL_FORMAT_VERSION = "tempex-crf-3"
# L-BFGS history length (corrections kept).
LBFGS_HISTORY = 5

N_LABELS = len(LABELS)
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
# How far a marginal row's sum may be from 1: the band of
# `np.allclose(sums, 1.0, atol=1e-9)`, atol + rtol * 1 at its default rtol.
ROW_SUM_TOLERANCE = 1e-9 + 1e-5 * 1.0


class CrfError(ValueError):
    pass


@dataclass
class MarginalTable:
    """Per-position label distributions plus the log-partition."""
    probs: np.ndarray  # (n, 3)
    log_z: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        # NaN and inf fall outside the band
        if len(self.probs) and not (np.abs(self.probs.sum(axis=1) - 1.0)
                                    <= ROW_SUM_TOLERANCE).all():
            raise CrfError("marginal rows do not sum to 1")

    def __len__(self):
        return len(self.probs)


@dataclass
class EncodedTable:
    """The observation ids of a table's positions in CSR form: position
    p's ids are `indices[indptr[p]:indptr[p + 1]]`.  `len()` is the
    number of positions, and iterating yields each position's ids."""
    indices: np.ndarray  # int32
    indptr: np.ndarray   # int64, one more entry than positions

    def __len__(self):
        return len(self.indptr) - 1

    def __iter__(self):
        bounds = self.indptr.tolist()
        return map(self.indices.__getitem__, map(slice, bounds, bounds[1:]))


@dataclass
class CrfModel:
    obs_index: dict[str, int]          # observation key -> obs id
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

    @cached_property
    def keys(self) -> list[str]:
        """The observation keys in id order."""
        return sorted(self.obs_index, key=self.obs_index.__getitem__)

    def encode(self, table: ObservationTable,
               lookup: Optional[np.ndarray] = None) -> EncodedTable:
        """Observation ids of each position of `table`, in slot order;
        unknown observations and empty slots dropped.

        A table whose keys are this model's `keys` (the list itself, as
        `features.Vocabulary` expansion gives, once they are listed) has
        the ids as its codes; given `lookup`, the id of each of the
        table's codes with -1 last (`build_feature_index`'s `ids` for
        the table this model was indexed from), the ids are one gather.
        Otherwise one `dict.get` per key of the table, then one gather
        of the table's codes; the lookup's extra last entry is what an
        empty slot (code -1) reads.  The ids are int32, as the codes
        are.
        """
        keys = table.keys
        if lookup is not None:
            ids = lookup[table.codes]
        # `keys` is listed for a vocabulary, not for encoding
        elif keys is vars(self).get("keys"):
            ids = table.codes
        else:
            lookup = np.fromiter(
                chain(map(self.obs_index.get, keys, repeat(-1, len(keys))),
                      (-1,)), dtype=np.int32, count=len(keys) + 1)
            ids = lookup[table.codes]
        kept = ids >= 0
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(kept.sum(axis=1), out=indptr[1:])
        return EncodedTable(ids[kept], indptr)


def build_feature_index(table: ObservationTable, cutoff: int = 1,
                        ids: Optional[np.ndarray] = None) -> dict[str, int]:
    """Intern every observation key seen at least `cutoff` times.

    Slot order is first-occurrence order (position by position, slot by
    slot), so the index is deterministic for a fixed corpus.  The
    table's keys are pairwise distinct, so the index goes by codes: one
    `np.bincount` counts them, `np.minimum.at` finds where each first
    occurs, and only the codes present (a `take` slice uses some of its
    keys) and kept are sorted by it; a key is fetched only for them.

    Keys are interned: models trained on similar corpora share most
    observation keys, and then share their storage.  The `train`
    benchmark job, which holds its 16 models at once, peaked at
    123.7-123.9 MB RSS without interning and 117.5-117.8 MB with it
    (two seeds each, a 2-CPU x86-64 VM).

    `ids`, if given (an int32 array of `len(table.keys) + 1`), receives
    each code's id, or -1 for a code not kept and, last, for an empty
    slot: `CrfModel.encode` of the table with it is one gather.
    """
    if not table.lengths:
        raise CrfError("empty corpus")
    codes = table.codes.ravel()
    codes = codes[codes >= 0]
    counts = np.bincount(codes, minlength=len(table.keys))
    first = np.full(counts.size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    kept = np.flatnonzero(counts >= max(cutoff, 1))
    kept = kept[np.argsort(first[kept])]
    index = dict(zip(map(sys.intern, map(table.keys.__getitem__,
                                         kept.tolist())),
                     range(kept.size)))
    if len(index) < kept.size:
        raise CrfError("two observations of the table share a key")
    if ids is not None:
        ids[:] = -1
        ids[kept] = np.arange(kept.size)
    return index


class _EncodedBatch:
    """A table's sequences encoded once under `model`'s index, as one
    padded batch.

    The non-empty sequences are ordered longest first, so the ones still
    running at step t are the first `active[t]` of the batch; `order`
    maps each batch row to its input position.  `mask` marks the real
    steps of the padded (B, T) layout.  Without `labels`, `x` is the
    sparse step-by-observation count matrix in batch order: the CSR
    arrays of the encoded `table.take(order)` as they are.

    Given `labels`, the observations whose columns of that matrix are
    identical form one group (`_group_columns`): `group` maps each
    observation to its group and `multiplicity` counts each group's
    members.  `x` then has one column per group, `xt` is its transpose,
    built once (`x.T` builds a new matrix on every access), and
    `empirical` holds the gold feature counts of each group and label,
    then of each label bigram.  The full-width matrix is not kept.

    `lookup` is passed to `CrfModel.encode`.  `buffers` are
    forward-backward's, built the first time it runs on the batch.
    """

    def __init__(self, model: CrfModel, table: ObservationTable,
                 labels=None, lookup: Optional[np.ndarray] = None):
        lengths = table.lengths
        self.n_input = len(lengths)
        self.order = sorted((i for i, n in enumerate(lengths) if n),
                            key=lambda i: -lengths[i])
        self.lengths = np.array([lengths[i] for i in self.order],
                                dtype=np.int64)
        steps = model.encode(table.take(self.order), lookup)
        x = sparse.csr_matrix(
            (np.ones(len(steps.indices)), steps.indices, steps.indptr),
            shape=(len(steps), model.n_obs))
        self.mask = self.lengths[:, None] > np.arange(
            self.lengths.max(initial=0))
        self.active = self.mask.sum(axis=0)
        if labels is None:
            self.x = x
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
        x = x.tocsc()  # rebound, so the row-major copy is freed first
        self.group, self.x = _group_columns(x)
        self.multiplicity = np.bincount(self.group,
                                        minlength=self.x.shape[1])
        self.xt = self.x.T
        self.empirical = np.concatenate([
            (self.xt @ gold).ravel(),
            np.bincount(bigrams, minlength=N_LABELS * N_LABELS)])

    @cached_property
    def buffers(self) -> "_Buffers":
        return _Buffers(self)

    def expand(self, by_group: np.ndarray) -> np.ndarray:
        """A weight-vector-shaped array by group (`x`'s columns) spread
        over the observations, each member a copy of its group's row;
        the transition block is kept."""
        n_unary = by_group.size - N_LABELS * N_LABELS
        return np.concatenate([
            by_group[:n_unary].reshape(-1, N_LABELS)[self.group].ravel(),
            by_group[n_unary:]])

    def unbatch(self, steps: np.ndarray) -> list[np.ndarray]:
        """Per-step rows in batch order, split back into the input
        sequences, in input order; an empty sequence gets no rows."""
        parts = dict(zip(self.order,
                         np.split(steps, np.cumsum(self.lengths)[:-1])))
        return [parts.get(i, steps[:0]) for i in range(self.n_input)]


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer (Steele et al., 2014), elementwise on
    uint64, wrapping."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _row_hashes(n_rows: int) -> np.ndarray:
    """Two 64-bit hashes of each row index, (n_rows, 2)."""
    first = _mix(np.arange(n_rows, dtype=np.uint64))
    return np.stack([first, _mix(first ^ np.uint64(0x9E3779B97F4A7C15))],
                    axis=1)


def _group_columns(xc: sparse.csc_matrix):
    """The group of each column of `xc` and the matrix with one column
    per group, groups numbered in first-occurrence order.

    A column's signature is its nonzero count and two hash sums, each
    the sum of its entries' row hashes (`_row_hashes`) times their
    counts, modulo 2**64; the first column with a signature represents
    it.  Every column is then compared with its representative entry by
    entry, and one that differs (two columns whose hashes collide) keeps
    a group of its own, so only identical columns are merged.
    """
    xc.sum_duplicates()  # sorted rows, one entry per (row, column)
    n_rows, n_cols = xc.shape
    nnz = np.diff(xc.indptr)
    sums = sparse.csr_matrix(
        (xc.data.astype(np.uint64), xc.indices, xc.indptr),
        shape=(n_cols, n_rows)) @ _row_hashes(n_rows)
    # a stable sort: each run of equal signatures starts at its first
    # column
    order = np.lexsort((sums[:, 1], sums[:, 0], nnz))
    starts = np.ones(n_cols, dtype=bool)
    starts[1:] = ((nnz[order[1:]] != nnz[order[:-1]])
                  | (sums[order[1:]] != sums[order[:-1]]).any(axis=1))
    rep = np.empty(n_cols, dtype=np.int64)
    rep[order] = order[starts][np.cumsum(starts) - 1]
    # entry k of each column against entry k of its representative
    at_rep = np.repeat(xc.indptr[rep] - xc.indptr[:-1], nnz)
    at_rep += np.arange(xc.nnz, dtype=at_rep.dtype)
    differs = xc.indices[at_rep] != xc.indices
    differs |= xc.data[at_rep] != xc.data
    odd = np.searchsorted(xc.indptr, np.flatnonzero(differs), "right") - 1
    rep[odd] = odd
    # a group's representative is its first member, so counting the
    # representatives up to each numbers the groups in first-occurrence
    # order
    is_rep = rep == np.arange(n_cols)
    return (np.cumsum(is_rep) - 1)[rep], xc[:, is_rep].tocsr()


def _unary(batch: _EncodedBatch, weights: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Label scores (B, T, 3) of the padded batch, `x @ W` on the real
    steps and zero past each sequence's end; W has a row per column of
    `x`, an observation's weights, or a group's summed ones.  `out`, a
    zero-padded array of scores, gets the real steps' anew."""
    unary = np.zeros(batch.mask.shape + (N_LABELS,)) if out is None else out
    unary[batch.mask] = batch.x @ weights[:-N_LABELS * N_LABELS].reshape(
        -1, N_LABELS)
    return unary


class _Buffers:
    """Forward-backward's arrays for one batch, filled in place by each
    run, and the views of them that each step of its two recursions
    reads and writes.

    Every run writes the same entries, those of the batch's `active`
    sequences at each step; the others keep what they are set to here:
    zero scores and zero alpha and beta past each sequence's end, beta
    1 at its end, and scale 1 at a padded step.  So a run reads nothing
    an earlier run left, even one that raised.
    """

    def __init__(self, batch: _EncodedBatch):
        n_seqs, n_steps = batch.mask.shape
        self.rows = np.arange(n_seqs)
        self.ends = batch.lengths - 1
        self.unary = np.zeros((n_seqs, n_steps, N_LABELS))
        self.shift = np.empty((n_seqs, n_steps, 1))
        self.psi = np.empty_like(self.unary)
        self.step = np.empty((n_seqs, max(n_steps - 1, 0), N_LABELS,
                              N_LABELS))
        self.alpha = np.zeros_like(self.unary)
        self.beta = np.zeros_like(self.unary)
        self.beta[self.rows, self.ends] = 1.0
        self.scale = np.ones_like(self.shift)
        alpha, beta, step, scale = (self.alpha, self.beta, self.step,
                                    self.scale)
        # step t computes only the first active[t] sequences
        active = list(enumerate(batch.active.tolist()))[1:]
        self.forward = [(alpha[:k, t - 1], step[:k, t - 1], alpha[:k, t],
                         scale[:k, t]) for t, k in active]
        self.backward = [(step[:k, t - 1], beta[:k, t], beta[:k, t - 1])
                         for t, k in reversed(active)]


def _forward_backward(batch: _EncodedBatch, weights: np.ndarray):
    """Label marginals of every real step (steps, 3) in batch order, logZ
    per sequence, and the expected transition counts (3, 3) summed over
    all steps (t, t + 1) within one sequence, under `weights`, a row of
    unary weights per column of `x` (`_unary`), then the transitions.

    The recursion runs in probability space (Rabiner, 1989, §V.A).  Each
    step's unary scores are shifted by their maximum and the transitions
    by theirs, so that every potential is at most 1; `step[:, t - 1]`
    folds the transitions into step t's unary potentials.  The forward
    vector is divided by its sum c_t at every step, and the backward
    recursion runs on the step matrices divided by the same c_t, so that
    alpha * beta is the marginal and logZ is the sum of the log c_t and
    of the shifts.  Each forward vector sums to 1 and one label takes
    each step's maximal unary score, so c_t is at least
    exp(min trans - max trans): c_t underflows only where the transition
    weights span more than about 700 nats, and then CrfError is raised.
    Products are elementwise, or `np.einsum` without BLAS, so each
    sequence gets the same bits in any batch.

    Every array lives in the batch's `buffers`, built on its first run:
    a training batch runs once per objective call.
    """
    buf = batch.buffers
    unary, shift, psi, step = buf.unary, buf.shift, buf.psi, buf.step
    alpha, beta, scale = buf.alpha, buf.beta, buf.scale
    trans = weights[-N_LABELS * N_LABELS:].reshape(N_LABELS, N_LABELS)
    _unary(batch, weights, unary)
    np.max(unary, axis=2, keepdims=True, out=shift)
    trans_max = trans.max()
    np.exp(np.subtract(unary, shift, out=psi), out=psi)
    np.multiply(np.exp(trans - trans_max), psi[:, 1:, None, :], out=step)
    with np.errstate(divide="ignore", invalid="ignore"):
        # slices: a batch of no steps passes
        np.add.reduce(psi[:, :1], axis=2, keepdims=True, out=scale[:, :1])
        np.divide(psi[:, :1], scale[:, :1], out=alpha[:, :1])
        for before, matrix, now, total in buf.forward:
            np.einsum("ba,bac->bc", before, matrix, out=now)
            np.divide(now, np.add.reduce(now, axis=1, keepdims=True,
                                         out=total), out=now)
        step /= scale[:, 1:, :, None]
        for matrix, after, now in buf.backward:
            np.einsum("bac,bc->ba", matrix, after, out=now)
        # a running sum along each sequence, read at its end, adds the
        # same terms in the same order in any batch
        log_z = (np.cumsum(np.log(scale) + shift,
                           axis=1)[buf.rows, buf.ends, 0]
                 + buf.ends * trans_max)
    if not np.isfinite(log_z).all():
        raise CrfError(
            f"forward-backward underflowed: the transition weights span "
            f"{trans_max - trans.min():.4g} nats")
    # alpha is zero past each sequence's end and beta past it, so padded
    # pairs add nothing
    pair_counts = np.einsum("bta,btac,btc->ac", alpha[:, :-1], step,
                            beta[:, 1:])
    # psi is read no more this run
    return (np.multiply(alpha, beta, out=psi)[batch.mask], log_z,
            pair_counts)


def _viterbi(batch: _EncodedBatch, unary: np.ndarray,
             trans: np.ndarray) -> np.ndarray:
    """Best label id of every real step, in batch order: the max-plus
    forward recursion, then one backtrace over all sequences at once.
    Step t computes only the first `active[t]` sequences."""
    delta = np.zeros_like(unary)
    delta[:, :1] = unary[:, :1]  # a slice: a batch of no steps passes
    for t in range(1, unary.shape[1]):
        k = batch.active[t]
        delta[:k, t] = unary[:k, t] + np.max(
            delta[:k, t - 1, :, None] + trans, axis=1)
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
    probs, log_z, _ = _forward_backward(batch, model.weights)
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


def sequence_score(model: CrfModel, obs_ids: EncodedTable,
                   label_ids: Seq[int]) -> float:
    """Total score of one labeled sequence, summed position by position
    over `obs_ids`, the sequence's `CrfModel.encode`: the independent
    scorer the decoding tests compare against."""
    y = [int(lab) for lab in label_ids]
    unary = model.unary_weights()
    trans = model.transition_weights()
    return float(sum(unary[ids, lab].sum()
                     for ids, lab in zip(obs_ids, y, strict=True))
                 + sum(trans[a, b] for a, b in zip(y, y[1:])))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product summed by numpy's own pairwise reduction, which calls
    no BLAS, so its bits do not depend on the thread count."""
    return float(np.add.reduce(a * b))


def _ll_grad(batch: _EncodedBatch, sums: np.ndarray, penalty: float,
             penalty_grad=0.0):
    """Penalized log-likelihood of a labeled batch, and its gradient by
    group.

    `sums` holds each group's unary weights summed over its members,
    then the transition weights: `x @ S` scores every step, since the
    members' columns are equal.  A group and label's gradient entry is
    the empirical minus the expected count of any one of its members,
    the same for all of them, minus `penalty_grad`'s entry.  The penalty
    and its gradient are the caller's, subtracted where the
    per-observation objective subtracted them, so that rounding follows
    it closely.
    """
    n_unary = sums.size - N_LABELS * N_LABELS
    value = _dot(batch.empirical, sums) - penalty
    grad = batch.empirical - penalty_grad
    probs, log_z, pair_counts = _forward_backward(batch, sums)
    value -= float(log_z.sum())
    grad[:n_unary] -= (batch.xt @ probs).ravel()
    grad[n_unary:] -= pair_counts.ravel()
    return value, grad


def log_likelihood_and_gradient(model: CrfModel, table: ObservationTable,
                                labels: Seq[Seq[str]]):
    """Regularized conditional log-likelihood and its gradient.

    `labels` holds the gold labels of each sequence of `table`.  Value is
    sum log p(y|x) - ||w||^2 / (2C); the gradient is empirical minus
    expected feature counts minus w/C.  Computed by `_ll_grad` over the
    groups of identical observation columns, for any weights, equal
    within a group or not.
    """
    batch = _EncodedBatch(model, table, labels)
    w = model.weights
    n_unary = model.n_obs * N_LABELS
    sums = np.zeros(batch.multiplicity.size * N_LABELS
                    + N_LABELS * N_LABELS)
    np.add.at(sums[:-N_LABELS * N_LABELS].reshape(-1, N_LABELS),
              batch.group, w[:n_unary].reshape(-1, N_LABELS))
    sums[-N_LABELS * N_LABELS:] = w[n_unary:]
    value, grad = _ll_grad(batch, sums, _dot(w, w) / (2.0 * model.c))
    return value, batch.expand(grad) - w / model.c


@dataclass
class MinimizeResult:
    """Where `minimize` stopped, named as in scipy's `OptimizeResult`."""
    x: np.ndarray
    fun: float
    nit: int
    success: bool
    message: str


def _lbfgs_direction(g: np.ndarray, pairs: deque, m: np.ndarray
                     ) -> np.ndarray:
    """-H g by the two-loop recursion over the kept (s, y, s*m, y*m, s'y)
    corrections, with H0 scaled by the newest one's s'y / y'y; with none,
    the steepest descent direction scaled to unit length.  Inner products
    weight entry i by m[i]."""
    if not pairs:
        return -g / math.sqrt(_dot(g * m, g))
    q, alphas = -g, []
    for s, y, sm, _, sy in reversed(pairs):
        alphas.append(_dot(sm, q) / sy)
        q = q - alphas[-1] * y
    _, y, _, ym, sy = pairs[-1]
    q = q * (sy / _dot(ym, y))
    for (s, _, _, ym, sy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - _dot(ym, q) / sy) * s
    return q


def _trial_step(a, f_a, d_a, b, f_b, d_b) -> float:
    """More & Thuente's (1994) next trial step from the best step `a` and
    the newest `b`, given the line's value f and slope d at each, in
    their cases 1 (f_b > f_a) and 2 (the slopes differ in sign), which
    bracket a minimizer; NaN in their other cases."""
    theta = 3 * (f_a - f_b) / (b - a) + d_a + d_b
    gamma = math.sqrt(max(theta * theta - d_a * d_b, 0.0))
    if f_b > f_a:
        # the cubic step, or halfway to the quadratic one if that is
        # nearer a
        gamma = math.copysign(gamma, b - a)
        cubic = a + (gamma - d_a + theta) / (2 * gamma - d_a + d_b) * (b - a)
        quad = a + d_a / ((f_a - f_b) / (b - a) + d_a) / 2 * (b - a)
        return cubic if abs(cubic - a) <= abs(quad - a) else (cubic + quad) / 2
    if d_a * d_b < 0:
        # the cubic step or the secant step, whichever is further from b
        gamma = math.copysign(gamma, a - b)
        cubic = b + (gamma - d_b + theta) / (2 * gamma - d_b + d_a) * (a - b)
        secant = b + d_b / (d_b - d_a) * (a - b)
        return cubic if abs(cubic - b) > abs(secant - b) else secant
    return math.nan


def _line_search(fun, x: np.ndarray, f: float, d: np.ndarray,
                 slope: float, dm: np.ndarray):
    """A point x + t d meeting the strong Wolfe conditions (c1 = 1e-4,
    c2 = 0.9), with f and the gradient there; `dm` is d with each entry
    weighted as inner products weigh it.  From t = 1, it keeps the
    best step that passes Armijo's test and the far end of the bracket
    around a minimizer, once it has one: the next step is `_trial_step`'s
    inside the bracket, else the bracket's midpoint, and twice the last
    while nothing is bracketed.  After 20 evaluations it returns the best
    step, as More & Thuente's search does, if it lowered f; else None."""
    best, other, step, found = (0.0, f, slope), math.inf, 1.0, None
    for _ in range(20):
        x_new = x + step * d
        f_new, g_new = fun(x_new)
        new = (step, f_new, _dot(g_new, dm))
        armijo = f_new <= f + 1e-4 * step * slope
        if armijo and abs(new[2]) <= -0.9 * slope:
            return x_new, f_new, g_new
        trial = _trial_step(*best, *new)
        if not armijo or f_new > best[1]:
            other = step
        else:
            if new[2] * best[2] < 0:
                other = best[0]
            best, found = new, (x_new, f_new, g_new)
        lo, hi = sorted((best[0], other))
        step = (trial if lo < trial < hi else 2 * step if hi == math.inf
                else (lo + hi) / 2)
    return found if best[1] < f else None


def minimize(fun, x0: np.ndarray, max_iter: int, ftol: float,
             multiplicity: Optional[np.ndarray] = None) -> MinimizeResult:
    """Minimize `fun(x) -> (value, gradient)` by L-BFGS (Nocedal, 1980;
    Liu & Nocedal, 1989) over the last `LBFGS_HISTORY` corrections,
    keeping a correction only when s'y > 1e-10, so that the inverse
    Hessian stays positive definite, with L-BFGS-B's and libLBFGS's
    strong Wolfe line search (`_line_search`).

    With `multiplicity`, x is a reduced vector whose entry i stands for
    `multiplicity[i]` equal coordinates of a full one, and the gradient
    is that of any one of them: every inner product weights entry i by
    its multiplicity, so the iterates are those of the full-space run
    from the expanded x0, up to rounding.

    Succeeds when the relative reduction of the objective,
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1), falls to `ftol` (scipy's
    L-BFGS-B rule) or no gradient component exceeds 1e-10; fails after
    `max_iter` iterations or when the line search finds no step.
    """
    x = np.array(x0, dtype=float)
    m = np.ones_like(x) if multiplicity is None else multiplicity
    f, g = fun(x)
    pairs: deque = deque(maxlen=LBFGS_HISTORY)
    nit = 0
    while np.abs(g).max() > 1e-10:
        if nit == max_iter:
            return MinimizeResult(x, f, nit, False,
                                  f"iteration limit {max_iter} reached")
        d = _lbfgs_direction(g, pairs, m)
        dm = d * m
        found = _line_search(fun, x, f, d, _dot(g, dm), dm)
        if found is None:
            return MinimizeResult(x, f, nit, False,
                                  "line search found no step")
        nit += 1
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        sm = s * m
        sy = _dot(sm, y)
        if sy > 1e-10:
            pairs.append((s, y, sm, y * m, sy))
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if reduction <= ftol:
            return MinimizeResult(x, f, nit, True,
                                  "relative reduction of f below ftol")
    return MinimizeResult(x, f, nit, True, "gradient max-norm below 1e-10")


@dataclass
class TrainConfig:
    c: float = 1.0
    eta: float = 1e-4
    max_iter: int = 300
    cutoff: int = 1


def train(table: ObservationTable, labels: Seq[Seq[str]],
          config: Optional[TrainConfig] = None) -> CrfModel:
    """L2-regularized maximum likelihood by L-BFGS (`minimize`).

    Observations with identical columns (`_EncodedBatch`) get the same
    gradient at every iterate from zero, so they keep equal weights: the
    optimizer runs over one weight per group and label, with the group
    sizes as the multiplicities of its inner products, and the members
    get bitwise copies of their group's weights.  The value and penalty
    are the per-observation ones, the penalty summing each group's
    weights squared once per member.

    Stops when the relative objective change falls below `eta` or after
    `max_iter` iterations.  Deterministic: same corpus and config yield
    identical weights on any machine, since no step of training calls
    BLAS, whose summation order depends on the thread count.
    """
    config = config or TrainConfig()
    lookup = np.empty(len(table.keys) + 1, dtype=np.int32)
    obs_index = build_feature_index(table, config.cutoff, lookup)
    model = CrfModel(
        obs_index,
        np.zeros(len(obs_index) * N_LABELS + N_LABELS * N_LABELS),
        c=config.c, eta=config.eta)
    batch = _EncodedBatch(model, table, labels, lookup)
    m = np.concatenate([np.repeat(batch.multiplicity, N_LABELS),
                        np.ones(N_LABELS * N_LABELS)])

    def objective(v):
        sums = v * m
        value, grad = _ll_grad(batch, sums, _dot(sums, v) / (2.0 * config.c),
                               v / config.c)
        if not np.isfinite(value):
            raise CrfError("non-finite training objective")
        return -value, -grad

    result = minimize(objective, np.zeros(m.size), max_iter=config.max_iter,
                      ftol=config.eta, multiplicity=m)
    model.weights = batch.expand(np.asarray(result.x, dtype=float))
    model.training_log = {
        "iterations": int(result.nit),
        "final_objective": -float(result.fun),
        "n_features": len(obs_index),
        "n_columns": int(batch.multiplicity.size),
        "converged": bool(result.success),
        "message": str(result.message),
    }
    return model


def save_model(model: CrfModel, path) -> None:
    """Write a `tempex-crf-3` model: seven header lines, the weight
    block, then `row<TAB>key` per observation, in id order.

    The block holds each distinct unary weight row once (by bit pattern:
    -0.0 is not 0.0), then the transition rows from B, I and O, each
    `w_B<TAB>w_I<TAB>w_O` in `repr`s; `row` numbers an observation's
    block row.  A model without a valid feature digest is refused before
    the file is opened, since `load_model` would refuse it."""
    try:
        _parse_digest(model.digest)
    except ValueError:
        raise CrfError(f"model has no valid feature digest "
                       f"({model.digest!r}); it could not be loaded back"
                       ) from None
    # equal rows are adjacent in lexicographic order of their bits
    bits = model.unary_weights().view(np.int64)
    order = np.lexsort(bits.T)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    row_of = np.empty(len(order), dtype=np.int64)
    row_of[order] = np.cumsum(new) - 1
    block = np.concatenate([model.unary_weights()[order[new]],
                            model.transition_weights()])
    keys = sorted(model.obs_index, key=model.obs_index.__getitem__)
    lines = [
        f"#version\t{MODEL_FORMAT_VERSION}",
        f"#labels\t{','.join(LABELS)}",
        f"#profile\t{model.profile}",
        f"#features\t{model.digest}",
        f"#hyperparams\tC={model.c!r},eta={model.eta!r}",
        f"#n_features\t{model.n_obs}",
        f"#n_rows\t{len(block) - N_LABELS}",
        *("\t".join(map(repr, row)) for row in block.tolist()),
        *(f"{row}\t{key}" for row, key in zip(row_of.tolist(), keys)),
    ]
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
    """Read a `tempex-crf-3` model file (`save_model`); any malformed
    content raises CrfError naming the file and, where there is one, the
    offending line.  Other format versions are rejected by name.

    The weight block is parsed in bulk and the row numbers by one
    `np.array`; only if either fails are the lines read one by one, to
    name the first bad one."""
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
    n_rows = field("n_rows", _parse_count)

    rows = list(filter(str.strip, lines[i:]))
    n_block = n_rows + N_LABELS
    if len(rows) != n_block + n_features:
        raise CrfError(
            f"{path}: model declares {n_features} features and {n_rows} "
            f"weight rows, so {n_block + n_features} lines with the "
            f"transitions; the file has {len(rows)}")
    block = rows[:n_block]
    obs = list(map(methodcaller("partition", "\t"), rows[n_block:]))
    row_ids, tabs, keys = zip(*obs) if obs else ((), (), ())
    obs_index = dict(zip(keys, range(n_features)))
    try:
        weights = np.fromiter(map(float, "\t".join(block).split("\t")),
                              dtype=float, count=N_LABELS * n_block)
        row_of = np.array(row_ids, dtype=np.int64)
    except (ValueError, OverflowError):
        weights = row_of = None
    if (weights is None or not np.isfinite(weights).all()
            or set(map(str.count, block, repeat("\t"))) - {N_LABELS - 1}
            or "" in tabs or len(obs_index) != n_features
            or not ((row_of >= 0) & (row_of < n_rows)).all()):
        _raise_row_error(path, lines, i, n_rows)
    weights = weights.reshape(-1, N_LABELS)
    return CrfModel(obs_index, np.concatenate([weights[row_of].ravel(),
                                               weights[n_rows:].ravel()]),
                    c=c, eta=eta, profile=profile, digest=digest)


def _raise_row_error(path, lines: list[str], start: int,
                     n_rows: int) -> None:
    """Raise the error of the first malformed line of the weight block
    or of the observation lines, which start at line `start` (0-based),
    naming its line."""
    seen: set[str] = set()
    rows = ((lineno, line) for lineno, line in enumerate(lines[start:],
                                                          start + 1)
            if line.strip())
    for row, (lineno, line) in enumerate(rows):
        if row < n_rows + N_LABELS:
            weights = line.split("\t")
            if len(weights) != N_LABELS:
                raise _line_error(path, lineno,
                                  "expected w_B<TAB>w_I<TAB>w_O")
            try:
                if not all(map(math.isfinite, map(float, weights))):
                    raise ValueError
            except ValueError:
                raise _line_error(path, lineno,
                                  f"bad weight in {line!r}") from None
            continue
        row_id, tab, key = line.partition("\t")
        if not tab:
            raise _line_error(path, lineno, "expected row<TAB>key")
        try:
            number = int(row_id)
        except ValueError:
            raise _line_error(path, lineno,
                              f"bad row number {row_id!r}") from None
        if not 0 <= number < n_rows:
            raise _line_error(path, lineno, f"row {number} out of range; "
                              f"the model has {n_rows} rows")
        if key in seen:
            raise _line_error(path, lineno,
                              f"repeated observation key {key!r}")
        seen.add(key)
    raise CrfError(f"{path}: malformed weight rows")
