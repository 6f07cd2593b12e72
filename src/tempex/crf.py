"""Linear-chain CRF over the B/I/O label set.

Weights live in one flat vector: slot(obs, label) = obs_id * 3 + label,
followed by the 9 label-bigram transition slots.

Training, decoding and the tests share one path.  The observation table
of a list of sequences (a training corpus, or a batch of documents
when decoding; `features.ObservationTable`) is encoded once as a sparse
token-by-observation matrix over a length-padded, longest-first batch,
so that one sparse product scores every token.  Observations stay in
code space throughout: a slot and the combined code of its values
(`features.Observations`).  Training indexes its table's observations
(`build_feature_index`) and encodes the table by one gather of the id
each gets; decoding expands its documents under the model's index, so
that the table's codes are the ids.  Two recursions then run over the
whole batch.  Forward-backward runs in
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

A model file (`save_model`, format `tempex-crf-4`) holds a header, the
slot list, each feature's values once, the weight block, then each
observation as its weight row, slot and code, in id order.  Reading it
(`load_model`) parses each section in bulk and builds the model's step
maps from those arrays; no observation is spelled.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence as Seq

import numpy as np
from scipy import sparse

from .corpus import LABELS, read_text
from .features import (MAX_CODES, PROFILES, TEMPLATES, ObservationTable,
                       Observations)

MODEL_FORMAT_VERSION = "tempex-crf-4"
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
    obs_index: Observations            # observation i has weight row i
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

    def encode(self, table: ObservationTable) -> EncodedTable:
        """Observation ids of each position of `table`, in slot order;
        unknown observations and empty slots dropped.

        A table expanded under this model's index has the ids as its
        codes.  A table of the observations the index was made from
        (`build_feature_index`: the training table, or a slice of it
        such as a `cv` fold's test sentences) gets them by one gather of
        the index's `lookup`, whose extra last entry is what an empty
        slot (code -1) reads.  The ids are int32, as the codes are.
        """
        if table.keys is self.obs_index:
            ids = table.codes
        else:
            ids = self.obs_index.lookup(table.keys)[table.codes]
        kept = ids >= 0
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(kept.sum(axis=1), out=indptr[1:])
        return EncodedTable(ids[kept], indptr)


def build_feature_index(table: ObservationTable, cutoff: int = 1
                        ) -> Observations:
    """The index of the table's observations seen at least `cutoff`
    times (`Observations.subset`), numbered in first-occurrence order
    (position by position, slot by slot), so the index is deterministic
    for a fixed corpus.  The table's codes name its distinct
    observations, so one `np.bincount` counts them, `np.minimum.at`
    finds where each first occurs, and only the codes present (a `take`
    slice uses some of its observations) and kept are sorted by it.
    """
    if not table.lengths:
        raise CrfError("empty corpus")
    codes = table.codes.ravel()
    codes = codes[codes >= 0]
    counts = np.bincount(codes, minlength=len(table.keys))
    first = np.full(counts.size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    kept = np.flatnonzero(counts >= max(cutoff, 1))
    return table.keys.subset(kept[np.argsort(first[kept])])


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

    `buffers` are forward-backward's, built the first time it runs on
    the batch.
    """

    def __init__(self, model: CrfModel, table: ObservationTable,
                 labels=None):
        lengths = table.lengths
        self.n_input = len(lengths)
        self.order = sorted((i for i, n in enumerate(lengths) if n),
                            key=lambda i: -lengths[i])
        self.lengths = np.array([lengths[i] for i in self.order],
                                dtype=np.int64)
        steps = model.encode(table.take(self.order))
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

    def __post_init__(self):
        # training divides by C, and its loop counts iterations up to
        # max_iter; `not x > 0` holds for NaN too
        if not self.c > 0.0:
            raise CrfError(f"C {self.c} is not positive")
        if not 0.0 <= self.eta < math.inf:
            raise CrfError(f"eta {self.eta} is not finite and >= 0")
        if self.max_iter < 0:
            raise CrfError(f"max_iter {self.max_iter} is negative")
        if self.cutoff < 1:
            raise CrfError(f"cutoff {self.cutoff} is below 1")


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
    obs_index = build_feature_index(table, config.cutoff)
    model = CrfModel(
        obs_index,
        np.zeros(len(obs_index) * N_LABELS + N_LABELS * N_LABELS),
        c=config.c, eta=config.eta)
    batch = _EncodedBatch(model, table, labels)
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
        "max_iter": config.max_iter,
        "cutoff": config.cutoff,
        "iterations": int(result.nit),
        "converged": bool(result.success),
        "message": str(result.message),
        "sentences": len(table.lengths),
        "tokens": int(sum(table.lengths)),
        "final_objective": -float(result.fun),
        "n_features": len(obs_index),
        "n_columns": int(batch.multiplicity.size),
    }
    return model


# The fields of a `#training` line, in order: how a model was trained.
TRAINING_FIELDS = ("max_iter", "cutoff", "iterations", "converged",
                   "sentences", "tokens", "corpus_sha256", "message")


def save_model(model: CrfModel, path) -> None:
    """Write a `tempex-crf-4` model: the header, the slot list
    (`tid<TAB>name`), each feature's values in code order
    (`name<TAB>value`), the weight block, then `row<TAB>slot<TAB>code`
    per observation, in id order.

    The header names the version, labels, profile, feature digest and
    hyperparameters; a trained model's `#training` line
    (`TRAINING_FIELDS`, tab-separated `name=value`; the corpus SHA-256
    is `-` for a model not trained from a file); then the size of each
    section.  The block holds each distinct unary weight row once (by
    bit pattern: -0.0 is not 0.0), then the transition rows from B, I
    and O, each `w_B<TAB>w_I<TAB>w_O` in `repr`s; `row` numbers an
    observation's block row.  A model without a valid feature digest is
    refused before the file is opened, since `load_model` would refuse
    it."""
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
    index = model.obs_index
    training = []
    if "iterations" in model.training_log:
        log = {"corpus_sha256": "-", **model.training_log}
        log["converged"] = "yes" if log["converged"] else "no"
        training.append("#training\t" + "\t".join(
            f"{name}={log[name]}" for name in TRAINING_FIELDS))
    triples = np.column_stack([row_of, index.pairs]).ravel().tolist()
    lines = [
        f"#version\t{MODEL_FORMAT_VERSION}",
        f"#labels\t{','.join(LABELS)}",
        f"#profile\t{model.profile}",
        f"#features\t{model.digest}",
        f"#hyperparams\tC={model.c!r},eta={model.eta!r}",
        *training,
        f"#n_slots\t{len(index.slots)}",
        f"#n_values\t{sum(map(len, index.values))}",
        f"#n_features\t{model.n_obs}",
        f"#n_rows\t{len(block) - N_LABELS}",
        *(f"{t.tid}\t{name}" for t, name in index.slots),
        *(f"{name}\t{value}" for name, values in zip(index.names,
                                                    index.values)
          for value in values),
    ]
    Path(path).write_text(
        "\n".join(lines) + "\n"
        + "%r\t%r\t%r\n" * len(block) % tuple(block.ravel().tolist())
        + "%d\t%d\t%d\n" * model.n_obs % tuple(triples), encoding="utf-8")


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


def _parse_training(value: str) -> dict:
    fields = dict(f.split("=", 1) for f in value.split("\t"))
    if tuple(fields) != TRAINING_FIELDS:
        raise ValueError(value)
    if fields["corpus_sha256"] != "-":
        _parse_digest(fields["corpus_sha256"])
    return {**fields, **{name: _parse_count(fields[name]) for name in (
        "max_iter", "cutoff", "iterations", "sentences", "tokens")},
        "converged": {"yes": True, "no": False}[fields["converged"]]}


_INT64 = np.iinfo(np.int64)


def _line_error(path, lineno: int, message: str) -> CrfError:
    return CrfError(f"{path}: line {lineno}: {message}")


def load_model(path) -> CrfModel:
    """Read a `tempex-crf-4` model file (`save_model`); any malformed
    content raises CrfError naming the file and, where there is one, the
    offending line.  Other format versions are rejected by name.

    The slot and value lines are read one by one.  The weight block is
    parsed in bulk, and so are the observation triples, by one
    `np.fromstring`; only if either fails are their lines read one by
    one, to name the first bad one.  The triples are then checked as
    arrays (`_observation_errors`), and the index's step maps are built
    from them when it first expands a table."""
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
    training = (field("training", _parse_training) if "training" in header
                else {})
    n_slots = field("n_slots", _parse_count)
    n_values = field("n_values", _parse_count)
    n_features = field("n_features", _parse_count)
    n_rows = field("n_rows", _parse_count)

    body = lines[i:]
    n_block = n_rows + N_LABELS
    sizes = (n_slots, n_values, n_block, n_features)
    if len(body) != sum(sizes):
        raise CrfError(
            f"{path}: model declares {n_slots} slots, {n_values} values, "
            f"{n_features} features and {n_rows} weight rows, so "
            f"{sum(sizes)} lines with the transitions; the file has "
            f"{len(body)}")
    bounds = np.cumsum((0, *sizes)).tolist()
    slot_lines, value_lines, block, triples = (
        body[a:b] for a, b in zip(bounds, bounds[1:]))
    # the line number of each part's first line
    first = [i + 1 + b for b in bounds]
    templates = {t.tid: t for t in TEMPLATES}
    slots: dict[tuple, int] = {}
    for lineno, line in enumerate(slot_lines, first[0]):
        tid, _, name = line.partition("\t")
        if tid not in templates or not name or "\t" in name:
            raise _line_error(path, lineno,
                              "expected template id<TAB>feature name")
        if slots.setdefault((templates[tid], name), lineno) != lineno:
            raise _line_error(path, lineno, f"repeated slot {line!r}")
    names = {name: [] for _, name in slots}
    seen: set[str] = set()
    for lineno, line in enumerate(value_lines, first[1]):
        name, tab, value = line.partition("\t")
        if name not in names or not tab or "\t" in value:
            raise _line_error(path, lineno,
                              "expected slot feature name<TAB>value")
        seen.add(line)
        if len(seen) == lineno - first[1]:
            raise _line_error(path, lineno, f"repeated value {line!r}")
        names[name].append(value)
    for lineno, (t, name) in enumerate(slots, first[0]):
        if (len(names[name]) + 1) ** len(t.offsets) > MAX_CODES:
            raise _line_error(path, lineno, f"too many values of {name}")

    try:
        weights = np.fromiter(map(float, "\t".join(block).split("\t")),
                              dtype=float, count=N_LABELS * n_block)
        # int64's ends are what an integer beyond them reads as
        obs = np.fromstring("\t".join(triples), dtype=np.int64, sep="\t")
    except ValueError:
        weights = obs = None
    if (weights is None or not np.isfinite(weights).all()
            or obs.size != 3 * n_features
            or (obs.size and (obs.min() == _INT64.min
                              or obs.max() == _INT64.max))
            or set(map(str.count, block, repeat("\t"))) - {N_LABELS - 1}
            or set(map(str.count, triples, repeat("\t"))) - {2}):
        _raise_row_error(path, block + triples, first[2], n_block)
    obs = obs.reshape(-1, 3)
    index = Observations(slots, list(names.values()),
                         np.ascontiguousarray(obs[:, 1:]))
    error = _observation_errors(obs[:, 0], index, n_rows)
    if error is not None:
        raise _line_error(path, first[3] + error[0], error[1])
    # each distinct row is written once, for the observations that have it
    unused = np.flatnonzero(np.bincount(obs[:, 0], minlength=n_rows) == 0)
    if unused.size:
        raise _line_error(path, first[2] + unused[0],
                          f"weight row {unused[0]} is no observation's")
    weights = weights.reshape(-1, N_LABELS)
    return CrfModel(index, np.concatenate([weights[obs[:, 0]].ravel(),
                                           weights[n_rows:].ravel()]),
                    c=c, eta=eta, profile=profile, digest=digest,
                    training_log=training)


def _observation_errors(row: np.ndarray, index: Observations,
                        n_rows: int) -> Optional[tuple[int, str]]:
    """The first bad observation of `index` (its number) and what is
    wrong with it, or None, given the weight row `row` of each and
    `n_rows` rows: a row or slot out of range, a code that is no
    combination of the slot feature's values, or an observation already
    named."""
    slot, code = index.pairs.T
    n_slots = len(index.slots)
    bad_slot = (slot < 0) | (slot >= n_slots)
    # a slot out of range reads a last entry of no offsets
    s = np.where(bad_slot, n_slots, slot)
    feature = {name: f for f, name in enumerate(index.names)}
    radix = np.append(index.radix[[feature[name] for _, name in index.slots]
                                  ], 1)[s]
    arity = np.array([len(t.offsets) for t, _ in index.slots] + [0])[s]
    # a digit of radix - 1 is the code of no value
    bad_code, rest = code < 0, code.copy()
    for k in range(3):
        bad_code |= (k < arity) & (rest % radix == radix - 1)
        rest = np.where(k < arity, rest // radix, rest)
    bad_code |= rest != 0
    order = np.lexsort((code, slot))
    repeated = np.zeros(len(code), dtype=bool)
    repeated[order[1:]] = ((slot[order[1:]] == slot[order[:-1]])
                           & (code[order[1:]] == code[order[:-1]]))
    problems = [
        ((row < 0) | (row >= n_rows),
         "row {r} out of range; the model has {n_rows} rows"),
        (bad_slot, "slot {s} out of range; the model has {n_slots} slots"),
        (bad_code & ~bad_slot, "code {c} names no values of slot {s}"),
        (repeated, "repeated observation")]
    found = [(int(np.argmax(bad)), message) for bad, message in problems
             if bad.any()]
    if not found:
        return None
    i, message = min(found, key=lambda p: p[0])
    return i, message.format(r=row[i], s=slot[i], c=code[i], n_rows=n_rows,
                             n_slots=n_slots)


def _raise_row_error(path, lines: list[str], start: int,
                     n_block: int) -> None:
    """Raise the error of the first malformed line of the weight block
    and the observation triples that follow it, `lines` from line
    number `start` on, naming its line."""
    for k, line in enumerate(lines):
        if k < n_block:
            weights = line.split("\t")
            if len(weights) != N_LABELS:
                raise _line_error(path, start + k,
                                  "expected w_B<TAB>w_I<TAB>w_O")
            try:
                if not all(map(math.isfinite, map(float, weights))):
                    raise ValueError
            except ValueError:
                raise _line_error(path, start + k,
                                  f"bad weight in {line!r}") from None
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise _line_error(path, start + k,
                              "expected row<TAB>slot<TAB>code")
        if not all(re.fullmatch("-?[0-9]+", f)
                   and -2 ** 63 < int(f) < 2 ** 63 - 1 for f in fields):
            raise _line_error(path, start + k, f"bad number in {line!r}")
    raise CrfError(f"{path}: malformed weight rows or observations")
