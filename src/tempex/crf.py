"""Linear-chain CRF over the B/I/O label set.

Weights live in one flat vector: slot(obs, label) = obs_id * 3 + label,
followed by the 9 label-bigram transition slots.  All probability math is
done in log space.

Training, decoding and the tests share one numerical core: unary scores
summed from the observation ids' weights, then a log-space
forward-backward whose every step is a log-sum-exp shifted by its
maximum, run over a length-padded batch of sequences (one sequence when
decoding).  For training, a corpus is encoded once as a sparse
token-by-observation matrix, so that each objective call scores every
token with one sparse product and collects expected counts with its
transpose.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence as Seq

import numpy as np
from scipy import sparse
from scipy.optimize import minimize

from .corpus import LABELS
from .features import Template, TEMPLATES

MODEL_FORMAT_VERSION = "tempex-crf-1"

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
    templates: tuple[Template, ...] = TEMPLATES
    c: float = 1.0
    eta: float = 1e-4
    profile: str = "model1"
    version: str = MODEL_FORMAT_VERSION
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

    def encode(self, position_features: Seq[Iterable[str]]) -> list[np.ndarray]:
        """Observation ids per position; unknown feature strings dropped."""
        idx = self.obs_index
        return [
            np.fromiter((idx[f] for f in feats if f in idx), dtype=np.int64)
            for feats in position_features
        ]


def build_feature_index(sequences_features: Seq[Seq[Iterable[str]]],
                        cutoff: int = 1) -> dict[str, int]:
    """Intern every observation string seen at least `cutoff` times.

    Slot order is first-occurrence order, so the index is deterministic
    for a fixed corpus.  Keys are interned: models trained on similar
    corpora share most observation strings, and then share their storage.
    """
    if not sequences_features:
        raise CrfError("empty corpus")
    counts: dict[str, int] = {}
    order: list[str] = []
    for seq_feats in sequences_features:
        for feats in seq_feats:
            for f in feats:
                if f not in counts:
                    counts[f] = 0
                    order.append(f)
                counts[f] += 1
    return {sys.intern(f): i for i, f in
            enumerate(f for f in order if counts[f] >= cutoff)}


def _log_sum_exp(s: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(s))) over `axis`, shifted by the maximum."""
    m = s.max(axis=axis, keepdims=True)
    m += np.log(np.exp(s - m).sum(axis=axis, keepdims=True))
    return m.squeeze(axis)


def _forward_backward_scores(unary: np.ndarray, lengths: np.ndarray,
                             trans: np.ndarray):
    """Log-space forward-backward over a padded batch, longest first.

    `unary` is (B, T, 3), zero past each sequence's end, and `lengths`
    is non-increasing, so the sequences still running at step t are a
    prefix of the batch.  Returns alpha and beta, both zero past each
    sequence's end, and logZ per sequence.
    """
    n_seq, n_steps, _ = unary.shape
    active = (lengths[:, None] > np.arange(n_steps)).sum(axis=0)
    alpha = np.zeros_like(unary)
    beta = np.zeros_like(unary)
    alpha[:, 0] = unary[:, 0]
    for t in range(1, n_steps):
        k = active[t]
        alpha[:k, t] = unary[:k, t] + _log_sum_exp(
            alpha[:k, t - 1, :, None] + trans, axis=1)
    for t in range(n_steps - 2, -1, -1):
        k = active[t + 1]
        beta[:k, t] = _log_sum_exp(
            trans + (unary[:k, t + 1] + beta[:k, t + 1])[:, None, :], axis=2)
    log_z = _log_sum_exp(alpha[np.arange(n_seq), lengths - 1], axis=1)
    return alpha, beta, log_z


def _unary(model: CrfModel, obs_ids: Seq[np.ndarray]) -> np.ndarray:
    """Label scores (n, 3) of one sequence: each position's unary weights
    summed over its observation ids."""
    scores = np.zeros((len(obs_ids), N_LABELS))
    lengths = np.fromiter(map(len, obs_ids), dtype=np.int64,
                          count=len(obs_ids))
    kept = lengths > 0
    if kept.any():
        starts = np.cumsum(lengths) - lengths
        scores[kept] = np.add.reduceat(
            model.unary_weights()[np.concatenate(obs_ids)], starts[kept],
            axis=0)
    return scores


def forward_backward(model: CrfModel,
                     position_features: Seq[Iterable[str]]) -> MarginalTable:
    """Exact per-position marginals and logZ."""
    if not position_features:
        return MarginalTable(np.zeros((0, N_LABELS)), 0.0)
    unary = _unary(model, model.encode(position_features))
    alpha, beta, log_z = _forward_backward_scores(
        unary[None], np.array([len(unary)]), model.transition_weights())
    probs = np.exp(alpha[0] + beta[0] - log_z[0])
    probs /= probs.sum(axis=1, keepdims=True)
    return MarginalTable(probs, float(log_z[0]))


def viterbi(model: CrfModel,
            position_features: Seq[Iterable[str]]) -> list[str]:
    """Maximum-probability label sequence; argmax ties break by B < I < O."""
    if not position_features:
        return []
    unary = _unary(model, model.encode(position_features))
    trans = model.transition_weights()
    n = len(unary)
    delta = unary[0]
    back = np.zeros((n, N_LABELS), dtype=np.int64)
    for t in range(1, n):
        scores = delta[:, None] + trans
        back[t] = np.argmax(scores, axis=0)  # first max wins: B < I < O
        delta = unary[t] + np.max(scores, axis=0)
    path = [int(np.argmax(delta))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return [LABELS[i] for i in path]


def sequence_score(model: CrfModel, obs_ids: list[np.ndarray],
                   label_ids: Seq[int]) -> float:
    y = np.asarray(label_ids, dtype=np.int64)
    unary = _unary(model, obs_ids)
    trans = model.transition_weights()
    return float(unary[np.arange(len(y)), y].sum()
                 + trans[y[:-1], y[1:]].sum())


class _EncodedBatch:
    """A labeled corpus encoded once under `model`'s index, for the
    training objective.

    Sequences are ordered longest first (empty ones dropped).  `x` is the
    sparse token-by-observation count matrix, `mask` marks the real steps
    of the padded (B, T) layout, and `empirical` holds the gold feature
    counts in weight-vector order, so the gold paths' total score is
    `empirical @ weights`.
    """

    def __init__(self, model: CrfModel, sequences_features, labels):
        obs_ids, label_ids = [], []
        for position_features, labs in zip(sequences_features, labels,
                                           strict=True):
            if len(position_features) != len(labs):
                raise CrfError("feature/label length mismatch")
            try:
                label_ids.append([LABEL_INDEX[l] for l in labs])
            except KeyError as exc:
                raise CrfError(f"unknown label {exc.args[0]!r}") from exc
            obs_ids.append(model.encode(position_features))
        order = sorted((i for i in range(len(obs_ids)) if len(obs_ids[i])),
                       key=lambda i: -len(obs_ids[i]))
        self.lengths = np.array([len(obs_ids[i]) for i in order],
                                dtype=np.int64)
        steps = [ids for i in order for ids in obs_ids[i]]
        gold_ids = [y for i in order for y in label_ids[i]]
        bigrams = [a * N_LABELS + b for i in order
                   for a, b in zip(label_ids[i], label_ids[i][1:])]
        indptr = np.cumsum([0] + [len(ids) for ids in steps])
        indices = np.concatenate([np.zeros(0, dtype=np.int64), *steps])
        self.x = sparse.csr_matrix(
            (np.ones(len(indices)), indices, indptr),
            shape=(len(steps), model.n_obs))
        self.mask = self.lengths[:, None] > np.arange(
            self.lengths.max(initial=0))
        gold = np.zeros((len(steps), N_LABELS))
        gold[np.arange(len(steps)), gold_ids] = 1.0
        self.empirical = np.concatenate([
            (self.x.T @ gold).ravel(),
            np.bincount(bigrams, minlength=N_LABELS * N_LABELS)])


def _ll_grad(batch: _EncodedBatch, weights: np.ndarray, c: float):
    """Penalized log-likelihood of an encoded batch, and its gradient."""
    n_unary = weights.size - N_LABELS * N_LABELS
    trans = weights[n_unary:].reshape(N_LABELS, N_LABELS)
    value = float(batch.empirical @ weights) \
        - float(weights @ weights) / (2.0 * c)
    grad = batch.empirical - weights / c
    if not len(batch.lengths):
        return value, grad
    unary = np.zeros(batch.mask.shape + (N_LABELS,))
    unary[batch.mask] = batch.x @ weights[:n_unary].reshape(-1, N_LABELS)
    alpha, beta, log_z = _forward_backward_scores(unary, batch.lengths,
                                                  trans)
    value -= float(log_z.sum())
    marg = np.exp((alpha + beta)[batch.mask]
                  - np.repeat(log_z, batch.lengths)[:, None])
    grad[:n_unary] -= (batch.x.T @ marg).ravel()
    pairs = batch.mask[:, 1:]  # steps (t, t + 1) within one sequence
    pair_scores = (alpha[:, :-1][pairs][:, :, None] + trans
                   + (unary[:, 1:] + beta[:, 1:])[pairs][:, None, :]
                   - np.repeat(log_z, batch.lengths - 1)[:, None, None])
    grad[n_unary:] -= np.exp(pair_scores).sum(axis=0).ravel()
    return value, grad


def log_likelihood_and_gradient(model: CrfModel, batch):
    """Regularized conditional log-likelihood and its gradient.

    `batch` is a list of (position_features, labels) pairs.  Value is
    sum log p(y|x) - ||w||^2 / (2C); the gradient is empirical minus
    expected feature counts minus w/C.
    """
    feats, labels = zip(*batch) if batch else ((), ())
    return _ll_grad(_EncodedBatch(model, feats, labels), model.weights,
                    model.c)


@dataclass
class TrainConfig:
    c: float = 1.0
    eta: float = 1e-4
    max_iter: int = 300
    cutoff: int = 1
    history: int = 5


def train(sequences_features: Seq[Seq[Iterable[str]]],
          labels: Seq[Seq[str]],
          config: Optional[TrainConfig] = None,
          templates: tuple[Template, ...] = TEMPLATES,
          profile: str = "model1") -> CrfModel:
    """L2-regularized maximum likelihood via limited-memory quasi-Newton.

    Stops when the relative objective change falls below `eta` or after
    `max_iter` iterations.  Deterministic: same corpus and config yield
    identical weights.
    """
    config = config or TrainConfig()
    if not sequences_features:
        raise CrfError("empty corpus")
    obs_index = build_feature_index(sequences_features, config.cutoff)
    model = CrfModel(
        obs_index,
        np.zeros(len(obs_index) * N_LABELS + N_LABELS * N_LABELS),
        templates=templates, c=config.c, eta=config.eta, profile=profile)
    batch = _EncodedBatch(model, sequences_features, labels)

    def objective(w):
        value, grad = _ll_grad(batch, w, config.c)
        if not np.isfinite(value):
            raise CrfError("non-finite training objective")
        return -value, -grad

    iterations = [0]
    result = minimize(
        objective, model.weights, jac=True, method="L-BFGS-B",
        callback=lambda _: iterations.__setitem__(0, iterations[0] + 1),
        options={"maxiter": config.max_iter, "maxcor": config.history,
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


def save_model(model: CrfModel, path) -> None:
    lines = [
        f"#version\t{model.version}",
        f"#labels\t{','.join(LABELS)}",
        "#templates\t" + ";".join(
            f"{t.tid}:{','.join(map(str, t.offsets))}"
            for t in model.templates),
        f"#hyperparams\tC={model.c!r},eta={model.eta!r}",
        f"#profile\t{model.profile}",
        f"#n_features\t{model.n_obs}",
    ]
    unary = model.unary_weights()
    for feat, oid in model.obs_index.items():
        for li, lab in enumerate(LABELS):
            lines.append(f"{feat}\t{lab}\t{float(unary[oid, li])!r}")
    trans = model.transition_weights()
    for a, la in enumerate(LABELS):
        for b, lb in enumerate(LABELS):
            lines.append(f"__T__\t{la}:{lb}\t{float(trans[a, b])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> CrfModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, val = lines[i][1:].partition("\t")
        header[key] = val
        i += 1
    version = header.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise CrfError(
            f"model format {version!r} not supported "
            f"(expected {MODEL_FORMAT_VERSION!r})")
    if header.get("labels") != ",".join(LABELS):
        raise CrfError(f"unexpected label set {header.get('labels')!r}")
    templates = tuple(
        Template(part.split(":")[0],
                 tuple(int(x) for x in part.split(":")[1].split(",")))
        for part in header["templates"].split(";"))
    hp = dict(kv.split("=") for kv in header["hyperparams"].split(","))
    n_features = int(header["n_features"])

    obs_index: dict[str, int] = {}
    weights = np.zeros(n_features * N_LABELS + N_LABELS * N_LABELS)
    for line in lines[i:]:
        if not line.strip():
            continue
        feat, lab, w = line.rsplit("\t", 2)
        if feat == "__T__":
            a, b = lab.split(":")
            slot = (n_features * N_LABELS
                    + LABEL_INDEX[a] * N_LABELS + LABEL_INDEX[b])
        else:
            if feat not in obs_index:
                obs_index[feat] = len(obs_index)
            slot = obs_index[feat] * N_LABELS + LABEL_INDEX[lab]
        weights[slot] = float(w)
    if len(obs_index) != n_features:
        raise CrfError(
            f"model declares {n_features} features, file has "
            f"{len(obs_index)}")
    return CrfModel(obs_index, weights, templates=templates,
                    c=float(hp["C"]), eta=float(hp["eta"]),
                    profile=header.get("profile", "model1"))
