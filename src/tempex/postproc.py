"""Post-processing identification pipeline over raw CRF output.

Three stages: probabilistic correction (averaging CRF marginals with
lexical label priors), a BIO fixer, and a threshold-based label switcher.
`run_pipeline` applies them in the paper's one fixed order:
probabilistic correction, BIO fixer, threshold switcher (threshold 0.87
by default), BIO fixer again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence as Seq

import numpy as np

from .corpus import LABELS, Sequence, Token, read_text
from .crf import MarginalTable

DEFAULT_THRESHOLD = 0.87

_PUNCT_RE = re.compile(r"[^\sA-Za-z0-9]+")


class PostprocError(ValueError):
    pass


@dataclass
class PriorTable:
    """Lower-cased token -> empirical B/I/O distribution.

    Only tokens that occurred inside gold timex spans at least twice are
    stored; the distribution itself counts all occurrences of the token.
    """
    counts: dict[str, np.ndarray] = field(default_factory=dict)
    in_span_counts: dict[str, int] = field(default_factory=dict)

    def distribution(self, surface: str) -> Optional[np.ndarray]:
        c = self.counts.get(surface.lower())
        if c is None:
            return None
        return c / c.sum()

    def __contains__(self, surface: str) -> bool:
        return surface.lower() in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def save(self, path) -> None:
        lines = []
        for tok in sorted(self.counts):
            c = self.counts[tok]
            lines.append("\t".join(
                [tok, str(int(c[0])), str(int(c[1])), str(int(c[2])),
                 str(self.in_span_counts[tok])]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PriorTable":
        """Read a table `save` wrote; malformed content, a token that is
        not lower-case or one that is repeated raises PostprocError
        naming the file and the line."""
        table = cls()
        for lineno, line in enumerate(
                read_text(path, PostprocError).splitlines(), 1):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise PostprocError(f"{path}: line {lineno}: expected 5 "
                                    f"columns, got {len(cols)}")
            tok, *counts = cols
            try:
                b, i, o, in_span = map(int, counts)
            except ValueError:
                raise PostprocError(f"{path}: line {lineno}: counts "
                                    f"{counts} are not all integers"
                                    ) from None
            if min(b, i, o, in_span) < 0 or b + i + o == 0:
                raise PostprocError(f"{path}: line {lineno}: counts "
                                    f"{counts} are negative or all zero")
            # the table is looked up by lower-cased surface
            if tok != tok.lower():
                raise PostprocError(f"{path}: line {lineno}: token {tok!r} "
                                    f"is not lower-case")
            if tok in table.counts:
                raise PostprocError(f"{path}: line {lineno}: token {tok!r} "
                                    f"is repeated")
            table.counts[tok] = np.array([b, i, o], float)
            table.in_span_counts[tok] = in_span
        return table


def build_prior_table(sentences: Iterable[Sequence]) -> PriorTable:
    """Harvest label priors from human-annotated sentences.

    Tokens are keyed lower-cased; the min-in-span-count-2 filter decides
    which tokens are kept.
    """
    label_counts: dict[str, np.ndarray] = {}
    in_span: dict[str, int] = {}
    any_labels = False
    for seq in sentences:
        if seq.gold_labels is None:
            continue
        any_labels = True
        for tok, lab in zip(seq.tokens, seq.gold_labels):
            key = tok.surface.lower()
            if key not in label_counts:
                label_counts[key] = np.zeros(3)
                in_span[key] = 0
            label_counts[key][LABELS.index(lab)] += 1
            if lab in ("B", "I"):
                in_span[key] += 1
    if not any_labels:
        raise PostprocError("corpus has no gold labels")
    table = PriorTable()
    for key, count in label_counts.items():
        if in_span[key] >= 2:
            table.counts[key] = count
            table.in_span_counts[key] = in_span[key]
    return table


def _argmax_label(row: np.ndarray) -> str:
    return LABELS[int(np.argmax(row))]  # first max wins: B < I < O


def _argmax_labels(probs: np.ndarray) -> list[str]:
    """`_argmax_label` of each row, in one call."""
    return [LABELS[i] for i in np.argmax(probs, axis=1).tolist()]


def probabilistic_correction(marginals: MarginalTable, tokens: Seq[Token],
                             priors: PriorTable
                             ) -> tuple[np.ndarray, list[str]]:
    """Average CRF marginals with the lexical priors, token by token.

    Tokens absent from the prior table keep their CRF row.  Returns the
    averaged rows and their per-position argmax labels.
    """
    if len(marginals) != len(tokens):
        raise PostprocError("marginals and tokens differ in length")
    probs = marginals.probs.copy()
    for i, tok in enumerate(tokens):
        prior = priors.distribution(tok.surface)
        if prior is not None:
            probs[i] = (probs[i] + prior) / 2.0
    return probs, _argmax_labels(probs)


def is_punctuation(tok: Token) -> bool:
    return _PUNCT_RE.fullmatch(tok.surface) is not None


def bio_fixer(labels: Seq[str], tokens: Seq[Token]) -> list[str]:
    """Repair invalid label sequences and merge adjacent expressions.

    O followed by I becomes B (the O); a leading I becomes B.  A B
    directly preceded by B or I is merged into the running expression
    (B -> I) unless either adjacent token is punctuation.
    """
    out = list(labels)
    if out and out[0] == "I":
        out[0] = "B"
    for i in range(len(out) - 1):
        if out[i] == "O" and out[i + 1] == "I":
            out[i] = "B"
    for i in range(1, len(out)):
        if (out[i] == "B" and out[i - 1] in ("B", "I")
                and not is_punctuation(tokens[i - 1])
                and not is_punctuation(tokens[i])):
            out[i] = "I"
    return out


def threshold_label_switcher(labels: Seq[str], tokens: Seq[Token],
                             priors: PriorTable,
                             threshold: float = DEFAULT_THRESHOLD
                             ) -> list[str]:
    """Force the prior-argmax label when its prior probability is
    strictly greater than the threshold, a value in [0, 1]."""
    out = list(labels)
    for i, tok in enumerate(tokens):
        prior = priors.distribution(tok.surface)
        if prior is not None and float(prior.max()) > threshold:
            out[i] = _argmax_label(prior)
    return out


def run_pipeline(marginals: MarginalTable, tokens: Seq[Token],
                 priors: PriorTable,
                 threshold: float = DEFAULT_THRESHOLD) -> list[str]:
    """The labels of the four stages in order: probabilistic correction
    of `marginals`, BIO fixer, threshold switcher, BIO fixer."""
    _, labels = probabilistic_correction(marginals, tokens, priors)
    labels = bio_fixer(labels, tokens)
    labels = threshold_label_switcher(labels, tokens, priors, threshold)
    return bio_fixer(labels, tokens)
