"""Span matching, attribute accuracies, CV folding and significance tests.

Strict matching requires identical character extents; lenient matching is
a greedy left-to-right one-to-one alignment where any character overlap
counts.  The overall score is lenient F1 times value accuracy.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
from dataclasses import dataclass, field
from operator import itemgetter
from typing import BinaryIO, Callable, Optional, Sequence as Seq

from scipy.special import fdtrc, stdtr


class EvalError(ValueError):
    pass


@dataclass
class MatchCounts:
    true_positives: int = 0
    predicted_total: int = 0
    gold_total: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(
            self.true_positives + other.true_positives,
            self.predicted_total + other.predicted_total,
            self.gold_total + other.gold_total)


@dataclass
class EvalReport:
    strict_p: float = 0.0
    strict_r: float = 0.0
    strict_f1: float = 0.0
    lenient_p: float = 0.0
    lenient_r: float = 0.0
    lenient_f1: float = 0.0
    type_accuracy: Optional[float] = None
    value_accuracy: Optional[float] = None
    overall: Optional[float] = None
    warnings: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple[str, float]]:
        rows = [
            ("strict_precision", self.strict_p),
            ("strict_recall", self.strict_r),
            ("strict_f1", self.strict_f1),
            ("lenient_precision", self.lenient_p),
            ("lenient_recall", self.lenient_r),
            ("lenient_f1", self.lenient_f1),
        ]
        for name, val in (("type_accuracy", self.type_accuracy),
                          ("value_accuracy", self.value_accuracy),
                          ("overall_score", self.overall)):
            if val is not None:
                rows.append((name, val))
        return rows

    def as_tsv(self) -> str:
        return "\n".join(f"{k}\t{v:.4f}" for k, v in self.rows()) + "\n"

    def as_table(self) -> str:
        width = max(len(k) for k, _ in self.rows())
        return "\n".join(f"{k:<{width}}  {100 * v:6.2f}"
                         for k, v in self.rows()) + "\n"


def _check_no_overlap(spans: Seq[tuple[int, int]], which: str) -> list:
    ordered = sorted(spans)
    for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise EvalError(
                f"overlapping {which} spans ({s1},{e1}) and ({s2},...)")
    return ordered


def match_spans(gold: Seq[tuple[int, int]], pred: Seq[tuple[int, int]],
                regime: str = "strict"
                ) -> tuple[MatchCounts, list[tuple[int, int]]]:
    """Match character-extent spans; returns counts and the alignment as
    (gold_index, pred_index) pairs into the input lists."""
    _check_no_overlap(gold, "gold")
    _check_no_overlap(pred, "predicted")
    gold_order = sorted(range(len(gold)), key=lambda i: gold[i])
    pred_order = sorted(range(len(pred)), key=lambda i: pred[i])
    alignment = []
    used_gold: set[int] = set()
    for pi in pred_order:
        ps, pe = pred[pi]
        for gi in gold_order:
            if gi in used_gold:
                continue
            gs, ge = gold[gi]
            if regime == "strict":
                hit = (ps, pe) == (gs, ge)
            elif regime == "lenient":
                hit = ps < ge and gs < pe
            else:
                raise EvalError(f"unknown matching regime {regime!r}")
            if hit:
                used_gold.add(gi)
                alignment.append((gi, pi))
                break
    counts = MatchCounts(len(alignment), len(pred), len(gold))
    return counts, alignment


def prf(counts: MatchCounts) -> dict[str, float]:
    tp = counts.true_positives
    p = tp / counts.predicted_total if counts.predicted_total else 0.0
    r = tp / counts.gold_total if counts.gold_total else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return {"P": p, "R": r, "F1": f1}


def attribute_accuracy(pairs: Seq[tuple[str, str]]) -> tuple[float, bool]:
    """Fraction of aligned (gold, predicted) attribute pairs that are
    equal.

    Returns (accuracy, degenerate_flag); no pairs is reported as 0 with
    the flag set.
    """
    if not pairs:
        return 0.0, True
    return sum(1 for g, p in pairs if g == p) / len(pairs), False


def overall_score(lenient_f1: float, value_accuracy: float) -> float:
    """Product of lenient F1 and value accuracy, same scale as the inputs
    (both fractions in [0,1] or both percentages in (1,100])."""
    a, b = lenient_f1, value_accuracy
    for x in (a, b):
        if x < 0 or x > 100:
            raise EvalError(f"score {x} out of range")
    if (a > 1.0) != (b > 1.0) and min(a, b) not in (0.0, 1.0):
        raise EvalError(f"mixed scales: {a} vs {b}")
    if a > 1.0 or b > 1.0:
        return a * b / 100.0
    return a * b


def fold_indices(n: int, k: int) -> list[list[int]]:
    """Partition 0..n-1 into k folds whose sizes differ by at most one."""
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    folds, start = [], 0
    for size in sizes:
        folds.append(list(range(start, start + size)))
        start += size
    return folds


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cross_validate(items: Seq, fold_fn: Callable, k: int = 10,
                   repeats: int = 5, seed: int = 490):
    """Repeated k-fold cross-validation.

    `fold_fn(train_items, test_items)` produces one report; the result is
    a list of (repeat, fold, report) triples in deterministic order.  The
    working list is reshuffled once per repeat from a single seeded PRNG
    stream.

    The folds run on every CPU available to the process.  With `workers`
    CPUs, this process runs every `workers`-th fold from the first and
    `workers - 1` children forked for the call run the others, each
    sending its reports back pickled through a pipe, so `fold_fn` may be
    a closure.  The result does not depend on the number of CPUs.  A
    fold that raises raises here; of several, the first in order, as run
    one by one.  A child that dies before it reports raises EvalError.
    No child outlives the call.
    """
    items = list(items)
    if k < 2:
        raise EvalError(f"k must be >= 2, got {k}")
    if repeats < 1:
        raise EvalError(f"repeats must be >= 1, got {repeats}")
    if k > len(items):
        raise EvalError(f"k={k} exceeds corpus size {len(items)}")
    rng = random.Random(seed)
    tasks = []
    working = list(items)
    for rep in range(repeats):
        rng.shuffle(working)
        for fi, test_idx in enumerate(fold_indices(len(working), k)):
            test_set = set(test_idx)
            train = [working[i] for i in range(len(working))
                     if i not in test_set]
            test = [working[i] for i in test_idx]
            tasks.append((rep, fi, train, test))
    workers = max(1, min(len(tasks), available_cpus()))
    shares = [tasks[w::workers] for w in range(workers)]
    outcomes = _run_shares(fold_fn, shares)
    # a share stops at its first failure, so the fold that failed is the
    # one after the share's last report
    failures = [(w + len(reports) * workers, exc)
                for w, (reports, exc) in enumerate(outcomes)
                if exc is not None]
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    ordered = [None] * len(tasks)
    for w, (reports, _) in enumerate(outcomes):
        ordered[w::workers] = reports
    return [(rep, fi, report)
            for (rep, fi, _, _), report in zip(tasks, ordered)]


def _run_share(fold_fn: Callable, share: list
               ) -> tuple[list, Optional[Exception]]:
    """The reports of a share's folds, in order, up to the first that
    raises, and that fold's exception or None."""
    reports = []
    for _, _, train, test in share:
        try:
            reports.append(fold_fn(train, test))
        except Exception as exc:
            return reports, exc
    return reports, None


def _run_shares(fold_fn: Callable, shares: list) -> list:
    """`_run_share`'s outcome of each share: the first run here, each
    other in a child forked for it, which sends its outcome back pickled.

    Returns once every child has exited.  A child that sends nothing
    counts as failing at its share's first fold, with an EvalError that
    names its exit status.  A failure of the very first fold comes first
    in serial order whatever the children send, so it is raised at once;
    then, as when this process's share or a read raises otherwise, the
    children still running are killed."""
    children: list[tuple[int, BinaryIO]] = []
    sent: list[bytes] = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(fold_fn, share))
        own = _run_share(fold_fn, shares[0])
        if not own[0] and own[1] is not None:
            raise own[1]
        sent = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if len(sent) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    return [own] + [
        pickle.loads(data) if data else ([], EvalError(
            f"a cross-validation worker exited with status "
            f"{os.waitstatus_to_exitcode(status)} without reporting"))
        for data, status in zip(sent, statuses)]


def _fork_share(fold_fn: Callable, share: list) -> tuple[int, BinaryIO]:
    """Fork a child that sends `_run_share(fold_fn, share)` pickled
    through a pipe; the child's pid and the pipe's read end.

    Forked, so the child inherits `fold_fn`, often a closure that pickle
    cannot send, and the share without pickling them, and imports nothing
    again.  The child leaves by `os._exit`, running none of this process's
    `finally` blocks, exit handlers or stdio flushes."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_share(fold_fn, share)))
            status = 0
        finally:
            os._exit(status)
    # closed here at once, so that no later child holds this write end
    # and the read reaches the end when this child exits
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def paired_t_test(a: Seq[float], b: Seq[float]) -> dict:
    """Two-sided paired t-test; zero variance of the differences yields
    an explicit degenerate result instead of a crash."""
    if len(a) != len(b):
        raise EvalError("paired samples differ in length")
    n = len(a)
    if n < 2:
        raise EvalError("need at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        return {"t": math.nan, "p_two_sided": math.nan, "degenerate": True,
                "mean_diff": mean, "n": n}
    t = mean / math.sqrt(var / n)
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return {"t": t, "p_two_sided": p, "degenerate": False,
            "mean_diff": mean, "n": n}


def one_way_anova(groups: Seq[Seq[float]]) -> dict:
    """One-way fixed-effects ANOVA F statistic with its p-value."""
    if len(groups) < 2:
        raise EvalError("need at least 2 groups")
    if any(len(g) < 2 for g in groups):
        raise EvalError("each group needs at least 2 values")
    sizes = [len(g) for g in groups]
    n = sum(sizes)
    k = len(groups)
    grand = sum(sum(g) for g in groups) / n
    means = [sum(g) / len(g) for g in groups]
    ss_between = sum(m * (mu - grand) ** 2 for m, mu in zip(sizes, means))
    ss_within = sum(sum((x - mu) ** 2 for x in g)
                    for g, mu in zip(groups, means))
    df_b, df_w = k - 1, n - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            return {"F": 0.0, "p": 1.0, "degenerate": True}
        return {"F": math.inf, "p": 0.0, "degenerate": True}
    f = (ss_between / df_b) / (ss_within / df_w)
    p = float(fdtrc(df_b, df_w, f))
    return {"F": f, "p": p, "degenerate": False}


def report_from_counts(strict: MatchCounts, lenient: MatchCounts,
                       type_acc: Optional[float] = None,
                       value_acc: Optional[float] = None,
                       warnings: Optional[list[str]] = None) -> EvalReport:
    s, l = prf(strict), prf(lenient)
    report = EvalReport(
        s["P"], s["R"], s["F1"], l["P"], l["R"], l["F1"],
        type_accuracy=type_acc, value_accuracy=value_acc,
        warnings=warnings or [])
    if value_acc is not None:
        report.overall = overall_score(l["F1"], value_acc)
    return report
