"""Output checks of the benchmark.

Each check takes a job's output and the generator's gold, raises
`CheckError` naming the first disagreement, and otherwise returns the
quality figures the benchmark reports.  Nothing is compared with a stored
copy of earlier output.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass

import numpy as np
import scipy.stats

from tempex import evaluation

_TIMEX = re.compile(r'<TIMEX3 tid="t\d+" type="([A-Z]+)" value="([^"]*)">'
                    r'(.*?)</TIMEX3>')


class CheckError(AssertionError):
    pass


@dataclass
class TagQuality:
    strict_f1: float
    lenient_f1: float
    type_accuracy: float
    value_accuracy: float


def parse_inline(line: str):
    """(text without markup, [(start, end, type, value)])."""
    text, spans, cursor = [], [], 0
    length = 0
    for m in _TIMEX.finditer(line):
        before = line[cursor:m.start()]
        text.append(before)
        length += len(before)
        spans.append((length, length + len(m.group(3)), m.group(1),
                      m.group(2)))
        text.append(m.group(3))
        length += len(m.group(3))
        cursor = m.end()
    text.append(line[cursor:])
    return "".join(text), spans


def _f1(tp: int, n_pred: int, n_gold: int) -> float:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def lenient_pairs(gold, pred) -> list[tuple[int, int]]:
    """Maximum one-to-one pairing of overlapping ranges, by a sweep over
    both sorted lists (each side is free of overlaps)."""
    g = sorted(range(len(gold)), key=lambda i: gold[i])
    p = sorted(range(len(pred)), key=lambda i: pred[i])
    pairs, i, j = [], 0, 0
    while i < len(g) and j < len(p):
        gs, ge = gold[g[i]]
        ps, pe = pred[p[j]]
        if ps < ge and gs < pe:
            pairs.append((g[i], p[j]))
            i += 1
            j += 1
        elif ge <= pe:
            i += 1
        else:
            j += 1
    return pairs


def check_tag(docs, output: str) -> TagQuality:
    """Inline TIMEX3 output of `tempex tag` on the generated `docs`."""
    lines = output.rstrip("\n").split("\n")
    if len(lines) != len(docs):
        raise CheckError(f"{len(lines)} output documents for {len(docs)}")
    strict_tp = lenient_tp = n_gold = n_pred = 0
    type_ok = value_ok = 0
    tempex_strict = evaluation.MatchCounts()
    tempex_lenient = evaluation.MatchCounts()
    for doc, line in zip(docs, lines):
        text, found = parse_inline(line)
        if text != doc.text:
            raise CheckError(f"{doc.id}: text changed by tagging")
        gold = [(t.start, t.end) for t in doc.timexes]
        pred = [(s, e) for s, e, _, _ in found]
        gold_attrs = {(t.start, t.end): (t.type, t.value)
                      for t in doc.timexes}
        for s, e, ttype, value in found:
            want = gold_attrs.get((s, e))
            if want is not None and want != (ttype, value):
                raise CheckError(
                    f"{doc.id}: {doc.text[s:e]!r} (DCT {doc.dct}) "
                    f"normalized to {ttype} {value}, expected "
                    f"{want[0]} {want[1]}")
        strict_tp += len(set(gold) & set(pred))
        pairs = lenient_pairs(gold, pred)
        lenient_tp += len(pairs)
        for gi, pi in pairs:
            type_ok += doc.timexes[gi].type == found[pi][2]
            value_ok += doc.timexes[gi].value == found[pi][3]
        n_gold += len(gold)
        n_pred += len(pred)
        tempex_strict += evaluation.match_spans(gold, pred, "strict")[0]
        tempex_lenient += evaluation.match_spans(gold, pred, "lenient")[0]
    quality = TagQuality(
        _f1(strict_tp, n_pred, n_gold), _f1(lenient_tp, n_pred, n_gold),
        type_ok / lenient_tp if lenient_tp else 0.0,
        value_ok / lenient_tp if lenient_tp else 0.0)
    for regime, ours, counts in (
            ("strict", quality.strict_f1, tempex_strict),
            ("lenient", quality.lenient_f1, tempex_lenient)):
        theirs = evaluation.prf(counts)["F1"]
        if not math.isclose(ours, theirs, rel_tol=1e-12, abs_tol=1e-12):
            raise CheckError(f"{regime} F1 {ours} by range arithmetic, "
                             f"{theirs} by tempex.evaluation")
    return quality


def check_model_reload(model, reloaded) -> None:
    if not model.training_log.get("converged"):
        raise CheckError("optimizer did not report convergence: "
                         f"{model.training_log.get('message')}")
    if reloaded.obs_index != model.obs_index:
        raise CheckError("reloaded model has a different feature index")
    if not np.array_equal(reloaded.weights, model.weights):
        raise CheckError("reloaded model has different weights")


def check_floor(strict_f1: float, floor: float) -> None:
    if strict_f1 < floor:
        raise CheckError(f"held-out strict F1 {strict_f1:.3f} below {floor}")


def check_cv(output: str, k: int, repeats: int) -> tuple[float, float]:
    """`tempex cv` output; returns the mean fold F1 with the pipeline on
    and off."""
    rows: dict[str, list[float]] = {"pipeline_on": [], "pipeline_off": []}
    t_line = None
    for line in output.splitlines()[1:]:
        cols = line.split("\t")
        if cols[0] == "#paired_t":
            t_line = cols
        elif cols[0] in rows:
            rows[cols[0]].append(float(cols[3]))
        else:
            raise CheckError(f"unexpected cv line {line!r}")
    for name, values in rows.items():
        if len(values) != k * repeats:
            raise CheckError(f"{name}: {len(values)} fold rows, expected "
                             f"{k * repeats}")
    if t_line is None or len(t_line) != 4:
        raise CheckError("missing or malformed #paired_t line")
    on, off = rows["pipeline_on"], rows["pipeline_off"]
    diffs = [a - b for a, b in zip(on, off)]
    # fold F1s are printed to six decimals
    degenerate = max(diffs) - min(diffs) < 2e-6
    if (t_line[3] == "True") != degenerate:
        raise CheckError(f"#paired_t degenerate flag {t_line[3]}, fold "
                         f"differences {diffs}")
    if not degenerate:
        ref = scipy.stats.ttest_rel(on, off)
        t, p = float(t_line[1]), float(t_line[2])
        if not (math.isclose(t, ref.statistic, rel_tol=1e-3, abs_tol=1e-3)
                and math.isclose(p, ref.pvalue, rel_tol=1e-3,
                                 abs_tol=1e-4)):
            raise CheckError(f"#paired_t t={t} p={p}, scipy gives "
                             f"t={ref.statistic} p={ref.pvalue}")
    return statistics.fmean(on), statistics.fmean(off)
