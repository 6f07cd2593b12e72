"""Per-layer tracing of one tempex job, from outside the program.

`Tracer` replaces public functions of the `tempex` modules with wrappers
that record a span (name, start, end, parent) around each call, and put
the originals back on exit.  Only this process is affected.  Callers in
`tempex` look these functions up as module attributes at call time, so
the wrappers see every call the job makes.  The objective that
`crf.train` hands to `scipy.optimize.minimize` is wrapped by replacing
`crf.minimize`.

Spans and counts stay in memory.  `metrics()` derives the per-layer
figures: a span's self time is its duration minus that of its child
spans, and a layer's time is the sum of the self times of its spans.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from tempex import corpus, crf, evaluation, features, normalizer, pipeline
from tempex import postproc
from tempex.corpus import LABELS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.n_features: list[int] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = 0.0

    # ------------------------------------------------------------ spans

    def _span(self, name: str, fn, hook=None):
        """`fn` wrapped to record one span per call; `hook(args, kwargs,
        result)` runs inside the span."""
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
        return wrapper

    def _install(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, hook=None) -> None:
        self._install(owner, attr,
                      self._span(name, getattr(owner, attr), hook))

    def __enter__(self):
        w = self._wrap
        w(corpus, "read_corpus", "corpus.read_corpus", self._on_read)
        w(features, "featurize_sequence", "features.featurize",
          self._on_featurize)
        w(features, "extract_rows", "features.extract_rows")
        w(features, "expand_templates", "features.expand_templates",
          self._on_expand)
        w(crf, "load_model", "crf.load_model")
        w(crf, "save_model", "crf.save_model")
        w(crf.CrfModel, "encode", "crf.encode", self._on_encode)
        w(crf, "forward_backward", "crf.forward_backward",
          self._per_token("crf.forward_backward"))
        w(crf, "viterbi", "crf.viterbi", self._per_token("crf.viterbi"))
        w(crf, "train", "crf.train")
        w(crf, "build_feature_index", "crf.build_feature_index",
          self._on_index)
        self._install(crf, "minimize",
                      self._span("crf.lbfgs", self._minimize(crf.minimize)))
        w(postproc, "run_pipeline", "postproc.run_pipeline",
          self._per_token("postproc.run_pipeline"))
        w(postproc, "probabilistic_correction", "postproc.prob_correction",
          self._on_prob_correction)
        w(postproc, "bio_fixer", "postproc.bio_fixer",
          self._changed("bio_fixer"))
        w(postproc, "threshold_label_switcher", "postproc.threshold_switcher",
          self._changed("threshold_switcher"))
        w(postproc, "build_prior_table", "postproc.priors")
        self._install(postproc.PriorTable, "load", staticmethod(
            self._span("postproc.priors", postproc.PriorTable.load)))
        w(normalizer, "normalize", "normalizer.normalize",
          self._on_normalize)
        w(evaluation, "match_spans", "evaluation.match_spans")
        w(evaluation, "paired_t_test", "evaluation.paired_t_test")
        self._install(evaluation, "cross_validate", self._span(
            "evaluation.cross_validate",
            self._cross_validate(evaluation.cross_validate)))
        for attr in ("label_document", "extract_timexes", "train_on_docs",
                     "train_on_sequences", "featurize_corpus", "spans_f1"):
            w(pipeline, attr, f"pipeline.{attr}")
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _minimize(self, original):
        """The optimizer entry point, with the objective it is handed
        recorded as `crf.ll_grad` spans."""
        def minimize(fun, x0, *args, **kwargs):
            result = original(self._span("crf.ll_grad", fun), x0,
                              *args, **kwargs)
            self.counts["crf.lbfgs_iterations"] += int(result.nit)
            return result
        return minimize

    def _cross_validate(self, original):
        """Cross-validation with each fold recorded as an
        `evaluation.fold` span."""
        def cross_validate(items, fold_fn, *args, **kwargs):
            return original(items, self._span("evaluation.fold", fold_fn),
                            *args, **kwargs)
        return cross_validate

    # ------------------------------------------------------------ hooks

    def _on_read(self, args, kwargs, docs):
        self.counts["corpus.tokens"] += sum(
            len(seq) for doc in docs for seq in doc.sequences)

    def _on_featurize(self, args, kwargs, feats):
        self.counts["features.tokens"] += len(feats)

    def _on_expand(self, args, kwargs, feats):
        self.counts["features.obs_strings"] += sum(len(f) for f in feats)

    def _on_encode(self, args, kwargs, ids):
        if self._active["crf.train"]:
            return
        self.counts["crf.decode_obs"] += sum(len(f) for f in args[1])
        self.counts["crf.decode_obs_kept"] += sum(len(i) for i in ids)

    def _on_index(self, args, kwargs, index):
        self.n_features.append(len(index))

    def _per_token(self, name):
        def hook(args, kwargs, result):
            self.counts[name + ".tokens"] += len(args[1])
        return hook

    def _on_prob_correction(self, args, kwargs, result):
        # first stage: the incoming labels are the raw CRF argmax
        before = [LABELS[int(i)] for i in np.argmax(args[0].probs, axis=1)]
        self._count_changed("prob_correction", before, result[1])

    def _changed(self, stage):
        def hook(args, kwargs, labels):
            self._count_changed(stage, args[0], labels)
        return hook

    def _count_changed(self, stage, before, after):
        self.counts[f"postproc.changed.{stage}"] += sum(
            1 for a, b in zip(before, after) if a != b)

    def _on_normalize(self, args, kwargs, result):
        self.counts["normalizer.calls"] += 1
        if result is None:
            self.counts["normalizer.unmatched"] += 1

    # ------------------------------------------------------------ metrics

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def doc_times(self) -> list[float]:
        """label_document plus the extract_timexes that follows it on the
        same document, one entry per document."""
        docs: list[float] = []
        for name, start, end, _ in self.spans:
            if name == "pipeline.label_document":
                docs.append(end - start)
            elif name == "pipeline.extract_timexes" and docs:
                docs[-1] += end - start
        return docs

    def metrics(self) -> dict[str, tuple[float, str]]:
        st = self.self_times()
        c = self.counts

        def s(*names):
            return sum(st.get(n, 0.0) for n in names)

        def per(total, n, scale=1.0):
            return total / n * scale if n else 0.0

        def q(values, p):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100,
                                        method="inclusive")[p - 1]

        feat_s = sum(self.durations("features.featurize"))
        ll = self.durations("crf.ll_grad")
        folds = self.durations("evaluation.fold")
        docs = self.doc_times()
        postproc_s = s("postproc.run_pipeline", "postproc.prob_correction",
                       "postproc.bio_fixer", "postproc.threshold_switcher")
        return {
            "corpus.read_s": (s("corpus.read_corpus"), "s"),
            "corpus.tokens": (c["corpus.tokens"], "count"),
            "features.rows_s": (s("features.extract_rows"), "s"),
            "features.expand_s": (s("features.expand_templates"), "s"),
            "features.obs_per_tok": (
                per(c["features.obs_strings"], c["features.tokens"]),
                "obs/tok"),
            "features.tok_per_s": (per(c["features.tokens"], feat_s),
                                   "tok/s"),
            "crf.load_model_s": (s("crf.load_model"), "s"),
            "crf.encode_s": (s("crf.encode"), "s"),
            "crf.oov_share": (
                1.0 - per(c["crf.decode_obs_kept"], c["crf.decode_obs"])
                if c["crf.decode_obs"] else 0.0, "ratio"),
            "crf.fb_us_per_tok": (
                per(s("crf.forward_backward"),
                    c["crf.forward_backward.tokens"], 1e6), "us/tok"),
            "crf.viterbi_us_per_tok": (
                per(s("crf.viterbi"), c["crf.viterbi.tokens"], 1e6),
                "us/tok"),
            "crf.ll_grad_calls": (len(ll), "count"),
            "crf.ll_grad_ms_p50": (
                statistics.median(ll) * 1e3 if ll else 0.0, "ms"),
            "crf.lbfgs_iterations": (c["crf.lbfgs_iterations"], "count"),
            "crf.n_features": (
                statistics.median(self.n_features) if self.n_features
                else 0, "count"),
            "crf.index_s": (s("crf.build_feature_index"), "s"),
            "crf.save_model_s": (s("crf.save_model"), "s"),
            "postproc.pipeline_us_per_tok": (
                per(postproc_s, c["postproc.run_pipeline.tokens"], 1e6),
                "us/tok"),
            "postproc.changed.prob_correction": (
                c["postproc.changed.prob_correction"], "count"),
            "postproc.changed.bio_fixer": (
                c["postproc.changed.bio_fixer"], "count"),
            "postproc.changed.threshold_switcher": (
                c["postproc.changed.threshold_switcher"], "count"),
            "postproc.priors_s": (s("postproc.priors"), "s"),
            "normalizer.calls": (c["normalizer.calls"], "count"),
            "normalizer.us_per_call": (
                per(s("normalizer.normalize"), c["normalizer.calls"], 1e6),
                "us"),
            "normalizer.unmatched": (c["normalizer.unmatched"], "count"),
            "evaluation.folds": (len(folds), "count"),
            "evaluation.fold_s_p50": (q(folds, 50), "s"),
            "evaluation.match_s": (s("evaluation.match_spans"), "s"),
            "pipeline.doc_ms_p50": (q(docs, 50) * 1e3, "ms"),
            "pipeline.doc_ms_p90": (q(docs, 90) * 1e3, "ms"),
        }

    def dump(self) -> dict:
        """Spans relative to the tracer's start, plus counts and self
        times, for the JSON trace file."""
        return {
            "spans": [[n, round(a - self.t0, 9), round(b - self.t0, 9), p]
                      for n, a, b, p in self.spans],
            "counts": dict(self.counts),
            "self_s": self.self_times(),
        }
