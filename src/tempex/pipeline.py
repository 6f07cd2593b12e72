"""End-to-end orchestration: featurize, train, tag, evaluate documents."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence as Seq

from . import crf, evaluation, features, normalizer, postproc
from .config import RunConfig
from .corpus import (Document, Sequence, bio_to_spans, doc_spans,
                     span_char_range)
from .normalizer import Anchor, Timex


def featurize_corpus(seqs: Seq[Sequence], featurizer: features.Featurizer):
    """Expanded observation features and gold labels of each sequence;
    a sequence without gold labels is labeled all O."""
    return ([features.featurize_sequence(s, featurizer) for s in seqs],
            [list(s.gold_labels or ["O"] * len(s)) for s in seqs])


def train_on_docs(docs: Seq[Document], config: RunConfig
                  ) -> tuple[crf.CrfModel, postproc.PriorTable]:
    model = train_on_sequences(
        [seq for doc in docs for seq in doc.sequences], config,
        config.featurizer(config.profile))
    return model, postproc.build_prior_table(docs)


def train_on_sequences(seqs: Seq[Sequence], config: RunConfig,
                       featurizer: features.Featurizer) -> crf.CrfModel:
    """A model trained on `seqs` under `featurizer`, which it records as
    its profile and feature digest."""
    model = crf.train(
        *featurize_corpus(seqs, featurizer),
        crf.TrainConfig(config.c, config.eta, config.max_iter,
                        config.cutoff))
    return replace(model, profile=featurizer.profile,
                   digest=featurizer.digest)


def featurize_document(doc: Document, featurizer: features.Featurizer
                       ) -> list[list[list[str]]]:
    """Observation strings of each sequence of `doc`."""
    return [features.featurize_sequence(seq, featurizer)
            for seq in doc.sequences]


def label_document(doc: Document, model: crf.CrfModel,
                   featurizer: features.Featurizer, config: RunConfig,
                   priors: Optional[postproc.PriorTable] = None,
                   doc_features: Optional[Seq[Seq[Seq[str]]]] = None
                   ) -> list[list[str]]:
    """Predicted BIO labels per sequence (CRF plus optional pipeline),
    from one CRF call over the whole document.

    `doc_features` is `featurize_document(doc, featurizer)`, computed
    here when not given; pass it to label one document several ways
    without featurizing it again.
    """
    if doc_features is None:
        doc_features = featurize_document(doc, featurizer)
    if not config.pipeline_enabled or priors is None:
        return crf.viterbi(model, doc_features)
    post = config.pipeline_config()
    return [postproc.run_pipeline(marginals, seq.tokens, priors, post)
            for seq, marginals in zip(
                doc.sequences, crf.forward_backward(model, doc_features),
                strict=True)]


def extract_timexes(doc: Document, labels_per_seq: Seq[Seq[str]],
                    config: RunConfig,
                    rules: Seq[normalizer.NormRule]) -> list[Timex]:
    """Spans from predicted labels, normalized against the document DCT
    with `rules` (`normalizer.load_rules`).

    Expressions no rule matches are dropped unless config.fallback maps
    them to (DATE, PRESENT_REF).
    """
    anchor = Anchor.from_date(doc.dct)
    timexes = []
    for si, (seq, labels) in enumerate(
            zip(doc.sequences, labels_per_seq, strict=True)):
        for span in bio_to_spans(list(labels), seq, si, tolerant=True):
            surfaces = [seq.tokens[i].surface
                        for i in range(span.first_token,
                                       span.last_token + 1)]
            result = normalizer.normalize(surfaces, anchor, rules,
                                          config.norm_config())
            if result is None:
                if not config.fallback:
                    continue
                result = ("DATE", "PRESENT_REF")
            timexes.append(Timex(span, result[0], result[1]))
    return timexes


def spans_f1(gold_docs: Seq[Document], labels_per_doc,
             regime: str = "strict") -> float:
    """Span F1 of predicted labels against gold labels, over documents."""
    total = evaluation.MatchCounts()
    for doc, labels_per_seq in zip(gold_docs, labels_per_doc, strict=True):
        gold = [span_char_range(doc, s) for s in doc_spans(doc)]
        pred_spans = []
        for si, (seq, labels) in enumerate(
                zip(doc.sequences, labels_per_seq, strict=True)):
            pred_spans.extend(bio_to_spans(list(labels), seq, si,
                                           tolerant=True))
        pred = [span_char_range(doc, s) for s in pred_spans]
        counts, _ = evaluation.match_spans(gold, pred, regime)
        total = total + counts
    return evaluation.prf(total)["F1"]


def evaluate_corpora(gold_docs: Seq[Document], pred_docs: Seq[Document],
                     gold_attrs=None, pred_attrs=None
                     ) -> evaluation.EvalReport:
    """Full report from two label-carrying corpora aligned by doc id.

    Attribute accuracies are computed over the lenient alignment when
    sidecar attribute tables are supplied for both sides.
    """
    gold_by_id = {d.id: d for d in gold_docs}
    pred_by_id = {d.id: d for d in pred_docs}
    missing = sorted(set(gold_by_id) ^ set(pred_by_id))
    if missing:
        raise evaluation.EvalError(
            "unmatched document ids: " + ", ".join(missing))
    strict = evaluation.MatchCounts()
    lenient = evaluation.MatchCounts()
    type_pairs: list[tuple[str, str]] = []
    value_pairs: list[tuple[str, str]] = []
    warnings: list[str] = []
    with_attrs = gold_attrs is not None and pred_attrs is not None
    for doc_id in sorted(gold_by_id):
        gdoc, pdoc = gold_by_id[doc_id], pred_by_id[doc_id]
        gold = [span_char_range(gdoc, s) for s in doc_spans(gdoc)]
        pred = [span_char_range(pdoc, s) for s in doc_spans(pdoc)]
        s_counts, _ = evaluation.match_spans(gold, pred, "strict")
        l_counts, alignment = evaluation.match_spans(gold, pred, "lenient")
        strict = strict + s_counts
        lenient = lenient + l_counts
        if with_attrs:
            for gi, pi in alignment:
                gkey = (doc_id, *gold[gi])
                pkey = (doc_id, *pred[pi])
                if gkey in gold_attrs and pkey in pred_attrs:
                    type_pairs.append((gold_attrs[gkey][0],
                                       pred_attrs[pkey][0]))
                    value_pairs.append((gold_attrs[gkey][1],
                                        pred_attrs[pkey][1]))
    type_acc = value_acc = None
    if with_attrs:
        type_acc, empty = evaluation.attribute_accuracy(type_pairs)
        value_acc, _ = evaluation.attribute_accuracy(value_pairs)
        if empty:
            warnings.append("empty lenient alignment for attributes")
    return evaluation.report_from_counts(strict, lenient, type_acc,
                                         value_acc, warnings)
