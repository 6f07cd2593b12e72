"""End-to-end orchestration: featurize, train, tag, evaluate documents."""

from __future__ import annotations

from dataclasses import replace
from datetime import date
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence as Seq

from . import crf, evaluation, features, normalizer, postproc
from .config import RunConfig
from .corpus import (Document, Sequence, bio_to_spans, doc_spans,
                     span_char_range)
from .normalizer import Timex


def featurize_corpus(seqs: Seq[Sequence], featurizer: features.Featurizer,
                     table: Optional[features.ObservationTable] = None):
    """The observation table of the sequences, and the gold labels of
    each; a sequence without gold labels is labeled all O.  `table` is
    `features.featurize_sequence(seqs, featurizer)`, computed here when
    not given."""
    if table is None:
        table = features.featurize_sequence(seqs, featurizer)
    return table, [list(s.gold_labels or ["O"] * len(s)) for s in seqs]


def train_on_docs(docs: Seq[Document], config: RunConfig
                  ) -> tuple[crf.CrfModel, postproc.PriorTable]:
    seqs = [seq for doc in docs for seq in doc.sequences]
    model = train_on_sequences(seqs, config,
                               config.featurizer(config.profile))
    return model, postproc.build_prior_table(seqs)


def train_on_sequences(seqs: Seq[Sequence], config: RunConfig,
                       featurizer: features.Featurizer,
                       table: Optional[features.ObservationTable] = None
                       ) -> crf.CrfModel:
    """A model trained on `seqs` under `featurizer`, which it records as
    its profile and feature digest.  `table` is their observation table
    (`featurize_corpus`), computed here when not given; `cv` passes each
    fold its slice of the corpus's one table."""
    model = crf.train(
        *featurize_corpus(seqs, featurizer, table), config.train_config())
    return replace(model, profile=featurizer.profile,
                   digest=featurizer.digest)


# Documents are tagged in batches of up to this many tokens: one
# featurization, one encoding and one CRF call per batch.  Peak memory
# (tracemalloc, over `label_documents`) grows by about 8 KB per batch
# token, while time per token falls little past a few hundred tokens.
BATCH_TOKENS = 512


def document_batches(docs: Iterable[Document]) -> Iterator[list[Document]]:
    """Consecutive documents in batches of at most BATCH_TOKENS tokens;
    a document larger than that is a batch by itself."""
    batch: list[Document] = []
    size = 0
    for doc in docs:
        n = sum(map(len, doc.sequences))
        if batch and size + n > BATCH_TOKENS:
            yield batch
            batch, size = [], 0
        batch.append(doc)
        size += n
    if batch:
        yield batch


def _label_batch(docs: Seq[Document], model: crf.CrfModel,
                 featurizer: features.Featurizer, config: RunConfig,
                 priors: Optional[postproc.PriorTable],
                 table: Optional[features.ObservationTable] = None
                 ) -> list[list[list[str]]]:
    """The decode core: predicted BIO labels per sequence of each of
    `docs`, from one featurization under the model's index (unless
    `table` is given) and one CRF call over all their sequences.  With
    a prior table, the labels are those of the post-processing pipeline
    over the marginals; without one, the Viterbi path."""
    seqs = [seq for doc in docs for seq in doc.sequences]
    if table is None:
        table = features.featurize_sequence(seqs, featurizer,
                                            model.obs_index)
    if priors is None:
        labels = crf.viterbi(model, table)
    else:
        labels = [postproc.run_pipeline(marginals, seq.tokens, priors,
                                        config.threshold)
                  for seq, marginals in zip(
                      seqs, crf.forward_backward(model, table), strict=True)]
    ends = list(accumulate(len(doc.sequences) for doc in docs))
    return [labels[a:b] for a, b in zip((0, *ends), ends)]


def label_documents(docs: Seq[Document], model: crf.CrfModel,
                    featurizer: features.Featurizer, config: RunConfig,
                    priors: Optional[postproc.PriorTable] = None
                    ) -> Iterator[list[list[str]]]:
    """Predicted BIO labels per sequence of each document, in order,
    decoded batch by batch (`document_batches`).  Each batch is
    featurized under the model's index, so that its table's codes are
    the model's ids: no observation is spelled or looked up."""
    for batch in document_batches(docs):
        yield from _label_batch(batch, model, featurizer, config, priors)


def label_document(doc: Document, model: crf.CrfModel,
                   featurizer: features.Featurizer, config: RunConfig,
                   priors: Optional[postproc.PriorTable] = None,
                   doc_features: Optional[features.ObservationTable] = None
                   ) -> list[list[str]]:
    """Predicted BIO labels per sequence of one document (CRF plus
    optional pipeline), through the same core as `label_documents`.

    `doc_features` is the document's table, featurized under the
    model's index when not given; a slice of the table the model was
    trained from serves too (`cv` passes its fold's test sentences).
    Pass it to label one document several ways without featurizing it
    again.
    """
    return _label_batch([doc], model, featurizer, config, priors,
                        doc_features)[0]


def extract_timexes(doc: Document, labels_per_seq: Seq[Seq[str]],
                    config: RunConfig,
                    rules: Seq[normalizer.NormRule]) -> list[Timex]:
    """Spans from predicted labels, normalized against the document DCT
    with `rules` (`normalizer.load_rules`).

    Expressions no rule matches are dropped unless config.fallback maps
    them to (DATE, PRESENT_REF).
    """
    norm = config.norm_config()
    # a DCT with a time part is anchored at its date
    anchor = date.fromordinal(doc.dct.toordinal())
    timexes = []
    for si, (seq, labels) in enumerate(
            zip(doc.sequences, labels_per_seq, strict=True)):
        for span in bio_to_spans(list(labels), seq, si, tolerant=True):
            surfaces = [seq.tokens[i].surface
                        for i in range(span.first_token,
                                       span.last_token + 1)]
            result = normalizer.normalize(surfaces, anchor, rules, norm)
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
