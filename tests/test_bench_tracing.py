"""The traced benchmark (`bench/run.py --trace 1`) wraps `tempex`
functions by name.  Entering its tracer here fails when one of them is
renamed or removed, and a short labeling run checks that its hooks read
the arguments and results they expect."""

import sys
from dataclasses import replace
from pathlib import Path

from tempex import cli, corpus, crf, normalizer, pipeline, postproc
from tempex.config import RunConfig

from synth import build_corpus

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402  (bench/ is not a package)


def test_tracer_wraps_labeling_and_restores():
    doc = build_corpus(n_sentences=6, seed=3)
    config = RunConfig()
    model = pipeline.train_on_docs([doc], config)[0]
    priors = postproc.build_prior_table([doc])
    featurizer = config.featurizer(model.profile)
    rules = normalizer.load_rules(config.rules_path)
    originals = (crf.forward_backward, crf.viterbi, crf.CrfModel.encode,
                 pipeline.label_document)
    with tracing.Tracer() as tracer:
        for p in (priors, None):  # forward-backward, then Viterbi
            labels = pipeline.label_document(doc, model, featurizer, config,
                                             p)
            pipeline.extract_timexes(doc, labels, config, rules)
        metrics = tracer.metrics()
    assert (crf.forward_backward, crf.viterbi, crf.CrfModel.encode,
            pipeline.label_document) == originals
    assert len(tracer.durations("crf.forward_backward")) == 1
    assert len(tracer.durations("crf.viterbi")) == 1
    assert metrics["crf.oov_share"][0] == 0.0  # tagging the training text
    # the hooks count tokens and slots through the observation table
    assert metrics["features.obs_per_tok"][0] == 371  # model1
    n_tokens = sum(map(len, doc.sequences))
    assert tracer.counts["crf.decode_obs"] == 2 * 371 * n_tokens
    assert tracer.counts["crf.forward_backward.tokens"] == n_tokens
    assert tracer.counts["crf.viterbi.tokens"] == n_tokens
    assert metrics["normalizer.calls"][0] > 0
    assert len(tracer.doc_times()) == 2


def test_tracer_counts_a_batched_tag_run(tmp_path, capsys):
    """`tag` of a multi-document corpus, decoded in batches: the hooks
    still count every token once and 371 slots per token."""
    docs = [replace(build_corpus(n_sentences=n, seed=s), id=f"d{s}")
            for s, n in ((4, 30), (5, 70), (6, 3), (7, 12))]
    n_tokens = sum(len(seq) for doc in docs for seq in doc.sequences)
    assert n_tokens > pipeline.BATCH_TOKENS
    path, model = tmp_path / "docs.tsv", tmp_path / "model.crf"
    corpus.write_corpus(docs, path)
    (tmp_path / "run.ini").write_text("[crf]\nmax_iter = 20\n",
                                      encoding="utf-8")
    assert cli.main(["--config", str(tmp_path / "run.ini"), "train",
                     str(path), str(model)]) == 0
    with tracing.Tracer() as tracer:
        assert cli.main(["tag", str(path), str(model), "--output",
                         str(tmp_path / "tagged.txt")]) == 0
        metrics = tracer.metrics()
    assert metrics["features.obs_per_tok"][0] == 371  # model1
    assert metrics["crf.oov_share"][0] == 0.0  # tagging the training text
    for count in ("corpus.tokens", "features.tokens",
                  "crf.forward_backward.tokens",
                  "postproc.run_pipeline.tokens"):
        assert tracer.counts[count] == n_tokens, count
    assert tracer.counts["crf.decode_obs"] == 371 * n_tokens
    assert len(tracer.durations("crf.forward_backward")) > 1
