"""The traced benchmark (`bench/run.py --trace 1`) wraps `tempex`
functions by name.  Entering its tracer here fails when one of them is
renamed or removed, and a short labeling run checks that its hooks read
the arguments and results they expect."""

import sys
from pathlib import Path

from tempex import crf, normalizer, pipeline, postproc
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
