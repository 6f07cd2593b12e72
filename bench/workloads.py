"""The three benchmark workloads.

Each workload owns a work directory.  `setup()` writes its inputs (and,
for `tag`, trains the model); `parts()` lists the `tempex` invocations
that make up the fixed-size job, each a callable returning its output;
`check(outputs)` verifies the list of their outputs and returns the
quality figures.  `tokens` is the size of the job's input and
`ops_per_round` the operations one job attempts; set-up is timed
`setup_reps` times.
"""

from __future__ import annotations

import statistics
from functools import partial
from pathlib import Path

import checks
import gen
from tempex import cli, corpus, crf, pipeline
from tempex.config import RunConfig

SENTENCES_PER_DOC = 8
# A mean strict F1 below this on held-out sentences means training went
# wrong.
HELDOUT_F1_FLOOR = 0.3
QUALITY = ("strict_f1", "strict_f1_off", "lenient_f1", "type_accuracy",
           "value_accuracy")


def train_files(corpus_path: Path, model_path: Path) -> crf.CrfModel:
    """`tempex train` under the default run configuration: read the
    corpus, featurize once, optimize, save the model and prior table."""
    docs = corpus.read_corpus(corpus_path)
    model, priors = pipeline.train_on_docs(docs, RunConfig())
    crf.save_model(model, model_path)
    priors.save(model_path.with_suffix(".priors"))
    return model


def tag_file(corpus_path: Path, model_path: Path, out_path: Path,
             pipeline_on: bool = True) -> str:
    """`tempex tag` of a corpus file to inline TIMEX3 output."""
    argv = ([] if pipeline_on else ["--no-pipeline"]) + [
        "tag", str(corpus_path), str(model_path), "--output", str(out_path)]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tempex {' '.join(argv)} exited {code}")
    return out_path.read_text(encoding="utf-8")


def tag_quality(docs, corpus_path: Path, model_path: Path, work: Path,
                output_on: str = None) -> dict:
    """Checked quality of the model on `docs`, pipeline on and off.
    `output_on` is a pipeline-on output already at hand."""
    if output_on is None:
        output_on = tag_file(corpus_path, model_path, work / "on.txt")
    on = checks.check_tag(docs, output_on)
    off = checks.check_tag(docs, tag_file(corpus_path, model_path,
                                          work / "off.txt", False))
    return {"strict_f1": on.strict_f1, "strict_f1_off": off.strict_f1,
            "lenient_f1": on.lenient_f1, "type_accuracy": on.type_accuracy,
            "value_accuracy": on.value_accuracy}


class Workload:
    name = ""
    # set-up is a few milliseconds except in `tag`: time it often
    setup_reps = 25

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.tokens = 0
        self.ops_per_round = 1

    def _generate(self, role: str, n_docs: int,
                  clauses=gen.CLAUSE_PATTERN):
        return gen.generate(self.seed, role, n_docs, SENTENCES_PER_DOC,
                            clauses)

    def _write(self, docs, filename: str) -> tuple[Path, int]:
        path = self.work / filename
        return path, gen.write_corpus(docs, path, corpus.tokenize)

    @staticmethod
    def empty_quality() -> dict:
        return dict.fromkeys(QUALITY, 0.0)


class Tag(Workload):
    """Tag a held-out corpus with a model trained during set-up."""
    name = "tag"
    setup_reps = 3
    TRAIN_DOCS, TEST_DOCS = 2, 8

    def setup(self):
        train_path, _ = self._write(
            self._generate("train", self.TRAIN_DOCS, gen.SHORT_CLAUSES),
            "train.tsv")
        self.docs = self._generate("test", self.TEST_DOCS)
        self.test_path, self.tokens = self._write(self.docs, "test.tsv")
        self.model_path = self.work / "model.crf"
        train_files(train_path, self.model_path)
        self.ops_per_round = len(self.docs)

    def parts(self):
        return [partial(tag_file, self.test_path, self.model_path,
                        self.work / "tagged.txt")]

    def check(self, outputs):
        return tag_quality(self.docs, self.test_path, self.model_path,
                           self.work, outputs[0])


class Train(Workload):
    """Train one model per corpus to convergence; score each on held-out
    sentences after the timed job.  Sixteen corpora, so that one corpus's
    L-BFGS iteration count does not set the job time."""
    name = "train"
    CORPORA, DOCS_PER_CORPUS, HELDOUT_DOCS = 16, 1, 1

    def setup(self):
        docs = self._generate("train", self.CORPORA * self.DOCS_PER_CORPUS,
                              gen.SHORT_CLAUSES)
        self.paths, self.tokens = [], 0
        for i in range(self.CORPORA):
            part = docs[i * self.DOCS_PER_CORPUS:
                        (i + 1) * self.DOCS_PER_CORPUS]
            path, n_tokens = self._write(part, f"train{i}.tsv")
            self.paths.append(path)
            self.tokens += n_tokens
        self.heldout = self._generate("test", self.HELDOUT_DOCS)
        self.heldout_path, _ = self._write(self.heldout, "heldout.tsv")
        self.ops_per_round = self.CORPORA

    def parts(self):
        return [partial(train_files, p, p.with_suffix(".crf"))
                for p in self.paths]

    def check(self, models):
        qualities = []
        for path, model in zip(self.paths, models):
            model_path = path.with_suffix(".crf")
            checks.check_model_reload(model, crf.load_model(model_path))
            qualities.append(tag_quality(self.heldout, self.heldout_path,
                                         model_path, self.work))
        mean = {k: statistics.fmean(q[k] for q in qualities)
                for k in QUALITY}
        checks.check_floor(mean["strict_f1"], HELDOUT_F1_FLOOR)
        return mean


class CrossValidate(Workload):
    """`tempex cv`: repeated k-fold CV, pipeline on and off, paired t, on
    each of seven one-document corpora: one corpus's objective-call count
    varies by 15% from seed to seed, the sum over seven by a few percent."""
    name = "cv"
    CORPORA, K, REPEATS = 7, 2, 2

    def setup(self):
        docs = self._generate("train", self.CORPORA, gen.SHORT_CLAUSES)
        self.paths, self.tokens = [], 0
        for i, doc in enumerate(docs):
            path, n_tokens = self._write([doc], f"cv{i}.tsv")
            self.paths.append(path)
            self.tokens += n_tokens
        self.ops_per_round = self.CORPORA * 2 * self.K * self.REPEATS

    def cross_validate(self, path: Path) -> str:
        out = path.with_suffix(".txt")
        code = cli.main(["--seed", str(self.seed), "cv", str(path),
                         "--k", str(self.K), "--repeats", str(self.REPEATS),
                         "--output", str(out)])
        if code != 0:
            raise RuntimeError(f"tempex cv exited {code}")
        return out.read_text(encoding="utf-8")

    def parts(self):
        return [partial(self.cross_validate, p) for p in self.paths]

    def check(self, outputs):
        on, off = zip(*(checks.check_cv(out, self.K, self.REPEATS)
                        for out in outputs))
        quality = self.empty_quality()
        quality.update(strict_f1=statistics.fmean(on),
                       strict_f1_off=statistics.fmean(off))
        return quality


WORKLOADS = {w.name: w for w in (Tag, Train, CrossValidate)}
