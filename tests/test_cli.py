import configparser
import datetime
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tempex.cli
import tempex.config
from tempex import (corpus, crf, evaluation, features, normalizer,
                    pipeline, postproc)
from tempex.cli import build_parser, main
from tempex.config import ConfigError, RunConfig, load_config

from children import assert_no_child_process
from synth import build_corpus, split_corpus

DCT = "2013-04-11"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Small corpus, a config with a tight iteration budget, and a model
    trained once for the whole session."""
    root = tmp_path_factory.mktemp("cli")
    doc = build_corpus(n_sentences=60, seed=7)
    train_doc, test_doc = split_corpus(doc, n_train=45)
    corpus.write_corpus([train_doc], root / "train.tsv")
    corpus.write_corpus([test_doc], root / "test.tsv")
    (root / "run.ini").write_text(
        "[crf]\nmax_iter = 60\n", encoding="utf-8")
    rc = main(["--config", str(root / "run.ini"), "train",
               str(root / "train.tsv"), str(root / "model.crf")])
    assert rc == 0
    return root


def without_blas_setting() -> dict:
    """The environment with no `*_NUM_THREADS` variable, where OpenBLAS
    would use a thread per CPU, and `src` on the module path."""
    env = {name: value for name, value in os.environ.items()
           if not name.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Train through the library, as `bench/workloads.py` does, not through
# the command line: corpus, run configuration, model path.
TRAIN_ON_DOCS = """
import sys
from tempex import corpus, crf, pipeline
from tempex.config import load_config
docs = corpus.read_corpus(sys.argv[1])
model, _ = pipeline.train_on_docs(docs, load_config(sys.argv[2]))
crf.save_model(model, sys.argv[3])
"""


class TestTrain:
    def test_outputs_exist(self, workdir):
        assert (workdir / "model.crf").exists()
        assert (workdir / "model.priors").exists()

    def test_summary_printed(self, workdir, capsys):
        rc = main(["--config", str(workdir / "run.ini"), "train",
                   str(workdir / "train.tsv"),
                   str(workdir / "model2.crf")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "features:" in out and "iterations:" in out

    def test_columns_are_the_distinct_observation_columns(self, tmp_path,
                                                          capsys):
        """`columns:` counts the distinct token-by-observation count
        columns of the corpus, worked out here string by string, and is
        at most `features:`."""
        doc = build_corpus(n_sentences=4, seed=11)
        corpus.write_corpus([doc], tmp_path / "tiny.tsv")
        rc = main(["train", str(tmp_path / "tiny.tsv"),
                   str(tmp_path / "tiny.crf")])
        assert rc == 0
        printed = dict(line.split(": ", 1)
                       for line in capsys.readouterr().out.splitlines())
        config = RunConfig()
        seqs = [seq for d in corpus.read_corpus(tmp_path / "tiny.tsv")
                for seq in d.sequences]
        table, _ = pipeline.featurize_corpus(
            seqs, config.featurizer(config.profile))
        column: dict[str, Counter] = {}
        for token, codes in enumerate(table.codes.tolist()):
            for code in codes:
                if code >= 0:
                    column.setdefault(table.keys[code], Counter())[token] += 1
        distinct = {frozenset(c.items()) for c in column.values()}
        assert int(printed["features"]) == len(column)
        assert int(printed["columns"]) == len(distinct) < len(column)

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nope.tsv"),
                   str(tmp_path / "m.crf")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_model_does_not_depend_on_blas_threads(self, workdir, tmp_path):
        """Run with no BLAS setting, where OpenBLAS would use a thread per
        CPU, `train` writes the bytes it writes under
        OPENBLAS_NUM_THREADS=1: training calls no BLAS."""
        env = {name: value for name, value in os.environ.items()
               if not name.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        models = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            model = tmp_path / f"model{len(models)}.crf"
            subprocess.run(
                [sys.executable, "-m", "tempex.cli", "--config",
                 str(workdir / "run.ini"), "train",
                 str(workdir / "train.tsv"), str(model)],
                env={**env, **threads}, check=True, capture_output=True,
                timeout=300)
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_library_training_does_not_depend_on_blas_threads(
            self, workdir, tmp_path):
        """`pipeline.train_on_docs` then `crf.save_model`, with no BLAS
        setting, writes the bytes it writes under OPENBLAS_NUM_THREADS=1:
        training calls no BLAS, whatever calls it."""
        env = without_blas_setting()
        models = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            model = tmp_path / f"model{len(models)}.crf"
            subprocess.run(
                [sys.executable, "-c", TRAIN_ON_DOCS,
                 str(workdir / "train.tsv"), str(workdir / "run.ini"),
                 str(model)],
                env={**env, **threads}, check=True, capture_output=True,
                timeout=300)
            models.append(model.read_bytes())
        assert models[0] == models[1]


class TestTag:
    def test_corpus_no_normalize(self, workdir, capsys):
        out_path = workdir / "tagged.tsv"
        rc = main(["tag", str(workdir / "test.tsv"),
                   str(workdir / "model.crf"),
                   "--no-normalize", "--output", str(out_path)])
        assert rc == 0
        tagged = corpus.read_corpus(out_path)
        assert len(tagged) == 1
        labels = {lab for seq in tagged[0].sequences
                  for lab in seq.gold_labels}
        assert labels <= {"B", "I", "O"} and "B" in labels

    @pytest.mark.parametrize("flags", [(), ("--no-normalize",)])
    def test_appends_to_redirected_output(self, workdir, tmp_path, flags):
        """`tempex tag ... >> all.tsv` keeps what the file held, and adds
        the bytes `--output` writes: the text goes to the process's
        standard output, not to a reopened /dev/stdout."""
        tagged = tmp_path / "tagged"
        assert main(["tag", str(workdir / "test.tsv"),
                     str(workdir / "model.crf"), *flags,
                     "--output", str(tagged)]) == 0
        appended = tmp_path / "all.tsv"
        appended.write_text("earlier line\n", encoding="utf-8")
        with appended.open("a", encoding="utf-8") as stdout:
            subprocess.run(
                [sys.executable, "-m", "tempex.cli", "tag",
                 str(workdir / "test.tsv"), str(workdir / "model.crf"),
                 *flags],
                stdout=stdout, env=without_blas_setting(), check=True,
                timeout=300)
        assert appended.read_bytes() == (b"earlier line\n"
                                         + tagged.read_bytes())

    def test_no_normalize_writes_orphan_i_as_b(self, tmp_path, capsys):
        """Raw Viterbi labels with an orphan I are written as the inline
        output reads them: the orphan I opens a span."""
        weights = np.zeros(9)
        weights[3 * crf.LABEL_INDEX["O"] + crf.LABEL_INDEX["I"]] = 5.0
        # no features: O -> I wins
        model = crf.CrfModel({}, weights,
                             digest=features.Featurizer("model1").digest)
        model_path = tmp_path / "orphan.crf"
        crf.save_model(model, model_path)
        raw = tmp_path / "raw.txt"
        raw.write_text("They met on Friday .\n", encoding="utf-8")
        decoded = crf.viterbi(
            model, features.ObservationTable.from_strings([[[]] * 5]))[0]
        assert not corpus.is_valid_bio(decoded)
        out_path = tmp_path / "tagged.tsv"
        rc = main(["--no-pipeline", "tag", str(raw), str(model_path),
                   "--dct", DCT, "--no-normalize", "--output",
                   str(out_path)])
        assert rc == 0
        written = corpus.read_corpus(out_path)[0].sequences[0].gold_labels
        assert list(written) == corpus.repair_bio(decoded)

    def test_dct_with_time_part_anchors_at_its_date(self, tmp_path, capsys):
        """A `#doc` header DCT with a time of day normalizes as its date:
        'Yesterday' is the day before, '2pm' that date at 14:00."""
        weights = np.zeros(9)
        for a in "BI":
            weights[3 * crf.LABEL_INDEX[a] + crf.LABEL_INDEX["I"]] = 5.0
        # no features: each sentence is decoded as one span
        model_path = tmp_path / "spans.crf"
        crf.save_model(crf.CrfModel(
            {}, weights, digest=features.Featurizer("model1").digest),
            model_path)
        tagged = tmp_path / "timed.tsv"
        tagged.write_text(
            "#doc d2 2013-04-12T10:00\n"
            "Yesterday\t0\t9\t_\t_\t_\t_\tO\n\n"
            "2pm\t10\t13\t_\t_\t_\t_\tO\n",
            encoding="utf-8")
        rc = main(["--no-pipeline", "tag", str(tagged), str(model_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert 'value="2013-04-11">Yesterday</TIMEX3>' in out
        assert 'value="2013-04-12T14:00">2pm</TIMEX3>' in out

    def test_raw_text_inline_timex(self, workdir, capsys):
        raw = workdir / "raw.txt"
        raw.write_text("She arrived three days ago .\n", encoding="utf-8")
        rc = main(["tag", str(raw), str(workdir / "model.crf"),
                   "--dct", DCT])
        out = capsys.readouterr().out
        assert rc == 0
        assert '<TIMEX3 tid="t1" type="DATE" value="2013-04-08">' in out
        assert "three days ago</TIMEX3>" in out

    def test_strict_exit_on_no_timexes(self, workdir, capsys):
        raw = workdir / "plain.txt"
        raw.write_text("Officials declined to comment .\n",
                       encoding="utf-8")
        rc = main(["--strict", "tag", str(raw),
                   str(workdir / "model.crf"), "--dct", DCT])
        capsys.readouterr()
        assert rc == 1

    def test_raw_text_without_dct_exit_2(self, workdir, capsys):
        """Raw text has no DCT of its own and the clock is not one."""
        raw = workdir / "raw.txt"
        raw.write_text("She arrived three days ago .\n", encoding="utf-8")
        rc = main(["tag", str(raw), str(workdir / "model.crf")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "--dct" in captured.err

    def test_missing_model_exit_2(self, workdir, capsys):
        rc = main(["tag", str(workdir / "test.tsv"),
                   str(workdir / "absent.crf")])
        assert rc == 2
        capsys.readouterr()

    @pytest.fixture
    def lone_model(self, workdir, tmp_path):
        """The session model, with no prior table beside it."""
        path = tmp_path / "lone.crf"
        shutil.copy(workdir / "model.crf", path)
        return path

    def test_pipeline_without_prior_table_exit_2(self, workdir, lone_model,
                                                 capsys):
        out_path = lone_model.with_suffix(".out")
        rc = main(["tag", str(workdir / "test.tsv"), str(lone_model),
                   "--output", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2 and not out_path.exists()
        assert str(lone_model.with_suffix(".priors")) in captured.err
        assert "--no-pipeline" in captured.err

    def test_no_pipeline_needs_no_prior_table(self, workdir, lone_model,
                                              capsys):
        """--no-pipeline decodes without a prior table: the labels
        written are the Viterbi path, read as `extract_timexes` reads
        it."""
        out_path = lone_model.with_suffix(".tsv")
        rc = main(["--no-pipeline", "tag", str(workdir / "test.tsv"),
                   str(lone_model), "--no-normalize", "--output",
                   str(out_path)])
        assert rc == 0
        [doc] = corpus.read_corpus(workdir / "test.tsv")
        model = crf.load_model(lone_model)
        paths = crf.viterbi(model, features.featurize_sequence(
            doc.sequences, RunConfig().featurizer(model.profile)))
        [tagged] = corpus.read_corpus(out_path)
        assert [list(seq.gold_labels) for seq in tagged.sequences] == \
            [corpus.repair_bio(path) for path in paths]


def relabel(text: str, profile: str) -> str:
    """Model file text with its profile and feature digest replaced by
    those of `profile` over the bundled word lists."""
    model1 = features.Featurizer("model1").digest
    assert f"#profile\tmodel1\n#features\t{model1}\n" in text
    return text.replace(
        f"#profile\tmodel1\n#features\t{model1}\n",
        f"#profile\t{profile}\n"
        f"#features\t{features.Featurizer(profile).digest}\n")


@pytest.fixture
def model2_path(workdir, tmp_path):
    """The session model relabelled as trained under profile model2,
    beside a copy of the session prior table."""
    text = (workdir / "model.crf").read_text(encoding="utf-8")
    path = tmp_path / "model2.crf"
    path.write_text(relabel(text, "model2"), encoding="utf-8")
    shutil.copy(workdir / "model.priors", path.with_suffix(".priors"))
    return path


class TestTagProfile:
    def tag(self, workdir, model_path, *flags, config=None):
        argv = ["--config", str(config)] if config else []
        return main(argv + list(flags) + [
            "tag", str(workdir / "test.tsv"), str(model_path),
            "--no-normalize", "--output", str(model_path) + ".out"])

    def test_features_follow_the_model_profile(self, workdir, model2_path,
                                               monkeypatch, capsys):
        configs = []
        original = features.featurize_sequence

        def spy(seqs, featurizer, *vocabulary):
            configs.append(featurizer.config)
            return original(seqs, featurizer, *vocabulary)

        monkeypatch.setattr(features, "featurize_sequence", spy)
        assert self.tag(workdir, model2_path) == 0
        assert configs and set(configs) == {features.PROFILES["model2"]}

    def test_model2_observations_per_token(self, workdir, model2_path):
        model = crf.load_model(model2_path)
        [doc] = corpus.read_corpus(workdir / "test.tsv")
        feats = features.featurize_sequence(
            doc.sequences, RunConfig().featurizer(model.profile))
        assert len(feats) == sum(map(len, doc.sequences))
        assert {len(row) for row in feats} == {386}
        assert (feats.codes >= 0).all()

    def test_profile_flag_mismatch_exit_2(self, workdir, model2_path,
                                          capsys):
        assert self.tag(workdir, model2_path, "--profile", "model1") == 2
        assert "model2" in capsys.readouterr().err

    def test_config_profile_mismatch_exit_2(self, workdir, model2_path,
                                            tmp_path, capsys):
        ini = tmp_path / "m1.ini"
        ini.write_text("[crf]\nprofile = model1\n", encoding="utf-8")
        assert self.tag(workdir, model2_path, config=ini) == 2
        assert "model2" in capsys.readouterr().err

    def test_profile_flag_model4_exit_2(self, workdir, model2_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.tag(workdir, model2_path, "--profile", "model4")
        assert exc.value.code == 2
        assert "invalid choice: 'model4'" in capsys.readouterr().err

    def test_config_profile_model4_exit_2(self, workdir, model2_path,
                                          tmp_path, capsys):
        ini = tmp_path / "m4.ini"
        ini.write_text("[crf]\nprofile = model4\n", encoding="utf-8")
        assert self.tag(workdir, model2_path, config=ini) == 2
        assert "unknown profile 'model4'" in capsys.readouterr().err

    def test_config_without_profile_or_matching_is_accepted(
            self, workdir, model2_path, tmp_path, capsys):
        ini = tmp_path / "m2.ini"
        ini.write_text("[crf]\nprofile = model2\n", encoding="utf-8")
        assert self.tag(workdir, model2_path, config=ini) == 0
        assert self.tag(workdir, model2_path,
                        config=workdir / "run.ini") == 0
        assert self.tag(workdir, model2_path, "--profile", "model2") == 0


class TestCorruptModel:
    """Every malformed model file is a typed error: exit 2 and a message
    naming the line, never a traceback."""

    FIRST_WEIGHT_LINE = 8  # after the seven header lines

    def corrupt(self, workdir, tmp_path, edit):
        lines = (workdir / "model.crf").read_text(
            encoding="utf-8").splitlines()
        assert lines[self.FIRST_WEIGHT_LINE - 2].startswith("#n_rows\t")
        assert lines[self.FIRST_WEIGHT_LINE - 1].count("\t") == 2
        path = tmp_path / "bad.crf"
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        return path

    def n_rows(self, lines):
        return int(lines[self.FIRST_WEIGHT_LINE - 2].split("\t")[1])

    def first_observation_line(self, lines):
        """The line number of the first `row<TAB>key` line: after the
        `#n_rows` distinct rows and the three transition rows."""
        return self.FIRST_WEIGHT_LINE + self.n_rows(lines) + 3

    def tag_err(self, workdir, path, capsys):
        rc = main(["tag", str(workdir / "test.tsv"), str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def edit_weight_line(self, edit):
        def apply(lines):
            i = self.FIRST_WEIGHT_LINE - 1
            lines[i] = edit(*lines[i].split("\t"))
            return lines
        return apply

    def edit_observation_line(self, edit):
        def apply(lines):
            i = self.first_observation_line(lines) - 1
            lines[i] = edit(*lines[i].partition("\t")[::2])
            return lines
        return apply

    ROW = "expected w_B<TAB>w_I<TAB>w_O"

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda b, i, o: f"{b} {i} {o}", ROW, id="no-tabs"),
        pytest.param(lambda b, i, o: f"{b}\t{i}", ROW, id="one-tab"),
        pytest.param(lambda b, i, o: f"{b}\tnot-a-number\t{o}",
                     "bad weight", id="bad-float"),
        pytest.param(lambda b, i, o: f"{b}\t{i}\tnan", "bad weight",
                     id="nan"),
        pytest.param(lambda b, i, o: f"{b}\t{i}\t{o}\t{o}", ROW,
                     id="four-weights"),
    ])
    def test_bad_weight_line(self, workdir, tmp_path, capsys, edit,
                             message):
        path = self.corrupt(workdir, tmp_path, self.edit_weight_line(edit))
        err = self.tag_err(workdir, path, capsys)
        assert f"line {self.FIRST_WEIGHT_LINE}:" in err and message in err

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda row, key: row, "expected row<TAB>key",
                     id="no-key"),
        pytest.param(lambda row, key: f"{row} {key}", "bad row number",
                     id="space-for-tab"),
        pytest.param(lambda row, key: f"x{row}\t{key}", "bad row number",
                     id="non-integer"),
        pytest.param(lambda row, key: f"{row}.0\t{key}", "bad row number",
                     id="float"),
        pytest.param(lambda row, key: f"-1\t{key}", "row -1 out of range",
                     id="negative"),
        pytest.param(lambda row, key: f"{10 ** 30}\t{key}",
                     f"row {10 ** 30} out of range", id="huge"),
    ])
    def test_bad_observation_line(self, workdir, tmp_path, capsys, edit,
                                  message):
        path = self.corrupt(workdir, tmp_path,
                            self.edit_observation_line(edit))
        lineno = self.first_observation_line(
            path.read_text(encoding="utf-8").splitlines())
        err = self.tag_err(workdir, path, capsys)
        assert f"line {lineno}: {message}" in err

    def test_row_past_the_block(self, workdir, tmp_path, capsys):
        """A row number one past the distinct rows would read a
        transition row: it is out of range."""
        lines = (workdir / "model.crf").read_text(
            encoding="utf-8").splitlines()
        n_rows = self.n_rows(lines)
        path = self.corrupt(workdir, tmp_path, self.edit_observation_line(
            lambda row, key: f"{n_rows}\t{key}"))
        err = self.tag_err(workdir, path, capsys)
        assert (f"line {self.first_observation_line(lines)}: row {n_rows} "
                f"out of range; the model has {n_rows} rows") in err

    def test_repeated_observation_key(self, workdir, tmp_path, capsys):
        def edit(lines):
            first = self.first_observation_line(lines) - 1
            key = lines[first].partition("\t")[2]
            row = lines[first + 1].partition("\t")[0]
            lines[first + 1] = f"{row}\t{key}"
            return lines
        path = self.corrupt(workdir, tmp_path, edit)
        lineno = self.first_observation_line(
            path.read_text(encoding="utf-8").splitlines())
        err = self.tag_err(workdir, path, capsys)
        assert f"line {lineno + 1}: repeated observation key" in err

    def test_short_weight_block(self, workdir, tmp_path, capsys):
        """A block one row shorter than `#n_rows` declares, with a line
        count that still adds up: the first observation line is read as
        the last transition row, and named."""
        def edit(lines):
            shift = {"#n_rows": 1, "#n_features": -1}
            for i, line in enumerate(lines[:self.FIRST_WEIGHT_LINE - 1]):
                key, _, value = line.partition("\t")
                if key in shift:
                    lines[i] = f"{key}\t{int(value) + shift[key]}"
            return lines
        lineno = self.first_observation_line(
            (workdir / "model.crf").read_text(encoding="utf-8").splitlines())
        path = self.corrupt(workdir, tmp_path, edit)
        err = self.tag_err(workdir, path, capsys)
        assert f"line {lineno}: {self.ROW}" in err

    @pytest.mark.parametrize("key", ["features", "hyperparams",
                                     "n_features", "n_rows", "profile"])
    def test_missing_header_key(self, workdir, tmp_path, capsys, key):
        path = self.corrupt(workdir, tmp_path, lambda lines: [
            line for line in lines if not line.startswith(f"#{key}\t")]
            + ["#n_rows\t0"] * (key == "n_rows"))
        err = self.tag_err(workdir, path, capsys)
        assert f"no #{key} line" in err

    @pytest.mark.parametrize("key,value", [
        ("features", "T00:zero"),
        pytest.param("features", "ABCDEF" * 10 + "ABCD", id="features-upper"),
        pytest.param("features", "0" * 63, id="features-63-digits"),
        ("hyperparams", "C=1.0"), ("n_features", "-3"), ("n_rows", "x"),
        ("n_rows", "-1"), ("profile", "model9"), ("profile", "model4")])
    def test_bad_header_value(self, workdir, tmp_path, capsys, key, value):
        def edit(lines):
            return [f"#{key}\t{value}" if line.startswith(f"#{key}\t")
                    else line for line in lines]
        path = self.corrupt(workdir, tmp_path, edit)
        err = self.tag_err(workdir, path, capsys)
        assert f"bad #{key} value" in err and "line " in err

    def test_more_features_than_declared(self, workdir, tmp_path, capsys):
        def edit(lines):
            return ["#n_features\t1" if line.startswith("#n_features\t")
                    else line for line in lines]
        path = self.corrupt(workdir, tmp_path, edit)
        n_rows = self.n_rows(path.read_text(encoding="utf-8").splitlines())
        err = self.tag_err(workdir, path, capsys)
        assert (f"model declares 1 features and {n_rows} weight rows, so "
                f"{n_rows + 4} lines") in err

    def test_format_1_rejected_by_name(self, workdir, tmp_path, capsys):
        """A model in the earlier one-row-per-(observation, label) format
        is refused, naming its version."""
        path = tmp_path / "v1.crf"
        path.write_text(
            "#version\ttempex-crf-1\n#labels\tB,I,O\n"
            "#hyperparams\tC=1.0,eta=0.0001\n#profile\tmodel1\n"
            "#n_features\t0\n"
            + "".join(f"__T__\t{a}:{b}\t0.0\n" for a in "BIO" for b in "BIO"),
            encoding="utf-8")
        err = self.tag_err(workdir, path, capsys)
        assert "model format 'tempex-crf-1' not supported" in err

    def test_format_2_rejected_by_name(self, workdir, tmp_path, capsys):
        """A model in the earlier one-row-per-observation format, keys
        spelled `tid:f[o]=v|...`, is refused, naming its version."""
        path = tmp_path / "v2.crf"
        digest = features.Featurizer("model1").digest
        path.write_text(
            "#version\ttempex-crf-2\n#labels\tB,I,O\n#profile\tmodel1\n"
            f"#features\t{digest}\n#hyperparams\tC=1.0,eta=0.0001\n"
            "#n_features\t1\nT00:word[0]=May\t1.0\t0.0\t-1.0\n"
            + "".join(f"__T__:{a}\t0.0\t0.0\t0.0\n" for a in "BIO"),
            encoding="utf-8")
        err = self.tag_err(workdir, path, capsys)
        assert ("model format 'tempex-crf-2' not supported (expected "
                f"'{crf.MODEL_FORMAT_VERSION}'; retrain the model)") in err


class TestNormalize:
    @pytest.mark.parametrize("expr,expected", [
        ("three days ago", "DATE\t2013-04-08"),
        ("yesterday", "DATE\t2013-04-10"),
        ("April 2013", "DATE\t2013-04"),
        ("two weeks", "DURATION\tP2W"),
        ("daily", "SET\tP1D"),
        ("half an hour", "DURATION\tPT30M"),
        ("the half hour", "DURATION\tPT30M"),
        ("4/5/98", "DATE\t1998-04-05"),
    ])
    def test_known_expressions(self, capsys, expr, expected):
        rc = main(["normalize", expr, "--dct", DCT])
        assert rc == 0
        assert capsys.readouterr().out.strip() == expected

    def test_no_match(self, capsys):
        rc = main(["normalize", "banana", "--dct", DCT])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "NO_MATCH"

    def test_no_match_strict_exit_1(self, capsys):
        rc = main(["--strict", "normalize", "banana", "--dct", DCT])
        capsys.readouterr()
        assert rc == 1

    def test_fallback_flag(self, capsys):
        rc = main(["--fallback", "normalize", "banana", "--dct", DCT])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "DATE\tPRESENT_REF"

    def test_bad_dct_exit_2(self, capsys):
        rc = main(["normalize", "yesterday", "--dct", "04/11/2013"])
        capsys.readouterr()
        assert rc == 2

    def normalize_with_rules(self, tmp_path, row):
        rules = tmp_path / "rules.tsv"
        rules.write_text("# override\n" + row + "\n", encoding="utf-8",
                         errors="surrogateescape")
        config = tmp_path / "run.ini"
        config.write_text(f"[paths]\nrules = {rules}\n", encoding="utf-8")
        return main(["--config", str(config), "normalize", "a fortnight",
                     "--dct", DCT])

    def test_rule_override_file(self, tmp_path, capsys):
        rc = self.normalize_with_rules(
            tmp_path, "fortnight\t5\ta fortnight\tDURATION\tfixed:P2W")
        assert rc == 0
        assert capsys.readouterr().out.strip() == "DURATION\tP2W"

    @pytest.mark.parametrize("row,message", [
        ("fortnight\tfive\ta fortnight\tDURATION\tfixed:P2W",
         "line 2: priority 'five' is not an integer"),
        ("fortnight\t5\ta (fortnight\tDURATION\tfixed:P2W",
         "line 2: bad pattern 'a (fortnight'"),
        # an override can neither replace nor shadow a built-in rule
        ("yesterday\t500\tyesterday\tDATE\tdeictic_day:-3",
         "duplicate rule id 'yesterday'"),
        ("fortnight\t5\ta fortnight\tDURATION\tbogus",
         "line 2: unknown value function 'bogus'"),
        ("fortnight\t5\ta fortnight\tDURATION\tfixed:P2W\n"
         "fortnight\t6\tfortnight\tDURATION\tfixed:P2W",
         "line 3: duplicate rule id 'fortnight'"),
    ])
    def test_bad_rule_file_exit_2(self, tmp_path, capsys, row, message):
        rc = self.normalize_with_rules(tmp_path, row)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"error: {tmp_path / 'rules.tsv'}: line " in captured.err
        assert message in captured.err

    def test_rule_file_not_utf8_exit_2(self, tmp_path, capsys):
        rc = self.normalize_with_rules(tmp_path, "x\t5\t\udcff\tDATE\tfixed:X")
        assert rc == 2 and "not UTF-8" in capsys.readouterr().err


class TestOutOfRangeDates:
    """Calendar arithmetic outside datetime's range means the rule does
    not apply: `normalize` prints NO_MATCH and `tag` drops the span."""

    @pytest.mark.parametrize("expr", [
        "9000 years later", "9000 years ago", "in 9000 years",
        "900 decades later", "99999999999 days later", "90000 months ago"])
    def test_normalize_no_match(self, capsys, expr):
        rc = main(["normalize", expr, "--dct", DCT])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "NO_MATCH"

    def test_tag_drops_the_expression(self, tmp_path, capsys):
        # no observation features; B -> I and I -> I favoured, so each
        # sentence is decoded as one span
        weights = np.zeros(9)
        for a in "BI":
            weights[3 * crf.LABEL_INDEX[a] + crf.LABEL_INDEX["I"]] = 5.0
        model_path = tmp_path / "spans.crf"
        crf.save_model(crf.CrfModel(
            {}, weights, digest=features.Featurizer("model1").digest),
            model_path)
        raw = tmp_path / "raw.txt"
        raw.write_text("9000 years later\nthree days ago\n",
                       encoding="utf-8")
        rc = main(["--no-pipeline", "tag", str(raw), str(model_path),
                   "--dct", DCT])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("<TIMEX3") == 1
        assert 'value="2013-04-08">three days ago</TIMEX3>' in out
        assert "9000 years later" in out


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, workdir, capsys):
        rc = main(["evaluate", str(workdir / "test.tsv"),
                   str(workdir / "test.tsv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strict_f1" in out and "100.00" in out

    def test_tsv_output(self, workdir, capsys):
        out_path = workdir / "report.tsv"
        rc = main(["evaluate", str(workdir / "test.tsv"),
                   str(workdir / "test.tsv"), "--output", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        assert "strict_f1\t1.0000" in out_path.read_text(encoding="utf-8")

    def test_empty_alignment_warning(self, workdir, tmp_path, capsys):
        """No predicted span aligns with a gold one: both accuracies read
        0 and a warning says why."""
        [gold] = corpus.read_corpus(workdir / "test.tsv")
        pred = corpus.with_labels(
            gold, [["O"] * len(seq) for seq in gold.sequences])
        corpus.write_corpus([pred], tmp_path / "pred.tsv")
        start, end = corpus.span_char_range(gold, corpus.doc_spans(gold)[0])
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text(f"{gold.id}\t{start}\t{end}\tDATE\t2013\n",
                         encoding="utf-8")
        rc = main(["evaluate", str(workdir / "test.tsv"),
                   str(tmp_path / "pred.tsv"), "--gold-attrs", str(attrs),
                   "--pred-attrs", str(attrs)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning: empty lenient alignment for attributes" \
            in captured.err
        table = dict(line.split() for line in captured.out.splitlines())
        assert table["type_accuracy"] == table["value_accuracy"] == "0.00"

    @pytest.mark.parametrize("given, missing", [
        ("--gold-attrs", "--pred-attrs"), ("--pred-attrs", "--gold-attrs")])
    def test_one_attribute_table_exit_2(self, workdir, tmp_path, capsys,
                                        given, missing):
        """Type and value accuracy compare two tables: one alone is an
        error, not a report without them."""
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("", encoding="utf-8")
        rc = main(["evaluate", str(workdir / "test.tsv"),
                   str(workdir / "test.tsv"), given, str(attrs),
                   "--output", str(tmp_path / "report.tsv")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"{given} needs {missing}" in captured.err
        assert not (tmp_path / "report.tsv").exists()

    def test_mismatched_doc_ids_exit_2(self, workdir, capsys):
        rc = main(["evaluate", str(workdir / "train.tsv"),
                   str(workdir / "test.tsv")])
        capsys.readouterr()
        assert rc == 2


class TestReaderErrors:
    """Malformed input files exit 2 with a message naming the file and
    the line, never a traceback."""

    def run(self, argv, capsys):
        rc = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:")
        assert "Traceback" not in err
        return err

    def test_priors_count_not_integer(self, workdir, tmp_path, capsys):
        priors = tmp_path / "bad.priors"
        priors.write_text("ago\t0\t3\t0\t3\ntok\t1\tx\t0\t2\n",
                          encoding="utf-8")
        err = self.run(["tag", workdir / "test.tsv", workdir / "model.crf",
                        "--priors", priors], capsys)
        assert f"{priors}: line 2:" in err and "not all integers" in err

    def test_priors_counts_negative(self, workdir, tmp_path, capsys):
        priors = tmp_path / "bad.priors"
        priors.write_text("tok\t1\t-4\t0\t2\n", encoding="utf-8")
        err = self.run(["tag", workdir / "test.tsv", workdir / "model.crf",
                        "--priors", priors], capsys)
        assert f"{priors}: line 1:" in err and "negative" in err

    @pytest.mark.parametrize("text,line,message", [
        ("monday\t3\t0\t1\t3\nmonday\t0\t0\t5\t5\n", 2,
         "token 'monday' is repeated"),
        ("friday\t3\t0\t1\t3\nFriday\t3\t0\t1\t3\n", 2,
         "token 'Friday' is not lower-case"),
        ("friday\t3\t0\t1\t3\n\t3\t0\t1\t3\n", 2, "token is empty"),
    ])
    def test_priors_key_unusable(self, workdir, tmp_path, capsys, text,
                                 line, message):
        """Of a repeated token only the last row would count, and an
        upper-case or empty one would never be looked up: the table is
        keyed by lower-cased surfaces, and no token is empty."""
        priors = tmp_path / "bad.priors"
        priors.write_text(text, encoding="utf-8")
        err = self.run(["tag", workdir / "test.tsv", workdir / "model.crf",
                        "--priors", priors], capsys)
        assert f"{priors}: line {line}:" in err and message in err

    def test_attrs_span_repeated(self, workdir, tmp_path, capsys):
        attrs = tmp_path / "bad.attrs"
        attrs.write_text("synthetic-test\t0\t5\tDATE\t2013\n"
                         "synthetic-test\t0\t5\tDATE\t2014\n",
                         encoding="utf-8")
        err = self.run(["evaluate", workdir / "test.tsv",
                        workdir / "test.tsv", "--gold-attrs", attrs,
                        "--pred-attrs", attrs], capsys)
        assert f"{attrs}: line 2:" in err and "is repeated" in err

    def test_attrs_offset_not_integer(self, workdir, tmp_path, capsys):
        attrs = tmp_path / "bad.attrs"
        attrs.write_text("synthetic-test\tx\t5\tDATE\t2013\n",
                         encoding="utf-8")
        err = self.run(["evaluate", workdir / "test.tsv",
                        workdir / "test.tsv", "--gold-attrs", attrs,
                        "--pred-attrs", attrs], capsys)
        assert f"{attrs}: line 1:" in err and "not integers" in err

    def test_corpus_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"#doc d 2013-04-11\n\xff\t0\t1\t_\t_\t_\t_\tO\n")
        err = self.run(["priors", path, tmp_path / "out.priors"], capsys)
        assert f"{path}: not UTF-8" in err

    def test_priors_not_utf8(self, workdir, tmp_path, capsys):
        priors = tmp_path / "bad.priors"
        priors.write_bytes(b"\xfftok\t1\t1\t0\t2\n")
        err = self.run(["tag", workdir / "test.tsv", workdir / "model.crf",
                        "--priors", priors], capsys)
        assert f"{priors}: not UTF-8" in err

    def test_corpus_error_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("#doc d 2013-04-11\nx\t0\tone\t_\t_\t_\t_\tO\n",
                        encoding="utf-8")
        err = self.run(["priors", path, tmp_path / "out.priors"], capsys)
        assert f"{path}: line 2:" in err

    def test_corpus_token_gap_bounded(self, tmp_path, capsys):
        """A token may start at most `corpus.MAX_TOKEN_GAP` characters
        after the previous token of its document ends (after offset 0,
        for the first), within a sentence or across one."""
        gap = corpus.MAX_TOKEN_GAP

        def write(second_start):
            path = tmp_path / "gap.tsv"
            path.write_text(
                f"#doc d1 2013-04-11\n"
                f"x\t{gap}\t{gap + 1}\t_\t_\t_\t_\tO\n\n"
                f"y\t{second_start}\t{second_start + 1}\t_\t_\t_\t_\tO\n"
                f"#doc d2 2013-04-12\n"
                f"z\t{gap}\t{gap + 1}\t_\t_\t_\t_\tO\n",
                encoding="utf-8")
            return path

        path = write(2 * gap + 1)
        assert main(["priors", str(path), str(tmp_path / "out.priors")]) \
            == 0
        capsys.readouterr()
        path = write(2 * gap + 2)
        err = self.run(["priors", path, tmp_path / "out.priors"], capsys)
        assert f"{path}: line 4:" in err
        assert f"{gap + 1} characters after" in err

    def test_percent_in_config_value(self, tmp_path, capsys):
        """A % is a plain character: a rule file under a directory named
        with one is found and used."""
        rules_dir = tmp_path / "100%"
        rules_dir.mkdir()
        rules = rules_dir / "rules.tsv"
        rules.write_text("fortnight\t5\ta fortnight\tDURATION\tfixed:P2W\n",
                         encoding="utf-8")
        config = tmp_path / "run.ini"
        config.write_text(f"[paths]\nrules = {rules}\n", encoding="utf-8")
        rc = main(["--config", str(config), "normalize", "a fortnight",
                   "--dct", DCT])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "DURATION\tP2W"

    @pytest.mark.parametrize("fn", ["fixed", "offset:+", "date_mdy",
                                    "deictic_day:x", "freq"])
    def test_rule_that_cannot_compute_exit_2(self, tmp_path, capsys, fn):
        """An override whose value function does not fit its pattern or
        arguments is named when it matches."""
        rules = tmp_path / "rules.tsv"
        rules.write_text(f"fortnight\t5\ta fortnight\tDURATION\t{fn}\n",
                         encoding="utf-8")
        config = tmp_path / "run.ini"
        config.write_text(f"[paths]\nrules = {rules}\n", encoding="utf-8")
        err = self.run(["--config", config, "normalize", "a fortnight",
                        "--dct", DCT], capsys)
        assert "rule fortnight on 'a fortnight'" in err


def write_lexicons_without(root, word: str):
    """A copy of the bundled lexicons with `word` taken out of the
    weekday list."""
    lexicons = root / "lexicons"
    shutil.copytree(features.DATA_DIR / "lexicons", lexicons)
    path = lexicons / "weekdays.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(l for l in lines if l != word) + "\n",
                    encoding="utf-8")
    return lexicons


def write_gazetteers_plus(root, phrase: str):
    """A copy of the bundled gazetteers with `phrase` added to one."""
    gazetteers = root / "gazetteers"
    shutil.copytree(features.DATA_DIR / "gazetteers", gazetteers)
    with open(gazetteers / "us_cities.txt", "a", encoding="utf-8") as f:
        f.write(f"\n{phrase}\n")
    return gazetteers


class TestFeatureContract:
    """A model records the digest of the word lists it was trained
    with; `tag` under other lexicons, or other gazetteers for a profile
    that reads them, exits 2 naming both digests and the directories."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        docs = [replace(build_corpus(n_sentences=6, seed=s), id=f"d{s}")
                for s in (1, 2, 3)]
        corpus.write_corpus(docs, root / "corpus.tsv")
        return root

    def ini(self, path, text):
        path.write_text("[crf]\nmax_iter = 5\n" + text, encoding="utf-8")
        return str(path)

    def tag(self, root, model, *config):
        return main([*config, "tag", str(root / "corpus.tsv"), str(model),
                     "--output", str(model) + ".out"])

    def test_lexicon_mismatch_exit_2(self, small, tmp_path, capsys):
        lexicons = write_lexicons_without(tmp_path, "monday")
        ini = self.ini(tmp_path / "lex.ini",
                       f"[paths]\nlexicons = {lexicons}\n")
        model = tmp_path / "lex.crf"
        assert main(["--config", ini, "train", str(small / "corpus.tsv"),
                     str(model)]) == 0
        assert self.tag(small, model, "--config", ini) == 0
        capsys.readouterr()
        assert self.tag(small, model) == 2
        err = capsys.readouterr().err
        trained = features.Featurizer("model1", lexicons).digest
        assert trained in err and features.Featurizer("model1").digest in err
        assert str(features.DATA_DIR / "lexicons") in err

    def test_model3_gazetteer_mismatch_exit_2(self, small, tmp_path,
                                              capsys):
        model = tmp_path / "gaz.crf"
        assert main(["--config", self.ini(tmp_path / "m3.ini",
                                          "profile = model3\n"),
                     "train", str(small / "corpus.tsv"), str(model)]) == 0
        assert self.tag(small, model) == 0
        gazetteers = write_gazetteers_plus(tmp_path, "three days")
        ini = self.ini(tmp_path / "gaz.ini",
                       f"[paths]\ngazetteers = {gazetteers}\n")
        capsys.readouterr()
        assert self.tag(small, model, "--config", ini) == 2
        err = capsys.readouterr().err
        assert features.Featurizer("model3").digest in err
        assert str(gazetteers) in err

    def test_model1_ignores_gazetteers(self, workdir, tmp_path, capsys):
        gazetteers = write_gazetteers_plus(tmp_path, "three days")
        ini = self.ini(tmp_path / "gaz.ini",
                       f"[paths]\ngazetteers = {gazetteers}\n")
        assert main(["--config", ini, "tag", str(workdir / "test.tsv"),
                     str(workdir / "model.crf"), "--output",
                     str(tmp_path / "out.txt")]) == 0

    @pytest.mark.parametrize("command", ["train", "tag", "cv"])
    def test_model3_reads_each_list_once(self, small, tmp_path, monkeypatch,
                                         capsys, command):
        """Under model3, every lexicon and gazetteer file is read once per
        command, however many documents, sentences and folds it has."""
        ini = self.ini(tmp_path / "m3.ini", "profile = model3\n")
        model = tmp_path / "m3.crf"
        assert main(["--config", ini, "train", str(small / "corpus.tsv"),
                     str(model)]) == 0
        reads = Counter()
        original = features.load_wordlist

        def counting(path):
            reads[str(path)] += 1
            return original(path)

        monkeypatch.setattr(features, "load_wordlist", counting)
        argv = {"train": ["train", str(small / "corpus.tsv"), str(model)],
                "tag": ["tag", str(small / "corpus.tsv"), str(model),
                        "--output", str(tmp_path / "out.txt")],
                "cv": ["cv", str(small / "corpus.tsv"), "--k", "2",
                       "--repeats", "1", "--output",
                       str(tmp_path / "cv.txt")]}[command]
        assert main(["--config", ini, *argv]) == 0
        expected = {str(p) for kind in ("lexicons", "gazetteers")
                    for p in (features.DATA_DIR / kind).glob("*.txt")}
        assert set(reads) == expected
        assert set(reads.values()) == {1}

    def test_rule_overrides_read_once_per_tag(self, small, tmp_path,
                                              monkeypatch, capsys):
        rules = tmp_path / "rules.tsv"
        rules.write_text(
            "fortnight\t5\ta fortnight\tDURATION\tfixed:P2W\n",
            encoding="utf-8")
        ini = self.ini(tmp_path / "rules.ini",
                       f"[paths]\nrules = {rules}\n")
        model = tmp_path / "m1.crf"
        assert main(["--config", ini, "train", str(small / "corpus.tsv"),
                     str(model)]) == 0
        calls = []
        original = normalizer.load_rule_overrides

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(normalizer, "load_rule_overrides", counting)
        assert len(corpus.read_corpus(small / "corpus.tsv")) == 3
        assert self.tag(small, model, "--config", ini) == 0
        assert calls == [str(rules)]


def one_token_doc(doc_id: str, words) -> corpus.Document:
    """A document of one-token sentences."""
    return corpus.assemble_document(
        doc_id, datetime.date(2013, 4, 11), corpus.pack_sequences(
            corpus.Sequence(tuple(corpus.tokenize(w))) for w in words))


class TestTagBatches:
    """`tag` decodes consecutive documents in batches of about
    `pipeline.BATCH_TOKENS` tokens, a larger document alone; what it
    writes does not depend on how the documents are batched."""

    @pytest.fixture(scope="class")
    def batch_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("batches")
        big = replace(build_corpus(n_sentences=90, seed=21), id="big")
        assert sum(map(len, big.sequences)) > pipeline.BATCH_TOKENS
        docs = [replace(build_corpus(n_sentences=4, seed=22), id="d22"),
                one_token_doc("short", ["Yesterday", "Today", "."]),
                big,
                replace(build_corpus(n_sentences=12, seed=23), id="d23"),
                one_token_doc("single", ["Tomorrow"]),
                replace(build_corpus(n_sentences=30, seed=24), id="d24")]
        corpus.write_corpus(docs, root / "docs.tsv")
        return root / "docs.tsv", docs

    def tag(self, workdir, path, flags, out_path):
        argv = [f for f in flags if f == "--no-pipeline"] + [
            "tag", str(path), str(workdir / "model.crf"), "--output",
            str(out_path)] + [f for f in flags if f == "--no-normalize"]
        assert main(argv) == 0
        return out_path.read_bytes()

    @pytest.mark.parametrize("flags", [(), ("--no-pipeline",),
                                       ("--no-normalize",)])
    def test_output_does_not_depend_on_batch_size(
            self, workdir, batch_corpus, tmp_path, monkeypatch, flags):
        path, docs = batch_corpus
        calls = []
        original = features.featurize_sequence

        def counting(seqs, featurizer, *vocabulary):
            calls.append(len(seqs))
            return original(seqs, featurizer, *vocabulary)

        monkeypatch.setattr(features, "featurize_sequence", counting)
        outputs, batches = [], []
        for budget in (pipeline.BATCH_TOKENS, 1, 10 ** 9):
            monkeypatch.setattr(pipeline, "BATCH_TOKENS", budget)
            calls.clear()
            outputs.append(self.tag(workdir, path, flags,
                                    tmp_path / f"{budget}.out"))
            batches.append(len(calls))
            assert sum(calls) == sum(len(d.sequences) for d in docs)
        assert outputs[0] == outputs[1] == outputs[2]
        # the default: the two small documents, `big` alone, the rest
        assert batches == [3, len(docs), 1]

    def test_a_large_document_is_a_batch_by_itself(self, batch_corpus,
                                                  monkeypatch):
        _, docs = batch_corpus
        sizes = [sum(map(len, d.sequences)) for d in docs]
        monkeypatch.setattr(pipeline, "BATCH_TOKENS", sizes[3] + sizes[4])
        assert [[d.id for d in batch]
                for batch in pipeline.document_batches(docs)] == [
            ["d22", "short"], ["big"], ["d23", "single"], ["d24"]]
        assert list(pipeline.document_batches([])) == []

    def test_batched_decoding_is_bitwise_per_document(self, workdir,
                                                      batch_corpus):
        """Marginals, logZ and Viterbi paths of each sequence are the
        same bits whether its document is decoded alone or in a batch."""
        _, docs = batch_corpus
        model = crf.load_model(workdir / "model.crf")
        featurizer = RunConfig().featurizer(model.profile)
        table = features.featurize_sequence(
            [seq for doc in docs for seq in doc.sequences], featurizer)
        batched = crf.forward_backward(model, table)
        paths = crf.viterbi(model, table)
        alone, alone_paths = [], []
        for doc in docs:
            doc_table = features.featurize_sequence(doc.sequences,
                                                    featurizer)
            alone += crf.forward_backward(model, doc_table)
            alone_paths += crf.viterbi(model, doc_table)
        assert len(batched) == len(alone) == len(table.lengths)
        for a, b in zip(batched, alone):
            assert a.probs.tobytes() == b.probs.tobytes()
            assert np.float64(a.log_z).tobytes() == \
                np.float64(b.log_z).tobytes()
        assert paths == alone_paths

    @pytest.mark.parametrize("flags", [(), ("--no-pipeline",)])
    def test_tag_builds_no_observation_key(self, workdir, batch_corpus,
                                           tmp_path, monkeypatch, flags):
        """On an input of a token per `pipeline.KEYS_PER_TOKEN` of the
        model's keys, `tag` expands under the model's vocabulary, never
        through the step that builds key strings, and writes what that
        path wrote."""
        path, docs = batch_corpus
        model = crf.load_model(workdir / "model.crf")
        assert (sum(len(s) for d in docs for s in d.sequences)
                * pipeline.KEYS_PER_TOKEN >= model.n_obs)
        original = features.expand_templates

        def with_strings(*args):
            return original(*args[:6])  # no vocabulary: key strings

        monkeypatch.setattr(features, "expand_templates", with_strings)
        expected = self.tag(workdir, path, flags, tmp_path / "strings.out")
        monkeypatch.setattr(features, "expand_templates", original)

        def refuse(values):
            raise AssertionError("tag built observation keys")

        monkeypatch.setattr(features, "_distinct_per_row", refuse)
        assert self.tag(workdir, path, flags, tmp_path / "ids.out") == \
            expected

    def test_short_input_takes_the_string_path(self, workdir, batch_corpus,
                                               tmp_path, monkeypatch):
        """One vocabulary serves every batch of an input of a token per
        `pipeline.KEYS_PER_TOKEN` keys; a shorter input never takes the
        model's keys apart."""
        n_obs = crf.load_model(workdir / "model.crf").n_obs
        built, passed = [], []
        vocabulary = features.Featurizer.vocabulary
        featurize = features.featurize_sequence
        monkeypatch.setattr(features.Featurizer, "vocabulary",
                            lambda self, keys: built.append(keys) or
                            vocabulary(self, keys))
        monkeypatch.setattr(features, "featurize_sequence",
                            lambda seqs, featurizer, *vocab: passed.append(
                                (sum(map(len, seqs)), *vocab)) or
                            featurize(seqs, featurizer, *vocab))
        self.tag(workdir, batch_corpus[0], (), tmp_path / "long")
        assert len(built) == 1 and len(built[0]) == n_obs
        first = passed[0][1]
        assert len(passed) > 1 and first is not None
        assert all(v is first for _, v in passed)

        built.clear()
        passed.clear()
        self.tag(workdir, workdir / "test.tsv", (), tmp_path / "short")
        assert passed[0][0] * pipeline.KEYS_PER_TOKEN < n_obs
        assert built == [] and passed == [(passed[0][0], None)]


def log_line(path: Path, line: str) -> None:
    """Append a line to a file, from this process or a forked cv worker:
    counts kept in a list would miss the folds run in a worker."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")


class TestCrossValidation:
    def test_deterministic_and_complete(self, workdir, capsys):
        argv = ["--config", str(workdir / "run.ini"), "--seed", "490",
                "cv", str(workdir / "train.tsv"), "--k", "2",
                "--repeats", "1"]
        outputs = []
        for i in range(2):
            out_path = workdir / f"cv{i}.tsv"
            rc = main(argv + ["--output", str(out_path)])
            assert rc == 0
            outputs.append(out_path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        text = outputs[0].decode()
        assert text.count("pipeline_on\t") == 2
        assert text.count("pipeline_off\t") == 2
        assert "#paired_t\t" in text

    def run_cv(self, workdir, out_path):
        rc = main(["--config", str(workdir / "run.ini"), "--seed", "490",
                   "cv", str(workdir / "train.tsv"), "--k", "2",
                   "--repeats", "2", "--output", str(out_path)])
        assert rc == 0
        return out_path.read_text(encoding="utf-8")

    def test_trains_each_fold_once(self, workdir, tmp_path, monkeypatch,
                                   capsys):
        log = tmp_path / "calls"
        original = crf.train

        def counting_train(*args, **kwargs):
            log_line(log, "train")
            return original(*args, **kwargs)

        monkeypatch.setattr(crf, "train", counting_train)
        self.run_cv(workdir, workdir / "cv_once.tsv")
        # k x repeats, shared by both conditions
        assert len(log.read_text().splitlines()) == 2 * 2

    def test_featurizes_each_sentence_once_per_command(self, workdir,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        """One `cv` command featurizes each labeled sentence once, in one
        table: every fold trains and tags on slices of it."""
        log = tmp_path / "calls"
        original = features.featurize_sequence

        def counting(seqs, featurizer, *vocabulary):
            log_line(log, str(len(seqs)))
            return original(seqs, featurizer, *vocabulary)

        monkeypatch.setattr(features, "featurize_sequence", counting)
        self.run_cv(workdir, workdir / "cv_featurized.tsv")
        n_sentences = len(corpus.read_corpus(workdir / "train.tsv")[0]
                          .sequences)
        assert n_sentences == 45
        assert log.read_text().splitlines() == [str(n_sentences)]

    def test_unlabeled_sentence_changes_nothing(self, workdir, tmp_path,
                                                capsys):
        """A sentence without gold labels takes no part in any fold: `cv`
        prints the same bytes with it as without it."""
        doc = corpus.read_corpus(workdir / "train.tsv")[0]
        # a copy of a sentence holding an expression, which as "all O"
        # would change the training data
        seqs = list(doc.sequences)
        tokens = next(s.tokens for s in seqs if "B" in s.gold_labels)
        seqs.insert(7, corpus.Sequence(tokens, None))
        corpus.write_corpus([corpus.assemble_document(
            doc.id, doc.dct, corpus.pack_sequences(seqs))],
            tmp_path / "mixed.tsv")
        mixed = corpus.read_corpus(tmp_path / "mixed.tsv")[0].sequences
        assert [s.gold_labels is None for s in mixed].count(True) == 1
        outputs = []
        for path in (workdir / "train.tsv", tmp_path / "mixed.tsv"):
            out_path = tmp_path / f"cv{len(outputs)}.tsv"
            rc = main(["--config", str(workdir / "run.ini"), "--seed", "490",
                       "cv", str(path), "--k", "2", "--repeats", "2",
                       "--output", str(out_path)])
            assert rc == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_same_output_as_training_per_condition(self, workdir, capsys):
        """One training per fold gives the same file as training the fold
        again for each condition."""
        got = self.run_cv(workdir, workdir / "cv_shared.tsv")
        config = load_config(workdir / "run.ini")
        docs = corpus.read_corpus(workdir / "train.tsv")
        items = [seq for doc in docs for seq in doc.sequences]

        def fold_doc(seqs):
            return corpus.assemble_document("cv", docs[0].dct,
                                            corpus.pack_sequences(seqs))

        lines = ["condition\trepeat\tfold\tstrict_f1"]
        per_condition = {}
        for name, enabled in (("pipeline_on", True), ("pipeline_off", False)):
            cfg = replace(config, pipeline_enabled=enabled)

            def fold_fn(train_items, test_items):
                featurizer = cfg.featurizer(cfg.profile)
                model = pipeline.train_on_sequences(train_items, cfg,
                                                    featurizer)
                priors = (postproc.build_prior_table(train_items)
                          if enabled else None)
                test_doc = fold_doc(test_items)
                labels = pipeline.label_document(test_doc, model, featurizer,
                                                 cfg, priors)
                return pipeline.spans_f1([test_doc], [labels], "strict")

            results = evaluation.cross_validate(items, fold_fn, k=2,
                                                repeats=2, seed=490)
            per_condition[name] = [f1 for _, _, f1 in results]
            lines += [f"{name}\t{rep}\t{fold}\t{f1:.6f}"
                      for rep, fold, f1 in results]
        test = evaluation.paired_t_test(per_condition["pipeline_on"],
                                        per_condition["pipeline_off"])
        lines.append(f"#paired_t\t{test['t']}\t{test['p_two_sided']}"
                     f"\t{test['degenerate']}")
        assert got == "\n".join(lines) + "\n"

    def test_pipeline_off_config_compares_nothing(self, workdir, tmp_path,
                                                  capsys):
        """Under a config that turns the pipeline off, cv reports the
        off condition alone, as --no-pipeline does."""
        ini = tmp_path / "off.ini"
        ini.write_text((workdir / "run.ini").read_text(encoding="utf-8")
                       + "[pipeline]\nenabled = false\n", encoding="utf-8")
        outputs = []
        for config, flags in ((ini, []), (workdir / "run.ini",
                                          ["--no-pipeline"])):
            out_path = tmp_path / f"cv{len(outputs)}.tsv"
            rc = main(["--config", str(config), *flags, "--seed", "490",
                       "cv", str(workdir / "train.tsv"), "--k", "2",
                       "--repeats", "1", "--output", str(out_path)])
            assert rc == 0
            outputs.append(out_path.read_bytes())
        text = outputs[0].decode()
        assert text.count("pipeline_off\t") == 2
        assert "pipeline_on" not in text and "#paired_t" not in text
        assert outputs[0] == outputs[1]

    def cv_on_cpus(self, workdir, monkeypatch, n_cpus, out_path, flags=()):
        """`tempex cv` as run by a process that may use `n_cpus` CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)), raising=False)
        return main(["--config", str(workdir / "run.ini"), *flags,
                     "--seed", "490", "cv", str(workdir / "train.tsv"),
                     "--k", "2", "--repeats", "2", "--output",
                     str(out_path)])

    @pytest.mark.parametrize("flags", [(), ("--no-pipeline",)])
    def test_output_does_not_depend_on_cpus(self, workdir, tmp_path,
                                            monkeypatch, capsys, flags):
        outputs = []
        for n_cpus in (1, 2, 3):
            out_path = tmp_path / f"cv{n_cpus}.tsv"
            assert self.cv_on_cpus(workdir, monkeypatch, n_cpus, out_path,
                                   flags) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_leaves_no_process(self, workdir, tmp_path, monkeypatch,
                               capsys):
        assert self.cv_on_cpus(workdir, monkeypatch, 2,
                               tmp_path / "cv.tsv") == 0
        assert_no_child_process()

    def test_fold_error_in_a_worker_exit_2(self, workdir, tmp_path,
                                           monkeypatch, capsys):
        """A fold that raises in a forked worker exits 2 with the message
        of the one-CPU run."""
        items = corpus.read_corpus(workdir / "train.tsv")[0].sequences
        # the first fold tests this sentence; the second trains on it, so
        # the second fold, the first of the worker's share, fails first
        tested_first = evaluation.cross_validate(
            items, lambda train, test: test, k=2, repeats=2,
            seed=490)[0][2][0]
        log = tmp_path / "pids"
        original = pipeline.train_on_sequences

        def failing(train_items, *args):
            if tested_first in train_items:
                log_line(log, str(os.getpid()))
                raise crf.CrfError(
                    f"cannot train on {len(train_items)} sentences")
            return original(train_items, *args)

        monkeypatch.setattr(pipeline, "train_on_sequences", failing)
        errors, raised_in = [], []
        for n_cpus in (1, 2):
            rc = self.cv_on_cpus(workdir, monkeypatch, n_cpus,
                                 tmp_path / f"cv{n_cpus}.tsv")
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            errors.append(captured.err)
            raised_in.append(set(log.read_text().split()))
            log.unlink()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: cannot train on")
        assert raised_in[0] == {str(os.getpid())}
        assert raised_in[1] - raised_in[0]  # a worker raised too
        assert_no_child_process()

    def test_killed_worker_exit_2(self, workdir, tmp_path, monkeypatch,
                                  capsys):
        """A forked worker that dies exits 2 with its exit status, writes
        no output and leaves no process."""
        parent = os.getpid()
        original = pipeline.train_on_sequences

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(pipeline, "train_on_sequences", dying)
        out_path = tmp_path / "cv.tsv"
        rc = self.cv_on_cpus(workdir, monkeypatch, 2, out_path)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            "error: a cross-validation worker exited with status 3 "
            "without reporting\n")
        assert not out_path.exists()
        assert_no_child_process()

    @pytest.mark.parametrize("flags", [(), ("--no-pipeline",)])
    def test_no_repeats_exit_2(self, workdir, tmp_path, capsys, flags):
        rc = main([*flags, "cv", str(workdir / "train.tsv"), "--k", "2",
                   "--repeats", "0", "--output", str(tmp_path / "cv.tsv")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "repeats must be >= 1, got 0" in captured.err
        assert not (tmp_path / "cv.tsv").exists()

    def test_k_larger_than_corpus_exit_2(self, workdir, tmp_path, capsys):
        """The corpus-size rule is `evaluation.cross_validate`'s: its
        message names k and the sentence count, before anything is
        trained, written or forked."""
        n_sentences = len(corpus.read_corpus(workdir / "test.tsv")[0]
                          .sequences)
        rc = main(["cv", str(workdir / "test.tsv"), "--k", "999",
                   "--output", str(tmp_path / "cv.tsv")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert (f"k=999 exceeds corpus size {n_sentences}"
                in captured.err)
        assert not (tmp_path / "cv.tsv").exists()
        assert_no_child_process()


class TestPriors:
    def test_build_and_report(self, workdir, capsys):
        out_path = workdir / "p.tsv"
        rc = main(["priors", str(workdir / "train.tsv"), str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out_path.exists()
        assert "tokens ->" in out


class TestRules:
    def test_dump(self, capsys):
        rc = main(["rules", "dump"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "yesterday" in out and len(out.splitlines()) >= 30

    def test_dump_lists_the_configured_overrides(self, tmp_path, capsys):
        """`rules dump` prints the rules `tag` and `normalize` use."""
        rules = tmp_path / "rules.tsv"
        row = "fortnight\t5\ta fortnight\tDURATION\tfixed:P2W"
        rules.write_text(row + "\n", encoding="utf-8")
        ini = tmp_path / "rules.ini"
        ini.write_text(f"[paths]\nrules = {rules}\n", encoding="utf-8")
        assert main(["rules", "dump"]) == 0
        builtin = capsys.readouterr().out.splitlines()
        assert main(["--config", str(ini), "rules", "dump"]) == 0
        dumped = capsys.readouterr().out.splitlines()
        assert sorted(dumped) == sorted(builtin + [row])
        assert dumped.index(row) < dumped.index(builtin[0])


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.threshold == 0.87 and config.seed == 490

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[crf]\nprofile = model2\nC = 2.5\n"
            "[pipeline]\nenabled = false\nthreshold = 0.5\n"
            "[run]\nseed = 7\n", encoding="utf-8")
        config = load_config(path)
        assert config.profile == "model2"
        assert config.c == 2.5
        assert not config.pipeline_enabled
        assert config.threshold == 0.5
        assert config.seed == 7

    @pytest.mark.parametrize("text,key", [
        ("[pipeline]\nenable = false\n", "[pipeline] enable"),
        ("[pipeline]\ntreshold = 0.5\n", "[pipeline] treshold"),
        ("[crf]\nprofle = model2\n", "[crf] profle"),
        ("[pipline]\nenabled = false\n", "[pipline] enabled"),
        ("[DEFAULT]\nseed = 7\n", "[DEFAULT] seed"),
        ("[pipeline]\nstages = bio_fixer\n", "[pipeline] stages"),
    ])
    def test_unknown_key_exit_2(self, tmp_path, capsys, text, key):
        path = tmp_path / "typo.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["--config", str(path), "rules", "dump"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"unknown key {key}" in captured.err

    @pytest.mark.parametrize("text,value", [
        ("[pipeline]\nenabled = ture\n", "'ture'"),
        ("[normalizer]\nmonth_first = flase\n", "'flase'"),
    ])
    def test_misspelled_boolean_exit_2(self, tmp_path, capsys, text, value):
        path = tmp_path / "typo.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["--config", str(path), "rules", "dump"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"{value} is not a boolean" in captured.err

    def test_docstring_example_sets_every_key(self):
        """The example in `tempex.config`'s docstring sets exactly the
        keys a config file may set."""
        example = tempex.config.__doc__.split("Example:", 1)[1]
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(textwrap.dedent(example))
        assert {(section, key) for section in parser.sections()
                for key in parser[section]} == set(tempex.config.KEYS)

    @pytest.mark.parametrize("run", range(1, 7))
    def test_shipped_configs_load(self, run):
        path = Path(__file__).resolve().parents[1] / "configs" / \
            f"run{run}.ini"
        config = load_config(path)
        assert config.pipeline_enabled == (run % 2 == 0)
        assert replace(config, pipeline_enabled=True) == RunConfig()

    def test_unknown_profile_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[crf]\nprofile = model9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="profile"):
            load_config(path)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            RunConfig(threshold=1.2)

    @pytest.mark.parametrize("text,message", [
        ("[pipeline]\nthreshold = 1.5\n", "threshold 1.5 outside"),
    ])
    def test_bad_pipeline_setting_exit_2(self, tmp_path, capsys, text,
                                         message):
        path = tmp_path / "bad.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["--config", str(path), "normalize", "today",
                   "--dct", DCT])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("value,expected", [
        ("bogus", None), ("last", "DATE\t2013-04-08"),
        ("next", "DATE\t2013-04-15"), ("nearest-future", "DATE\t2013-04-15")])
    def test_bare_weekday_checked(self, tmp_path, capsys, value, expected):
        path = tmp_path / "bw.ini"
        path.write_text(f"[normalizer]\nbare_weekday = {value}\n",
                        encoding="utf-8")
        rc = main(["--config", str(path), "normalize", "monday",
                   "--dct", DCT])
        captured = capsys.readouterr()
        if expected is None:
            assert rc == 2 and captured.out == ""
            assert "unknown bare_weekday 'bogus'" in captured.err
        else:
            assert rc == 0 and captured.out.strip() == expected

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError, match="priors_path"):
            RunConfig(priors_path="/does/not/exist.tsv")

    def test_missing_config_file_exit_2(self, capsys):
        rc = main(["--config", "/does/not/exist.ini", "rules", "dump"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "profile = model1\n",                          # no section header
        "[crf]\nprofile = model1\nprofile = model2\n",  # duplicate key
    ])
    def test_unparsable_config_file_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["--config", str(path), "rules", "dump"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: bad config file")

    def test_cli_threshold_override(self, workdir):
        parser = build_parser()
        args = parser.parse_args(["--threshold", "0.5", "rules", "dump"])
        assert args.threshold == 0.5
