import datetime
from dataclasses import replace

import pytest

from tempex import corpus, crf, evaluation, pipeline, postproc
from tempex.cli import _sequences_as_doc, build_parser, main
from tempex.config import ConfigError, RunConfig, load_config

from synth import build_corpus, split_corpus

DCT = "2013-04-11"


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

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nope.tsv"),
                   str(tmp_path / "m.crf")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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

    def test_missing_model_exit_2(self, workdir, capsys):
        rc = main(["tag", str(workdir / "test.tsv"),
                   str(workdir / "absent.crf")])
        assert rc == 2
        capsys.readouterr()


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

    def test_mismatched_doc_ids_exit_2(self, workdir, capsys):
        rc = main(["evaluate", str(workdir / "train.tsv"),
                   str(workdir / "test.tsv")])
        capsys.readouterr()
        assert rc == 2


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

    def test_trains_each_fold_once(self, workdir, monkeypatch, capsys):
        calls = []
        original = crf.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(crf, "train", counting_train)
        self.run_cv(workdir, workdir / "cv_once.tsv")
        assert len(calls) == 2 * 2  # k x repeats, shared by both conditions

    def test_same_output_as_training_per_condition(self, workdir, capsys):
        """One training per fold gives the same file as training the fold
        again for each condition."""
        got = self.run_cv(workdir, workdir / "cv_shared.tsv")
        config = load_config(workdir / "run.ini")
        docs = corpus.read_corpus(workdir / "train.tsv")
        items = [(doc.dct, seq) for doc in docs for seq in doc.sequences]
        lines = ["condition\trepeat\tfold\tstrict_f1"]
        per_condition = {}
        for name, enabled in (("pipeline_on", True), ("pipeline_off", False)):
            cfg = replace(config, pipeline_enabled=enabled)

            def fold_fn(train_items, test_items):
                model = pipeline.train_on_sequences(
                    [seq for _, seq in train_items], cfg)
                priors = (postproc.build_prior_table(
                    _sequences_as_doc(train_items)) if enabled else None)
                test_doc = _sequences_as_doc(test_items)[0]
                labels = pipeline.label_document(test_doc, model, cfg,
                                                 priors)
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

    def test_k_larger_than_corpus_exit_2(self, workdir, capsys):
        rc = main(["cv", str(workdir / "test.tsv"), "--k", "999"])
        capsys.readouterr()
        assert rc == 2


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


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.threshold == 0.87 and config.seed == 490
        assert config.stages == ("prob_correction", "bio_fixer",
                                 "threshold_switcher", "bio_fixer")

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

    def test_unknown_profile_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[crf]\nprofile = model9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="profile"):
            load_config(path)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            RunConfig(threshold=1.2)

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError, match="priors_path"):
            RunConfig(priors_path="/does/not/exist.tsv")

    def test_missing_config_file_exit_2(self, capsys):
        rc = main(["--config", "/does/not/exist.ini", "rules", "dump"])
        capsys.readouterr()
        assert rc == 2

    def test_cli_threshold_override(self, workdir):
        parser = build_parser()
        args = parser.parse_args(["--threshold", "0.5", "rules", "dump"])
        assert args.threshold == 0.5
