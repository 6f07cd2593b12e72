"""Command-line surface: train, tag, normalize, evaluate, cv, priors,
rules.

Exit codes: 0 success, 1 empty-result warnings escalated under --strict,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from datetime import date
from pathlib import Path

from . import (corpus, crf, evaluation, features, normalizer, pipeline,
               postproc)
from .config import ConfigError, RunConfig, configured_profile, load_config
from .corpus import CorpusError


class CliError(Exception):
    pass


def _parse_dct_arg(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise CliError(f"bad --dct value {value!r}: expected YYYY-MM-DD"
                       ) from exc


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "profile", None):
        overrides["profile"] = args.profile
    if getattr(args, "threshold", None) is not None:
        overrides["threshold"] = args.threshold
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "no_pipeline", False):
        overrides["pipeline_enabled"] = False
    if getattr(args, "fallback", False):
        overrides["fallback"] = True
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


def _write_output(text: str, output) -> None:
    """The one sink of `tag` and `cv`: the whole text, written once when
    the command has succeeded, to the `--output` file or else to
    standard output."""
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_train(args) -> int:
    config = _load_run_config(args)
    corpus_sha256 = hashlib.sha256(Path(args.corpus).read_bytes()).hexdigest()
    docs = corpus.read_corpus(args.corpus)
    model, priors = pipeline.train_on_docs(docs, config)
    model.training_log["corpus_sha256"] = corpus_sha256
    crf.save_model(model, args.model)
    priors_path = args.priors or str(Path(args.model).with_suffix(".priors"))
    priors.save(priors_path)
    log = model.training_log
    print(f"profile: {config.profile}")
    print(f"features: {log['n_features']}")
    print(f"columns: {log['n_columns']}")
    print(f"iterations: {log['iterations']}")
    print(f"converged: {'yes' if log['converged'] else 'no'} "
          f"({log['message']})")
    print(f"final objective: {log['final_objective']:.6f}")
    print(f"model: {args.model}")
    print(f"priors: {priors_path}")
    return 0


def _read_input_docs(args, config) -> list[corpus.Document]:
    text = corpus.read_text(args.input)
    if text.startswith("#doc"):
        return corpus.read_corpus(args.input)
    if not args.dct:
        raise CliError("raw text needs --dct, the date it is anchored to")
    dct = _parse_dct_arg(args.dct)
    sequences = []
    for offset, sentence in corpus.sentence_split(text):
        tokens = corpus.tokenize(sentence, offset)
        if tokens:
            sequences.append(corpus.Sequence(tuple(tokens)))
    doc_id = Path(args.input).stem or "doc1"
    return [corpus.Document(doc_id, dct, tuple(sequences), text)]


def cmd_tag(args) -> int:
    config = _load_run_config(args)
    model = crf.load_model(args.model)
    requested = args.profile or (configured_profile(args.config)
                                 if args.config else None)
    if requested and requested != model.profile:
        raise CliError(
            f"model was trained with profile {model.profile}, "
            f"requested {requested}")
    featurizer = config.featurizer(model.profile)
    if featurizer.digest != model.digest:
        raise CliError(
            f"{args.model} was trained under features {model.digest}, but "
            f"lexicons {featurizer.lexicon_dir} and gazetteers "
            f"{featurizer.gazetteer_dir} give {featurizer.digest}")
    rules = normalizer.load_rules(config.rules_path)
    priors = None
    if config.pipeline_enabled:
        priors_path = (args.priors or config.priors_path
                       or Path(args.model).with_suffix(".priors"))
        try:
            priors = postproc.PriorTable.load(priors_path)
        except FileNotFoundError:
            raise CliError(f"prior table {priors_path} not found: the "
                           f"pipeline needs one (--no-pipeline decodes "
                           f"without it)") from None
    docs = _read_input_docs(args, config)
    outputs = []
    n_timexes = 0
    for doc, labels in zip(docs, pipeline.label_documents(
            docs, model, featurizer, config, priors), strict=True):
        if args.no_normalize:
            # the labels the inline output implies: an orphan I opens a
            # span, as `extract_timexes` reads it
            tagged = corpus.with_labels(doc, [
                corpus.repair_bio(seq_labels) for seq_labels in labels])
            outputs.append(corpus.format_document(tagged))
            continue
        timexes = pipeline.extract_timexes(doc, labels, config, rules)
        n_timexes += len(timexes)
        outputs.append(corpus.emit_inline_timex(doc, timexes))
    _write_output("\n".join(outputs) + "\n", args.output)
    if args.strict_exit and not args.no_normalize and n_timexes == 0:
        return 1
    return 0


def cmd_normalize(args) -> int:
    config = _load_run_config(args)
    dct = _parse_dct_arg(args.dct)
    rules = normalizer.load_rules(config.rules_path)
    surfaces = [t.surface for t in corpus.tokenize(args.expression)]
    result = normalizer.normalize(surfaces, dct, rules, config.norm_config())
    if result is None:
        if config.fallback:
            result = ("DATE", "PRESENT_REF")
        else:
            print("NO_MATCH")
            return 1 if args.strict_exit else 0
    print(f"{result[0]}\t{result[1]}")
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.gold_attrs) != bool(args.pred_attrs):
        given, missing = (("--gold-attrs", "--pred-attrs") if args.gold_attrs
                          else ("--pred-attrs", "--gold-attrs"))
        raise CliError(f"{given} needs {missing}: type and value accuracy "
                       f"compare the two attribute tables")
    gold = corpus.read_corpus(args.gold)
    pred = corpus.read_corpus(args.pred)
    gold_attrs = corpus.read_attrs(args.gold_attrs) if args.gold_attrs \
        else None
    pred_attrs = corpus.read_attrs(args.pred_attrs) if args.pred_attrs \
        else None
    report = pipeline.evaluate_corpora(gold, pred, gold_attrs, pred_attrs)
    print(report.as_table(), end="")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(report.as_tsv(), encoding="utf-8")
    if args.strict_exit and report.warnings:
        return 1
    return 0


def cmd_cv(args) -> int:
    config = _load_run_config(args)
    docs = corpus.read_corpus(args.corpus)
    items = [seq for doc in docs for seq in doc.sequences
             if seq.gold_labels is not None]

    def fold_doc(seqs) -> corpus.Document:
        # cv never normalizes, so any DCT serves; take the corpus's first
        return corpus.assemble_document("cv", docs[0].dct,
                                        corpus.pack_sequences(seqs))

    featurizer = config.featurizer(config.profile)
    # a sentence's observations depend on that sentence alone, so the
    # corpus is featurized once, before the workers fork, and each fold
    # trains and tags on its slices of that table
    table = features.featurize_sequence(items, featurizer)
    # pipeline on against off is compared only when the run post-processes
    conditions = (("pipeline_on", "pipeline_off") if config.pipeline_enabled
                  else ("pipeline_off",))

    def fold_fn(train_ids, test_ids):
        """Strict F1 per condition, for the fold of the sentences numbered
        `train_ids` and `test_ids`: the fold's model is trained once on
        its training slice of the table, its test slice serves both
        conditions, and the conditions differ only in the prior table:
        the training items' for pipeline_on, none for pipeline_off."""
        train_items = [items[i] for i in train_ids]
        model = pipeline.train_on_sequences(train_items, config, featurizer,
                                            table.take(train_ids))
        test_doc = fold_doc([items[i] for i in test_ids])
        test_features = table.take(test_ids)
        tables = {"pipeline_off": None}
        if config.pipeline_enabled:
            tables["pipeline_on"] = postproc.build_prior_table(train_items)
        f1 = {}
        for name in conditions:
            labels = pipeline.label_document(test_doc, model, featurizer,
                                             config, tables[name],
                                             test_features)
            f1[name] = pipeline.spans_f1([test_doc], [labels], "strict")
        return f1

    results = evaluation.cross_validate(
        range(len(items)), fold_fn, k=args.k, repeats=args.repeats,
        seed=config.seed)
    lines = ["condition\trepeat\tfold\tstrict_f1"]
    per_condition: dict[str, list[float]] = {}
    for name in conditions:
        per_condition[name] = [f1[name] for _, _, f1 in results]
        for rep, fold, f1 in results:
            lines.append(f"{name}\t{rep}\t{fold}\t{f1[name]:.6f}")
    if len(per_condition) == 2:
        test = evaluation.paired_t_test(per_condition["pipeline_on"],
                                        per_condition["pipeline_off"])
        lines.append(f"#paired_t\t{test['t']}\t{test['p_two_sided']}"
                     f"\t{test['degenerate']}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_priors(args) -> int:
    docs = corpus.read_corpus(args.corpus)
    priors = postproc.build_prior_table(
        seq for doc in docs for seq in doc.sequences)
    priors.save(args.output)
    print(f"{len(priors)} tokens -> {args.output}")
    return 0


def cmd_rules(args) -> int:
    config = _load_run_config(args)
    if args.action == "dump":
        print(normalizer.dump_rules(normalizer.load_rules(config.rules_path)))
        return 0
    raise CliError(f"unknown rules action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempex",
        description="Temporal expression tagging, normalization and "
                    "evaluation")
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--profile", choices=tuple(features.PROFILES),
                        default=None)
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--no-pipeline", action="store_true")
    parser.add_argument("--fallback", action="store_true")
    parser.add_argument("--strict", dest="strict_exit", action="store_true",
                        help="exit 1 on empty results / warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a CRF model + prior table")
    p.add_argument("corpus")
    p.add_argument("model")
    p.add_argument("--priors", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("tag", help="tag raw text or a corpus file")
    p.add_argument("input")
    p.add_argument("model")
    p.add_argument("--output", default=None)
    p.add_argument("--dct", default=None,
                   help="anchor date, YYYY-MM-DD; required for raw text")
    p.add_argument("--priors", default=None)
    p.add_argument("--no-normalize", action="store_true",
                   help="emit a labeled column file instead of inline "
                        "TIMEX3")
    p.set_defaults(fn=cmd_tag)

    p = sub.add_parser("normalize", help="normalize one expression")
    p.add_argument("expression")
    p.add_argument("--dct", required=True)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--gold-attrs", default=None)
    p.add_argument("--pred-attrs", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("cv", help="repeated k-fold cross-validation")
    p.add_argument("corpus")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("priors", help="build a prior table")
    p.add_argument("corpus")
    p.add_argument("output")
    p.set_defaults(fn=cmd_priors)

    p = sub.add_parser("rules", help="inspect normalization rules")
    p.add_argument("action", choices=("dump",))
    p.set_defaults(fn=cmd_rules)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ConfigError, CorpusError, crf.CrfError,
            features.FeatureError, evaluation.EvalError,
            postproc.PostprocError, normalizer.NormalizerError,
            FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
