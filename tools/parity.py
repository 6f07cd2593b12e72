#!/usr/bin/env python3
"""Output parity: SHA-256s of what `tempex` writes on fixed inputs.

    python3 tools/parity.py [--repo DIR] [--workloads tag,train,cv]
        [--out FILE] [--check FILE]

The inputs are the benchmark's corpora (`bench/gen.py`, unchanged), at
the sizes of its workloads, for each of a workload's fixed seeds
(`SEEDS`: 301-320 for `tag`, 301-303 for `train` and `cv`):

- `tag`: a model and prior table trained by `tempex train` on 2 short
  documents, then `tempex tag` of 8 held-out documents with the pipeline
  on, off (`--no-pipeline`) and with `--no-normalize`;
- `train`: `tempex train` on each of 16 one-document corpora, its model
  and its prior table;
- `cv`: `tempex --seed S cv --k 2 --repeats 2` on each of 7 one-document
  corpora.

Every file is hashed, named `<workload>/<seed>/<file>`.  The program is
imported from `DIR/src` (default: the checkout holding this script), so
one copy of the script hashes two checkouts: run it with `--out` on one
and with `--check` on the other.  `--check FILE` compares the hashes
with those in FILE, prints each one that differs or that FILE lacks,
and exits 1 if there is any; hashes FILE holds that this run did not
make (other workloads) are only counted.  `cv` runs its folds in
forked children, one per CPU the process may use, so `--check` runs
`cv` a second time with this process pinned to one CPU
(`os.sched_setaffinity`, restored afterwards; where the platform has
no such call, this run is skipped), where the folds run one after
another in the process, and checks those hashes against the same FILE:
one command covers both fold paths.

`tools/parity.json` holds the hashes of the default run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402

SENTENCES_PER_DOC = 8
TAG_TRAIN_DOCS, TAG_TEST_DOCS = 2, 8
TRAIN_CORPORA = 16
CV_CORPORA, CV_K, CV_REPEATS = 7, 2, 2
SEEDS = {"tag": range(301, 321), "train": range(301, 304),
         "cv": range(301, 304)}
WORKLOADS = tuple(SEEDS)


class Run:
    """The hashes of one run, its files written in a temporary directory."""

    def __init__(self, work: Path, tempex):
        self.work, self.tempex = work, tempex
        self.hashes: dict[str, str] = {}

    def main(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tempex.main(list(argv))
        if code != 0:
            raise RuntimeError(f"tempex {' '.join(argv)} exited {code}")

    def write(self, name: str, docs) -> Path:
        path = self.work / name
        gen.write_corpus(docs, path, self.tempex.corpus.tokenize)
        return path

    def hash(self, workload: str, seed: int, path: Path) -> None:
        self.hashes[f"{workload}/{seed}/{path.name}"] = hashlib.sha256(
            path.read_bytes()).hexdigest()

    def tag(self, seed: int) -> None:
        train = self.write("tag-train.tsv", gen.generate(
            seed, "train", TAG_TRAIN_DOCS, SENTENCES_PER_DOC,
            gen.SHORT_CLAUSES))
        test = self.write("tag-test.tsv", gen.generate(
            seed, "test", TAG_TEST_DOCS, SENTENCES_PER_DOC))
        model = self.work / "tag.crf"
        self.main("train", str(train), str(model))
        self.hash("tag", seed, model)
        self.hash("tag", seed, model.with_suffix(".priors"))
        for name, before, after in (("on", [], []),
                                    ("off", ["--no-pipeline"], []),
                                    ("no-normalize", [], ["--no-normalize"])):
            out = self.work / f"tagged-{name}.txt"
            self.main(*before, "tag", str(test), str(model), "--output",
                      str(out), *after)
            self.hash("tag", seed, out)

    def train(self, seed: int) -> None:
        docs = gen.generate(seed, "train", TRAIN_CORPORA, SENTENCES_PER_DOC,
                            gen.SHORT_CLAUSES)
        for i, doc in enumerate(docs):
            path = self.write(f"train{i}.tsv", [doc])
            model = path.with_suffix(".crf")
            self.main("train", str(path), str(model))
            self.hash("train", seed, model)
            self.hash("train", seed, model.with_suffix(".priors"))

    def cv(self, seed: int) -> None:
        docs = gen.generate(seed, "train", CV_CORPORA, SENTENCES_PER_DOC,
                            gen.SHORT_CLAUSES)
        for i, doc in enumerate(docs):
            path = self.write(f"cv{i}.tsv", [doc])
            out = path.with_suffix(".txt")
            self.main("--seed", str(seed), "cv", str(path), "--k", str(CV_K),
                      "--repeats", str(CV_REPEATS), "--output", str(out))
            self.hash("cv", seed, out)


def run_workloads(tempex, workloads) -> dict[str, str]:
    """The hashes of the given workloads, by name."""
    with tempfile.TemporaryDirectory(prefix="tempex-parity-") as work:
        run = Run(Path(work), tempex)
        for workload in workloads:
            for seed in SEEDS[workload]:
                getattr(run, workload)(seed)
    return dict(sorted(run.hashes.items()))


def check(hashes: dict[str, str], reference: dict[str, str]) -> int:
    bad = 0
    for name, digest in hashes.items():
        if name not in reference:
            print(f"not in reference: {name}")
            bad += 1
        elif reference[name] != digest:
            print(f"differs: {name}")
            bad += 1
    print(f"{len(hashes) - bad} of {len(hashes)} identical; "
          f"{len(reference.keys() - hashes.keys())} reference hashes not "
          f"made by this run")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout whose src/ is hashed")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, help="write the hashes here")
    parser.add_argument("--check", type=Path,
                        help="compare the hashes with this file's")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if set(workloads) - set(WORKLOADS):
        parser.error(f"--workloads: choose from {', '.join(WORKLOADS)}")

    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from tempex import cli

    hashes = run_workloads(cli, workloads)
    if args.out:
        args.out.write_text(json.dumps(hashes, indent=1) + "\n",
                            encoding="utf-8")
    if args.check:
        reference = json.loads(args.check.read_text("utf-8"))
        bad = check(hashes, reference)
        if "cv" in workloads and hasattr(os, "sched_setaffinity"):
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                print("cv on one CPU:")
                bad |= check(run_workloads(cli, ["cv"]), reference)
            finally:
                os.sched_setaffinity(0, cpus)
        return bad
    if not args.out:
        print(json.dumps(hashes, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
