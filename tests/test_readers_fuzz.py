"""Every file reader, fuzzed through `cli.main`: a corpus, attribute,
prior, model, rule-override or config file, valid or mangled, either
succeeds or exits 2 with a message, never with a traceback.

Each input is a valid file with one piece (a field or a separator)
replaced, or raw bytes.  A replacement is at most five characters;
`test_corpus_far_offset` covers a far character offset, which
`read_corpus` refuses before it rebuilds the document's raw text.
"""

import contextlib
import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tempex import crf
from tempex.cli import main
from tempex.corpus import read_corpus
from tempex.features import Featurizer, featurize_sequence

DCT = "2013-04-11"

CORPUS = """#doc d1 2013-04-11
They\t0\t4\t_\t_\t_\t_\tO
met\t5\t8\tPRP\tmeet\tB-VP\t_\tO
on\t9\t11\t_\t_\t_\t_\tB
Friday\t12\t18\t_\t_\t_\t_\tI
.\t18\t19\t_\t_\t_\t_\tO

#doc d2 2013-04-12T10:00
Yesterday\t0\t9\t_\t_\t_\t_\tB
.\t9\t10\t_\t_\t_\t_\tO
"""
ATTRS = "# doc\tfirst\tlast\ttype\tvalue\nd1\t9\t18\tDATE\t2013-04-12\n"
PRIORS = "friday\t3\t0\t1\t3\nyesterday\t2\t0\t0\t2\n"
RULES = "fortnight\t5\ta fortnight\tDURATION\tfixed:P2W\n"
CONFIG = ("[crf]\nprofile = model1\nC = 1.0\nmax_iter = 5\n"
          "[pipeline]\nenabled = true\nthreshold = 0.87\n"
          "[run]\nseed = 7\n[normalizer]\nmonth_first = false\n")

_PIECES = re.compile(r"(\t|\n|=|,|;|:| )")
_SPECIAL = ["", "\t", "\n", "#", "#doc", "nan", "inf", "-1", "1e99", "%",
            "%(x)s", "{", "{month}", "(", "B", "I", "X", "model4", "_",
            "\udcff", "é", "[crf]"]


@st.composite
def mangled(draw, valid: str) -> bytes:
    """`valid` with one piece replaced, or raw bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=120))
    pieces = _PIECES.split(valid)
    i = draw(st.integers(0, len(pieces) - 1))
    pieces[i] = draw(st.one_of(
        st.sampled_from(_SPECIAL),
        st.text(alphabet="0123456789-+.e_#%:=;,\t\n xBIOé{}()*?\\",
                max_size=5)))
    return "".join(pieces).encode("utf-8", "surrogateescape")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in (("corpus.tsv", CORPUS), ("attrs.tsv", ATTRS),
                       ("model.priors", PRIORS), ("rules.tsv", RULES),
                       ("run.ini", CONFIG)):
        (root / name).write_text(text, encoding="utf-8")
    # the observations `T00 word Friday` and `T00 word on` of the corpus
    featurizer = Featurizer("model1")
    keys = featurize_sequence([seq for doc in read_corpus(root / "corpus.tsv")
                               for seq in doc.sequences], featurizer).keys
    ids = {obs: i for i, obs in enumerate(keys)}
    index = keys.subset(np.array([ids["T00", "word", "Friday"],
                                  ids["T00", "word", "on"]]))
    model = crf.CrfModel(index, np.linspace(-1.0, 1.0, 15),
                         digest=featurizer.digest, training_log={
                             "max_iter": 5, "cutoff": 1, "iterations": 5,
                             "converged": False,
                             "message": "iteration limit 5 reached",
                             "sentences": 3, "tokens": 7,
                             "corpus_sha256": hashlib.sha256(
                                 CORPUS.encode()).hexdigest()})
    crf.save_model(model, root / "model.crf")
    return root


def run(argv) -> int:
    """`tempex argv`, output discarded: 0 or 2, or the exception."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    assert rc in (0, 2)
    return rc


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_valid_files_succeed(files):
    f = files
    assert run(["priors", f / "corpus.tsv", f / "out.priors"]) == 0
    assert run(["evaluate", f / "corpus.tsv", f / "corpus.tsv",
                "--gold-attrs", f / "attrs.tsv",
                "--pred-attrs", f / "attrs.tsv"]) == 0
    assert run(["--config", f / "run.ini", "tag", f / "corpus.tsv",
                f / "model.crf", "--priors", f / "model.priors",
                "--output", f / "out.txt"]) == 0
    (f / "rules.ini").write_text(f"[paths]\nrules = {f / 'rules.tsv'}\n",
                                 encoding="utf-8")
    assert run(["--config", f / "rules.ini", "normalize", "a fortnight",
                "--dct", DCT]) == 0


@FUZZ
@given(data=mangled(CORPUS))
def test_corpus(files, data):
    (files / "fuzz.tsv").write_bytes(data)
    run(["priors", files / "fuzz.tsv", files / "fuzz.out"])


def test_corpus_far_offset(files):
    """A token at offset 20,000,000 exits 2 without the memory a raw
    text that long would take."""
    far = CORPUS.replace("Friday\t12\t18", "Friday\t20000000\t20000006")
    (files / "far.tsv").write_text(far, encoding="utf-8")
    tracemalloc.start()
    try:
        assert run(["priors", files / "far.tsv", files / "far.out"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@FUZZ
@given(data=mangled(ATTRS))
def test_attributes(files, data):
    (files / "fuzz.attrs").write_bytes(data)
    run(["evaluate", files / "corpus.tsv", files / "corpus.tsv",
         "--gold-attrs", files / "fuzz.attrs",
         "--pred-attrs", files / "attrs.tsv"])


@FUZZ
@given(data=mangled(PRIORS))
def test_priors(files, data):
    (files / "fuzz.priors").write_bytes(data)
    run(["tag", files / "corpus.tsv", files / "model.crf",
         "--priors", files / "fuzz.priors", "--output", files / "fuzz.out"])


@FUZZ
@given(data=st.data())
def test_model(files, data):
    valid = (files / "model.crf").read_text(encoding="utf-8")
    (files / "fuzz.crf").write_bytes(data.draw(mangled(valid)))
    run(["tag", files / "corpus.tsv", files / "fuzz.crf",
         "--priors", files / "model.priors", "--output", files / "fuzz.out"])


@FUZZ
@given(data=mangled(RULES))
def test_rule_overrides(files, data):
    (files / "fuzz.rules").write_bytes(data)
    (files / "fuzz_rules.ini").write_text(
        f"[paths]\nrules = {files / 'fuzz.rules'}\n", encoding="utf-8")
    run(["--config", files / "fuzz_rules.ini", "normalize", "a fortnight",
         "--dct", DCT])


@FUZZ
@given(data=mangled(CONFIG))
def test_config(files, data):
    (files / "fuzz.ini").write_bytes(data)
    run(["--config", files / "fuzz.ini", "rules", "dump"])


def tag_error(files, text: str) -> str:
    """`tempex tag` with the model file `text`: exit 2, and the message."""
    (files / "bad.crf").write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["tag", str(files / "corpus.tsv"), str(files / "bad.crf"),
                   "--priors", str(files / "model.priors"), "--output",
                   str(files / "bad.out")])
    assert rc == 2
    return err.getvalue()


def sections(lines: list[str]) -> dict[str, int]:
    """The 0-based index of the first line of each part of a model
    file's lines."""
    size = {line[1:].split("\t")[0]: int(line.split("\t")[1])
            for line in lines if line.startswith("#n_")}
    slots = sum(1 for line in lines if line.startswith("#"))
    values = slots + size["n_slots"]
    block = values + size["n_values"]
    return {"slots": slots, "values": values, "block": block,
            "triples": block + size["n_rows"] + 3,
            "training": next(i for i, line in enumerate(lines)
                             if line.startswith("#training\t"))}


# (part, offset of the line in it, its replacement given the line and
# the one before it, a piece of the message)
MALFORMED = [
    ("slots", 0, lambda line, prev: "T99\tword", "template id"),
    ("slots", 0, lambda line, prev: "T00", "template id"),
    ("slots", 0, lambda line, prev: "T00\tword\tx", "template id"),
    ("slots", 1, lambda line, prev: prev, "repeated slot"),
    ("values", 0, lambda line, prev: "nope\tx", "feature name"),
    ("values", 0, lambda line, prev: "word", "feature name"),
    ("values", 1, lambda line, prev: prev, "repeated value"),
    ("block", 0, lambda line, prev: "1.0\tx\t2.0", "bad weight"),
    ("block", 0, lambda line, prev: "1.0\t2.0", "w_B<TAB>w_I<TAB>w_O"),
    ("block", 2, lambda line, prev: "1.0\tnan\t2.0", "bad weight"),
    ("triples", 0, lambda line, prev: "0\t0", "row<TAB>slot<TAB>code"),
    ("triples", 0, lambda line, prev: "0\t0\tx", "bad number"),
    ("triples", 0, lambda line, prev: "5\t0\t0", "row 5 out of range"),
    ("triples", 0, lambda line, prev: "0\t371\t0", "slot 371 out of"),
    ("triples", 0, lambda line, prev: "0\t0\t99", "code 99 names no"),
    ("triples", 1, lambda line, prev: "1" + prev[1:], "repeated"),
    ("training", 0, lambda line, prev: "#training\tmax_iter=5",
     "bad #training"),
    ("training", 0, lambda line, prev: line.replace("=no", "=maybe"),
     "bad #training"),
    ("training", 0, lambda line, prev: line.replace("cutoff=1", "cutoff=x"),
     "bad #training"),
    ("training", 0, lambda line, prev: line.replace("sha256=", "sha256=0"),
     "bad #training"),
]


@pytest.mark.parametrize("part,offset,edit,message", MALFORMED)
def test_malformed_line_named(files, part, offset, edit, message):
    """Each part of a `tempex-crf-4` file with one line malformed: exit
    2, with an error naming that line."""
    lines = (files / "model.crf").read_text(encoding="utf-8").splitlines()
    i = sections(lines)[part] + offset
    lines[i] = edit(lines[i], lines[i - 1])
    err = tag_error(files, "\n".join(lines) + "\n")
    assert f"line {i + 1}: " in err and message in err, err


def test_format_3_refused_by_name(files):
    """A `tempex-crf-3` model, keys spelled as strings, is refused by
    its version, with the advice to retrain."""
    lines = (files / "model.crf").read_text(encoding="utf-8").splitlines()
    lines[0] = "#version\ttempex-crf-3"
    err = tag_error(files, "\n".join(lines) + "\n")
    assert "model format 'tempex-crf-3' not supported" in err
    assert "retrain" in err
