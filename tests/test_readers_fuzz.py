"""Every file reader, fuzzed through `cli.main`: a corpus, attribute,
prior, model, rule-override or config file, valid or mangled, either
succeeds or exits 2 with a message, never with a traceback.

Each input is a valid file with one piece (a field or a separator)
replaced, or raw bytes.  A replacement is at most five characters;
`test_corpus_far_offset` covers a far character offset, which
`read_corpus` refuses before it rebuilds the document's raw text.
"""

import contextlib
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tempex import crf
from tempex.cli import main
from tempex.features import Featurizer

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
    model = crf.CrfModel({"T00\tword\tFriday": 0, "T00\tword\ton": 1},
                         np.linspace(-1.0, 1.0, 15),
                         digest=Featurizer("model1").digest)
    crf.save_model(model, root / "model.crf")
    for name, text in (("corpus.tsv", CORPUS), ("attrs.tsv", ATTRS),
                       ("model.priors", PRIORS), ("rules.tsv", RULES),
                       ("run.ini", CONFIG)):
        (root / name).write_text(text, encoding="utf-8")
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
