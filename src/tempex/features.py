"""Per-token feature extraction and window-template expansion.

The observation features fed to the CRF come in two steps: a per-token
feature row (morphological flags, regex matchers, lexicon hits, optional
pass-through annotation columns) and the expansion of those rows through
the 14 window templates over positions -2..+2.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
from dataclasses import astuple, dataclass
from itertools import groupby, repeat
from pathlib import Path
from typing import Iterable, Sequence as Seq

import numpy as np

from .corpus import Sequence, Token, read_text

DATA_DIR = Path(__file__).parent / "data"

BOS = "_BOS_"
EOS = "_EOS_"

# Window templates, identified T00..T13.  Unigrams first, then pairs and
# triples; T05 is the (-1, 0) conjunction.
TEMPLATES: tuple["Template", ...]


@dataclass(frozen=True)
class Template:
    tid: str
    offsets: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.offsets) <= 3:
            raise ValueError(f"template {self.tid}: arity {len(self.offsets)}")
        if any(o < -2 or o > 2 for o in self.offsets):
            raise ValueError(f"template {self.tid}: offset out of range")


TEMPLATES = tuple(
    Template(f"T{i:02d}", offs)
    for i, offs in enumerate([
        (0,), (-1,), (-2,), (1,), (2,),
        (-1, 0), (-2, -1), (0, 1), (1, 2), (-1, 1), (-2, 2),
        (-1, 0, 1), (0, 1, 2), (-2, -1, 0),
    ])
)


def load_wordlist(path) -> frozenset[str]:
    words = set()
    for line in read_text(path).splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


class Lexicons:
    """Editable word lists backing the regex-matcher features."""

    NAMES = ("weekdays", "months", "seasons", "periods_of_day", "past_refs",
             "present_refs", "future_refs", "temporal_signals",
             "fuzzy_quantifiers", "modifiers", "temporal_adverbs",
             "stopwords", "prepositions", "conjunctions")

    def __init__(self, directory: Path):
        for name in self.NAMES:
            setattr(self, name, load_wordlist(directory / f"{name}.txt"))


@dataclass(frozen=True)
class Gazetteer:
    name: str
    phrases: frozenset[tuple[str, ...]]

    @classmethod
    def load(cls, name: str, path) -> "Gazetteer":
        phrases = set()
        for phrase in load_wordlist(path):
            parts = tuple(phrase.split())
            if parts:
                phrases.add(parts)
        return cls(name, frozenset(phrases))


def match_gazetteer(seq: Sequence, gaz: Gazetteer) -> list[str]:
    """Leftmost-longest case-insensitive phrase matching, BIO-encoded."""
    words = [t.surface.lower() for t in seq.tokens]
    if not gaz.phrases:
        return ["O"] * len(words)
    max_len = max(len(p) for p in gaz.phrases)
    labels = ["O"] * len(words)
    i = 0
    while i < len(words):
        best = 0
        for n in range(min(max_len, len(words) - i), 0, -1):
            if tuple(words[i:i + n]) in gaz.phrases:
                best = n
                break
        if best:
            labels[i] = "B"
            for j in range(i + 1, i + best):
                labels[j] = "I"
            i += best
        else:
            i += 1
    return labels


def pattern(surface: str) -> str:
    """Character-class pattern: 'Jan-2003' -> 'Xxx-dddd'."""
    out = []
    for c in surface:
        if c.isupper():
            out.append("X")
        elif c.islower():
            out.append("x")
        elif c.isdigit():
            out.append("d")
        else:
            out.append(c)
    return "".join(out)


def _collapse(pat: str) -> str:
    return "".join(c for c, _ in groupby(pat))


def collapsed_pattern(surface: str) -> str:
    """pattern() with runs of one class collapsed: 'Jan-2003' -> 'Xx-d'."""
    return _collapse(pattern(surface))


_STEM_SUFFIXES = ("ations", "ation", "ings", "ies", "ing", "eed", "ed",
                  "est", "ers", "er", "es", "ly", "s")


def stem(word: str) -> str:
    """Deterministic suffix-stripping stemmer (longest suffix first,
    stripped once, stem kept at >= 3 characters)."""
    w = word.lower()
    for suf in _STEM_SUFFIXES:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            return w[:-len(suf)]
    return w


# bound `fullmatch` methods, so a call looks up no pattern
_IS_CARDINAL_DIGITS = re.compile(r"\d+").fullmatch
_IS_ORDINAL_DIGITS = re.compile(r"\d+(st|nd|rd|th)").fullmatch
_IS_TIME = re.compile(r"\d{1,2}(:\d{2}){1,2}|\d{1,2}(am|pm|h)").fullmatch
_IS_DATE = re.compile(
    r"\d{4}|\d{1,2}[-/]\d{1,2}[-/]\d{2,4}|\d{4}[-/]\d{1,2}([-/]\d{1,2})?"
    r"|[a-z]{3,9}-\d{2,4}", re.IGNORECASE).fullmatch
_IS_DECIMAL = re.compile(r"\d+\.\d+").fullmatch
_IS_NUM_DOTS = re.compile(r"\d+(\.\d+)+").fullmatch
_IS_ACRONYM = re.compile(r"([A-Z]\.)+[A-Z]?").fullmatch
# the ASCII letters (and digits) that no_letters (no_letters_digits) drops
_DROP_LETTERS = str.maketrans("", "", string.ascii_letters)
_DROP_LETTERS_DIGITS = str.maketrans("", "", string.ascii_letters
                                     + string.digits)
_ADJ_SUFFIXES = ("al", "ive", "ous", "ful", "ic", "able", "ible", "ish",
                 "less", "ary")

CARDINAL_WORDS = frozenset("""
zero one two three four five six seven eight nine ten eleven twelve
thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty
thirty forty fifty sixty seventy eighty ninety hundred thousand million
billion""".split())

ORDINAL_WORDS = frozenset("""
first second third fourth fifth sixth seventh eighth ninth tenth
eleventh twelfth twentieth thirtieth fortieth fiftieth hundredth""".split())

_PENN_TENSE = {
    "VB": "base", "VBP": "present", "VBZ": "present", "VBD": "past",
    "VBG": "gerund", "VBN": "participle", "MD": "modal",
}

_BOOL = {True: "y", False: "n"}

#: Per-token feature names, in emission order.
MORPHOLOGICAL_FEATURES = (
    "word", "lemma", "stem", "pattern", "collapsed_pattern",
    "prefix3", "suffix3", "upper_first", "ends_with_s",
    "no_letters", "no_letters_digits", "verb_tense",
    "lower", "alphabetic", "digit", "alphanumeric", "titled",
    "capitalized", "acronym", "number", "decimal_number",
    "number_with_dots", "stopword",
    "cardinal", "ordinal", "time", "date", "period_of_day", "weekday",
    "season", "past_ref", "present_ref", "future_ref", "temporal_signal",
    "fuzzy_quantifier", "modifier", "temporal_adverb", "adjective_suffix",
    "conjunction", "preposition",
)

REGEX_FLAG_FEATURES = MORPHOLOGICAL_FEATURES[23:]

SYNTACTIC_FEATURES = ("pos", "chunk", "pnp")


def token_features(tok: Token, lex: Lexicons) -> dict[str, str]:
    w = tok.surface
    low = w.lower()
    pat = pattern(w)
    row = {
        "word": w,
        "lemma": tok.lemma if tok.lemma else low,
        "stem": stem(w),
        "pattern": pat,
        "collapsed_pattern": _collapse(pat),
        "prefix3": w[:3],
        "suffix3": w[-3:],
        "upper_first": _BOOL[w[0].isupper()],
        "ends_with_s": _BOOL[low.endswith("s")],
        "no_letters": w.translate(_DROP_LETTERS) or "_",
        "no_letters_digits": w.translate(_DROP_LETTERS_DIGITS) or "_",
        "verb_tense": _PENN_TENSE.get(tok.pos or "", "_"),
        "lower": _BOOL[w.islower()],
        "alphabetic": _BOOL[w.isalpha()],
        "digit": _BOOL[w.isdigit()],
        "alphanumeric": _BOOL[w.isalnum()],
        "titled": _BOOL[w.istitle()],
        "capitalized": _BOOL[w[0].isupper() and w.isalpha()],
        "acronym": _BOOL[bool(_IS_ACRONYM(w))],
        "number": _BOOL[w.isdigit() or low in CARDINAL_WORDS],
        "decimal_number": _BOOL[bool(_IS_DECIMAL(w))],
        "number_with_dots": _BOOL[bool(_IS_NUM_DOTS(w))],
        "stopword": _BOOL[low in lex.stopwords],
        "cardinal": _BOOL[bool(_IS_CARDINAL_DIGITS(w))
                          or low in CARDINAL_WORDS],
        "ordinal": _BOOL[bool(_IS_ORDINAL_DIGITS(low))
                         or low in ORDINAL_WORDS],
        "time": _BOOL[bool(_IS_TIME(low))],
        "date": _BOOL[bool(_IS_DATE(low))
                      or low in lex.months],
        "period_of_day": _BOOL[low in lex.periods_of_day],
        "weekday": _BOOL[low in lex.weekdays],
        "season": _BOOL[low in lex.seasons],
        "past_ref": _BOOL[low in lex.past_refs],
        "present_ref": _BOOL[low in lex.present_refs],
        "future_ref": _BOOL[low in lex.future_refs],
        "temporal_signal": _BOOL[low in lex.temporal_signals],
        "fuzzy_quantifier": _BOOL[low in lex.fuzzy_quantifiers],
        "modifier": _BOOL[low in lex.modifiers],
        "temporal_adverb": _BOOL[low in lex.temporal_adverbs],
        "adjective_suffix": _BOOL[low.endswith(_ADJ_SUFFIXES)],
        "conjunction": _BOOL[low in lex.conjunctions],
        "preposition": _BOOL[low in lex.prepositions],
    }
    return row


@dataclass(frozen=True)
class FeatureConfig:
    """Which per-token features exist and which feed the conjunction
    templates.  Model profiles differ only here."""
    unigram_features: tuple[str, ...] = MORPHOLOGICAL_FEATURES
    conjunction_features: tuple[str, ...] = (
        ("word", "pattern") + REGEX_FLAG_FEATURES)
    use_syntax: bool = False
    use_gazetteers: bool = False


#: The model profiles, the only place they are defined: morphological
#: features only, + shallow-parsing columns, + gazetteers.  WordNet
#: features wait for WordNet data in the repository.
PROFILES: dict[str, FeatureConfig] = {
    "model1": FeatureConfig(),
    "model2": FeatureConfig(MORPHOLOGICAL_FEATURES + SYNTACTIC_FEATURES,
                            use_syntax=True),
    "model3": FeatureConfig(use_gazetteers=True),
}


class Featurizer:
    """Everything featurization reads, loaded once per command: the
    profile's FeatureConfig, its lexicons (None: the bundled ones) and,
    only if the profile uses them, its gazetteers.  `digest` is a SHA-256
    over exactly that, and the window templates; a model records it, so
    tagging under other word lists is caught."""

    def __init__(self, profile: str, lexicon_dir=None, gazetteer_dir=None):
        self.profile = profile
        self.config = PROFILES[profile]
        self.lexicon_dir = Path(lexicon_dir or DATA_DIR / "lexicons")
        self.gazetteer_dir = Path(gazetteer_dir or DATA_DIR / "gazetteers")
        self.lexicons = Lexicons(self.lexicon_dir)
        self.gazetteers = tuple(
            Gazetteer.load(p.stem, p)
            for p in sorted(self.gazetteer_dir.glob("*.txt"))
        ) if self.config.use_gazetteers else ()
        # the unigram names expanded: the profile's, one per gazetteer
        self.unigram_features = self.config.unigram_features + tuple(
            f"gaz_{g.name}" for g in self.gazetteers)
        contract = [
            astuple(self.config),
            [[t.tid, t.offsets] for t in TEMPLATES],
            [[name, sorted(getattr(self.lexicons, name))]
             for name in Lexicons.NAMES],
            [[g.name, sorted(g.phrases)] for g in self.gazetteers],
        ]
        self.digest = hashlib.sha256(
            json.dumps(contract).encode("utf-8")).hexdigest()


def extract_rows(seqs: Seq[Sequence], featurizer: Featurizer
                 ) -> tuple[list[dict[str, str]], np.ndarray]:
    """One feature row per distinct token type of `seqs` under the
    featurizer's profile, and the type of each position, positions of
    all sequences in order.

    A type is everything a row reads: surface, lemma and POS, plus chunk
    and PNP when the profile uses syntax, plus the position's label in
    each gazetteer.  Types are numbered in order of first occurrence.
    """
    syntax = featurizer.config.use_syntax
    # type -> (its number, its first token, its gazetteer labels)
    first: dict[tuple, tuple[int, Token, tuple[str, ...]]] = {}
    types = []
    for seq in seqs:
        labels = zip(*(match_gazetteer(seq, gaz)
                       for gaz in featurizer.gazetteers)) \
            if featurizer.gazetteers else repeat(())
        for tok, labs in zip(seq.tokens, labels):
            key = ((tok.surface, tok.lemma, tok.pos, tok.chunk, tok.pnp,
                    labs) if syntax else (tok.surface, tok.lemma, tok.pos,
                                          labs))
            types.append(first.setdefault(key, (len(first), tok, labs))[0])
    rows = []
    for _, tok, labs in first.values():
        row = token_features(tok, featurizer.lexicons)
        if syntax:
            row["pos"] = tok.pos or "_"
            row["chunk"] = tok.chunk or "_"
            row["pnp"] = tok.pnp or "_"
        for gaz, lab in zip(featurizer.gazetteers, labs):
            row[f"gaz_{gaz.name}"] = lab
        rows.append(row)
    return rows, np.array(types, dtype=np.int64)


@dataclass
class ObservationTable:
    """The observations of a list of sequences (a document, a training
    corpus, or the whole corpus of a `cv` command), each distinct key
    stored once.

    `codes[p, s]` (int32) is the index into `keys` of slot s of position
    p; the positions of all sequences follow each other, `lengths` tokens
    per sequence, and -1 marks an empty slot.  Slots are in template
    order, then feature order.  The keys are pairwise distinct, so a
    code names one observation and the CRF index can go by codes.
    `len()` is the number of positions, and iterating yields each
    position's row of slot codes.  A sequence's rows depend on that
    sequence alone, so `take` of some sequences gives the keys, and
    so the CRF index and encoding, of featurizing them afresh.
    """
    keys: list[str]
    codes: np.ndarray
    lengths: tuple[int, ...]

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def take(self, sequences: Seq[int]) -> "ObservationTable":
        """The table of the sequences numbered `sequences`, in that order:
        their rows of `codes` and their `lengths`, under the same
        `keys`."""
        sequences = np.asarray(sequences, dtype=np.intp)
        lengths = np.asarray(self.lengths, dtype=np.intp)
        starts = _row_starts(lengths)[sequences]
        lengths = lengths[sequences]
        rows = (np.repeat(starts - _row_starts(lengths), lengths)
                + np.arange(lengths.sum()))
        return ObservationTable(self.keys, self.codes[rows],
                                tuple(lengths.tolist()))

    @classmethod
    def from_strings(cls, sequences) -> "ObservationTable":
        """The table of sequences given as per-position lists of
        observation strings, rows padded with empty slots."""
        index: dict[str, int] = {}
        rows = [[index.setdefault(f, len(index)) for f in feats]
                for seq in sequences for feats in seq]
        codes = np.full((len(rows), max(map(len, rows), default=0)), -1,
                        dtype=np.int32)
        for row, ids in zip(codes, rows):
            row[:len(ids)] = ids
        return cls(list(index), codes, tuple(map(len, sequences)))


def _distinct_per_row(values: np.ndarray):
    """The distinct entries of each row of a 2-D int array, row after row
    in one flat array (ascending within a row), their count per row, and
    each input entry's index into the flat array."""
    n = values.shape[1]
    order = (np.argsort(values, axis=1)
             + n * np.arange(len(values))[:, None]).ravel()
    ordered = values.ravel()[order].reshape(values.shape)
    new = np.ones(values.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return (ordered[new], new.sum(axis=1),
            inverse.reshape(values.shape))


def _row_starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def expand_templates(rows: Seq[dict[str, str]], types: np.ndarray,
                     lengths: Seq[int], templates: Iterable[Template],
                     unigram_features: Iterable[str],
                     conjunction_features: Iterable[str]
                     ) -> ObservationTable:
    """Expand the feature rows of sequences into one observation table.

    Position p reads row `rows[types[p]]`; the positions of all
    sequences follow each other, `lengths` per sequence.

    For position p, template t and feature name f the observation key
    is the tab-joined template id, the name, then the value at each of
    the template's offsets: ``T05<TAB>word<TAB>_BOS_<TAB>three``.
    Offsets outside the sequence read the _BOS_ / _EOS_ sentinels, so
    every position gets the same number of keys.  Repeated templates
    and names are expanded once.  No name or value may hold a tab or a
    line break (`corpus.Token` refuses such annotations); then, as the
    template id fixes the offsets, each key names one observation and
    the table's keys are pairwise distinct.

    Each key is built once per call, not once per position.  Each
    feature's values get small int codes (sentinels first), looked up
    once per row and laid out per sequence between two _BOS_ and two
    _EOS_ slots of its own, so that a shifted read never crosses into
    the next sequence.  The templates of one arity are expanded
    together, one row per (template, feature) slot.  A unigram slot has
    one key per value of its feature.  A conjunction slot combines its
    offsets' codes two at a time through the index of each distinct pair
    in its row, so that a combined code stays below the number of
    positions times the number of values, and it has one key per
    distinct combination.
    """
    templates = tuple(dict.fromkeys(templates))
    unigram_features = tuple(dict.fromkeys(unigram_features))
    conjunction_features = tuple(dict.fromkeys(conjunction_features))
    names = tuple(dict.fromkeys(unigram_features + conjunction_features))
    lengths = tuple(lengths)
    n = len(types)
    # a sequence's padded slots: _BOS_ _BOS_ its values _EOS_ _EOS_;
    # position p sits at at[p]
    at = np.arange(n) + 4 * np.repeat(np.arange(len(lengths)), lengths) + 2
    starts = (np.cumsum((0, *lengths), dtype=np.int64)[:-1]
              + 4 * np.arange(len(lengths)))
    columns = np.ones((len(names), n + 4 * len(lengths)), dtype=np.int64)
    columns[:, starts] = columns[:, starts + 1] = 0
    spelled = []  # per feature, a tab and each value, by code
    by_name = list(zip(*(tuple(map(row.get, names, repeat("_")))
                         for row in rows))) or [()] * len(names)
    for column, values in zip(columns, by_name):
        code = {v: i for i, v in enumerate(dict.fromkeys((BOS, EOS,
                                                          *values)))}
        column[at] = np.fromiter(map(code.__getitem__, values),
                                 dtype=np.int64, count=len(rows))[types]
        spelled.append(["\t" + v for v in code])
    n_values = np.array([len(v) for v in spelled], dtype=np.int64)
    # a tab and value v of feature f, at fragments[base[f] + v]
    base = _row_starts(n_values)
    fragments = [v for values in spelled for v in values]

    index = {f: i for i, f in enumerate(names)}
    slots = [(t, index[f]) for t in templates
             for f in (unigram_features if len(t.offsets) == 1
                       else conjunction_features)]
    keys: list[str] = []
    codes = np.empty((n, len(slots)), dtype=np.int32)
    for arity in (1, 2, 3):
        group = [s for s, (t, _) in enumerate(slots)
                 if len(t.offsets) == arity]
        if not group:
            continue
        tmpls = [slots[s][0] for s in group]
        feats = np.array([slots[s][1] for s in group], dtype=np.int64)
        offsets = np.array([t.offsets for t in tmpls], dtype=np.int64)
        sizes = n_values[feats]
        heads = [f"{t.tid}\t{names[f]}" for t, f in zip(tmpls,
                                                        feats.tolist())]
        # a slot's entries start as the values of its feature: `local` is
        # each position's entry within the slot's row, `flat` its index
        # over all rows
        first = _row_starts(sizes)
        local = columns[feats[:, None], at + offsets[:, :1]]
        flat = local + first[:, None]
        # `parts` holds each entry's fragment at each offset so far
        rows_of = np.repeat(np.arange(len(group)), sizes)
        parts = [base[feats[rows_of]] + np.arange(len(rows_of))
                 - first[rows_of]]
        for k in range(1, arity):
            pairs, counts, flat = _distinct_per_row(
                local * sizes[:, None]
                + columns[feats[:, None], at + offsets[:, k:k + 1]])
            rows_of = np.repeat(np.arange(len(group)), counts)
            entry, value = np.divmod(pairs, sizes[rows_of])
            parts = [p[first[rows_of] + entry] for p in parts]
            parts.append(base[feats[rows_of]] + value)
            first = _row_starts(counts)
            local = flat - first[:, None]
        codes[:, group] = (flat + len(keys)).T
        keys += map("".join, zip(
            map(heads.__getitem__, rows_of.tolist()),
            *(map(fragments.__getitem__, p.tolist()) for p in parts)))
    return ObservationTable(keys, codes, lengths)


def featurize_sequence(seqs: Seq[Sequence], featurizer: Featurizer
                       ) -> ObservationTable:
    """Rows + template expansion of the sequences `seqs` (a batch of
    documents, or a training corpus) in one call: the CRF input, one
    interned table for them all, with one row per token type.  (The name
    predates tables; `bench/tracing.py` wraps it by this name.)"""
    rows, types = extract_rows(seqs, featurizer)
    return expand_templates(rows, types, tuple(map(len, seqs)), TEMPLATES,
                            featurizer.unigram_features,
                            featurizer.config.conjunction_features)
