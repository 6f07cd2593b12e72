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
from itertools import chain, count, groupby, repeat
from pathlib import Path
from typing import Iterable, Optional, Sequence as Seq

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

    def vocabulary(self, keys: list[str]) -> "Vocabulary":
        """The `Vocabulary` of a model's keys, in id order, under this
        featurizer's templates and names."""
        return Vocabulary(keys, TEMPLATES, self.unigram_features,
                          self.config.conjunction_features)


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
    per sequence, and -1 marks an empty slot (in a table expanded under
    a model's `Vocabulary`, an observation the model does not have).
    Slots are in template order, then feature order.  The keys are
    pairwise distinct, so a code names one observation and the CRF
    index can go by codes.  A table that `expand_templates` builds keys
    for references every key it holds from some slot; a `take` of it,
    or a table expanded under a `Vocabulary`, may reference only some.
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


def _slots(templates: Iterable[Template], unigram_features: Iterable[str],
           conjunction_features: Iterable[str]):
    """The feature names an expansion reads, and its slots: (template,
    index into the names) in template order, then feature order, each
    template and name taken once."""
    templates = tuple(dict.fromkeys(templates))
    unigram_features = tuple(dict.fromkeys(unigram_features))
    conjunction_features = tuple(dict.fromkeys(conjunction_features))
    names = tuple(dict.fromkeys(unigram_features + conjunction_features))
    index = {f: i for i, f in enumerate(names)}
    return names, tuple((t, index[f]) for t in templates
                        for f in (unigram_features if len(t.offsets) == 1
                                  else conjunction_features))


def _groups(slots):
    """The slots of each arity, expanded together: per arity present,
    the slot numbers, the feature of each and its offsets (slots x
    arity)."""
    for arity in (1, 2, 3):
        group = [s for s, (t, _) in enumerate(slots)
                 if len(t.offsets) == arity]
        if group:
            yield (group,
                   np.array([slots[s][1] for s in group], dtype=np.int64),
                   np.array([slots[s][0].offsets for s in group],
                            dtype=np.int64))


# A step map keeps a dense table for a slot of at most this many codes,
# and searches the sorted codes of its keys for a larger one.
DENSE_CODES = 1 << 12


class _StepMap:
    """Per slot s (a row of the codes it maps), a map from codes below
    `spaces[s]` to ints, `defaults[s]` for a code it was not given.

    Built from entries (slot, code, value) sorted by slot, then code, at
    most one per (slot, code).  The slots of small code spaces share one
    dense table; each other slot keeps its sorted codes, ended by the
    largest int64, and its values, ended by its default, for
    `np.searchsorted`."""

    def __init__(self, slots: np.ndarray, codes: np.ndarray,
                 values: np.ndarray, spaces: np.ndarray,
                 defaults: np.ndarray):
        dense = spaces <= DENSE_CODES
        base = np.zeros(len(spaces), dtype=np.int64)
        base[dense] = _row_starts(spaces[dense])
        self.base = base[:, None]
        self.table = np.repeat(defaults[dense], spaces[dense])
        at = dense[slots]
        self.table[base[slots[at]] + codes[at]] = values[at]
        bounds = np.searchsorted(slots, np.arange(len(spaces) + 1))
        self.sparse = [
            (s, np.append(codes[bounds[s]:bounds[s + 1]],
                          np.iinfo(np.int64).max),
             np.append(values[bounds[s]:bounds[s + 1]], defaults[s]))
            for s in np.flatnonzero(~dense).tolist()]

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """The value of each code of `codes`, row s holding slot s's.  A
        searched slot's row first reads the dense table, clipped (if
        there is one), and is then overwritten."""
        out = (self.table.take(codes + self.base, mode="clip")
               if self.table.size else np.empty(codes.shape, np.int64))
        for s, keys, values in self.sparse:
            i = np.searchsorted(keys, codes[s])
            out[s] = np.where(keys[i] == codes[s], values[i], values[-1])
        return out


def _step_maps(slots: np.ndarray, values: np.ndarray, ids: np.ndarray,
               radix: np.ndarray) -> list[_StepMap]:
    """The step maps that send the value codes of a group of slots to
    observation ids, from the keys the slots build.

    Key j belongs to slot `slots[j]`, reads value codes `values[j]` (one
    per offset) and has id `ids[j]`; `radix[s]` bounds slot s's value
    codes.  A position's prefix p, 0 before the first offset, and the
    code c at the next offset make p * radix + c.  At the last offset
    its map gives the id of the key with these values, or -1; before,
    it gives the index of the prefix among the distinct prefixes of the
    slot's keys, or one past them for a prefix no key has.  So a code
    stays below (distinct prefixes + 1) * radix, at most (keys + 1) *
    radix, whatever the arity: within int64 for any number of keys and
    values that fit int32.
    """
    n_slots, arity = len(radix), values.shape[1]
    prefix = np.zeros(len(ids), dtype=np.int64)
    spaces = np.ones(n_slots, dtype=np.int64)
    maps = []
    for k in range(arity):
        code = prefix * radix[slots] + values[:, k]
        spaces = spaces * radix
        order = np.lexsort((code, slots))
        slot, code = slots[order], code[order]
        if k == arity - 1:
            maps.append(_StepMap(slot, code, ids[order], spaces,
                                 np.full(n_slots, -1, dtype=np.int64)))
            break
        new = np.ones(len(order), dtype=bool)
        new[1:] = (slot[1:] != slot[:-1]) | (code[1:] != code[:-1])
        distinct = np.bincount(slot[new], minlength=n_slots)
        index = np.cumsum(new) - 1 - _row_starts(distinct)[slot]
        maps.append(_StepMap(slot[new], code[new], index[new], spaces,
                             distinct))
        prefix[order] = index
        spaces = distinct + 1
    return maps


class Vocabulary:
    """A model's observation keys, taken apart for `expand_templates`:
    under a vocabulary, expansion gives each slot the id of the model's
    observation, or -1, and builds no key.

    `keys` are the model's keys in id order, as the table's keys.  Each
    feature's values in those keys get codes 0, 1, ... (`values[f]`); a
    value in no key reads `len(values[f])`, so its radix is one more.
    A slot builds keys of its template id, its feature name and one
    value per offset; a key of another shape (an unknown template or
    name, another number of values) is one no expansion builds, and is
    left out.  Each group of slots of one arity (`groups`) keeps one
    `_StepMap` per offset (`_step_maps`).  The sentinels and values are
    those of the key strings, so the ids are those that
    `CrfModel.encode` finds for the string table's keys.

    Built once per command, one split and a few dict operations per
    key: time that grows with the model's keys, not with the tokens
    tagged.
    """

    def __init__(self, keys: list[str], templates: Iterable[Template],
                 unigram_features: Iterable[str],
                 conjunction_features: Iterable[str]):
        self.keys = keys
        self.names, self.slots = _slots(templates, unigram_features,
                                        conjunction_features)
        self.groups = list(_groups(self.slots))
        # per slot, the ids of its keys and their values, key by key
        slot_of = {(t.tid, self.names[f]): s
                   for s, (t, f) in enumerate(self.slots)}
        n_fields = [2 + len(t.offsets) for t, _ in self.slots]
        ids = [[] for _ in self.slots]
        texts = [[] for _ in self.slots]
        for j, key in enumerate(keys):
            fields = key.split("\t")
            s = slot_of.get(tuple(fields[:2]))
            if s is not None and len(fields) == n_fields[s]:
                ids[s].append(j)
                texts[s] += fields[2:]
        # each feature's values, coded in order of first appearance
        by_feature = [[] for _ in self.names]
        for (_, f), values in zip(self.slots, texts):
            by_feature[f] += values
        self.values = [dict(zip(dict.fromkeys(v), count()))
                       for v in by_feature]
        self.radix = np.array([len(v) + 1 for v in self.values],
                              dtype=np.int64)
        self.steps = []  # per group, a `_StepMap` per offset
        for group, feats, offsets in self.groups:
            codes = [np.fromiter(map(self.values[f].__getitem__, texts[s]),
                                 dtype=np.int64, count=len(texts[s]))
                     for s, f in zip(group, feats.tolist())]
            self.steps.append(_step_maps(
                np.repeat(np.arange(len(group)), [len(ids[s]) for s in group]),
                np.concatenate(codes).reshape(-1, offsets.shape[1]),
                np.fromiter(chain.from_iterable(ids[s] for s in group),
                            dtype=np.int64),
                self.radix[feats]))


def expand_templates(rows: Seq[dict[str, str]], types: np.ndarray,
                     lengths: Seq[int], templates: Iterable[Template],
                     unigram_features: Iterable[str],
                     conjunction_features: Iterable[str],
                     vocabulary: Optional[Vocabulary] = None
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
    one key per value of its feature that it reads at some position.  A
    conjunction slot combines its offsets' codes two at a time through
    the index of each distinct pair in its row, so that a combined code
    stays below the number of positions times the number of values, and
    it has one key per distinct combination.  So the table references
    every key it holds.

    Under a `vocabulary` built for the same templates and names, no key
    is built: the values get the vocabulary's codes, each slot's codes
    go through its step maps to the model's ids, and the table's keys
    are the vocabulary's, the model's in id order, with -1 for an
    observation the model does not have.
    """
    names, slots = _slots(templates, unigram_features, conjunction_features)
    if vocabulary is not None and (vocabulary.names, vocabulary.slots) != (
            names, slots):
        raise ValueError("the vocabulary was built for other templates or "
                         "feature names")
    lengths = tuple(lengths)
    n = len(types)
    # a sequence's padded slots: _BOS_ _BOS_ its values _EOS_ _EOS_;
    # position p sits at at[p]
    at = np.arange(n) + 4 * np.repeat(np.arange(len(lengths)), lengths) + 2
    starts = (np.cumsum((0, *lengths), dtype=np.int64)[:-1]
              + 4 * np.arange(len(lengths)))
    columns = np.empty((len(names), n + 4 * len(lengths)), dtype=np.int64)
    spelled = []  # per feature, a tab and each value, by code
    by_name = list(zip(*(tuple(map(row.get, names, repeat("_")))
                         for row in rows))) or [()] * len(names)
    for f, (column, values) in enumerate(zip(columns, by_name)):
        if vocabulary is None:
            code = {v: i for i, v in enumerate(dict.fromkeys((BOS, EOS,
                                                              *values)))}
            spelled.append(["\t" + v for v in code])
        else:
            code = vocabulary.values[f]
        unseen = len(code)
        column[:] = code.get(EOS, unseen)
        column[starts] = column[starts + 1] = code.get(BOS, unseen)
        column[at] = np.fromiter(map(code.get, values, repeat(unseen)),
                                 dtype=np.int64, count=len(rows))[types]
    if vocabulary is not None:
        # each feature's codes at each offset -2..2 of every position;
        # a slot's row at an offset is one row of this window
        window = columns[:, at + np.arange(-2, 3)[:, None]]
        ids_of = np.empty((len(slots), n), dtype=np.int32)
        for (group, feats, offsets), steps in zip(vocabulary.groups,
                                                  vocabulary.steps):
            radix = vocabulary.radix[feats, None]
            ids = window[feats, offsets[:, 0] + 2]
            for k, step in enumerate(steps):
                if k:
                    ids = ids * radix + window[feats, offsets[:, k] + 2]
                ids = step(ids)
            ids_of[group] = ids
        return ObservationTable(vocabulary.keys,
                                np.ascontiguousarray(ids_of.T), lengths)

    codes = np.empty((n, len(slots)), dtype=np.int32)
    n_values = np.array([len(v) for v in spelled], dtype=np.int64)
    # a tab and value v of feature f, at fragments[base[f] + v]
    base = _row_starts(n_values)
    fragments = [v for values in spelled for v in values]
    keys: list[str] = []
    for group, feats, offsets in _groups(slots):
        arity = offsets.shape[1]
        sizes = n_values[feats]
        heads = [f"{slots[s][0].tid}\t{names[f]}"
                 for s, f in zip(group, feats.tolist())]
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
        if arity == 1:
            # a conjunction's entries are combinations some position
            # has, but a unigram slot's are all its feature's values:
            # keep those a position reads (an offset-0 slot never reads
            # _BOS_), renumbered in order
            used = np.zeros(len(rows_of), dtype=bool)
            used[flat] = True
            flat = (np.cumsum(used) - 1)[flat]
            rows_of, parts = rows_of[used], [p[used] for p in parts]
        codes[:, group] = (flat + len(keys)).T
        keys += map("".join, zip(
            map(heads.__getitem__, rows_of.tolist()),
            *(map(fragments.__getitem__, p.tolist()) for p in parts)))
    return ObservationTable(keys, codes, lengths)


def featurize_sequence(seqs: Seq[Sequence], featurizer: Featurizer,
                       vocabulary: Optional[Vocabulary] = None
                       ) -> ObservationTable:
    """Rows + template expansion of the sequences `seqs` (a batch of
    documents, or a training corpus) in one call: the CRF input, one
    table for them all, with one row per token type.  (The name
    predates tables; `bench/tracing.py` wraps it by this name.)

    Without a vocabulary the table's keys are the observation strings,
    each built once: what training indexes and saves, and what `cv`
    slices for its folds.  With one (`Featurizer.vocabulary` of the
    model's keys), as `tag` passes when its input is long against the
    model (`pipeline.label_documents`), the codes are the model's ids
    and no key is built; `CrfModel.encode` gives the same ids either
    way."""
    rows, types = extract_rows(seqs, featurizer)
    return expand_templates(rows, types, tuple(map(len, seqs)), TEMPLATES,
                            featurizer.unigram_features,
                            featurizer.config.conjunction_features,
                            vocabulary)
