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
from functools import cached_property
from itertools import count, groupby, repeat
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
    """The observations of a list of sequences (a document, a batch of
    documents, a training corpus, or the whole corpus of a `cv`
    command), each distinct observation stored once, in `keys`.

    `codes[p, s]` (int32) numbers, among `keys`, the observation of slot
    s at position p; the positions of all sequences follow each other,
    `lengths` tokens per sequence, and -1 marks an empty slot (in a
    table expanded under a model's index, an observation the model does
    not have).  Slots are in template order, then feature order.  A
    table that `expand_templates` builds without an index references
    every observation it holds from some slot; a `take` of it may
    reference only some.  `len()` is the number of positions, and
    iterating yields each position's row of slot codes.  A sequence's
    rows depend on that sequence alone, so `take` of some sequences
    gives their positions the observations, and so the CRF index and
    encoding, of featurizing them afresh.
    """
    keys: "Observations"
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
    """The slots of an expansion, (template, feature name) in template
    order, then feature order, each template and name taken once."""
    unigram_features = tuple(dict.fromkeys(unigram_features))
    conjunction_features = tuple(dict.fromkeys(conjunction_features))
    return tuple((t, f) for t in dict.fromkeys(templates)
                 for f in (unigram_features if len(t.offsets) == 1
                           else conjunction_features))


def _groups(slots, names):
    """The slots of each arity, expanded together: per arity present,
    the slot numbers, the feature of each (an index into `names`) and
    its offsets (slots x arity)."""
    index = {f: i for i, f in enumerate(names)}
    for arity in (1, 2, 3):
        group = [s for s, (t, _) in enumerate(slots)
                 if len(t.offsets) == arity]
        if group:
            yield (group,
                   np.array([index[slots[s][1]] for s in group],
                            dtype=np.int64),
                   np.array([slots[s][0].offsets for s in group],
                            dtype=np.int64))


class FeatureError(ValueError):
    """An expansion whose combined codes would not fit int64, or under
    an index of other slots."""


# The combined codes of a group of slots stay below radix ** arity, and
# at most this many: about 1.66 million codes of a feature for a
# 3-offset template, 2 ** 31 for a pair.
MAX_CODES = 1 << 62


def _combine(digits: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """The one mixed-radix code of each slot's values at a position:
    `digits[k]` holds the code of the value at the slot's k-th offset,
    below `radix` (its feature's number of codes, broadcast against
    each `digits[k]`), and the first offset is the most significant, so
    the code is the sum over k of digits[k] * radix ** (arity - 1 - k).
    Codes thus order as the tuples of values do.

    Raises FeatureError when radix ** arity passes `MAX_CODES`."""
    arity = len(digits)
    if radix.size and int(radix.max()) ** arity > MAX_CODES:
        raise FeatureError(
            f"a feature of {int(radix.max()):,} codes has more than "
            f"2**62 combinations at {arity} offsets: too many values")
    code = digits[0]
    for k in range(1, arity):
        code = code * radix + digits[k]
    return code


# A step map keeps a dense table for a slot of at most this many codes,
# and searches the sorted codes of its observations for a larger one.
DENSE_CODES = 1 << 12


class _StepMap:
    """Per slot s (a row of the codes it maps), a map from the combined
    codes of its observations (`_combine`), below `spaces[s]`, to their
    ids, and from any other code to -1.

    Built from one entry (slot, code, id) per observation.  The slots of
    small code spaces share one dense table; each other slot keeps its
    observations' sorted codes, ended by the largest int64, and their
    ids, ended by -1, for `np.searchsorted`."""

    def __init__(self, slots: np.ndarray, codes: np.ndarray,
                 ids: np.ndarray, spaces: np.ndarray):
        order = np.lexsort((codes, slots))
        slots, codes, ids = slots[order], codes[order], ids[order]
        dense = spaces <= DENSE_CODES
        base = np.zeros(len(spaces), dtype=np.int64)
        base[dense] = _row_starts(spaces[dense])
        self.base = base[:, None]
        self.table = np.full(spaces[dense].sum(), -1, dtype=np.int64)
        at = dense[slots]
        self.table[base[slots[at]] + codes[at]] = ids[at]
        bounds = np.searchsorted(slots, np.arange(len(spaces) + 1))
        self.sparse = [
            (s, np.append(codes[bounds[s]:bounds[s + 1]],
                          np.iinfo(np.int64).max),
             np.append(ids[bounds[s]:bounds[s + 1]], -1))
            for s in np.flatnonzero(~dense).tolist()]

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """The id of each code of `codes`, row s holding slot s's.  A
        searched slot's row first reads the dense table, clipped (if
        there is one), and is then overwritten."""
        out = (self.table.take(codes + self.base, mode="clip")
               if self.table.size else np.empty(codes.shape, np.int64))
        for s, keys, ids in self.sparse:
            i = np.searchsorted(keys, codes[s])
            out[s] = np.where(keys[i] == codes[s], ids[i], -1)
        return out


class Observations:
    """Distinct observations in code space: those of an
    `ObservationTable`, or a model's index, where observation i has id i.

    `slots` are (template, feature name) pairs (`_slots`), and `names`
    their feature names in order of first use.  `values[f]` holds
    feature f's values by code; the code `len(values[f])` stands for any
    other value, so the feature's radix is one more (`radix`).
    Observation i is slot `pairs[i, 0]` (int64) with the mixed-radix
    code `pairs[i, 1]` of the values at the slot's offsets (`_combine`).
    No name or value holds a tab or a line break (`corpus.Token` refuses
    such annotations).

    `obs[i]` spells observation i as (template id, feature name, value
    at each offset), which names it whatever its codes, and `in` takes
    such a tuple.  As a model's index, the observations map each slot's
    combined codes to their ids through one `_StepMap` per group of
    slots of one arity (`maps`); an index made by `subset` also knows
    the id of each observation of the set it was made from (`lookup`).
    """

    def __init__(self, slots, values: list[list[str]], pairs: np.ndarray,
                 parent: Optional[tuple["Observations", np.ndarray]] = None):
        self.slots = tuple(slots)
        self.names = tuple(dict.fromkeys(f for _, f in self.slots))
        self.values = values
        self.pairs = pairs
        self.parent = parent

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return (isinstance(other, Observations)
                and (self.slots, self.values) == (other.slots, other.values)
                and np.array_equal(self.pairs, other.pairs))

    def __getitem__(self, i: int) -> tuple[str, ...]:
        slot, code = self.pairs[i].tolist()
        template, name = self.slots[slot]
        values = self.values[self.names.index(name)]
        spelled = []
        for _ in template.offsets:
            code, value = divmod(code, len(values) + 1)
            spelled.append(values[value])
        return (template.tid, name, *spelled[::-1])

    def __contains__(self, observation) -> bool:
        return tuple(observation) in self._spelled

    @cached_property
    def _spelled(self) -> set[tuple[str, ...]]:
        return set(map(self.__getitem__, range(len(self))))

    @cached_property
    def radix(self) -> np.ndarray:
        return np.array([len(v) + 1 for v in self.values], dtype=np.int64)

    @cached_property
    def value_codes(self) -> list[dict[str, int]]:
        """Per feature, each value's code."""
        return [dict(zip(v, count())) for v in self.values]

    @cached_property
    def maps(self) -> list[_StepMap]:
        """Per group of slots of one arity (`_groups`), the step map from
        a slot's combined codes to its observations' ids."""
        slot = self.pairs[:, 0]
        maps = []
        for group, feats, offsets in _groups(self.slots, self.names):
            at = np.full(len(self.slots), -1, dtype=np.int64)
            at[group] = np.arange(len(group))
            ids = np.flatnonzero(at[slot] >= 0)
            maps.append(_StepMap(at[slot[ids]], self.pairs[ids, 1], ids,
                                 self.radix[feats] ** offsets.shape[1]))
        return maps

    def subset(self, kept: np.ndarray) -> "Observations":
        """The observations numbered `kept`, renumbered in that order:
        an index whose `lookup` of this set gives each observation's new
        number."""
        ids = np.full(len(self) + 1, -1, dtype=np.int32)
        ids[kept] = np.arange(kept.size)
        return Observations(self.slots, self.values, self.pairs[kept],
                            (self, ids))

    def lookup(self, other: "Observations") -> np.ndarray:
        """The id of each observation of `other`, the set this index was
        made from by `subset`, or -1, then -1 for what an empty slot's
        code reads: one gather of a table's codes gives their ids."""
        if self.parent is None or other is not self.parent[0]:
            raise ValueError("a table is encoded under the index it was "
                             "expanded under, or the one it was indexed "
                             "from")
        return self.parent[1]


def expand_templates(rows: Seq[dict[str, str]], types: np.ndarray,
                     lengths: Seq[int], templates: Iterable[Template],
                     unigram_features: Iterable[str],
                     conjunction_features: Iterable[str],
                     index: Optional[Observations] = None
                     ) -> ObservationTable:
    """Expand the feature rows of sequences into one observation table.

    Position p reads row `rows[types[p]]`; the positions of all
    sequences follow each other, `lengths` per sequence.

    For position p, slot (template t, feature name f) observes the
    values of f at t's offsets.  Offsets outside the sequence read the
    _BOS_ / _EOS_ sentinels, so every position fills every slot.
    Repeated templates and names are expanded once.

    Each feature's values get small int codes (sentinels first), looked
    up once per row and laid out per sequence between two _BOS_ and two
    _EOS_ slots of its own, so that a shifted read never crosses into
    the next sequence; one gather reads every feature's codes at
    offsets -2..2 of every position.  The templates of one arity are
    expanded together, one row per slot, and a slot gives each position
    one mixed-radix code of its values (`_combine`): the radix is the
    feature's number of codes plus one, so a feature of more than about
    1.66 million values under a 3-offset template (2 ** 31 under a pair)
    raises FeatureError.  A unigram slot has one observation per value
    of its feature that it reads at some position, a conjunction slot
    one per distinct code of its row (`_distinct_per_row`); a slot's
    observations follow in ascending code, so the table references
    every observation it holds, and none is spelled.

    Under an `index` (a model's `Observations`) of the same slots, the
    values get the index's codes, one dict lookup per distinct value
    and feature, each slot's combined codes go through its group's step
    map to the model's ids, and the table's keys are the index, with -1
    for an observation the model does not have.
    """
    slots = _slots(templates, unigram_features, conjunction_features)
    if index is not None and index.slots != slots:
        raise FeatureError("the index was built for other templates or "
                           "feature names")
    names = tuple(dict.fromkeys(f for _, f in slots))
    lengths = tuple(lengths)
    n = len(types)
    # a sequence's padded slots: _BOS_ _BOS_ its values _EOS_ _EOS_;
    # position p sits at at[p]
    at = np.arange(n) + 4 * np.repeat(np.arange(len(lengths)), lengths) + 2
    starts = (np.cumsum((0, *lengths), dtype=np.int64)[:-1]
              + 4 * np.arange(len(lengths)))
    columns = np.empty((len(names), n + 4 * len(lengths)), dtype=np.int64)
    values = []  # per feature, its values by code
    by_name = list(zip(*(tuple(map(row.get, names, repeat("_")))
                         for row in rows))) or [()] * len(names)
    for f, (column, row_values) in enumerate(zip(columns, by_name)):
        if index is None:
            code = dict(zip(dict.fromkeys((BOS, EOS, *row_values)),
                            count()))
            values.append(list(code))
        else:
            code = index.value_codes[f]
        unseen = len(code)
        column[:] = code.get(EOS, unseen)
        column[starts] = column[starts + 1] = code.get(BOS, unseen)
        column[at] = np.fromiter(map(code.get, row_values, repeat(unseen)),
                                 dtype=np.int64, count=len(rows))[types]
    radix = (np.array([len(v) + 1 for v in values], dtype=np.int64)
             if index is None else index.radix)
    # each feature's codes at each offset -2..2 of every position; a
    # slot's digits are rows of this window
    window = columns[:, at + np.arange(-2, 3)[:, None]]
    codes = np.empty((len(slots), n), dtype=np.int32)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    n_obs = 0
    for g, (group, feats, offsets) in enumerate(_groups(slots, names)):
        combined = _combine(window[feats, offsets.T + 2], radix[feats, None])
        if index is not None:
            codes[group] = index.maps[g](combined)
            continue
        if offsets.shape[1] == 1:
            # a unigram slot's observations are the values it reads (an
            # offset-0 slot never reads _BOS_): `flat` is each position's
            # index among all the group's, `distinct` each one's code
            sizes = radix[feats]
            first = _row_starts(sizes)
            flat = combined + first[:, None]
            used = np.zeros(sizes.sum(), dtype=bool)
            used[flat] = True
            flat = (np.cumsum(used) - 1)[flat]
            rows_of = np.repeat(np.arange(len(group)), sizes)[used]
            distinct = np.flatnonzero(used) - first[rows_of]
        else:
            distinct, counts, flat = _distinct_per_row(combined)
            rows_of = np.repeat(np.arange(len(group)), counts)
        codes[group] = flat + n_obs
        n_obs += len(distinct)
        pairs.append(np.stack([np.asarray(group)[rows_of], distinct], axis=1))
    keys = (index if index is not None
            else Observations(slots, values, np.concatenate(pairs)))
    return ObservationTable(keys, codes.T.copy(), lengths)


def featurize_sequence(seqs: Seq[Sequence], featurizer: Featurizer,
                       index: Optional[Observations] = None
                       ) -> ObservationTable:
    """Rows + template expansion of the sequences `seqs` (a batch of
    documents, or a training corpus) in one call: the CRF input, one
    table for them all, with one row per token type.  (The name
    predates tables; `bench/tracing.py` wraps it by this name.)

    Without an index the table holds its own observations: what
    training indexes, and what `cv` slices for its folds.  Decoding
    passes the model's index (`CrfModel.obs_index`), and the codes are
    then the model's ids."""
    rows, types = extract_rows(seqs, featurizer)
    return expand_templates(rows, types, tuple(map(len, seqs)), TEMPLATES,
                            featurizer.unigram_features,
                            featurizer.config.conjunction_features, index)
