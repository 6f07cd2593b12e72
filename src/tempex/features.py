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
from dataclasses import astuple, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

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


def collapsed_pattern(surface: str) -> str:
    """pattern() with runs of one class collapsed: 'Jan-2003' -> 'Xx-d'."""
    pat = pattern(surface)
    out = []
    for c in pat:
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


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


_RE_CARDINAL_DIGITS = re.compile(r"\d+")
_RE_ORDINAL_DIGITS = re.compile(r"\d+(st|nd|rd|th)")
_RE_TIME = re.compile(r"\d{1,2}(:\d{2}){1,2}|\d{1,2}(am|pm|h)")
_RE_DATE = re.compile(
    r"\d{4}|\d{1,2}[-/]\d{1,2}[-/]\d{2,4}|\d{4}[-/]\d{1,2}([-/]\d{1,2})?"
    r"|[a-z]{3,9}-\d{2,4}", re.IGNORECASE)
_RE_DECIMAL = re.compile(r"\d+\.\d+")
_RE_NUM_DOTS = re.compile(r"\d+(\.\d+)+")
_RE_ACRONYM = re.compile(r"([A-Z]\.)+[A-Z]?")
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
    full = re.fullmatch
    row = {
        "word": w,
        "lemma": tok.lemma if tok.lemma else low,
        "stem": stem(w),
        "pattern": pattern(w),
        "collapsed_pattern": collapsed_pattern(w),
        "prefix3": w[:3],
        "suffix3": w[-3:],
        "upper_first": _BOOL[w[0].isupper()],
        "ends_with_s": _BOOL[low.endswith("s")],
        "no_letters": re.sub(r"[A-Za-z]", "", w) or "_",
        "no_letters_digits": re.sub(r"[A-Za-z0-9]", "", w) or "_",
        "verb_tense": _PENN_TENSE.get(tok.pos or "", "_"),
        "lower": _BOOL[w.islower()],
        "alphabetic": _BOOL[w.isalpha()],
        "digit": _BOOL[w.isdigit()],
        "alphanumeric": _BOOL[w.isalnum()],
        "titled": _BOOL[w.istitle()],
        "capitalized": _BOOL[w[0].isupper() and w.isalpha()],
        "acronym": _BOOL[bool(full(_RE_ACRONYM, w))],
        "number": _BOOL[w.isdigit() or low in CARDINAL_WORDS],
        "decimal_number": _BOOL[bool(full(_RE_DECIMAL, w))],
        "number_with_dots": _BOOL[bool(full(_RE_NUM_DOTS, w))],
        "stopword": _BOOL[low in lex.stopwords],
        "cardinal": _BOOL[bool(full(_RE_CARDINAL_DIGITS, w))
                          or low in CARDINAL_WORDS],
        "ordinal": _BOOL[bool(full(_RE_ORDINAL_DIGITS, low))
                         or low in ORDINAL_WORDS],
        "time": _BOOL[bool(full(_RE_TIME, low))],
        "date": _BOOL[bool(full(_RE_DATE, low))
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


def extract_rows(seq: Sequence, featurizer: Featurizer
                 ) -> list[dict[str, str]]:
    """One feature row per token under the featurizer's profile."""
    rows = [token_features(tok, featurizer.lexicons) for tok in seq.tokens]
    if featurizer.config.use_syntax:
        for row, tok in zip(rows, seq.tokens):
            row["pos"] = tok.pos or "_"
            row["chunk"] = tok.chunk or "_"
            row["pnp"] = tok.pnp or "_"
    for gaz in featurizer.gazetteers:
        for row, lab in zip(rows, match_gazetteer(seq, gaz)):
            row[f"gaz_{gaz.name}"] = lab
    return rows


@lru_cache(maxsize=1024)
def _fragment_prefixes(names: tuple[str, ...], offset: int,
                       head: str = "") -> tuple[str, ...]:
    """``head + f[o]=`` for each feature name f, ``[+0]`` spelled ``[0]``."""
    return tuple(head + f"{f}[{offset:+d}]=".replace("[+0]", "[0]")
                 for f in names)


def expand_templates(rows: list[dict[str, str]],
                     templates: Iterable[Template],
                     unigram_features: Iterable[str],
                     conjunction_features: Iterable[str]
                     ) -> list[list[str]]:
    """Expand per-token rows into observation feature strings.

    For position p, template t and feature name f the emitted string is
    ``tid:f[o1]=v1|f[o2]=v2...``, with every ``[+0]`` in a ``f[o]=v``
    part spelled ``[0]``.  Out-of-range offsets read the _BOS_ / _EOS_
    sentinels, so every position gets the same number of strings.

    The strings are built column by column rather than position by
    position.  Each feature's values are padded with two sentinels at
    each end once.  Each template then gets one block, a list ordered by
    feature and then position: a unigram template's block is its
    ``tid:f[o]=`` prefixes joined to the shifted value columns, and a
    conjunction template's block joins the blocks of ``f[o]=v``
    fragments of its offsets, each built once per call.  Position p's
    strings are every n-th entry of each block, starting at p.
    """
    unigram_features = tuple(unigram_features)
    conjunction_features = tuple(conjunction_features)
    n = len(rows)
    padded = {f: [BOS, BOS,
                  *[row.get(f, "_").replace("[+0]", "[0]") for row in rows],
                  EOS, EOS]
              for f in dict.fromkeys(unigram_features + conjunction_features)}

    def block(names, offset, head=""):
        return [prefix + v
                for prefix, f in zip(_fragment_prefixes(names, offset, head),
                                     names)
                for v in padded[f][2 + offset:2 + offset + n]]

    fragments: dict[int, list[str]] = {}
    blocks = []
    for t in templates:
        tid, offsets = t.tid, t.offsets
        if len(offsets) == 1:
            blocks.append(block(unigram_features, offsets[0], tid + ":"))
            continue
        for o in offsets:
            if o not in fragments:
                fragments[o] = block(conjunction_features, o)
        parts = [fragments[o] for o in offsets]
        if len(parts) == 2:
            blocks.append([f"{tid}:{a}|{b}" for a, b in zip(*parts)])
        else:
            blocks.append([f"{tid}:{a}|{b}|{c}" for a, b, c in zip(*parts)])
    out = []
    for p in range(n):
        feats = []
        for b in blocks:
            feats += b[p::n]
        out.append(feats)
    return out


def featurize_sequence(seq: Sequence, featurizer: Featurizer
                       ) -> list[list[str]]:
    """Rows + template expansion in one call (the CRF input)."""
    return expand_templates(extract_rows(seq, featurizer), TEMPLATES,
                            featurizer.unigram_features,
                            featurizer.config.conjunction_features)
