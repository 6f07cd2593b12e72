"""Run configuration: flat key = value file with sections, overridable
from CLI flags.

Example:

    [crf]
    profile = model1
    C = 1.0
    eta = 0.0001
    max_iter = 300
    cutoff = 1

    [pipeline]
    enabled = true
    threshold = 0.87

    [paths]
    gazetteers = /path/to/gazetteers
    lexicons = /path/to/lexicons
    rules = /path/to/rule_overrides.tsv
    priors = /path/to/priors.tsv

    [normalizer]
    month_first = true
    bare_weekday = nearest-past

    [run]
    seed = 490
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .corpus import read_text
from .crf import CrfError, TrainConfig
from .features import PROFILES, Featurizer
from .postproc import DEFAULT_THRESHOLD
from .normalizer import WEEKDAY_DIRECTIONS, NormConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    profile: str = "model1"
    c: float = 1.0
    eta: float = 1e-4
    max_iter: int = 300
    cutoff: int = 1
    pipeline_enabled: bool = True
    threshold: float = DEFAULT_THRESHOLD
    gazetteer_dir: Optional[str] = None
    lexicon_dir: Optional[str] = None
    rules_path: Optional[str] = None
    priors_path: Optional[str] = None
    seed: int = 490
    month_first: bool = True
    bare_weekday: str = "nearest-past"
    fallback: bool = False

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r} (known: "
                              f"{', '.join(PROFILES)})")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        try:
            self.train_config()
        except CrfError as exc:
            raise ConfigError(str(exc)) from None
        if self.bare_weekday not in WEEKDAY_DIRECTIONS:
            raise ConfigError(
                f"unknown bare_weekday {self.bare_weekday!r} (known: "
                f"{', '.join(WEEKDAY_DIRECTIONS)})")
        for attr in ("gazetteer_dir", "lexicon_dir", "rules_path",
                     "priors_path"):
            path = getattr(self, attr)
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{attr} does not exist: {path}")

    def norm_config(self) -> NormConfig:
        return NormConfig(self.month_first, self.bare_weekday)

    def train_config(self) -> TrainConfig:
        return TrainConfig(self.c, self.eta, self.max_iter, self.cutoff)

    def featurizer(self, profile: str) -> Featurizer:
        """The featurizer of `profile` over this run's word lists."""
        return Featurizer(profile, self.lexicon_dir, self.gazetteer_dir)


def _flag(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


# Every key a config file may set: (section, key) -> the RunConfig field
# it sets and the parser of its text.  configparser lower-cases keys.
KEYS = {
    ("crf", "profile"): ("profile", str),
    ("crf", "c"): ("c", float),
    ("crf", "eta"): ("eta", float),
    ("crf", "max_iter"): ("max_iter", int),
    ("crf", "cutoff"): ("cutoff", int),
    ("pipeline", "enabled"): ("pipeline_enabled", _flag),
    ("pipeline", "threshold"): ("threshold", float),
    ("paths", "gazetteers"): ("gazetteer_dir", str),
    ("paths", "lexicons"): ("lexicon_dir", str),
    ("paths", "rules"): ("rules_path", str),
    ("paths", "priors"): ("priors_path", str),
    ("run", "seed"): ("seed", int),
    ("normalizer", "month_first"): ("month_first", _flag),
    ("normalizer", "bare_weekday"): ("bare_weekday", str),
}


def _read(path) -> configparser.ConfigParser:
    # no default section: a [DEFAULT] key is checked like any other
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section=None)
    try:
        parser.read_string(read_text(path, ConfigError), str(path))
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}"
                          ) from exc
    return parser


def configured_profile(path) -> Optional[str]:
    """The profile a config file sets, or None when it sets none."""
    return _read(path).get("crf", "profile", fallback=None)


def load_config(path) -> RunConfig:
    """The run configuration a file sets, with the defaults for what it
    does not set; a key not in KEYS raises ConfigError naming it."""
    parser = _read(path)
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in KEYS:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
    try:
        return RunConfig(**{
            field: parse(parser.get(section, key))
            for (section, key), (field, parse) in KEYS.items()
            if parser.has_option(section, key)})
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
