"""Run configuration: flat key = value file with sections, overridable
from CLI flags.

Example:

    [crf]
    profile = model1
    C = 1.0
    eta = 0.0001
    max_iter = 300

    [pipeline]
    enabled = true
    threshold = 0.87
    stages = prob_correction,bio_fixer,threshold_switcher,bio_fixer

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
from .features import PROFILES, Featurizer
from .postproc import (DEFAULT_STAGES, DEFAULT_THRESHOLD, PipelineConfig,
                       PostprocError)
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
    stages: tuple[str, ...] = DEFAULT_STAGES
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
        try:
            self.pipeline_config()
        except PostprocError as exc:
            raise ConfigError(str(exc)) from exc
        if self.bare_weekday not in WEEKDAY_DIRECTIONS:
            raise ConfigError(
                f"unknown bare_weekday {self.bare_weekday!r} (known: "
                f"{', '.join(WEEKDAY_DIRECTIONS)})")
        for attr in ("gazetteer_dir", "lexicon_dir", "rules_path",
                     "priors_path"):
            path = getattr(self, attr)
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{attr} does not exist: {path}")

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(self.threshold, self.stages)

    def norm_config(self) -> NormConfig:
        return NormConfig(self.month_first, self.bare_weekday)

    def featurizer(self, profile: str) -> Featurizer:
        """The featurizer of `profile` over this run's word lists."""
        return Featurizer(profile, self.lexicon_dir, self.gazetteer_dir)


def _get(parser, section, key, default):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return default


def _read(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
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
    return _get(_read(path), "crf", "profile", None)


def load_config(path) -> RunConfig:
    parser = _read(path)
    base = RunConfig()
    try:
        stages = _get(parser, "pipeline", "stages",
                      ",".join(DEFAULT_STAGES))
        return RunConfig(
            profile=_get(parser, "crf", "profile", base.profile),
            c=float(_get(parser, "crf", "C", base.c)),
            eta=float(_get(parser, "crf", "eta", base.eta)),
            max_iter=int(_get(parser, "crf", "max_iter", base.max_iter)),
            cutoff=int(_get(parser, "crf", "cutoff", base.cutoff)),
            pipeline_enabled=str(_get(parser, "pipeline", "enabled",
                                      "true")).lower() in ("1", "true",
                                                           "yes", "on"),
            threshold=float(_get(parser, "pipeline", "threshold",
                                 base.threshold)),
            stages=tuple(s.strip() for s in stages.split(",") if s.strip()),
            gazetteer_dir=_get(parser, "paths", "gazetteers", None),
            lexicon_dir=_get(parser, "paths", "lexicons", None),
            rules_path=_get(parser, "paths", "rules", None),
            priors_path=_get(parser, "paths", "priors", None),
            seed=int(_get(parser, "run", "seed", base.seed)),
            month_first=str(_get(parser, "normalizer", "month_first",
                                 "true")).lower() in ("1", "true", "yes",
                                                      "on"),
            bare_weekday=_get(parser, "normalizer", "bare_weekday",
                              base.bare_weekday),
        )
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
