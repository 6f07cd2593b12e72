"""Rule-based TIMEX3 normalization anchored to a document creation time.

An extracted expression (a token list) is matched against an ordered rule
inventory; the first rule whose pattern matches the whole expression
computes a (type, value) pair with calendar arithmetic on the anchor.
Patterns are regular expressions over the lower-cased, space-joined token
surfaces, with a few macro atoms ({month}, {weekday}, ...) expanded at
compile time.
"""

from __future__ import annotations

import calendar
import functools
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, Optional, Sequence as Seq

from .corpus import TimexSpan, read_text

TIMEX_TYPES = ("DATE", "TIME", "DURATION", "SET")


class NormalizerError(ValueError):
    pass


@dataclass(frozen=True)
class Timex:
    span: TimexSpan
    type: str
    value: str

    def __post_init__(self):
        if self.type not in TIMEX_TYPES:
            raise NormalizerError(f"unknown timex type {self.type!r}")
        if not validate_value(self.type, self.value):
            raise NormalizerError(
                f"value {self.value!r} illegal for type {self.type}")


@dataclass(frozen=True)
class NormConfig:
    month_first: bool = True          # ambiguous 04/05/2013 reads as April 5
    bare_weekday: str = "nearest-past"


# ---------------------------------------------------------------- calendar

WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday",
            "saturday", "sunday")
_WEEKDAY_ABBREV = {"mon": 0, "tue": 1, "tues": 1, "wed": 2, "thu": 3,
                   "thur": 3, "thurs": 3, "fri": 4, "sat": 5, "sun": 6}

MONTHS = {name: i + 1 for i, name in enumerate(
    ("january", "february", "march", "april", "may", "june", "july",
     "august", "september", "october", "november", "december"))}
MONTHS.update({"jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7,
               "aug": 8, "sep": 9, "sept": 9, "oct": 10, "nov": 11,
               "dec": 12})

SEASONS = {"spring": "SP", "summer": "SU", "autumn": "FA", "fall": "FA",
           "winter": "WI"}

PARTS_OF_DAY = {"morning": "MO", "afternoon": "AF", "evening": "EV",
                "night": "NI", "tonight": "NI", "overnight": "NI",
                "nightfall": "EV", "dawn": "MO", "daybreak": "MO",
                "dusk": "EV"}

NUMBER_WORDS = {
    "a": 1, "an": 1, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
    "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
    "seventy": 70, "eighty": 80, "ninety": 90,
}

FUZZY_WORDS = ("few", "several", "some", "many", "couple")

UNIT_CODES = {"day": ("D", False), "week": ("W", False),
              "month": ("M", False), "year": ("Y", False),
              "decade": ("E", False),
              "hour": ("H", True), "minute": ("M", True),
              "second": ("S", True)}


def weekday_index(name: str) -> int:
    low = name.lower().rstrip(".")
    if low in WEEKDAYS:
        return WEEKDAYS.index(low)
    if low in _WEEKDAY_ABBREV:
        return _WEEKDAY_ABBREV[low]
    raise NormalizerError(f"unknown weekday {name!r}")


# How a weekday name resolves against the anchor: to the first day, at
# or after the given offset in days, that falls on that weekday.  last
# and next are strictly before and after the anchor; nearest-past and
# nearest-future resolve to the anchor itself when the weekday matches.
WEEKDAY_DIRECTIONS = {"last": -7, "next": 1, "nearest-past": -6,
                      "nearest-future": 0}


def resolve_weekday(name: str, direction: str, anchor: date) -> date:
    """Resolve a weekday name to a concrete date relative to the anchor,
    in one of the WEEKDAY_DIRECTIONS."""
    if direction not in WEEKDAY_DIRECTIONS:
        raise NormalizerError(f"unknown direction {direction!r}")
    first = WEEKDAY_DIRECTIONS[direction]
    delta = weekday_index(name) - anchor.weekday()
    return _shift(anchor, days=(delta - first) % 7 + first)


def _shift(d: date, **delta) -> date:
    """`d + timedelta(**delta)`; a date outside datetime's range means
    the rule does not apply."""
    try:
        return d + timedelta(**delta)
    except OverflowError as exc:
        raise NormalizerError(f"date out of range ({exc})") from None


def add_period(base: date, n: int, unit: str) -> date:
    """Calendar-correct date arithmetic; month/year steps clamp the day
    of month to the target month's length.  A date outside datetime's
    range means the rule does not apply."""
    if unit in ("day", "week"):
        return _shift(base, **{unit + "s": n})
    if unit == "month":
        year, month = divmod(base.year * 12 + (base.month - 1) + n, 12)
        month += 1
    elif unit in ("year", "decade"):
        year = base.year + (n * 10 if unit == "decade" else n)
        month = base.month
    else:
        raise NormalizerError(f"unknown unit {unit!r}")
    try:
        return date(year, month,
                    min(base.day, calendar.monthrange(year, month)[1]))
    except (OverflowError, ValueError) as exc:
        raise NormalizerError(f"date out of range ({exc})") from None


def iso_week(d: date) -> str:
    iso = d.isocalendar()
    return f"{iso[0]:04d}-W{iso[1]:02d}"


# ---------------------------------------------------------------- grammar

_DATE_VALUE = re.compile(
    r"\d{4}(-\d{2}(-\d{2})?)?"        # YYYY[-MM[-DD]]
    r"|\d{4}-W\d{2}"                  # ISO week
    r"|\d{4}-Q[1-4]"                  # quarter
    r"|\d{3}"                         # decade
    r"|\d{2}"                         # century
    r"|PAST_REF|PRESENT_REF|FUTURE_REF"
    r"|\d{4}-(SP|SU|FA|WI)")
_TIME_VALUE = re.compile(
    r"\d{4}-\d{2}-\d{2}T(\d{2}(:\d{2})?|MO|AF|EV|NI)"
    r"|PRESENT_REF")
_PERIOD_VALUE = re.compile(
    r"P(?!$)((\d+|X)Y)?((\d+|X)M)?((\d+|X)W)?((\d+|X)D)?"
    r"(T(?!$)((\d+|X)H)?((\d+|X)M)?((\d+|X)S)?)?")


def validate_value(ttype: str, value: str) -> bool:
    """Check a value string against the grammar for its type."""
    if not value:
        return False
    if ttype == "DATE":
        return _DATE_VALUE.fullmatch(value) is not None
    if ttype == "TIME":
        return _TIME_VALUE.fullmatch(value) is not None
    if ttype in ("DURATION", "SET"):
        return (_PERIOD_VALUE.fullmatch(value) is not None
                and value not in ("P", "PT"))
    return False


# ---------------------------------------------------------------- rules

@dataclass(frozen=True)
class NormRule:
    id: str
    priority: int
    pattern: str                       # macro form, kept for dumping
    type_out: str
    value_fn: str
    args: tuple[str, ...] = ()
    regex: re.Pattern = field(compare=False, default=None, repr=False)


_MACROS = {
    "month": "|".join(sorted(MONTHS, key=len, reverse=True)),
    "weekday": "|".join(sorted(list(WEEKDAYS) + list(_WEEKDAY_ABBREV),
                               key=len, reverse=True)),
    "season": "|".join(SEASONS),
    "pod": "|".join(sorted(PARTS_OF_DAY, key=len, reverse=True)),
    "numword": "|".join(sorted(NUMBER_WORDS, key=len, reverse=True)),
    "fuzzy": "(?:a |an )?(?:" + "|".join(FUZZY_WORDS) + ")",
    "unit": "day|week|month|year|decade|hour|minute|second",
    "approx": r"(?:about |around |approximately |nearly |almost |some |roughly |over |more than |less than |at least )?",
    "the": r"(?:the )?",
    "ordsuf": r"(?:st|nd|rd|th)?",
}


def compile_pattern(pattern: str) -> re.Pattern:
    """Expand {macro} atoms; ``{{n,m}}`` doubles escape literal regex
    quantifier braces."""
    expanded = pattern
    for name, alt in _MACROS.items():
        expanded = expanded.replace("{" + name + "}", alt)
    expanded = expanded.replace("{{", "{").replace("}}", "}")
    return re.compile(expanded)


def make_rule(rid, priority, pattern, type_out, value_fn, *args) -> NormRule:
    return NormRule(rid, priority, pattern, type_out, value_fn,
                    tuple(args), compile_pattern(pattern))


def _count(text: Optional[str]) -> Optional[int]:
    """Numeric or spelled-out count; None for fuzzy quantifiers."""
    if text is None:
        return None
    text = text.strip()
    if text.isdigit():
        return int(text)
    if text.split()[-1] in FUZZY_WORDS:
        return None
    if text in NUMBER_WORDS:
        return NUMBER_WORDS[text]
    raise NormalizerError(f"uncountable quantity {text!r}")


def _ymd(y: int, m: int, d: int) -> str:
    try:
        date(y, m, d)
    except ValueError as exc:
        raise NormalizerError(f"invalid date {y}-{m}-{d}") from exc
    return f"{y:04d}-{m:02d}-{d:02d}"


def _expand_year(y: int, anchor: date) -> int:
    """A two-digit year is the year nearest the anchor's that ends in
    those digits; at a 50-year tie the earlier year wins."""
    if y >= 100:
        return y
    century = anchor.year - anchor.year % 100
    return min((century - 100 + y, century + y, century + 100 + y),
               key=lambda c: abs(c - anchor.year))


def _month_num(name: str) -> int:
    return MONTHS[name.lower()]


def _granular(d: date, unit: str) -> str:
    if unit == "day":
        return d.isoformat()
    if unit == "week":
        return iso_week(d)
    if unit == "month":
        return f"{d.year:04d}-{d.month:02d}"
    if unit in ("year", "decade"):
        return f"{d.year:04d}"
    return d.isoformat()


def _period(n: Optional[int], unit: str) -> str:
    unit = unit.rstrip("s")
    code, in_time = UNIT_CODES[unit]
    amount = "X" if n is None else str(n)
    if unit == "decade":
        amount = "X" if n is None else str(n * 10)
        return f"P{amount}Y"
    return f"PT{amount}{code}" if in_time else f"P{amount}{code}"


# value functions: (match, anchor, config, args) -> (type, value)

def _vf_fixed(m, anchor, config, args):
    return args[0]


def _vf_date_mdy(m, anchor, config, args):
    y = _expand_year(int(m["y"]), anchor) if m.groupdict().get("y") \
        else anchor.year
    return _ymd(y, _month_num(m["mon"]), int(m["d"]))


def _vf_month_year(m, anchor, config, args):
    y = _expand_year(int(m["y"]), anchor) if m.groupdict().get("y") \
        else anchor.year
    return f"{y:04d}-{_month_num(m['mon']):02d}"


def _vf_numeric_date(m, anchor, config, args):
    a, b = int(m["a"]), int(m["b"])
    y = _expand_year(int(m["y"]), anchor)
    month, day = (a, b) if config.month_first else (b, a)
    if month > 12 and day <= 12:
        month, day = day, month
    return _ymd(y, month, day)


def _vf_iso_date(m, anchor, config, args):
    if m.groupdict().get("d") and m["d"] is not None:
        return _ymd(int(m["y"]), int(m["m"]), int(m["d"]))
    return f"{int(m['y']):04d}-{int(m['m']):02d}"


def _vf_year(m, anchor, config, args):
    return f"{int(m['y']):04d}"


def _vf_decade(m, anchor, config, args):
    return m["y"][:3]


def _vf_century(m, anchor, config, args):
    return f"{int(m['n']) - 1:02d}"


def _vf_quarter(m, anchor, config, args):
    words = {"first": 1, "second": 2, "third": 3, "fourth": 4,
             "1st": 1, "2nd": 2, "3rd": 3, "4th": 4}
    text = m["q"]
    n = words.get(text, None)
    if n is None:
        n = int(text)
    return f"{anchor.year:04d}-Q{n}"


def _vf_week_rel(m, anchor, config, args):
    shift = {"last": -1, "this": 0, "next": 1}[m["dir"]]
    return iso_week(_shift(anchor, weeks=shift))


def _vf_unit_rel(m, anchor, config, args):
    # "last month", "next year", "this week"
    shift = {"last": -1, "this": 0, "next": 1}[m["dir"]]
    unit = m["unit"].rstrip("s")
    return _granular(add_period(anchor, shift, unit), unit)


def _vf_weekday(m, anchor, config, args):
    direction = args[0] if args else config.bare_weekday
    if "dir" in m.groupdict() and m["dir"]:
        direction = {"last": "last", "next": "next",
                     "this": "nearest-future"}[m["dir"]]
    d = resolve_weekday(m["wd"], direction, anchor)
    if m.groupdict().get("pod"):
        return ("TIME", f"{d.isoformat()}T{PARTS_OF_DAY[m['pod']]}")
    return d.isoformat()


def _vf_deictic_day(m, anchor, config, args):
    return _shift(anchor, days=int(args[0])).isoformat()


def _vf_deictic_pod(m, anchor, config, args):
    if args:
        shift = int(args[0])
    else:
        word = m.groupdict().get("day") or "today"
        shift = {"yesterday": -1, "today": 0, "this": 0, "tomorrow": 1,
                 "last": -1}.get(word, 0)
    d = _shift(anchor, days=shift)
    pod = m.groupdict().get("pod")
    if pod in ("noon", "midday"):
        return f"{d.isoformat()}T12:00"
    if pod == "midnight":
        return f"{d.isoformat()}T00:00"
    code = PARTS_OF_DAY[pod] if pod else "NI"
    return f"{d.isoformat()}T{code}"


def _vf_offset(m, anchor, config, args):
    sign = 1 if args[0] == "+" else -1
    n = _count(m["n"])
    unit = m["unit"].rstrip("s")
    if n is None:
        return ("DATE", "PAST_REF" if sign < 0 else "FUTURE_REF")
    if unit in ("hour", "minute", "second"):
        return anchor.isoformat()
    return _granular(add_period(anchor, sign * n, unit), unit)


def _vf_season(m, anchor, config, args):
    gd = m.groupdict()
    if gd.get("y"):
        year = int(m["y"])
    else:
        year = anchor.year
        if gd.get("dir"):
            year += {"last": -1, "this": 0, "next": 1}[m["dir"]]
    return f"{year:04d}-{SEASONS[m['season']]}"


def _vf_clock(m, anchor, config, args):
    hour = int(m["h"])
    minute = int(m["mi"]) if m.groupdict().get("mi") else 0
    ap = (m.groupdict().get("ap") or "").replace(" ", "").replace(".", "")
    if ap.startswith("p") and hour < 12:
        hour += 12
    if ap.startswith("a") and hour == 12:
        hour = 0
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        raise NormalizerError(f"invalid clock time {m.group(0)!r}")
    return f"{anchor.isoformat()}T{hour:02d}:{minute:02d}"


def _vf_duration(m, anchor, config, args):
    n = _count(m["n"]) if m.groupdict().get("n") else None
    if m.groupdict().get("half"):
        return "PT30M"
    return _period(n, m["unit"])


def _vf_set_every(m, anchor, config, args):
    n = _count(m["n"]) if m.groupdict().get("n") else 1
    if m.groupdict().get("other"):
        n = 2
    return _period(n, m["unit"])


VALUE_FNS: dict[str, Callable] = {
    "fixed": _vf_fixed,
    "date_mdy": _vf_date_mdy,
    "month_year": _vf_month_year,
    "numeric_date": _vf_numeric_date,
    "iso_date": _vf_iso_date,
    "year": _vf_year,
    "decade": _vf_decade,
    "century": _vf_century,
    "quarter": _vf_quarter,
    "week_rel": _vf_week_rel,
    "unit_rel": _vf_unit_rel,
    "weekday": _vf_weekday,
    "deictic_day": _vf_deictic_day,
    "deictic_pod": _vf_deictic_pod,
    "offset": _vf_offset,
    "season": _vf_season,
    "clock": _vf_clock,
    "duration": _vf_duration,
    "set_every": _vf_set_every,
}


@functools.cache
def builtin_rules() -> tuple[NormRule, ...]:
    """The built-in rules, compiled once per process."""
    r = make_rule
    rules = [
        # explicit dates, textual month
        r("date_mdy", 100,
          r"{the}(?P<mon>{month}) (?P<d>\d{{1,2}}){ordsuf}(?: ,)? (?P<y>\d{{4}})",
          "DATE", "date_mdy"),
        r("date_dmy", 101,
          r"{the}(?P<d>\d{{1,2}}){ordsuf} (?:of )?(?P<mon>{month})(?: ,)? (?P<y>\d{{4}})",
          "DATE", "date_mdy"),
        r("date_md", 110,
          r"{the}(?P<mon>{month}) (?P<d>\d{{1,2}}){ordsuf}",
          "DATE", "date_mdy"),
        r("date_dm", 111,
          r"{the}(?P<d>\d{{1,2}}){ordsuf} (?:of )?(?P<mon>{month})",
          "DATE", "date_mdy"),
        r("month_year", 120,
          r"(?P<mon>{month})(?: ,)? (?P<y>\d{{4}})",
          "DATE", "month_year"),
        r("month_year_tok", 121,
          r"(?P<mon>{month})-(?P<y>\d{{4}})", "DATE", "month_year"),
        r("month_alone", 400, r"{the}(?P<mon>{month})", "DATE", "month_year"),
        # numeric dates (single token thanks to the tokenizer)
        r("numeric_slash", 130,
          r"(?P<a>\d{{1,2}})/(?P<b>\d{{1,2}})/(?P<y>\d{{2}}(?:\d{{2}})?)",
          "DATE", "numeric_date"),
        r("iso_date", 131,
          r"(?P<y>\d{{4}})-(?P<m>\d{{1,2}})(?:-(?P<d>\d{{1,2}}))?",
          "DATE", "iso_date"),
        # decades / centuries / years / quarters
        r("decade", 140, r"{the}(?:early |late |mid-?)?(?P<y>\d{{3}}0)s",
          "DATE", "decade"),
        r("century", 141,
          r"{the}(?P<n>\d{{1,2}})(?:st|nd|rd|th) century", "DATE", "century"),
        r("year", 150, r"(?:the year )?(?P<y>\d{{4}})", "DATE", "year"),
        r("quarter", 160,
          r"{the}(?P<q>first|second|third|fourth|1st|2nd|3rd|4th) quarter",
          "DATE", "quarter"),
        r("quarter_q", 161, r"q(?P<q>[1-4])", "DATE", "quarter"),
        # weeks and generic last/next units
        r("week_rel", 170, r"(?P<dir>last|next|this) week",
          "DATE", "week_rel"),
        r("unit_rel", 171, r"(?P<dir>last|next|this) (?P<unit>month|year)",
          "DATE", "unit_rel"),
        # weekdays
        r("weekday_dir_pod", 180,
          r"(?P<dir>last|next|this) (?P<wd>{weekday}) (?P<pod>{pod})",
          "TIME", "weekday"),
        r("weekday_dir", 181, r"(?P<dir>last|next|this) (?P<wd>{weekday})",
          "DATE", "weekday"),
        r("weekday_pod", 182, r"(?:on )?(?P<wd>{weekday}) (?P<pod>{pod})",
          "TIME", "weekday"),
        r("weekday", 183, r"(?:on )?(?P<wd>{weekday})", "DATE", "weekday"),
        # deictic day words
        r("day_before_yesterday", 190, r"{the}day before yesterday",
          "DATE", "deictic_day", "-2"),
        r("day_after_tomorrow", 191, r"{the}day after tomorrow",
          "DATE", "deictic_day", "2"),
        r("yesterday", 192, r"yesterday", "DATE", "deictic_day", "-1"),
        r("tomorrow", 193, r"tomorrow", "DATE", "deictic_day", "1"),
        r("today", 194, r"today", "DATE", "deictic_day", "0"),
        # parts of day
        r("deictic_pod", 200,
          r"(?P<day>yesterday|this|tomorrow|last) (?P<pod>{pod})",
          "TIME", "deictic_pod"),
        r("tonight", 201, r"tonight", "TIME", "deictic_pod", "0"),
        r("last_night", 202, r"last night", "TIME", "deictic_pod", "-1"),
        r("pod_alone", 410, r"(?:in )?{the}(?P<pod>{pod})",
          "TIME", "deictic_pod"),
        # offsets from the anchor
        r("ago", 210,
          r"{approx}(?P<n>\d+|{numword}|{fuzzy}) (?:of )?(?P<unit>{unit})s? "
          r"(?:ago|earlier|before)",
          "DATE", "offset", "-"),
        r("ahead", 211,
          r"{approx}(?P<n>\d+|{numword}|{fuzzy}) (?:of )?(?P<unit>{unit})s? "
          r"(?:later|ahead|hence|from (?:now|today))",
          "DATE", "offset", "+"),
        r("in_n_units", 212,
          r"in (?P<n>\d+|{numword}|{fuzzy}) (?P<unit>{unit})s?",
          "DATE", "offset", "+"),
        # seasons
        r("season_dir", 220, r"(?P<dir>last|next|this) (?P<season>{season})",
          "DATE", "season"),
        r("season", 221, r"{the}(?P<season>{season})(?: of (?P<y>\d{{4}}))?",
          "DATE", "season"),
        # clock times
        r("clock_hm", 230,
          r"(?:at )?(?P<h>\d{{1,2}}) : (?P<mi>\d{{2}})"
          r"(?: (?P<ap>am|pm|a \. m \.?|p \. m \.?))?",
          "TIME", "clock"),
        r("clock_h", 231,
          r"(?:at )?(?P<h>\d{{1,2}}) (?P<ap>am|pm|a \. m \.?|p \. m \.?)",
          "TIME", "clock"),
        r("clock_attached", 232, r"(?:at )?(?P<h>\d{{1,2}})(?P<ap>am|pm)",
          "TIME", "clock"),
        r("oclock", 233, r"(?:at )?(?P<h>\d{{1,2}}) o ' clock",
          "TIME", "clock"),
        # sets / frequencies
        r("freq_adverb", 240,
          r"daily|weekly|monthly|yearly|annually|hourly|nightly|quarterly",
          "SET", "fixed", "FREQ"),
        r("every_other", 241, r"every (?P<other>other) (?P<unit>{unit})s?",
          "SET", "set_every"),
        r("every_n", 242,
          r"every (?:(?P<n>\d+|{numword}) )?(?P<unit>{unit})s?",
          "SET", "set_every"),
        # durations
        r("half_hour", 250, r"(?P<half>half an hour|{the}half hour)",
          "DURATION", "duration"),
        r("duration", 251,
          r"{approx}(?:{the})?(?:(?P<n>\d+|{numword}|{fuzzy}) )?"
          r"(?:of )?(?P<unit>{unit})s?(?: long| old)?",
          "DURATION", "duration"),
        # fuzzy references
        r("past_ref", 300,
          r"recently|lately|in the (?:recent )?past|formerly|previously"
          r"|once|in recent (?:years|months|weeks|days)",
          "DATE", "fixed", "PAST_REF"),
        r("present_ref", 301,
          r"now|right now|currently|at present|presently|these days"
          r"|nowadays|at the moment",
          "DATE", "fixed", "PRESENT_REF"),
        r("future_ref", 302,
          r"soon|shortly|in the (?:near )?future|one day|someday"
          r"|in the (?:coming|next few) (?:years|months|weeks|days)",
          "DATE", "fixed", "FUTURE_REF"),
    ]
    return tuple(rules)


_FREQ_VALUES = {"daily": "P1D", "weekly": "P1W", "monthly": "P1M",
                "yearly": "P1Y", "annually": "P1Y", "hourly": "PT1H",
                "nightly": "P1D", "quarterly": "P3M"}


def load_rule_overrides(path) -> list[NormRule]:
    """Rule file: id<TAB>priority<TAB>pattern<TAB>type<TAB>value_fn[:args].

    A malformed line, an unknown value function, or an id that a built-in
    rule or an earlier line already has raises NormalizerError naming the
    file and the line."""
    lines = read_text(path, NormalizerError).splitlines()
    ids = {rule.id for rule in builtin_rules()}
    rules = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise NormalizerError(
                f"{path}: line {lineno}: expected 5 columns, "
                f"got {len(cols)}")
        rid, priority, pattern, type_out, fn_spec = cols
        fn, _, argstr = fn_spec.partition(":")
        args = tuple(argstr.split(",")) if argstr else ()
        try:
            priority = int(priority)
        except ValueError:
            raise NormalizerError(f"{path}: line {lineno}: priority "
                                  f"{priority!r} is not an integer") from None
        # an override can neither replace nor shadow a built-in rule
        if rid in ids:
            raise NormalizerError(
                f"{path}: line {lineno}: duplicate rule id {rid!r}")
        if fn not in VALUE_FNS:
            raise NormalizerError(
                f"{path}: line {lineno}: unknown value function {fn!r}")
        ids.add(rid)
        try:
            rules.append(make_rule(rid, priority, pattern, type_out,
                                   fn, *args))
        except re.error as exc:
            raise NormalizerError(f"{path}: line {lineno}: bad pattern "
                                  f"{pattern!r} ({exc})") from None
    return rules


def load_rules(overrides_path=None) -> list[NormRule]:
    """The rules `normalize` tries, in priority order: the built-in ones
    plus, given a path, those of a rule-override file."""
    rules = list(builtin_rules())
    if overrides_path:
        rules += load_rule_overrides(overrides_path)
    return sorted(rules, key=lambda r: (r.priority, r.id))


def dump_rules(rules: Optional[Seq[NormRule]] = None) -> str:
    lines = []
    for rule in (rules if rules is not None else load_rules()):
        fn = rule.value_fn + (":" + ",".join(rule.args) if rule.args else "")
        lines.append("\t".join([rule.id, str(rule.priority), rule.pattern,
                                rule.type_out, fn]))
    return "\n".join(lines)


def normalize(surfaces: Seq[str], anchor: date,
              rules: Optional[Seq[NormRule]] = None,
              config: NormConfig = NormConfig()
              ) -> Optional[tuple[str, str]]:
    """Normalize an expression (token surfaces) to (type, value),
    anchored to `anchor`, the document creation date.

    Rules are tried in priority order; the first whole-expression match
    wins.  Returns None when no rule matches (never a fabricated value).
    """
    if not surfaces:
        raise NormalizerError("empty expression")
    text = " ".join(s.lower() for s in surfaces)
    text = re.sub(r" ?' ?s$", "", text)  # possessive from split tokens
    for rule in (rules if rules is not None else load_rules()):
        m = rule.regex.fullmatch(text)
        if m is None:
            continue
        try:
            if (rule.value_fn == "fixed" and rule.args
                    and rule.args[0] == "FREQ"):
                return (rule.type_out, _FREQ_VALUES[m.group(0)])
            result = VALUE_FNS[rule.value_fn](m, anchor, config, rule.args)
        except NormalizerError:
            continue
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            # a value function that does not fit its rule's pattern or
            # arguments (a rule-override file can pair any), or calendar
            # arithmetic out of the datetime range
            raise NormalizerError(f"rule {rule.id} on {text!r}: {exc}"
                                  ) from exc
        if isinstance(result, tuple):
            ttype, value = result
        else:
            ttype, value = rule.type_out, result
        if not validate_value(ttype, value):
            continue
        return (ttype, value)
    return None
