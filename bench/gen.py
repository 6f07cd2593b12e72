"""Seeded generator of labelled news-like corpora with TIMEX3 gold.

Every gold type and value is computed here with `datetime` arithmetic,
never through `tempex.normalizer`, so the benchmark can check the
normalizer against an independent oracle.

The make-up of a corpus is fixed by its size, not by the seed: sentence
i of document j always draws the same expression family, the same number
of filler clauses and the same sentence shape.  The seed picks the DCTs,
the values inside each expression, the carrier phrases, the names and the
filler text.  That keeps token counts and difficulty steady from seed to
seed while the inputs themselves change.

Identification is kept short of perfect on purpose:
  * training and test sets draw numerals, days of month, years and names
    from disjoint pools (held-out vocabulary);
  * filler clauses carry distractor numbers ("250 workers", "12 percent")
    and month-name / season homographs ("prices may fall", "to march").

The "half an hour" duration family is left out: the normalizer raises
IndexError on it (see CHANGES.md).
"""

from __future__ import annotations

import calendar
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
            "Saturday", "Sunday")
NUMBER_WORDS = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
                "seven": 7, "eight": 8, "nine": 9, "ten": 10,
                "eleven": 11, "twelve": 12}

# Held-out vocabulary: the test role never sees the training pools.
POOLS = {
    "train": {
        "numwords": ("two", "three", "four", "five", "six"),
        "digits": tuple(range(2, 10)),
        "days": tuple(range(1, 15)),
        "years": tuple(range(1985, 2006)),
        "people": ("Smith", "Garcia", "Nakamura", "Okafor", "Larsen",
                   "Dubois", "Kowalski", "Mendes", "Haddad", "Ivanova"),
        "orgs": ("Acme Corp", "the central bank", "Northwind", "the union",
                 "the ministry", "Globex", "the city council"),
    },
    "test": {
        "numwords": ("seven", "eight", "nine", "ten", "eleven", "twelve"),
        "digits": tuple(range(10, 31)),
        "days": tuple(range(15, 29)),
        "years": tuple(range(2006, 2031)),
        "people": ("Fischer", "Romano", "Tanaka", "Adeyemi", "Novak",
                   "Moreau", "Lindqvist", "Santos", "Karimi", "Petrova"),
        "orgs": ("Initech", "the regulator", "Umbrella Group",
                 "the works council", "the senate", "Vandelay",
                 "the port authority"),
    },
}

VERBS = ("announced the merger", "met the board", "filed the report",
         "signed the contract", "opened the plant", "left the company",
         "raised the forecast", "published the results",
         "visited the site", "cut the budget")
DUR_VERBS = ("talks lasted", "the strike went on", "the audit ran",
             "the plant was closed", "prices stayed flat",
             "the inquiry continued")
SET_VERBS = ("the committee meets", "the index is updated",
             "inspectors visit the site", "the fund reports",
             "the team reviews the logs")
FILLERS = (
    "the company reported strong profits",
    "officials declined to comment",
    "shares of the group rose after the announcement",
    "the minister praised the trade agreement",
    "analysts expect further consolidation in the sector",
    "the board approved a new strategy",
    "investors remained cautious",
    "the plan drew criticism from {people}",
    "{orgs} welcomed the decision",
    "{people} said the figures were encouraging",
)
# Gold-O distractors: numbers that are not times, and month or season
# homographs used as verbs, modals, adjectives or names.
DISTRACTORS = (
    "{digits}0 workers lost their jobs",
    "profits rose {digits} percent",
    "{numwords} companies joined the bid",
    "prices may fall further",
    "workers plan to march on the capital",
    "the august institution stayed silent",
    "it was the second largest deal",
    "May {people} chaired the panel",
    "demand could spring back",
    "the fund holds {digits}.5 million shares",
)
# Filler clauses per sentence, cycled: mostly short, a few long ones.
CLAUSE_PATTERN = (0, 1, 0, 2, 1, 0, 4, 1, 0, 7, 2, 0)
# Training sets spend few tokens on filler: training time grows with
# tokens, and what a model learns grows with expressions.
SHORT_CLAUSES = (0, 0, 0, 1)
CONNECTIVES = (", and", ", while", ", because", ", although", " as")


class GeneratorError(RuntimeError):
    """The generator produced a span the tokenizer cannot represent."""


@dataclass(frozen=True)
class GoldTimex:
    start: int
    end: int
    type: str
    value: str
    family: str


@dataclass
class GenDoc:
    id: str
    dct: date
    sentences: list[tuple[int, str]]   # (offset in text, sentence)
    text: str
    timexes: list[GoldTimex]


# ------------------------------------------------------------ calendar

def add_months(d: date, n: int) -> date:
    total = d.year * 12 + d.month - 1 + n
    year, month0 = divmod(total, 12)
    day = min(d.day, calendar.monthrange(year, month0 + 1)[1])
    return date(year, month0 + 1, day)


def iso_week(d: date) -> str:
    year, week, _ = d.isocalendar()
    return f"{year:04d}-W{week:02d}"


def shift(d: date, n: int, unit: str) -> str:
    """Value of `d` moved n units, at the unit's granularity."""
    if unit == "day":
        return (d + timedelta(days=n)).isoformat()
    if unit == "week":
        return iso_week(d + timedelta(weeks=n))
    if unit == "month":
        m = add_months(d, n)
        return f"{m.year:04d}-{m.month:02d}"
    if unit == "year":
        return f"{d.year + n:04d}"
    if unit == "decade":
        return f"{d.year + 10 * n:04d}"
    raise ValueError(unit)


def weekday_date(d: date, wd: int, how: str) -> date:
    """last/next: strictly before/after; past/future: nearest, today
    included."""
    delta = wd - d.weekday()
    if how == "last":
        delta = delta - 7 if delta >= 0 else delta
    elif how == "next":
        delta = delta + 7 if delta <= 0 else delta
    elif how == "past":
        delta = delta if delta <= 0 else delta - 7
    elif how == "future":
        delta = delta if delta >= 0 else delta + 7
    return d + timedelta(days=delta)


def ordinal(n: int) -> str:
    if 10 <= n % 100 <= 20:
        return f"{n}th"
    return f"{n}{ {1: 'st', 2: 'nd', 3: 'rd'}.get(n % 10, 'th') }"


# ------------------------------------------------------------ families
# Each family: (rng, pool, dct) -> (prep, surface, type, value).  `prep`
# is the carrier preposition kept outside the span.

PODS = {"morning": "MO", "afternoon": "AF", "evening": "EV", "night": "NI"}
SEASONS = {"spring": "SP", "summer": "SU", "autumn": "FA", "winter": "WI"}
DUR_UNITS = {"day": "D", "week": "W", "month": "M", "year": "Y"}
TIME_UNITS = {"hour": "H", "minute": "M"}


def _count(rng, pool):
    if rng.random() < 0.5:
        word = rng.choice(pool["numwords"])
        return word, NUMBER_WORDS[word]
    n = rng.choice(pool["digits"])
    return str(n), n


def _plural(word, n):
    return word if n == 1 else word + "s"


def f_date_full(rng, pool, dct):
    y, m, d = rng.choice(pool["years"]), rng.randrange(12), \
        rng.choice(pool["days"])
    value = date(y, m + 1, d).isoformat()
    form = rng.randrange(4)
    if form == 0:
        text = f"{MONTHS[m]} {d}, {y}"
    elif form == 1:
        text = f"{MONTHS[m]} {ordinal(d)}, {y}"
    elif form == 2:
        text = f"{d} {MONTHS[m]} {y}"
    else:
        text = f"the {ordinal(d)} of {MONTHS[m]} {y}"
    return "on", text, "DATE", value


def f_date_md(rng, pool, dct):
    m, d = rng.randrange(12), rng.choice(pool["days"])
    text = (f"{MONTHS[m]} {d}" if rng.random() < 0.5
            else f"{ordinal(d)} {MONTHS[m]}")
    return "on", text, "DATE", date(dct.year, m + 1, d).isoformat()


def f_numeric_date(rng, pool, dct):
    y, m, d = rng.choice(pool["years"]), rng.randrange(1, 13), \
        rng.choice(pool["days"])
    form = rng.randrange(4)
    if form == 0:
        text = f"{y}-{m:02d}-{d:02d}"
    elif form == 1:
        return "in", f"{y}-{m:02d}", "DATE", f"{y:04d}-{m:02d}"
    elif form == 2:
        text = f"{m:02d}/{d:02d}/{y}"
    else:
        # a two-digit year means the year of that ending nearest the DCT;
        # every pool year lies within 50 years of every DCT
        text = f"{m}/{d}/{y % 100:02d}"
    return "on", text, "DATE", date(y, m, d).isoformat()


def f_month_year(rng, pool, dct):
    m = rng.randrange(12)
    form = rng.randrange(3)
    if form == 2:
        return "in", MONTHS[m], "DATE", f"{dct.year:04d}-{m + 1:02d}"
    y = rng.choice(pool["years"])
    text = f"{MONTHS[m]} {y}" if form == 0 else f"{MONTHS[m]}-{y}"
    return "in", text, "DATE", f"{y:04d}-{m + 1:02d}"


def f_year_decade(rng, pool, dct):
    y = rng.choice(pool["years"])
    form = rng.randrange(4)
    if form == 0:
        return "in", str(y), "DATE", f"{y:04d}"
    if form == 1:
        dec = y - y % 10
        mod = rng.choice(("", "early ", "late "))
        return "in", f"the {mod}{dec}s", "DATE", f"{dec // 10:03d}"
    if form == 2:
        c = rng.randrange(15, 22)
        return "in", f"the {ordinal(c)} century", "DATE", f"{c - 1:02d}"
    return "in", f"the year {y}", "DATE", f"{y:04d}"


def f_quarter(rng, pool, dct):
    q = rng.randrange(1, 5)
    if rng.random() < 0.7:
        word = ("first", "second", "third", "fourth")[q - 1]
        return "in", f"the {word} quarter", "DATE", f"{dct.year:04d}-Q{q}"
    return "in", f"Q{q}", "DATE", f"{dct.year:04d}-Q{q}"


def f_relative_unit(rng, pool, dct):
    direction = rng.choice(("last", "next", "this"))
    unit = rng.choice(("week", "month", "year"))
    n = {"last": -1, "this": 0, "next": 1}[direction]
    return "", f"{direction} {unit}", "DATE", shift(dct, n, unit)


def f_weekday(rng, pool, dct):
    wd = rng.randrange(7)
    form = rng.randrange(5)
    if form == 0:
        return "on", WEEKDAYS[wd], "DATE", \
            weekday_date(dct, wd, "past").isoformat()
    direction = rng.choice(("last", "next", "this"))
    how = {"last": "last", "next": "next", "this": "future"}[direction]
    d = weekday_date(dct, wd, how)
    if form in (1, 2):
        return "", f"{direction} {WEEKDAYS[wd]}", "DATE", d.isoformat()
    pod = rng.choice(tuple(PODS))
    if form == 3:
        return "", f"{direction} {WEEKDAYS[wd]} {pod}", "TIME", \
            f"{d.isoformat()}T{PODS[pod]}"
    d = weekday_date(dct, wd, "past")
    return "on", f"{WEEKDAYS[wd]} {pod}", "TIME", \
        f"{d.isoformat()}T{PODS[pod]}"


def f_deictic(rng, pool, dct):
    form = rng.randrange(8)
    days = {"yesterday": -1, "today": 0, "tomorrow": 1,
            "the day before yesterday": -2, "the day after tomorrow": 2}
    if form < 4:
        word = rng.choice(tuple(days))
        return "", word, "DATE", (dct + timedelta(days[word])).isoformat()
    if form == 4:
        return "", "tonight", "TIME", f"{dct.isoformat()}TNI"
    if form == 5:
        return "", "last night", "TIME", \
            f"{(dct - timedelta(1)).isoformat()}TNI"
    day = rng.choice(("yesterday", "this", "tomorrow"))
    pod = rng.choice(tuple(PODS))
    d = dct + timedelta({"yesterday": -1, "this": 0, "tomorrow": 1}[day])
    return "", f"{day} {pod}", "TIME", f"{d.isoformat()}T{PODS[pod]}"


def f_offset(rng, pool, dct):
    unit = rng.choice(("day", "week", "month", "year", "decade"))
    form = rng.randrange(6)
    if form == 5:
        fuzzy = rng.choice(("a few", "several", "a couple of"))
        if rng.random() < 0.5:
            return "", f"{fuzzy} {unit}s ago", "DATE", "PAST_REF"
        return "", f"{fuzzy} {unit}s later", "DATE", "FUTURE_REF"
    if form == 4:
        word, n = "a", 1
    else:
        word, n = _count(rng, pool)
    phrase = f"{word} {_plural(unit, n)}"
    kind = rng.choice(("ago", "later", "in", "from now"))
    if kind == "ago":
        return "", f"{phrase} ago", "DATE", shift(dct, -n, unit)
    if kind == "in":
        return "", f"in {phrase}", "DATE", shift(dct, n, unit)
    return "", f"{phrase} {kind}", "DATE", shift(dct, n, unit)


def f_season(rng, pool, dct):
    name = rng.choice(tuple(SEASONS))
    form = rng.randrange(3)
    if form == 0:
        direction = rng.choice(("last", "next", "this"))
        y = dct.year + {"last": -1, "this": 0, "next": 1}[direction]
        return "", f"{direction} {name}", "DATE", f"{y:04d}-{SEASONS[name]}"
    if form == 1:
        y = rng.choice(pool["years"])
        return "in", f"the {name} of {y}", "DATE", \
            f"{y:04d}-{SEASONS[name]}"
    return "in", f"the {name}", "DATE", f"{dct.year:04d}-{SEASONS[name]}"


def f_clock(rng, pool, dct):
    form = rng.randrange(4)
    h = rng.randrange(1, 13)
    pm = rng.random() < 0.5
    hour24 = (h % 12) + (12 if pm else 0)
    if form == 0:
        mi = rng.choice((0, 15, 30, 45, 5, 50))
        text = f"{h}:{mi:02d} {'pm' if pm else 'am'}"
    elif form == 1:
        mi, text = 0, f"{h}{'pm' if pm else 'am'}"
    elif form == 2:
        mi, text = 0, f"{h} {'p.m.' if pm else 'a.m.'}"
    else:
        mi = 0
        hour24 = h
        text = f"{h} o'clock"
    return "at", text, "TIME", f"{dct.isoformat()}T{hour24:02d}:{mi:02d}"


def f_duration(rng, pool, dct):
    form = rng.randrange(5)
    if form == 4:
        unit = rng.choice(tuple(TIME_UNITS))
        word, n = _count(rng, pool)
        return "for", f"{word} {_plural(unit, n)}", "DURATION", \
            f"PT{n}{TIME_UNITS[unit]}"
    if form == 3:
        fuzzy = rng.choice(("several", "a few"))
        unit = rng.choice(tuple(DUR_UNITS))
        return "for", f"{fuzzy} {unit}s", "DURATION", f"PX{DUR_UNITS[unit]}"
    if form == 2 and rng.random() < 0.5:
        word, n = _count(rng, pool)
        return "for", f"{word} {_plural('decade', n)}", "DURATION", \
            f"P{10 * n}Y"
    unit = rng.choice(tuple(DUR_UNITS))
    if form == 2:
        return "for", f"a {unit}", "DURATION", f"P1{DUR_UNITS[unit]}"
    word, n = _count(rng, pool)
    return "for", f"{word} {_plural(unit, n)}", "DURATION", \
        f"P{n}{DUR_UNITS[unit]}"


def f_set(rng, pool, dct):
    freq = {"daily": "P1D", "weekly": "P1W", "monthly": "P1M",
            "yearly": "P1Y", "annually": "P1Y", "hourly": "PT1H",
            "nightly": "P1D", "quarterly": "P3M"}
    units = {"day": "P{}D", "week": "P{}W", "month": "P{}M",
             "year": "P{}Y", "hour": "PT{}H"}
    form = rng.randrange(4)
    if form == 0:
        word = rng.choice(tuple(freq))
        return "", word, "SET", freq[word]
    unit = rng.choice(tuple(units))
    if form == 1:
        return "", f"every {unit}", "SET", units[unit].format(1)
    if form == 2:
        return "", f"every other {unit}", "SET", units[unit].format(2)
    word, n = _count(rng, pool)
    return "", f"every {word} {unit}s", "SET", units[unit].format(n)


def f_fuzzy_ref(rng, pool, dct):
    refs = {"recently": "PAST_REF", "lately": "PAST_REF",
            "previously": "PAST_REF", "formerly": "PAST_REF",
            "now": "PRESENT_REF", "currently": "PRESENT_REF",
            "nowadays": "PRESENT_REF", "these days": "PRESENT_REF",
            "soon": "FUTURE_REF", "shortly": "FUTURE_REF",
            "in the near future": "FUTURE_REF"}
    word = rng.choice(tuple(refs))
    return "", word, "DATE", refs[word]


FAMILIES = {
    "date_full": f_date_full, "date_md": f_date_md,
    "numeric_date": f_numeric_date, "month_year": f_month_year,
    "year_decade": f_year_decade, "quarter": f_quarter,
    "relative_unit": f_relative_unit, "weekday": f_weekday,
    "deictic": f_deictic, "offset": f_offset, "season": f_season,
    "clock": f_clock, "duration": f_duration, "set": f_set,
    "fuzzy_ref": f_fuzzy_ref,
}
FAMILY_ORDER = tuple(FAMILIES)


# ------------------------------------------------------------ sentences

def _dct(rng) -> date:
    """DCTs cluster on month and year boundaries and leap days."""
    year = rng.randrange(2008, 2017)
    kind = rng.randrange(5)
    if kind == 0:
        return date(year, 12, 31) - timedelta(rng.randrange(4)) \
            if rng.random() < 0.5 else date(year, 1, 1 + rng.randrange(3))
    if kind in (1, 2):
        month = rng.randrange(1, 13)
        return date(year, month, calendar.monthrange(year, month)[1])
    if kind == 3:
        return date(year, rng.randrange(1, 13), 1 + rng.randrange(2))
    return date(year, 1, 1) + timedelta(rng.randrange(365))


def _fill(rng, pool, template: str) -> str:
    return template.format(
        people=rng.choice(pool["people"]), orgs=rng.choice(pool["orgs"]),
        digits=rng.choice(pool["digits"]),
        numwords=rng.choice(pool["numwords"]))


def _capital(text: str) -> str:
    return text[0].upper() + text[1:]


def _subject(rng, pool, first: bool) -> str:
    if rng.random() < 0.5:
        return rng.choice(pool["people"])
    org = rng.choice(pool["orgs"])
    return _capital(org) if first else org


class _SentenceText:
    """Appends text pieces, recording the character range of timexes."""

    def __init__(self, base: int):
        self.base = base
        self.parts: list[str] = []
        self.length = 0
        self.timexes: list[GoldTimex] = []

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.length += len(text)

    def add_timex(self, text, ttype, value, family) -> None:
        start = self.base + self.length
        self.add(text)
        self.timexes.append(GoldTimex(start, start + len(text), ttype,
                                      value, family))

    def text(self) -> str:
        return "".join(self.parts)


def _clause(rng, pool, b: _SentenceText, family: str, dct: date) -> None:
    prep, surface, ttype, value = FAMILIES[family](rng, pool, dct)
    if family in ("duration", "set"):
        verb = rng.choice(DUR_VERBS if family == "duration" else SET_VERBS)
        b.add(f"{_capital(verb) if not b.parts else verb} ")
    else:
        b.add(f"{_subject(rng, pool, not b.parts)} {rng.choice(VERBS)} ")
    if prep:
        b.add(prep + " ")
    b.add_timex(surface, ttype, value, family)


def _sentence(rng, pool, base, dct, family, n_clauses, second_family):
    b = _SentenceText(base)
    if family is None:
        text = _fill(rng, pool, rng.choice(FILLERS + DISTRACTORS))
        b.add(_capital(text))
    else:
        _clause(rng, pool, b, family, dct)
    if second_family is not None:
        b.add(", and ")
        _clause(rng, pool, b, second_family, dct)
    for _ in range(n_clauses):
        b.add(rng.choice(CONNECTIVES) + " ")
        pool_text = DISTRACTORS if rng.random() < 0.4 else FILLERS
        b.add(_fill(rng, pool, rng.choice(pool_text)))
    b.add(" .")
    return b.text(), b.timexes


def generate(seed: int, role: str, n_docs: int, sentences_per_doc: int,
             clauses: tuple[int, ...] = CLAUSE_PATTERN) -> list[GenDoc]:
    """`n_docs` documents for `role` ('train' or 'test').

    The composition (family, clause count, second expression) of sentence
    i in document j depends only on (j, i); `seed` and `role` drive every
    random choice inside that frame.
    """
    pool = POOLS[role]
    rng = random.Random(f"tempex-bench/{role}/{seed}")
    docs = []
    n_fam = len(FAMILY_ORDER)
    for j in range(n_docs):
        dct = _dct(rng)
        sentences, timexes, cursor = [], [], 0
        for i in range(sentences_per_doc):
            slot = j * sentences_per_doc + i
            family = None if slot % 5 == 4 else \
                FAMILY_ORDER[(slot - slot // 5) % n_fam]
            second = FAMILY_ORDER[(slot * 7 + 3) % n_fam] \
                if family is not None and slot % 6 == 1 else None
            n_clauses = clauses[slot % len(clauses)]
            text, txs = _sentence(rng, pool, cursor, dct, family,
                                  n_clauses, second)
            sentences.append((cursor, text))
            timexes.extend(txs)
            cursor += len(text) + 1
        docs.append(GenDoc(f"{role}{j:03d}", dct, sentences,
                           " ".join(s for _, s in sentences), timexes))
    return docs


# ------------------------------------------------------------ output

def tokens_and_labels(doc: GenDoc, tokenize):
    """Per sentence, (tokens, BIO labels) with every gold span on token
    boundaries.  `tokenize(text, offset)` is the program's tokenizer."""
    out = []
    spans = sorted((t.start, t.end) for t in doc.timexes)
    for offset, sentence in doc.sentences:
        tokens = tokenize(sentence, offset)
        labels = []
        for tok in tokens:
            label = "O"
            for s, e in spans:
                if s <= tok.char_start < e:
                    if tok.char_end > e:
                        raise GeneratorError(
                            f"{doc.id}: token {tok.surface!r} crosses the "
                            f"end of span ({s}, {e})")
                    label = "B" if tok.char_start == s else "I"
                elif tok.char_start < s < tok.char_end:
                    raise GeneratorError(
                        f"{doc.id}: span ({s}, {e}) starts inside token "
                        f"{tok.surface!r}")
            labels.append(label)
        out.append((tokens, labels))
    return out


def write_corpus(docs: list[GenDoc], path, tokenize) -> int:
    """Write the eight-column corpus format; returns the token count."""
    lines, n_tokens = [], 0
    for doc in docs:
        lines.append(f"#doc {doc.id} {doc.dct.isoformat()}")
        for tokens, labels in tokens_and_labels(doc, tokenize):
            for tok, lab in zip(tokens, labels):
                lines.append(f"{tok.surface}\t{tok.char_start}\t"
                             f"{tok.char_end}\t_\t_\t_\t_\t{lab}")
            lines.append("")
            n_tokens += len(tokens)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n_tokens
