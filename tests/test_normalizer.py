import datetime
import random
from datetime import date, timedelta

import pytest

from tempex.corpus import Token, TimexSpan, tokenize
from tempex.normalizer import (VALUE_FNS, WEEKDAY_DIRECTIONS, WEEKDAYS,
                               NormConfig, NormalizerError, Timex,
                               add_period, dump_rules, load_rules,
                               normalize,
                               resolve_weekday, validate_value)

ANCHOR = date(2013, 4, 11)  # a Thursday


class TestWorkedExamples:
    @pytest.mark.parametrize("expr,expected", [
        (["tomorrow"], ("DATE", "2013-04-12")),
        (["three", "days", "ago"], ("DATE", "2013-04-08")),
        (["daily"], ("SET", "P1D")),
        (["the", "1990s"], ("DATE", "199")),
        (["now"], ("DATE", "PRESENT_REF")),
    ])
    def test_examples(self, expr, expected):
        assert normalize(expr, ANCHOR) == expected

    def test_no_match_returns_none(self):
        assert normalize(["aardvark", "flotilla"], ANCHOR) is None

    def test_empty_expression_rejected(self):
        with pytest.raises(NormalizerError, match="empty"):
            normalize([], ANCHOR)


class TestHalfHour:
    @pytest.mark.parametrize("text", ["half an hour", "the half hour"])
    def test_thirty_minutes(self, text):
        assert normalize(text.split(), ANCHOR) == ("DURATION", "PT30M")


class TestTwoDigitYears:
    """A two-digit year resolves to the nearest year with that ending."""

    @staticmethod
    def numeric(text, anchor=ANCHOR):
        return normalize([t.surface for t in tokenize(text)], anchor)

    def test_previous_century(self):
        assert self.numeric("4/5/98") == ("DATE", "1998-04-05")

    def test_same_century(self):
        assert self.numeric("4/5/14") == ("DATE", "2014-04-05")

    def test_exact_tie_goes_to_earlier_year(self):
        # 1963 and 2063 are both 50 years from 2013
        assert self.numeric("4/5/63") == ("DATE", "1963-04-05")
        assert self.numeric("4/5/62") == ("DATE", "2062-04-05")

    def test_tie_across_century_boundary(self):
        # from 2050, 2000 and 2100 are both 50 years away
        assert self.numeric("4/5/00", date(2050, 1, 1)) == \
            ("DATE", "2000-04-05")


class TestResolveWeekday:
    def test_last_wednesday(self):
        assert resolve_weekday("Wednesday", "last", ANCHOR) == \
            date(2013, 4, 10)

    def test_next_thursday_strictly_after(self):
        assert resolve_weekday("Thursday", "next", ANCHOR) == \
            date(2013, 4, 18)

    def test_next_friday(self):
        assert resolve_weekday("Friday", "next", ANCHOR) == \
            date(2013, 4, 12)

    def test_last_thursday_strictly_before(self):
        assert resolve_weekday("Thursday", "last", ANCHOR) == \
            date(2013, 4, 4)

    def test_nearest_past_same_day_is_anchor(self):
        assert resolve_weekday("Thursday", "nearest-past", ANCHOR) == \
            date(2013, 4, 11)

    def test_nearest_future_wraps(self):
        assert resolve_weekday("Monday", "nearest-future", ANCHOR) == \
            date(2013, 4, 15)

    @pytest.mark.parametrize("direction,window", [
        ("last", range(-7, 0)), ("next", range(1, 8)),
        ("nearest-past", range(-6, 1)), ("nearest-future", range(0, 7))])
    def test_each_direction_covers_its_week(self, direction, window):
        """Every weekday resolves into the direction's seven-day window,
        from every anchor weekday."""
        assert direction in WEEKDAY_DIRECTIONS
        for shift in range(7):
            anchor = ANCHOR + timedelta(days=shift)
            offsets = sorted(
                (resolve_weekday(name, direction, anchor)
                 - anchor).days for name in WEEKDAYS)
            assert offsets == list(window)

    def test_unknown_direction(self):
        with pytest.raises(NormalizerError, match="unknown direction"):
            resolve_weekday("Monday", "bogus", ANCHOR)


class TestAddPeriod:
    def test_identity(self):
        assert add_period(ANCHOR, 0, "day") == date(2013, 4, 11)

    def test_month_clamps(self):
        assert add_period(date(2013, 1, 31), 1, "month") == \
            date(2013, 2, 28)

    def test_leap_year_clamps(self):
        assert add_period(date(2012, 2, 29), 1, "year") == \
            date(2013, 2, 28)

    def test_negative_month(self):
        assert add_period(date(2013, 3, 31), -1, "month") == \
            date(2013, 2, 28)

    def test_week(self):
        assert add_period(ANCHOR, 2, "week") == date(2013, 4, 25)

    @pytest.mark.parametrize("n,unit", [
        (9000, "year"), (-9000, "year"), (900, "decade"), (10**30, "month"),
        (10**12, "day"), (10**9, "week")])
    def test_out_of_range_means_no_value(self, n, unit):
        with pytest.raises(NormalizerError, match="out of range"):
            add_period(ANCHOR, n, unit)


class TestValidateValue:
    @pytest.mark.parametrize("ttype,value,ok", [
        ("DATE", "2013-04-12", True),
        ("DATE", "2013-04", True),
        ("DATE", "2013", True),
        ("DATE", "2013-W15", True),
        ("DATE", "2013-Q2", True),
        ("DATE", "199", True),
        ("DATE", "19", True),
        ("DATE", "PAST_REF", True),
        ("DATE", "2013-SU", True),
        ("DATE", "13-4-2", False),
        ("DATE", "2013-4-2", False),
        ("TIME", "2013-04-11T08:30", True),
        ("TIME", "2013-04-11TMO", True),
        ("TIME", "08:30", False),
        ("DURATION", "P3D", True),
        ("DURATION", "PXW", True),
        ("DURATION", "PT1H", True),
        ("DURATION", "P", False),
        ("SET", "P1D", True),
        ("SET", "P3M", True),
        ("DURATION", "3D", False),
    ])
    def test_grammar(self, ttype, value, ok):
        assert validate_value(ttype, value) is ok

    def test_timex_rejects_illegal_value(self):
        span = TimexSpan(0, 0, 0)
        with pytest.raises(NormalizerError):
            Timex(span, "DATE", "13-4-2")
        Timex(span, "DATE", "2013-04-12")  # legal


def fixture_expressions():
    """~200 expressions with independently computed expected values.

    Expected values come from the calendar (datetime arithmetic written
    out here, not the normalizer's helpers) and the TIMEX3 value
    conventions for sets/durations/decades.
    """
    base = ANCHOR
    cases = []
    # deictic days: calendar oracle is plain timedelta
    cases += [
        (["today"], ("DATE", base.isoformat())),
        (["yesterday"], ("DATE", (base - timedelta(days=1)).isoformat())),
        (["tomorrow"], ("DATE", (base + timedelta(days=1)).isoformat())),
        (["the", "day", "before", "yesterday"],
         ("DATE", (base - timedelta(days=2)).isoformat())),
        (["the", "day", "after", "tomorrow"],
         ("DATE", (base + timedelta(days=2)).isoformat())),
    ]
    numwords = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
                "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10}
    for word, n in numwords.items():
        cases.append(([word, "days", "ago"],
                      ("DATE", (base - timedelta(days=n)).isoformat())))
        cases.append(([word, "days", "later"],
                      ("DATE", (base + timedelta(days=n)).isoformat())))
        cases.append(([str(n), "days", "ago"],
                      ("DATE", (base - timedelta(days=n)).isoformat())))
    # explicit dates
    for month, mnum in [("January", 1), ("March", 3), ("May", 5),
                        ("July", 7), ("October", 10), ("December", 12)]:
        for day in (1, 9, 23):
            for year in (1998, 2005, 2013):
                cases.append(
                    ([month, str(day), ",", str(year)],
                     ("DATE", date(year, mnum, day).isoformat())))
    # month-year and bare years
    for year in (1999, 2004, 2013, 2020):
        cases.append((["June", str(year)], ("DATE", f"{year}-06")))
        cases.append(([str(year)], ("DATE", str(year))))
    # decades: TIMEX3 writes the first three digits
    for decade in ("1960s", "1970s", "1980s", "1990s", "2000s"):
        cases.append(((["the", decade]), ("DATE", decade[:3])))
    # weekdays relative to the Thursday anchor, via weekday arithmetic
    for name, idx in [("Monday", 0), ("Tuesday", 1), ("Wednesday", 2),
                      ("Friday", 4), ("Saturday", 5), ("Sunday", 6)]:
        delta = idx - base.weekday()
        last = base + timedelta(days=delta - 7 if delta >= 0 else delta)
        nxt = base + timedelta(days=delta + 7 if delta <= 0 else delta)
        cases.append((["last", name], ("DATE", last.isoformat())))
        cases.append((["next", name], ("DATE", nxt.isoformat())))
    # durations and sets per TIMEX3 period notation
    for word, n in list(numwords.items())[:8]:
        cases.append(([word, "weeks"], ("DURATION", f"P{n}W")))
        cases.append(([word, "months"], ("DURATION", f"P{n}M")))
    cases += [
        (["several", "weeks"], ("DURATION", "PXW")),
        (["a", "few", "days"], ("DURATION", "PXD")),
        (["daily"], ("SET", "P1D")),
        (["weekly"], ("SET", "P1W")),
        (["monthly"], ("SET", "P1M")),
        (["annually"], ("SET", "P1Y")),
        (["every", "two", "days"], ("SET", "P2D")),
        (["every", "year"], ("SET", "P1Y")),
    ]
    # seasons: anchor year + standard code
    cases += [
        (["summer"], ("DATE", "2013-SU")),
        (["last", "winter"], ("DATE", "2012-WI")),
        (["the", "fall"], ("DATE", "2013-FA")),
        (["spring"], ("DATE", "2013-SP")),
    ]
    # parts of day / clock
    cases += [
        (["yesterday", "morning"], ("TIME", "2013-04-10TMO")),
        (["this", "evening"], ("TIME", "2013-04-11TEV")),
        (["tonight"], ("TIME", "2013-04-11TNI")),
        (["8", ":", "30"], ("TIME", "2013-04-11T08:30")),
        (["3", "pm"], ("TIME", "2013-04-11T15:00")),
    ]
    # fuzzy references
    cases += [
        (["recently"], ("DATE", "PAST_REF")),
        (["now"], ("DATE", "PRESENT_REF")),
        (["soon"], ("DATE", "FUTURE_REF")),
    ]
    # year/month granularity offsets, months worked out longhand
    for word, n in numwords.items():
        cases.append(([word, "years", "ago"],
                      ("DATE", f"{base.year - n:04d}")))
        total = base.year * 12 + (base.month - 1) - n
        y, m = divmod(total, 12)
        cases.append(([word, "months", "ago"], ("DATE", f"{y:04d}-{m + 1:02d}")))
        cases.append((["in", word, "days"],
                      ("DATE", (base + timedelta(days=n)).isoformat())))
    # relative week/month/year (anchor 2013-04-11 is in ISO week 15)
    cases += [
        (["last", "week"], ("DATE", "2013-W14")),
        (["this", "week"], ("DATE", "2013-W15")),
        (["next", "week"], ("DATE", "2013-W16")),
        (["last", "month"], ("DATE", "2013-03")),
        (["this", "month"], ("DATE", "2013-04")),
        (["next", "month"], ("DATE", "2013-05")),
        (["last", "year"], ("DATE", "2012")),
        (["this", "year"], ("DATE", "2013")),
        (["next", "year"], ("DATE", "2014")),
    ]
    # centuries and quarters
    cases += [
        (["the", "20th", "century"], ("DATE", "19")),
        (["the", "19th", "century"], ("DATE", "18")),
        (["the", "first", "quarter"], ("DATE", "2013-Q1")),
        (["the", "third", "quarter"], ("DATE", "2013-Q3")),
        (["Wednesday", "morning"], ("TIME", "2013-04-10TMO")),
    ]
    # clock durations
    for word, n in list(numwords.items())[:8]:
        cases.append(([word, "hours"], ("DURATION", f"PT{n}H")))
    return cases


class TestFixtureConformance:
    def test_fixture_size(self):
        assert len(fixture_expressions()) >= 200

    @pytest.mark.parametrize("expr,expected", fixture_expressions())
    def test_expected_pair(self, expr, expected):
        assert normalize(expr, ANCHOR) == expected

    def test_all_outputs_pass_grammar(self):
        for expr, _ in fixture_expressions():
            result = normalize(expr, ANCHOR)
            assert result is not None
            assert validate_value(*result)


DEICTIC_FAMILY = [
    ["today"], ["yesterday"], ["tomorrow"],
    ["three", "days", "ago"], ["five", "days", "later"],
]


class TestAnchorCovariance:
    def test_shifting_anchor_shifts_values(self):
        rng = random.Random(42)
        for _ in range(50):
            anchor_date = date(2000, 1, 1) + timedelta(
                days=rng.randint(0, 10000))
            k = rng.randint(-400, 400)
            shifted = anchor_date + timedelta(days=k)
            anchor = anchor_date
            for expr in DEICTIC_FAMILY:
                t1, v1 = normalize(expr, anchor)
                t2, v2 = normalize(expr, shifted)
                assert t1 == t2 == "DATE"
                assert date.fromisoformat(v2) - date.fromisoformat(v1) == \
                    timedelta(days=k)


class TestRuleEngine:
    def test_rule_ids_unique_and_sorted(self):
        rules = load_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        # overrides are checked as they are read, the built-ins only here
        assert all(r.value_fn in VALUE_FNS for r in rules)
        priorities = [r.priority for r in rules]
        assert priorities == sorted(priorities)

    def test_deterministic_under_reordering(self):
        rules = load_rules()
        shuffled = sorted(rules, key=lambda r: r.id)
        resorted = sorted(shuffled, key=lambda r: (r.priority, r.id))
        for expr, _ in fixture_expressions()[:40]:
            assert normalize(expr, ANCHOR, resorted) == \
                normalize(expr, ANCHOR)

    def test_dump_and_reload(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "fortnight\t5\ta fortnight\tDURATION\tduration\n"
            .replace("duration\n", "fixed:P2W\n"))
        assert normalize(["a", "fortnight"], ANCHOR, load_rules(path)) == \
            ("DURATION", "P2W")

    def test_dump_contains_builtins(self):
        text = dump_rules()
        assert "tomorrow" in text and "decade" in text

    def test_month_day_order_configurable(self):
        day_first = NormConfig(month_first=False)
        assert normalize(["04/05/2013"], ANCHOR) == ("DATE", "2013-04-05")
        assert normalize(["04/05/2013"], ANCHOR, config=day_first) == \
            ("DATE", "2013-05-04")

    def test_bare_weekday_tense_hint(self):
        past = normalize(["Friday"], ANCHOR)
        future = normalize(["Friday"], ANCHOR,
                           config=NormConfig(bare_weekday="nearest-future"))
        assert past == ("DATE", "2013-04-05")
        assert future == ("DATE", "2013-04-12")
