"""Synthetic templated corpus of date/duration expressions.

Used by the end-to-end tests: sentences are built from fixed templates,
the timex slot is tracked so gold BIO labels are exact.
"""

from __future__ import annotations

import random
from datetime import date

from tempex.corpus import (Document, Sequence, TimexSpan, assemble_document,
                           pack_sequences, spans_to_bio, tokenize)

MONTH_NAMES = ("January", "February", "March", "April", "May", "June",
               "July", "August", "September", "October", "November",
               "December")
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                 "Saturday", "Sunday")
NUM_WORDS = ("two", "three", "four", "five", "six", "seven", "eight",
             "nine", "ten")
UNITS = ("days", "weeks", "months", "years")

# each template is (prefix, timex_maker, suffix); the timex text is the
# gold span
TEMPLATES = [
    ("The meeting is scheduled for", lambda r: f"{r.choice(MONTH_NAMES)} {r.randint(1, 28)} , {r.randint(1990, 2020)}", "."),
    ("She arrived", lambda r: f"{r.choice(NUM_WORDS)} {r.choice(UNITS)} ago", "."),
    ("He will leave", lambda r: r.choice(["tomorrow", "today"]), "."),
    ("The trip lasted", lambda r: f"{r.choice(NUM_WORDS)} {r.choice(UNITS)}", "."),
    ("Results are due", lambda r: f"next {r.choice(WEEKDAY_NAMES)}", "."),
    ("Prices fell sharply", lambda r: "yesterday", "."),
    ("The report covers", lambda r: f"{r.choice(MONTH_NAMES)} {r.randint(1990, 2020)}", "."),
    ("The committee meets", lambda r: r.choice(["daily", "weekly", "monthly"]), "."),
    ("Construction began", lambda r: f"{r.choice(NUM_WORDS)} {r.choice(UNITS)} earlier", "."),
    ("The deal closes", lambda r: f"in {r.choice(NUM_WORDS)} {r.choice(UNITS)}", "."),
]

FILLERS = [
    "The company reported strong quarterly profits .",
    "Officials declined to comment on the merger .",
    "Shares of the group rose after the announcement .",
    "The minister praised the new trade agreement .",
    "Analysts expect further consolidation in the sector .",
]


def build_corpus(n_sentences: int = 250, seed: int = 7,
                 dct: date = date(2013, 4, 11)) -> Document:
    """One document with `n_sentences` sentences, ~70% containing a
    single gold timex span."""
    rng = random.Random(seed)
    sequences = []
    for i in range(n_sentences):
        if i % 10 < 7:
            prefix, maker, suffix = TEMPLATES[i % len(TEMPLATES)]
            timex_text = maker(rng)
            seq = Sequence(tuple(tokenize(f"{prefix} {timex_text} {suffix}")))
            n_before = len(tokenize(prefix))
            n_timex = len(tokenize(timex_text))
            span = TimexSpan(len(sequences), n_before,
                             n_before + n_timex - 1)
            labels = spans_to_bio([span], seq)
        else:
            seq = Sequence(tuple(tokenize(FILLERS[i % len(FILLERS)])))
            labels = ["O"] * len(seq)
        sequences.append(Sequence(seq.tokens, tuple(labels)))
    return assemble_document("synthetic", dct, pack_sequences(sequences))


def split_corpus(doc: Document, n_train: int = 200):
    train = Document(doc.id + "-train", doc.dct,
                     doc.sequences[:n_train], doc.raw_text)
    test = Document(doc.id + "-test", doc.dct,
                    doc.sequences[n_train:], doc.raw_text)
    return train, test
