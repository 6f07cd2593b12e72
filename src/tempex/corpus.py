"""Tokenization, corpus I/O and BIO <-> span conversion.

Corpus file format (UTF-8, tab-separated):

    #doc <id> <DCT ISO-8601>
    surface<TAB>char_start<TAB>char_end<TAB>pos<TAB>lemma<TAB>chunk<TAB>pnp<TAB>label

Missing annotations are written as ``_``.  A blank line ends a sentence,
a ``#doc`` line starts a new document.  The label column is one of B/I/O,
or ``_`` for unlabeled data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Optional

LABELS = ("B", "I", "O")

# A token is a decimal number, an alphanumeric run possibly glued by
# internal hyphens/slashes ("Jan-2003", "04/05/2013"), or a single
# non-space character.  Every other punctuation mark stands alone.
_TOKEN_RE = re.compile(
    r"\d+(?:\.\d+)+"
    r"|[A-Za-z0-9]+(?:[-/][A-Za-z0-9]+)*"
    r"|\S"
)

MISSING = "_"
# A corpus token may start at most this many characters after the end of
# the token before it in its document (after offset 0, for the first):
# a document's text is rebuilt from the offsets, at a cost in memory set
# by the largest of them.
MAX_TOKEN_GAP = 10_000


class CorpusError(ValueError):
    """Malformed corpus file or inconsistent annotation."""


@dataclass(frozen=True)
class Token:
    surface: str
    char_start: int
    char_end: int
    pos: Optional[str] = None
    lemma: Optional[str] = None
    chunk: Optional[str] = None
    pnp: Optional[str] = None

    def __post_init__(self):
        if self.char_start >= self.char_end:
            raise CorpusError(
                f"token {self.surface!r}: char_start {self.char_start} "
                f">= char_end {self.char_end}"
            )
        # str.split and str.isspace share one whitespace table
        if self.surface.split() != [self.surface]:
            raise CorpusError(f"invalid token surface {self.surface!r}")
        # annotations are parts of tab-separated feature keys
        if self.pos or self.lemma or self.chunk or self.pnp:
            for name, value in zip(("pos", "lemma", "chunk", "pnp"), (
                    self.pos, self.lemma, self.chunk, self.pnp)):
                if value and ("\t" in value or value.splitlines() != [value]):
                    raise CorpusError(f"token {self.surface!r}: {name} "
                                      f"{value!r} holds a tab or line break")


@dataclass(frozen=True)
class Sequence:
    tokens: tuple[Token, ...]
    gold_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.gold_labels is not None:
            labels = tuple(self.gold_labels)
            object.__setattr__(self, "gold_labels", labels)
            if len(labels) != len(self.tokens):
                raise CorpusError(
                    f"{len(labels)} labels for {len(self.tokens)} tokens"
                )
            check_bio(labels)

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Document:
    id: str
    dct: date
    sequences: tuple[Sequence, ...]
    raw_text: str

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        last = -1
        for seq in self.sequences:
            for tok in seq.tokens:
                if tok.char_start < last:
                    raise CorpusError(
                        f"doc {self.id}: token offsets not increasing "
                        f"at {tok.surface!r}"
                    )
                last = tok.char_end


@dataclass(frozen=True)
class TimexSpan:
    sequence_index: int
    first_token: int
    last_token: int

    def __post_init__(self):
        if self.first_token > self.last_token:
            raise CorpusError(
                f"span first_token {self.first_token} > last_token "
                f"{self.last_token}"
            )


def check_bio(labels: Iterable[str], where: str = "") -> None:
    """Raise CorpusError if `labels` is not a valid BIO sequence."""
    prev = "O"
    for i, lab in enumerate(labels):
        if lab not in LABELS:
            raise CorpusError(f"{where}invalid label {lab!r} at position {i}")
        if lab == "I" and prev == "O":
            raise CorpusError(f"{where}I after O at position {i}")
        prev = lab


def is_valid_bio(labels: Iterable[str]) -> bool:
    try:
        check_bio(labels)
        return True
    except CorpusError:
        return False


def tokenize(text: str, offset: int = 0) -> list[Token]:
    """Split `text` into tokens with character offsets (shifted by `offset`).

    Punctuation is isolated into single-character tokens, except decimal
    points inside numbers and internal hyphens/slashes inside
    alphanumeric runs, which stay attached ("Jan-2003", "3.5").
    """
    return [
        Token(m.group(), offset + m.start(), offset + m.end())
        for m in _TOKEN_RE.finditer(text)
    ]


def sentence_split(text: str) -> list[tuple[int, str]]:
    """Newline/period heuristic splitter for raw prose.

    Returns (offset, sentence_text) pairs covering all non-blank content.
    """
    sentences = []
    for m in re.finditer(r"[^\n]+", text):
        line, base = m.group(), m.start()
        start = 0
        for pm in re.finditer(r"[.!?](?=\s|$)", line):
            end = pm.end()
            chunk = line[start:end]
            if chunk.strip():
                sentences.append((base + start, chunk))
            start = end
        tail = line[start:]
        if tail.strip():
            sentences.append((base + start, tail))
    return sentences


def span_char_range(doc: Document, span: TimexSpan) -> tuple[int, int]:
    seq = doc.sequences[span.sequence_index]
    return (seq.tokens[span.first_token].char_start,
            seq.tokens[span.last_token].char_end)


def spans_to_bio(spans: list[TimexSpan], seq: Sequence) -> list[str]:
    """Project non-overlapping spans of one sequence onto BIO labels."""
    labels = ["O"] * len(seq)
    seen: list[TimexSpan] = []
    for span in sorted(spans, key=lambda s: s.first_token):
        if span.last_token >= len(seq):
            raise CorpusError(f"span {span} out of bounds")
        for other in seen:
            if span.first_token <= other.last_token and other.first_token <= span.last_token:
                raise CorpusError(f"overlapping spans {other} / {span}")
        seen.append(span)
        labels[span.first_token] = "B"
        for i in range(span.first_token + 1, span.last_token + 1):
            labels[i] = "I"
    return labels


def bio_to_spans(labels: list[str], seq: Sequence, sequence_index: int = 0,
                 tolerant: bool = False) -> list[TimexSpan]:
    """Extract maximal B(I)* runs as spans.

    In tolerant mode an orphan I (I after O, or I first) is read as B,
    by `repair_bio`; strict mode raises naming the offending position.
    Tolerant mode is only meant for raw decoder output.
    """
    if len(labels) != len(seq):
        raise CorpusError(f"{len(labels)} labels for {len(seq)} tokens")
    if tolerant:
        labels = repair_bio(labels)
    else:
        check_bio(labels)
    spans = []
    i = 0
    while i < len(labels):
        if labels[i] == "B":
            j = i
            while j + 1 < len(labels) and labels[j + 1] == "I":
                j += 1
            spans.append(TimexSpan(sequence_index, i, j))
            i = j + 1
        else:
            i += 1
    return spans


def repair_bio(labels: Iterable[str]) -> list[str]:
    """Labels as raw decoder output is read: an orphan I (I after O, or
    I first) becomes B."""
    fixed = []
    prev = "O"
    for lab in labels:
        prev = "B" if lab == "I" and prev == "O" else lab
        fixed.append(prev)
    return fixed


def doc_spans(doc: Document) -> list[TimexSpan]:
    """All gold spans of a document (sequences must carry gold labels)."""
    spans = []
    for si, seq in enumerate(doc.sequences):
        if seq.gold_labels is not None:
            spans.extend(bio_to_spans(list(seq.gold_labels), seq, si))
    return spans


def read_text(path, error: type[Exception] = CorpusError) -> str:
    """A UTF-8 text file's content; a file that is not UTF-8 raises
    `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _parse_dct(text: str, lineno: int) -> date:
    for parser in (date.fromisoformat, datetime.fromisoformat):
        try:
            return parser(text)
        except ValueError:
            continue
    raise CorpusError(f"line {lineno}: invalid DCT {text!r}")


def read_corpus(path) -> list[Document]:
    """Parse a column-format corpus file into documents; malformed
    content raises CorpusError naming the file and the line."""
    lines = read_text(path).splitlines()
    try:
        return _parse_corpus(lines)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def _parse_corpus(lines: list[str]) -> list[Document]:
    docs: list[Document] = []
    doc_id = None
    dct = None
    sequences: list[Sequence] = []
    tokens: list[Token] = []
    labels: list[str] = []
    any_label = False
    last_end = 0  # end of the document's previous token

    def close_sentence(lineno):
        nonlocal tokens, labels, any_label
        if tokens:
            gold = tuple(labels) if any_label else None
            try:
                sequences.append(Sequence(tuple(tokens), gold))
            except CorpusError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from exc
        tokens, labels, any_label = [], [], False

    def close_doc(lineno):
        nonlocal doc_id, dct, sequences, last_end
        close_sentence(lineno)
        if doc_id is not None:
            docs.append(assemble_document(doc_id, dct, sequences))
        doc_id, dct, sequences, last_end = None, None, [], 0

    for lineno, line in enumerate(lines, 1):
        if line.startswith("#doc"):
            close_doc(lineno)
            parts = line.split()
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: malformed #doc header")
            doc_id = parts[1]
            dct = _parse_dct(parts[2], lineno)
            continue
        if not line.strip():
            close_sentence(lineno)
            continue
        if doc_id is None:
            raise CorpusError(f"line {lineno}: token line before #doc header")
        cols = line.split("\t")
        if len(cols) != 8:
            raise CorpusError(
                f"line {lineno}: expected 8 columns, got {len(cols)}"
            )
        surface, start, end, pos, lemma, chunk, pnp, label = cols
        try:
            tok = Token(surface, int(start), int(end),
                        None if pos == MISSING else pos,
                        None if lemma == MISSING else lemma,
                        None if chunk == MISSING else chunk,
                        None if pnp == MISSING else pnp)
        except (ValueError, CorpusError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
        if tok.char_start - last_end > MAX_TOKEN_GAP:
            raise CorpusError(
                f"line {lineno}: token {surface!r} starts "
                f"{tok.char_start - last_end} characters after the previous "
                f"token's end; at most {MAX_TOKEN_GAP} are allowed")
        last_end = tok.char_end
        tokens.append(tok)
        if label != MISSING:
            any_label = True
            labels.append(label)
        else:
            labels.append("O")
    close_doc(len(lines) + 1)
    return docs


def assemble_document(doc_id: str, dct: date,
                      sequences: Iterable[Sequence]) -> Document:
    """A document of `sequences`, its raw text rebuilt from the token
    offsets: each token's surface at its offsets, spaces elsewhere.  Gap
    whitespace is so canonicalized to single spaces, which keeps
    write/read round-trips stable.  The text is joined from the gaps and
    the surfaces in offset order, so it costs memory in proportion to
    its length, the largest offset."""
    sequences = tuple(sequences)
    pieces = []
    end = 0
    for seq in sequences:
        for tok in seq.tokens:
            pieces += (" " * (tok.char_start - end), tok.surface)
            end = tok.char_end
    return Document(doc_id, dct, sequences, "".join(pieces))


def pack_sequences(sequences: Iterable[Sequence]) -> list[Sequence]:
    """Non-empty sequences, from anywhere, shifted to follow each other
    from offset 0 one character apart, so they can form one document."""
    packed = []
    cursor = 0
    for seq in sequences:
        shift = cursor - seq.tokens[0].char_start
        tokens = tuple(replace(t, char_start=t.char_start + shift,
                               char_end=t.char_end + shift)
                       for t in seq.tokens)
        cursor = tokens[-1].char_end + 1
        packed.append(Sequence(tokens, seq.gold_labels))
    return packed


def format_document(doc: Document) -> str:
    """One document in the column format, without its last line break:
    the `#doc` line, then each sequence's token lines and a blank line."""
    lines = [f"#doc {doc.id} {doc.dct.isoformat()}"]
    for seq in doc.sequences:
        for i, tok in enumerate(seq.tokens):
            label = seq.gold_labels[i] if seq.gold_labels else MISSING
            lines.append("\t".join([
                tok.surface, str(tok.char_start), str(tok.char_end),
                tok.pos or MISSING, tok.lemma or MISSING,
                tok.chunk or MISSING, tok.pnp or MISSING, label,
            ]))
        lines.append("")
    return "\n".join(lines)


def write_corpus(docs: Iterable[Document], path) -> None:
    Path(path).write_text("\n".join(map(format_document, docs)) + "\n",
                          encoding="utf-8")


def with_labels(doc: Document, labels_per_seq: list[list[str]]) -> Document:
    """Copy of `doc` with gold labels replaced sequence by sequence."""
    seqs = tuple(
        replace(seq, gold_labels=tuple(labels))
        for seq, labels in zip(doc.sequences, labels_per_seq, strict=True)
    )
    return replace(doc, sequences=seqs)


def read_attrs(path) -> dict[tuple[str, int, int], tuple[str, str]]:
    """Sidecar attribute TSV: doc_id, first_char, last_char, type, value.
    A span listed twice raises CorpusError naming the file and the line."""
    table = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise CorpusError(f"{path}: line {lineno}: expected 5 columns, "
                              f"got {len(cols)}")
        doc_id, first, last, ttype, value = cols
        try:
            key = (doc_id, int(first), int(last))
        except ValueError:
            raise CorpusError(f"{path}: line {lineno}: character offsets "
                              f"{first!r}, {last!r} are not integers"
                              ) from None
        if key in table:
            raise CorpusError(f"{path}: line {lineno}: span {first}-{last} "
                              f"of {doc_id} is repeated")
        table[key] = (ttype, value)
    return table


def emit_inline_timex(doc: Document, timexes) -> str:
    """Wrap each timex in the raw text as an inline TIMEX3 element.

    `timexes` is an iterable of objects with .span (TimexSpan) plus .type
    and .value.  All characters outside the inserted markup are untouched.
    """
    items = []
    for tx in timexes:
        start, end = span_char_range(doc, tx.span)
        items.append((start, end, tx))
    items.sort(key=lambda x: x[0])
    for (s1, e1, _), (s2, _, _) in zip(items, items[1:]):
        if s2 < e1:
            raise CorpusError(f"overlapping timexes at chars {s1} and {s2}")
    out = []
    cursor = 0
    for n, (start, end, tx) in enumerate(items, 1):
        out.append(doc.raw_text[cursor:start])
        out.append(
            f'<TIMEX3 tid="t{n}" type="{tx.type}" value="{tx.value}">'
            f"{doc.raw_text[start:end]}</TIMEX3>"
        )
        cursor = end
    out.append(doc.raw_text[cursor:])
    return "".join(out)
