"""Reading, validating, and writing digitizer recordings and corpus manifests.

Sample file format: UTF-8 text, one sample per line, fields separated by
runs of whitespace. Either seven columns ``x y t status azimuth altitude
pressure`` or four columns ``x y t status``; the column count is fixed per
file and detected from the first data row. ``status`` is 1 while the pen
touches the surface and 0 while it hovers. All values are integers in raw
device units; timestamps are unit-agnostic ticks.

The grammar is Python's; serialize_session writes only its ASCII subset.
A field is any ``int()`` literal, so ``+2``, ``1_0`` and non-ASCII decimal
digits (U+0663, Arabic-Indic three) are read. ``str.split`` splits fields at
any Unicode whitespace, and rows end where ``str.splitlines`` ends them, so
a form feed, U+0085 and U+2028 end a row too. An integer field with more
digits than ``sys.get_int_max_str_digits()`` is a ParseError naming its digit
count and the limit.

Manifest format: CSV with the exact header ``path,database,task,subject,cohort``.
Relative paths are resolved against the manifest's own directory.

Bytes that are not UTF-8 are a ParseError in a sample file and a
ManifestError in a manifest; the message names the file and the byte offset.

A large recording can be parsed on several CPUs: split_text cuts its text at
line ends, parse_part parses each piece on its own (the CLI runs it in forked
workers), and join_parts joins the pieces in file order, parsing again any
piece whose own parse could differ from a straight-through one, so the result
is exactly parse_session's. Texts under ``_SPLIT_BLOCKS`` parse blocks stay
whole, because below that a worker's fork and pickled columns cost more than
the parse they save.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt
from pathlib import Path
from typing import NamedTuple

from .errors import (
    EmptyInputError,
    ManifestError,
    ParseError,
    TimestampOrderError,
)

MANIFEST_HEADER = ("path", "database", "task", "subject", "cohort")

# Column order of the seven-column file format, of SampleStream and of its rows.
COLUMNS = ("x", "y", "t", "status", "azimuth", "altitude", "pressure")

# what int() takes as a base-10 literal; such a field fails only on its length
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


class ParseWarning(NamedTuple):
    line: int
    message: str


class SampleView(Sequence):
    """Read-only sequence of rows over a stream's columns; a row is a plain
    tuple in :data:`COLUMNS` order.

    Rows are built when read; ``len()`` builds none. Slicing returns a tuple
    of rows. A view has no equality of its own: compare streams.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[2])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(*(c[index] for c in self._columns)))
        return tuple(c[index] for c in self._columns)

    def __iter__(self):
        return zip(*self._columns)


@dataclass(frozen=True, init=False)
class SampleStream:
    """An ordered recording with strictly increasing timestamps.

    Holds one tuple of ints per column, in :data:`COLUMNS` order; ``status``
    is 1 on the surface and 0 in the air. ``samples`` views the same data as
    rows. :meth:`from_columns` is the constructor; it holds the columns to the
    parser's rules and raises ValueError naming the first sample that breaks one.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    t: tuple[int, ...]
    status: tuple[int, ...]
    azimuth: tuple[int, ...]
    altitude: tuple[int, ...]
    pressure: tuple[int, ...]
    source_id: str
    warnings: tuple[ParseWarning, ...]

    @classmethod
    def from_columns(cls, x, y, t, status, azimuth=None, altitude=None, pressure=None,
                     *, source_id: str = "<stream>",
                     warnings: tuple[ParseWarning, ...] = ()) -> "SampleStream":
        """Build a stream from integer columns of equal length; omitted
        auxiliary columns are zero-filled."""
        columns = _checked_columns(source_id, x, y, t, status, azimuth, altitude, pressure)
        return cls._from_valid_columns(columns, source_id, warnings)

    @classmethod
    def _from_valid_columns(cls, columns, source_id, warnings) -> "SampleStream":
        stream = object.__new__(cls)
        for name, value in zip(COLUMNS + ("source_id", "warnings"),
                               columns + (source_id, tuple(warnings))):
            object.__setattr__(stream, name, value)
        return stream

    @cached_property
    def samples(self) -> SampleView:
        return SampleView(tuple(getattr(self, name) for name in COLUMNS))

    @property
    def t_first(self) -> int:
        return self.t[0]

    @property
    def t_last(self) -> int:
        return self.t[-1]


def _checked_columns(source_id: str, *columns) -> tuple[tuple[int, ...], ...]:
    # the checks of a hand-built stream: its shape, then the parser's rules
    t = tuple(columns[2])
    if not t:
        raise EmptyInputError(f"{source_id}: no samples")
    zeros = (0,) * len(t)
    columns = tuple(zeros if c is None else tuple(c) for c in columns)
    if any(len(c) != len(t) for c in columns):
        raise ValueError(f"{source_id}: columns differ in length")
    if not _follows_rules(t, columns[3], columns[6]):
        for i, row in enumerate(zip((None,) + t, t, columns[3], columns[6])):
            if fault := _row_fault(*row):
                raise ValueError(f"{source_id}: sample {i}: {fault[1]}")
    return columns


def _follows_rules(t, status, pressure, last_t=None) -> bool:
    # the recording rules over int columns: status is 0 or 1, pressure >= 0,
    # and timestamps strictly increase after last_t
    return ({*status} <= {0, 1} and min(pressure, default=0) >= 0
            and (last_t is None or t[0] > last_t) and all(map(lt, t, islice(t, 1, None))))


def _row_fault(last_t, t, status, pressure):
    # the first recording rule one row breaks, in a row-by-row reader's order,
    # as (exception type, message); None if it breaks none
    if status not in (0, 1):
        return ParseError, f"status must be 0 or 1, got {status}"
    if pressure < 0:
        return ParseError, f"negative pressure {pressure}"
    if last_t is not None and t <= last_t:
        return TimestampOrderError, f"timestamp {t} after {last_t}"
    return None


@dataclass(frozen=True)
class ParseOptions:
    """Knobs for :func:`parse_session`.

    derive_status_from_pressure: ignore the status column and mark a sample
    on-surface exactly when its pressure is positive. Useful for recordings
    whose status column is unreliable. A four-column file has no pressure to
    derive from, so parsing it with this option raises ParseError.
    """

    derive_status_from_pressure: bool = False


# Text is parsed a block of about this many characters (some thousand rows)
# at a time: split each line, transpose, then int() per column.
_BLOCK_CHARS = 32768

# split_text cuts no text of fewer blocks than this: below it, forking a
# worker and pickling its columns back cost more than the parse they save.
_SPLIT_BLOCKS = 16


class _ColumnBuilder:
    """Validates blocks of split rows and appends them to per-column lists.
    Rows that :meth:`join` took over as whole parts come before them, in
    ``joined``.

    A block that fails any check is bisected until the failing row stands
    alone; that row is then diagnosed exactly as a row-by-row reader would,
    so the first faulty line in the file raises, or a duplicate-timestamp row
    is dropped with a warning.
    """

    def __init__(self):
        self.width: int | None = None
        self.last_t: int | None = None
        self.lines = 0  # lines taken so far: the next one is line lines + 1
        self.columns: list[list[int]] = [[] for _ in COLUMNS]
        self.joined: list[list[list[int]]] = []
        self.warnings: list[ParseWarning] = []

    def feed(self, text: str) -> None:
        """Take ``text``, the next lines of the file, a block at a time."""
        pos = 0
        while pos < len(text):
            # cut just after a "\n", so the blocks' splitlines() adds up to the text's
            end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
            lines = text[pos:end].splitlines()
            self.add(lines, list(map(str.split, lines)), self.lines + 1)
            self.lines += len(lines)
            pos = end

    def join(self, part: _ColumnBuilder | None, text: str) -> None:
        """Take ``text``, the next lines of the file, given ``part``, what
        :func:`parse_part` made of it from a fresh start.

        Appending ``part`` is exact when it raised nothing and its first row
        reads as it would after this state: it has no rows, this state has
        none, or its rows have this width and its first timestamp is greater
        than ``last_t``. Any other part's text is fed again from this state.
        """
        if part is None or not (part.last_t is None or self.last_t is None or (
                part.width == self.width and part.columns[2][0] > self.last_t)):
            self.feed(text)
            return
        if self.columns[2]:
            self.joined.append(self.columns)
        self.columns = part.columns  # taken over, not copied
        self.warnings += [ParseWarning(self.lines + w.line, w.message) for w in part.warnings]
        self.lines += part.lines
        if part.last_t is not None:
            self.width, self.last_t = part.width, part.last_t

    def add(self, lines: list[str], rows: list[list[str]], lineno: int) -> None:
        """Take ``lines``, whose first is line ``lineno`` of the file, and
        ``rows``, the same lines split into fields."""
        block = self._valid_block(rows)
        if block is not None:
            for column, values in zip(self.columns, block):
                column.extend(values)
            self.width = len(block)
            self.last_t = block[2][-1]
        elif len(rows) > 1:
            mid = len(rows) // 2
            self.add(lines[:mid], rows[:mid], lineno)
            self.add(lines[mid:], rows[mid:], lineno + mid)
        elif rows[0]:
            self._reject(lines[0], rows[0], lineno)

    def _valid_block(self, rows):
        width = self.width or len(rows[0])
        if width not in (4, 7) or {*map(len, rows)} != {width}:
            return None
        try:
            block = [tuple(map(int, column)) for column in zip(*rows)]
        except ValueError:
            return None
        pressure = block[6] if width == 7 else ()
        return block if _follows_rules(block[2], block[3], pressure, self.last_t) else None

    def _reject(self, raw: str, fields: list[str], lineno: int) -> None:
        # one non-blank row that failed _valid_block; the checks run in the
        # order of a row-by-row reader, so the same fault wins
        if self.width is None:
            if len(fields) not in (4, 7):
                raise ParseError(f"expected 4 or 7 columns, got {len(fields)}", lineno)
        elif len(fields) != self.width:
            raise ParseError(f"expected {self.width} columns, got {len(fields)}", lineno)
        values = []
        for field in fields:
            try:
                values.append(int(field))
            except ValueError:
                raise ParseError(_bad_field(field, raw), lineno) from None
        t = values[2]
        pressure = values[6] if len(values) == 7 else 0
        error, message = _row_fault(self.last_t, t, values[3], pressure)
        if error is not TimestampOrderError or t < self.last_t:
            raise error(message, lineno)
        self.warnings.append(ParseWarning(lineno, f"duplicate timestamp {t} dropped"))


def _bad_field(field: str, raw: str) -> str:
    if _INT_LITERAL.fullmatch(field):  # an integer over the interpreter's digit limit
        digits = sum(map(str.isdecimal, field))
        return (f"integer field of {digits} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits")
    return f"non-integer field in {raw.strip()!r}"


def parse_session(
    text: str,
    options: ParseOptions | None = None,
    *,
    source_id: str = "<stream>",
) -> SampleStream:
    """Parse one recording from text.

    Rows that repeat the previous timestamp are dropped (the first row wins)
    and recorded in ``stream.warnings``. Blank lines are skipped. Raises
    ParseError for a malformed row or a column count that changes mid-file,
    TimestampOrderError when timestamps decrease, and EmptyInputError when no
    sample rows remain. Four-column files get zero-filled auxiliary columns;
    with ``derive_status_from_pressure`` they are a ParseError naming
    ``source_id``.
    """
    return join_parts([text], [None], options, source_id=source_id)


def split_text(text: str, parts: int) -> list[str]:
    """Cut a recording's text into at most ``parts`` pieces of about equal
    length, each but the last ending just after a ``"\\n"``, so that their
    lines are the text's lines. A text under ``_SPLIT_BLOCKS`` blocks stays
    whole."""
    if len(text) < _SPLIT_BLOCKS * _BLOCK_CHARS:
        return [text]
    pieces, pos = [], 0
    for k in range(1, parts):
        end = text.find("\n", max(pos, len(text) * k // parts)) + 1
        if not 0 < end < len(text):
            break
        pieces.append(text[pos:end])
        pos = end
    pieces.append(text[pos:])
    return pieces


def parse_part(text: str) -> _ColumnBuilder | None:
    """Parse one piece of :func:`split_text` as if it were a whole file, for
    :func:`join_parts`; None if that raised. A forked worker runs it and
    pickles the result back."""
    part = _ColumnBuilder()
    try:
        part.feed(text)
    except ParseError:  # join_parts parses the text again and raises in file order
        return None
    return part


def join_parts(
    texts: Sequence[str],
    parsed: Sequence[_ColumnBuilder | None],
    options: ParseOptions | None = None,
    *,
    source_id: str = "<stream>",
) -> SampleStream:
    """:func:`parse_session` of ``"".join(texts)``, where ``texts`` are
    consecutive pieces that each end just after a ``"\\n"`` (the last one
    may not), and ``parsed[i]`` is ``parse_part(texts[i])`` or None.

    A piece's result is used only where that is exact (see
    ``_ColumnBuilder.join``); every other piece is parsed again here, so the
    stream, its warnings and any exception with its message and line are
    parse_session's. The results' lists are emptied as they are used.
    """
    opts = options or ParseOptions()
    builder = _ColumnBuilder()
    for text, part in zip(texts, parsed):
        builder.join(part, text)
    chunks = [*builder.joined, builder.columns]
    columns = []
    for k in range(len(COLUMNS)):  # one column's lists and tuple alive at a time
        column = chunks[0][k]
        for chunk in chunks[1:]:
            column += chunk[k]
            chunk[k].clear()
        columns.append(tuple(column))
        column.clear()
    n = len(columns[2])
    if not n:
        raise EmptyInputError(f"{source_id}: no samples")
    if opts.derive_status_from_pressure and builder.width == 4:
        raise ParseError(f"{source_id}: deriving status needs the pressure column; "
                         "the file has 4 columns")
    zeros = (0,) * n
    columns = [column or zeros for column in columns]
    if opts.derive_status_from_pressure:
        columns[3] = tuple([1 if p > 0 else 0 for p in columns[6]])
    return SampleStream._from_valid_columns(tuple(columns), source_id,
                                            tuple(builder.warnings))


def read_text(path: Path, error: type[Exception]) -> str:
    """A file's UTF-8 text with universal newlines, a leading byte order mark
    dropped. Bytes that are not UTF-8 raise ``error`` naming the file and the
    offset of the first bad byte."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec counts from after a byte order mark, the file from its start
        bom = path.read_bytes().startswith(codecs.BOM_UTF8)
        offset = exc.start + len(codecs.BOM_UTF8) * bom
        raise error(f"{path}: not UTF-8 text: byte {offset}: {exc.reason}") from None


def read_session(path: str | Path, options: ParseOptions | None = None) -> SampleStream:
    """Read and parse one recording file."""
    p = Path(path)
    return parse_session(read_text(p, ParseError), options, source_id=str(p))


def serialize_session(stream: SampleStream) -> str:
    """Render a stream to seven-column text; parse -> serialize -> parse is identity."""
    columns = (getattr(stream, name) for name in COLUMNS)
    return "\n".join(map("{} {} {} {} {} {} {}".format, *columns)) + "\n"


@dataclass(frozen=True, slots=True)
class ManifestRecord:
    """One corpus file with its labels."""

    path: Path
    database: str
    task: str
    subject: str
    cohort: str


def load_manifest(text: str, base_dir: str | Path | None = None) -> tuple[ManifestRecord, ...]:
    """Parse a corpus manifest from CSV text.

    Returns the records in file order; a header-only manifest is valid and
    empty. Raises ManifestError for a
    missing or misspelled header, a row with the wrong field count, an empty
    label, or a duplicate (database, task, subject, path) combination.
    """
    # csv splits the lines itself, so a quoted label may hold a line break
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ManifestError("missing manifest header")
    header = tuple(h.strip() for h in rows[0])
    if header != MANIFEST_HEADER:
        raise ManifestError(
            f"bad manifest header {','.join(rows[0])!r}; "
            f"expected {','.join(MANIFEST_HEADER)!r}"
        )
    base = Path(base_dir) if base_dir is not None else None
    records: list[ManifestRecord] = []
    seen: set[tuple[str, str, str, str]] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(MANIFEST_HEADER):
            raise ManifestError(f"row {lineno}: expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
        path_str, database, task, subject, cohort = (f.strip() for f in row)
        for name, value in zip(MANIFEST_HEADER, (path_str, database, task, subject, cohort)):
            if not value:
                raise ManifestError(f"row {lineno}: empty {name}")
        key = (database, task, subject, path_str)
        if key in seen:
            raise ManifestError(f"row {lineno}: duplicate record {key}")
        seen.add(key)
        path = Path(path_str)
        if base is not None and not path.is_absolute():
            path = base / path
        records.append(ManifestRecord(path, database, task, subject, cohort))
    return tuple(records)


def read_manifest(path: str | Path) -> tuple[ManifestRecord, ...]:
    """Read a manifest file, resolving relative paths against its directory."""
    p = Path(path)
    return load_manifest(read_text(p, ManifestError), base_dir=p.parent)

