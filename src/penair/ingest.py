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

A block of text in serialize_session's subset (``-?[0-9]+`` fields, one
space between them, ``"\\n"`` line ends) that breaks no rule is read by the
JSON scanner, in C; any other block is read line by line, each line split
into fields that ``int()`` reads. Both read a field to the same value, and
every warning and error comes from the line reader, so the subset is only
read faster.

Manifest format: CSV with the exact header ``path,database,task,subject,cohort``.
Relative paths are resolved against the manifest's own directory. A manifest
may hold no NUL, and no field longer than ``csv.field_size_limit()``; either
is a ManifestError naming the line. :func:`csv_text` writes every CSV that
penair writes, manifests and tables alike.

Bytes that are not UTF-8 are a ParseError in a sample file and a
ManifestError in a manifest; the message names the file and the byte offset.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt
from pathlib import Path
from types import SimpleNamespace
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
                     *, source_id: str = "<stream>") -> "SampleStream":
        """Build a stream from integer columns of equal length; omitted
        auxiliary columns are zero-filled."""
        columns = _checked_columns(source_id, x, y, t, status, azimuth, altitude, pressure)
        return cls._from_valid_columns(columns, source_id, ())

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
# at a time: read as JSON where _scanned_rows can and the rows break no rule,
# else line by line.
_BLOCK_CHARS = 32768

# the characters of serialize_session's subset: "-?[0-9]+" fields, one space, "\n"
_SCANNABLE = b"0123456789- \n"


class _ColumnBuilder:
    """Validates rows and appends them to per-column lists.

    A block that the JSON scanner does not read, or whose rows fail any
    check, is read again one line at a time, so the first faulty line in the
    file raises, or a duplicate-timestamp row is dropped with a warning.
    """

    def __init__(self):
        self.width: int | None = None
        self.last_t: int | None = None
        self.lines = 0  # lines taken so far: the next one is line lines + 1
        self.columns: list[list[int]] = [[] for _ in COLUMNS]
        self.warnings: list[ParseWarning] = []

    def feed(self, text: str) -> None:
        """Take ``text``, the next lines of the file, a block at a time."""
        pos = 0
        while pos < len(text):
            # cut just after a "\n", so the blocks' splitlines() adds up to the text's
            end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
            chunk = text[pos:end]
            rows = _scanned_rows(chunk)
            block = rows and self._valid_block(rows)
            if block:  # rows are its lines, one each
                self._append(block)
                self.lines += len(rows)
            else:  # read row by row, so every diagnostic is the row reader's
                for line in chunk.splitlines():
                    self.lines += 1
                    if fields := line.split():
                        self._take(line, fields)
            pos = end

    def _append(self, block) -> None:
        for column, values in zip(self.columns, block):
            column.extend(values)
        self.width = len(block)
        self.last_t = block[2][-1]

    def _valid_block(self, rows):
        # the columns of scanned rows if they are a block of this width that
        # keeps the rules after last_t, else None
        width = self.width or len(rows[0])
        if width not in (4, 7) or {*map(len, rows)} != {width}:
            return None
        block = list(zip(*rows))
        pressure = block[6] if width == 7 else ()
        return block if _follows_rules(block[2], block[3], pressure, self.last_t) else None

    def _take(self, raw: str, fields: list[str]) -> None:
        # line ``lines``, split into ``fields``: appended if it breaks no rule,
        # else diagnosed, each check in a row-by-row reader's order
        lineno = self.lines
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
        fault = _row_fault(self.last_t, t, values[3], pressure)
        if fault is None:
            for column, value in zip(self.columns, values):
                column.append(value)
            self.width, self.last_t = len(values), t
            return
        error, message = fault
        if error is not TimestampOrderError or t < self.last_t:
            raise error(message, lineno)
        self.warnings.append(ParseWarning(lineno, f"duplicate timestamp {t} dropped"))


def _scanned_rows(chunk: str) -> list[list[int]] | None:
    """The rows of ``chunk``, lines that each end in ``"\\n"`` but maybe the
    last, as lists of ints read by the JSON scanner; None where ``chunk``
    holds a character outside ``_SCANNABLE`` or the scanner refuses it.

    Such a chunk, its spaces made commas and its line ends ``"],["``, is a
    JSON array of arrays exactly when every field is ``-?(0|[1-9][0-9]*)``
    within the digit limit and every separator one space: a subset of the
    ``int()`` literals, read to the same values, and the lines are the
    chunk's ``splitlines()``. A blank line reads as an empty row, which no
    width check passes.
    """
    import json  # only a command that parses a recording loads it

    # isascii first: a lone surrogate, which a caller's str may hold, cannot be encoded
    if not chunk.isascii() or chunk.encode("ascii").translate(None, _SCANNABLE):
        return None
    body = chunk.removesuffix("\n").replace(" ", ",").replace("\n", "],[")
    try:
        return json.loads(f"[[{body}]]")
    except ValueError:  # a field or separator outside the subset
        return None


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
    opts = options or ParseOptions()
    builder = _ColumnBuilder()
    builder.feed(text)
    columns = []
    for column in builder.columns:  # one column's list and tuple alive at a time
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
    empty. Raises ManifestError for a NUL, a field over csv's field limit, a
    missing or misspelled header, a row with the wrong field count, an empty
    label, or a duplicate (database, task, subject, path) combination.
    """
    # refused before csv sees it: Python 3.10's reader refuses a NUL, later ones keep it
    if "\0" in text:
        lines = enumerate(io.StringIO(text, newline=""), start=1)
        lineno = next(n for n, line in lines if "\0" in line)
        raise ManifestError(f"line {lineno}: NUL byte")
    # csv splits the lines itself, so a quoted label may hold a line break
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ManifestError(f"line {reader.line_num}: {exc}") from None
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


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV text of ``header`` then ``rows``: ``"\\n"`` line ends, a field
    quoted only where it must be. load_manifest reads it back field for field."""
    lines: list[str] = []
    # a "\r" in the terminator makes csv quote a field holding one, which only
    # Python 3.13 on does unasked; each row's "\r\n" is then cut to "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def read_manifest(path: str | Path) -> tuple[ManifestRecord, ...]:
    """Read a manifest file, resolving relative paths against its directory."""
    p = Path(path)
    return load_manifest(read_text(p, ManifestError), base_dir=p.parent)

