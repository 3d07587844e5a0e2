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

A file is read a block of bytes at a time, some thousand lines each, and a
str in blocks of as many characters, each cut just after a ``"\\n"``: a
file's text is never held whole, but one whose lines end only in ``"\\r"``
is one block. An ASCII block of either is bytes, any other is decoded. The
parser makes a bytes block's ``"\\r\\n"`` and ``"\\r"`` line ends ``"\\n"``,
and only bytes reach the JSON scanner. A block whose byte
skeleton, what is left once the digits and ``-`` are deleted, shows
``width`` fields on every line (``width - 1`` spaces, then ``"\\n"``) is
read by the JSON scanner, in C, as one flat array of the block's fields,
and column ``i`` is every ``width``-th value from the ``i``-th. Where that
scan fails, a field or separator being outside serialize_session's subset
(``-?[0-9]+`` fields, one space between them, ``"\\n"`` line ends), or a row
breaks a rule, the block is read line by line, each line split into fields
that ``int()`` reads. Both read a field to the same value, and every warning
and error comes from the line reader, so the subset is only read faster.

Manifest format: CSV with the exact header ``path,database,task,subject,cohort``.
Relative paths are resolved against the manifest's own directory. A manifest
may hold no NUL, and no field longer than ``csv.field_size_limit()``. A
manifest file is read with its line ends as written, as csv expects, so a
quoted ``"\\r"`` stays one; a recording is read with universal newlines.
Every ManifestError names a physical line: a NUL the line that holds it, any
other fault the first line of its record. :func:`csv_text` writes every CSV
that penair writes, manifests and tables alike.

Bytes that are not UTF-8 are a ParseError in a sample file and a
ManifestError in a manifest; the message names the file and the byte offset.
In a sample file that error comes before any row's, wherever the bad byte is.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import lt
from pathlib import Path
from types import SimpleNamespace

from .errors import (
    EmptyInputError,
    ManifestError,
    ParseError,
    TimestampOrderError,
)
from .frozen import Frozen

MANIFEST_HEADER = ("path", "database", "task", "subject", "cohort")

# Column order of the seven-column file format, of SampleStream and of its rows.
COLUMNS = ("x", "y", "t", "status", "azimuth", "altitude", "pressure")

# what int() takes as a base-10 literal; such a field fails only on its length
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


class ParseWarning(namedtuple("ParseWarning", "line message")):
    """A row the parser dropped: its 1-based ``line`` and why."""

    __slots__ = ()


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


class SampleStream(Frozen):
    """An ordered recording with strictly increasing timestamps.

    Holds one tuple of ints per column, in :data:`COLUMNS` order; ``status``
    is 1 on the surface and 0 in the air. ``samples`` views the same data as
    rows. :meth:`from_columns` is the constructor; it holds the columns to the
    parser's rules and raises ValueError naming the first sample that breaks one.
    A stream holds at least one sample; a column its source lacks (the
    auxiliary columns of a four-column file, or one omitted from
    from_columns) holds zeros.
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

    def __init__(self, *args, **kwargs):
        raise TypeError("a SampleStream is built by SampleStream.from_columns or the parser")

    @classmethod
    def from_columns(cls, x, y, t, status, azimuth=None, altitude=None, pressure=None,
                     *, source_id: str = "<stream>") -> "SampleStream":
        """Build a stream from integer columns of equal length; an omitted
        auxiliary column is zero-filled, an empty one is refused, and a
        value that is not an int (a bool is one) is a ValueError naming its
        column."""
        columns = (x, y, t, status, azimuth, altitude, pressure)
        stream = cls._finish([None if c is None else tuple(c) for c in columns], source_id, ())
        _check_rules(stream)
        return stream

    @classmethod
    def _finish(cls, columns, source_id, warnings) -> "SampleStream":
        # the step every build ends in: the columns in COLUMNS order, None for
        # one the recording lacks, which is zero-filled; an empty t is refused
        if not columns[2]:
            raise EmptyInputError(f"{source_id}: no samples")
        zeros = (0,) * len(columns[2])
        stream = object.__new__(cls)
        values = [zeros if c is None else c for c in columns] + [source_id, tuple(warnings)]
        object.__setattr__(stream, "__dict__", dict(zip(cls._fields, values)))
        return stream

    @property
    def samples(self) -> SampleView:
        return SampleView(tuple(getattr(self, name) for name in COLUMNS))

    @property
    def t_first(self) -> int:
        return self.t[0]

    @property
    def t_last(self) -> int:
        return self.t[-1]


def _check_rules(stream: SampleStream) -> None:
    # the checks of a hand-built stream: its shape, its values' type, then the parser's rules
    t, status, pressure = stream.t, stream.status, stream.pressure
    if any(len(getattr(stream, name)) != len(t) for name in COLUMNS):
        raise ValueError(f"{stream.source_id}: columns differ in length")
    for name in COLUMNS:
        column = getattr(stream, name)
        if not _all_ints(column):
            for i, value in enumerate(column):
                if not isinstance(value, int):
                    raise ValueError(f"{stream.source_id}: sample {i}: "
                                     f"{name} must be an int, got {value!r}")
    if not _follows_rules(t, status, pressure):
        for i, row in enumerate(zip((None,) + t, t, status, pressure)):
            if fault := _row_fault(*row):
                raise ValueError(f"{stream.source_id}: sample {i}: {fault[1]}")


def _all_ints(column) -> bool:
    # one pass in C: a float, Fraction or Decimal makes the sum one too, a str no sum
    try:
        return type(sum(column)) is int
    except TypeError:
        return False


def _follows_rules(t, status, pressure, last_t=None) -> bool:
    # the recording rules over int columns: status is 0 or 1, pressure >= 0,
    # and timestamps strictly increase after last_t
    return (status.count(0) + status.count(1) == len(status) and min(pressure, default=0) >= 0
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


class ParseOptions(Frozen):
    """Knobs for :func:`parse_session`.

    derive_status_from_pressure: replace the status column, which must still
    hold 0 or 1, by marking a sample on-surface exactly when its pressure is
    positive. Useful for recordings whose status column is unreliable. A
    four-column file has no pressure to derive from, so parsing it with this
    option raises ParseError.
    """

    derive_status_from_pressure: bool = False


# A recording is parsed a block of about this many characters of a str, or
# bytes of a file (some thousand rows), at a time. An ASCII block, of either,
# is bytes, its line ends made "\n" by _parse_blocks: read as one flat JSON
# array where _scanned_columns can and the rows break no rule, else line by line.
_BLOCK_CHARS = 32768

# the characters of a field of serialize_session's subset, "-?[0-9]+"
_FIELD_CHARS = b"0123456789-"
# a block's spaces and line ends made commas: its fields as one flat JSON array
_COMMAS = bytes.maketrans(b" \n", b",,")


def _scanned_columns(raw: bytes, width: int | None = None) -> list[list[int]] | None:
    """The columns of ``raw``, ASCII bytes whose lines each end in ``"\\n"``
    but maybe the last, read by the JSON scanner if every line holds ``width``
    fields (the first line's count if None) in serialize_session's subset;
    else None.

    Deleting the fields' characters, digits and ``-``, leaves a line of the
    subset as ``width - 1`` spaces and its line end, so one comparison of the
    skeleton proves every line's width: a blank line, or lines whose
    widths balance out, fail it. The bytes, their spaces and line ends made
    commas, is then a flat JSON array exactly when every field is
    ``-?(0|[1-9][0-9]*)`` within the digit limit and every separator one
    space: a subset of the ``int()`` literals, read to the same values.
    Column ``i`` is every ``width``-th value from the ``i``-th.
    """
    import json  # only a command that parses a recording loads it

    if not raw.endswith(b"\n"):  # the file's last line, unterminated
        raw += b"\n"
    skeleton = raw.translate(None, _FIELD_CHARS)
    # a line of the skeleton is width - 1 spaces and "\n": width bytes
    width = width or skeleton.find(b"\n") + 1
    if skeleton != (b" " * (width - 1) + b"\n") * (len(skeleton) // width):
        return None
    try:
        flat = json.loads(b"[" + raw[:-1].translate(_COMMAS) + b"]")
    except ValueError:  # a field or separator outside the subset
        return None
    return [flat[i::width] for i in range(width)]


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
    sample rows remain. A four-column file's auxiliary columns hold zeros, as
    in a stream built without them; with ``derive_status_from_pressure`` such
    a file is a ParseError naming ``source_id``.
    """
    return _parse_blocks(_text_blocks(text), options, source_id)


def _text_blocks(text: str) -> Iterator[str | bytes]:
    # cut just after a "\n", so the blocks' splitlines() adds up to the text's;
    # isascii first: a lone surrogate, which a caller's str may hold, cannot be encoded
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
        block = text[pos:end]
        yield block.encode("ascii") if block.isascii() else block
        pos = end


def _parse_blocks(blocks: Iterable[str | bytes], options: ParseOptions | None,
                  source_id: str) -> SampleStream:
    """parse_session of the text that ``blocks`` make up, each ending just
    after a ``"\\n"`` but the last, and each ASCII bytes or decoded str. Only
    a bytes block, its line ends made ``"\\n"`` here, goes to the JSON scanner."""
    opts = options or ParseOptions()
    width = last_t = None
    lineno = 0  # lines read so far: the next one is line lineno + 1
    columns: list[list[int]] = [[] for _ in COLUMNS]
    warnings: list[ParseWarning] = []
    for chunk in blocks:
        if isinstance(chunk, bytes):
            if b"\r" in chunk:  # "\r\n" and "\r" end a line as "\n" does
                chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            block = _scanned_columns(chunk, width)
            if block is not None and len(block) in (4, 7) and _follows_rules(
                    block[2], block[3], block[6] if len(block) == 7 else (), last_t):
                for column, values in zip(columns, block):  # its lines are rows, one each
                    column.extend(values)
                width, last_t = len(block), block[2][-1]
                lineno += len(block[2])
                continue
            chunk = chunk.decode("ascii")
        # read row by row, so every diagnostic is the row reader's, in its order
        for line in chunk.splitlines():
            lineno += 1
            if not (fields := line.split()):
                continue
            if width is None:
                if len(fields) not in (4, 7):
                    raise ParseError(f"expected 4 or 7 columns, got {len(fields)}", lineno)
            elif len(fields) != width:
                raise ParseError(f"expected {width} columns, got {len(fields)}", lineno)
            values = []
            for field in fields:
                try:
                    values.append(int(field))
                except ValueError:
                    raise ParseError(_bad_field(field, line), lineno) from None
            t = values[2]
            fault = _row_fault(last_t, t, values[3], values[6] if len(values) == 7 else 0)
            if fault is None:
                for column, value in zip(columns, values):
                    column.append(value)
                width, last_t = len(values), t
            elif fault[0] is TimestampOrderError and t == last_t:
                warnings.append(ParseWarning(lineno, f"duplicate timestamp {t} dropped"))
            else:
                raise fault[0](fault[1], lineno)
    if opts.derive_status_from_pressure and width == 4:
        raise ParseError(f"{source_id}: deriving status needs the pressure column; "
                         "the file has 4 columns")
    for i, column in enumerate(columns):  # one column's list and tuple alive at a time
        columns[i] = tuple(column) or None
        column.clear()
    if opts.derive_status_from_pressure and columns[6]:  # an empty file has none
        columns[3] = tuple([1 if p > 0 else 0 for p in columns[6]])
    return SampleStream._finish(columns, source_id, warnings)


def read_text(path: Path, error: type[Exception], newline: str | None = None) -> str:
    """A file's UTF-8 text, a whole leading byte order mark dropped, its line
    ends translated as ``open(newline=newline)`` does: to ``"\\n"`` by default,
    none with ``newline=""``. Bytes that are not UTF-8 raise ``error`` naming
    the file and the first bad byte's offset from the file's first byte."""
    try:
        with open(path, encoding="utf-8", newline=newline) as file:
            return file.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None


def _file_blocks(file, path: Path) -> Iterator[str | bytes]:
    """The text of a recording ``file`` opened ``"rb"``, a block at a time:
    about _BLOCK_CHARS bytes, then the rest of their line, a whole leading byte
    order mark dropped. An ASCII block stays bytes, any other is decoded or
    raises read_text's ParseError. Parsed, they give what read_text's text gives."""
    while raw := file.read(_BLOCK_CHARS) + file.readline():
        block = raw
        if file.tell() == len(raw) and raw.startswith(codecs.BOM_UTF8):
            block = raw[3:]
        if not block.isascii():
            try:
                block = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text: byte "
                                 f"{file.tell() - len(block) + exc.start}: "
                                 f"{exc.reason}") from None
        yield block


def read_session(path: str | Path, options: ParseOptions | None = None) -> SampleStream:
    """Read and parse one recording file a block at a time, as _file_blocks
    cuts it. The outcome is parse_session's of read_text's text."""
    p = Path(path)
    with open(p, "rb") as file:
        blocks = _file_blocks(file, p)
        try:
            return _parse_blocks(blocks, options, str(p))
        except ParseError:
            # a file that is not UTF-8 is refused before any of its rows is read
            for _ in blocks:
                pass
            raise


def serialize_session(stream: SampleStream) -> str:
    """Render a stream to seven-column text; parse -> serialize -> parse is identity."""
    columns = (getattr(stream, name) for name in COLUMNS)
    return "\n".join(map("{} {} {} {} {} {} {}".format, *columns)) + "\n"


class ManifestRecord(Frozen):
    """One corpus file with its labels."""

    path: Path
    database: str
    task: str
    subject: str
    cohort: str


def load_manifest(text: str, base_dir: str | Path | None = None) -> tuple[ManifestRecord, ...]:
    """Parse a corpus manifest from CSV text.

    Returns the records in file order; a header-only manifest is valid and
    empty, and a blank line is skipped. Raises ManifestError for a NUL, a
    field over csv's field limit, a missing or misspelled header, a row with
    the wrong field count, an empty label, or a duplicate (database, task,
    subject, path) combination, the paths compared as ``Path`` objects (so
    ``./a.svc`` repeats ``a.svc``). The error names a line, counted as csv counts
    them (``"\\n"``, ``"\\r"`` and ``"\\r\\n"`` each end one): a NUL's own
    line, and for any other fault the first line of its record.
    """
    # refused before csv sees it: Python 3.10's reader refuses a NUL, later ones keep it
    if "\0" in text:
        lines = enumerate(io.StringIO(text, newline=""), start=1)
        lineno = next(n for n, line in lines if "\0" in line)
        raise ManifestError(f"line {lineno}: NUL byte")
    rows = _csv_records(text)
    _, names = next(rows, (1, None))
    if names is None:
        raise ManifestError("missing manifest header")
    if tuple(h.strip() for h in names) != MANIFEST_HEADER:
        raise ManifestError(
            f"bad manifest header {','.join(names)!r}; "
            f"expected {','.join(MANIFEST_HEADER)!r}"
        )
    base = Path(base_dir) if base_dir is not None else None
    records: list[ManifestRecord] = []
    seen: set[tuple[str, str, str, Path]] = set()
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(MANIFEST_HEADER):
            raise ManifestError(f"line {lineno}: expected {len(MANIFEST_HEADER)} fields, "
                                f"got {len(row)}")
        path_str, database, task, subject, cohort = (f.strip() for f in row)
        for name, value in zip(MANIFEST_HEADER, (path_str, database, task, subject, cohort)):
            if not value:
                raise ManifestError(f"line {lineno}: empty {name}")
        path = Path(path_str)
        if base is not None and not path.is_absolute():
            path = base / path
        key = (database, task, subject, path)
        if key in seen:
            raise ManifestError(f"line {lineno}: duplicate record "
                                f"{(database, task, subject, path_str)}")
        seen.add(key)
        records.append(ManifestRecord(path, database, task, subject, cohort))
    return tuple(records)


def _csv_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(first line, fields)`` of each CSV record of ``text``, in one pass.
    csv splits the lines itself, so a quoted field may hold a line break."""
    reader = csv.reader(io.StringIO(text, newline=""))
    while True:
        lineno = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ManifestError(f"line {lineno}: {exc}") from None
        yield lineno, row


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
    return load_manifest(read_text(p, ManifestError, newline=""), base_dir=p.parent)

