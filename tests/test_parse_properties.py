"""Property tests for the columnar parser.

``reference_parse`` is the row-by-row parser that ``parse_session`` replaced,
kept here as the oracle: on every generated text both must return the same
samples and warnings, or raise the same exception with the same message and
line number.
"""

import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from penair import (
    EmptyInputError,
    ParseError,
    ParseOptions,
    ParseWarning,
    SampleStream,
    TimestampOrderError,
    parse_session,
    segment,
    serialize_session,
)
from penair import ingest


def reference_parse(text, options=None, source_id="<stream>"):
    """Row-by-row parse; returns (rows, warnings) or raises. A row is a tuple
    in ``ingest.COLUMNS`` order."""
    opts = options or ParseOptions()
    samples = []
    warnings = []
    width = None
    last_t = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if width is None:
            if len(fields) not in (4, 7):
                raise ParseError(f"expected 4 or 7 columns, got {len(fields)}", lineno)
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"expected {width} columns, got {len(fields)}", lineno)
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ParseError(f"non-integer field in {raw.strip()!r}", lineno) from None
        x, y, t, status_raw = values[:4]
        azimuth, altitude, pressure = values[4:] or (0, 0, 0)
        if status_raw not in (0, 1):
            raise ParseError(f"status must be 0 or 1, got {status_raw}", lineno)
        if pressure < 0:
            raise ParseError(f"negative pressure {pressure}", lineno)
        if opts.derive_status_from_pressure:
            status = 1 if pressure > 0 else 0
        else:
            status = status_raw
        if last_t is not None:
            if t < last_t:
                raise TimestampOrderError(f"timestamp {t} after {last_t}", lineno)
            if t == last_t:
                warnings.append(ParseWarning(lineno, f"duplicate timestamp {t} dropped"))
                continue
        samples.append((x, y, t, status, azimuth, altitude, pressure))
        last_t = t
    if not samples:
        raise EmptyInputError(f"{source_id}: no samples")
    if opts.derive_status_from_pressure and width == 4:
        raise ParseError(f"{source_id}: deriving status needs the pressure column; "
                         "the file has 4 columns")
    return tuple(samples), tuple(warnings)


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except (ParseError, EmptyInputError) as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line", None))


_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  ", " \t"])
# the last nine are JSON, or near it, but no int() literal
_BAD_TOKENS = st.sampled_from(["x", "1.5", "1e2", "--1", "", "+", "0x1f", "1,2", "[1]", "true",
                               "null", "NaN", "Infinity", "-", "1-2", '"1"'])
_ODD_INTS = st.sampled_from(["+7", "007", "-0", "1_000", "٣", "99999999999999999999"])


_FAULTS = ("dup", "back", "status", "pressure", "token", "odd", "ragged")


@st.composite
def recording_texts(draw):
    """Recording-like text: mostly valid rows of one width, with blank lines
    and rows carrying one or more faults: repeated or decreasing timestamps,
    bad status or pressure, non-integer or unusual integer fields, ragged
    column counts. About half the texts are canonical, as serialize_session
    writes them apart from their faults: one space between fields, "\n" line
    ends and no blank lines, so that most of their blocks take the JSON
    scanner's path."""
    canonical = draw(st.booleans())
    width = draw(st.sampled_from([4, 7]))
    t = draw(st.integers(-50, 50))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 6 + ["faulty"] + ["blank"] * (not canonical)))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
            continue
        faults = draw(st.sets(st.sampled_from(_FAULTS), min_size=1, max_size=3)) \
            if kind == "faulty" else set()
        if "back" in faults:
            t -= draw(st.integers(1, 5))
        elif "dup" not in faults:
            t += draw(st.integers(1, 9))
        fields = [str(draw(st.integers(-300, 300))), str(draw(st.integers(-300, 300))),
                  str(t), str(draw(st.integers(0, 1)))]
        if width == 7:
            fields += [str(draw(st.integers(0, 359))), str(draw(st.integers(0, 90))),
                       str(draw(st.integers(0, 1023)))]
        if "status" in faults:
            fields[3] = str(draw(st.sampled_from([-1, 2, 10])))
        if "pressure" in faults and width == 7:
            fields[6] = str(-draw(st.integers(1, 50)))
        for fault, tokens in (("token", _BAD_TOKENS), ("odd", _ODD_INTS)):
            if fault in faults:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens)
        if "ragged" in faults:
            if draw(st.booleans()):
                del fields[draw(st.integers(0, len(fields) - 1))]
            else:
                fields.append("1")
        fields = [f for f in fields if f]  # an empty token just shortens the row
        line = ""
        for f in fields:
            line += (" " if canonical else draw(_SEPARATORS)) + f if line else f
        lines.append(line)
    newline = "\n" if canonical else draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


@settings(max_examples=300, deadline=None)
@given(
    text=recording_texts(),
    block_chars=st.integers(1, 200),
    derive=st.booleans(),
)
# the JSON scanner would read these as a bool, a float, and two fields for one
@example(text="0 0 1 1\n0 0 2 true\n", block_chars=100, derive=False)
@example(text="0 0 1.5 1 0 0 1\n", block_chars=100, derive=False)
@example(text="1,2 0 1\n", block_chars=100, derive=False)
# a blank line and a short row among canonical ones
@example(text="0 0 1 1\n\n0 0 2 1\n", block_chars=100, derive=False)
@example(text="0 0 1 1\n0 0 2\n", block_chars=100, derive=False)
# a block ends at the first "\n" at least block_chars into it, so each case
# below falls at a block boundary:
# a duplicate timestamp at a boundary is dropped with a warning
@example(text="0 0 1 1\n0 0 2 1\n0 0 2 1\n0 0 3 1\n", block_chars=8, derive=False)
# a decreasing timestamp at a boundary
@example(text="0 0 1 1\n0 0 5 1\n0 0 3 1\n0 0 6 1\n", block_chars=8, derive=False)
# four-column rows after seven-column rows
@example(text="0 0 1 1 0 0 1\n0 0 2 1 0 0 1\n0 0 3 1\n", block_chars=14, derive=False)
# a block of blank lines only; the next block's warning is on line 5
@example(text="0 0 1 1\n\n \n0 0 2 1\n0 0 2 1\n", block_chars=2, derive=False)
# errors in two blocks: the first one wins
@example(text="0 0 1 1\n0 0 2 1\n0 0 x 1\n0 0 4 1\n0 0 y 1\n", block_chars=8,
         derive=False)
# a four-column file with derive_status_from_pressure
@example(text="0 0 1 1\n0 0 2 0\n", block_chars=7, derive=True)
def test_parse_matches_row_by_row_reference(text, block_chars, derive):
    # small blocks exercise block boundaries and the line reading of bad blocks
    opts = ParseOptions(derive_status_from_pressure=derive)
    want = _outcome(reference_parse, text, opts)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        got = _outcome(parse_session, text, opts)
    if got[0] == "ok":
        stream = got[1]
        got = ("ok", (tuple(stream.samples), stream.warnings))
    assert got == want


def cut_after_lines(text, cuts):
    """``text`` cut just after each of its "\\n"s whose index (0 for the
    first) is in ``cuts``."""
    ends = [m.end() for m in re.finditer("\n", text)]
    at = sorted({ends[c] for c in cuts if c < len(ends)})
    return [text[a:b] for a, b in zip([0, *at], [*at, len(text)])]


@settings(max_examples=300, deadline=None)
@given(
    text=recording_texts(),
    cuts=st.sets(st.integers(0, 40), max_size=20),
    block_chars=st.integers(1, 200),
    derive=st.booleans(),
)
# a duplicate timestamp exactly at a cut is dropped with a warning
@example(text="0 0 1 1\n0 0 2 1\n0 0 2 1\n0 0 3 1\n", cuts={1}, block_chars=100, derive=False)
# a decreasing timestamp at a cut
@example(text="0 0 1 1\n0 0 5 1\n0 0 3 1\n0 0 6 1\n", cuts={1}, block_chars=100, derive=False)
# a four-column part after a seven-column part
@example(text="0 0 1 1 0 0 1\n0 0 2 1 0 0 1\n0 0 3 1\n", cuts={1}, block_chars=100,
         derive=False)
# a part of blank lines only; the next part's warning is on the file's line 5
@example(text="0 0 1 1\n\n \n0 0 2 1\n0 0 2 1\n", cuts={0, 2}, block_chars=100,
         derive=False)
# errors in two parts: the first one wins
@example(text="0 0 1 1\n0 0 2 1\n0 0 x 1\n0 0 4 1\n0 0 y 1\n", cuts={1, 3},
         block_chars=100, derive=False)
# a four-column file with derive_status_from_pressure
@example(text="0 0 1 1\n0 0 2 0\n", cuts={0}, block_chars=100, derive=True)
def test_parts_parsed_apart_and_joined_match_reference(text, cuts, block_chars, derive):
    # the text cut at any "\n" and fed to one _ColumnBuilder a part at a
    # time, whatever the block size: its state carries from part to part
    opts = ParseOptions(derive_status_from_pressure=derive)
    want = _outcome(reference_parse, text, opts)
    pieces = cut_after_lines(text, cuts)
    feed = ingest._ColumnBuilder.feed

    def feed_in_parts(builder, whole):
        assert whole == "".join(pieces)
        for piece in pieces:
            feed(builder, piece)

    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(ingest._ColumnBuilder, "feed", feed_in_parts):
        got = _outcome(parse_session, text, opts)
    if got[0] == "ok":
        stream = got[1]
        got = ("ok", (tuple(stream.samples), stream.warnings))
    assert got == want


def test_parse_matches_reference_across_default_blocks():
    # a text of several default-size blocks, with a duplicate and a bad row past the first
    rows = [f"{i % 97} {i % 89} {3 * i} {i % 2} 10 20 {i % 500}" for i in range(6000)]
    rows[2500] = rows[2499]
    text = "\n".join(rows) + "\n"
    assert _outcome(parse_session, text)[1].warnings == reference_parse(text)[1]
    assert tuple(parse_session(text).samples) == reference_parse(text)[0]
    rows[4400] = "1 2 3 1 0 0 -4"
    bad = "\n".join(rows)
    assert _outcome(parse_session, bad) == _outcome(reference_parse, bad)


columns = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
    st.lists(st.integers(-5000, 5000), min_size=n, max_size=n),
    st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True).map(sorted),
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
    st.lists(st.integers(-360, 360), min_size=n, max_size=n),
    st.lists(st.integers(0, 90), min_size=n, max_size=n),
    st.lists(st.integers(0, 10**12), min_size=n, max_size=n),
))


@settings(max_examples=100, deadline=None)
@given(columns)
def test_serialize_parse_identity(cols):
    stream = SampleStream.from_columns(*cols)
    text = serialize_session(stream)
    again = parse_session(text)
    assert again == stream
    assert serialize_session(again) == text
    assert SampleStream.from_columns(*zip(*stream.samples)) == stream


@st.composite
def rule_columns(draw):
    """Seven int columns whose rows mostly keep the recording rules: status
    from {-1, 0, 1, 2}, pressure from [-2, 5], and timestamp steps that now
    and then repeat or go back."""
    n = draw(st.integers(1, 20))
    t, ts = draw(st.integers(-20, 20)), []
    for _ in range(n):
        ts.append(t)
        t += draw(st.sampled_from((1, 2, 3, 7) * 5 + (0, -1, -3)))
    ints = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    return (draw(ints), draw(ints), ts,
            draw(st.lists(st.sampled_from((0, 1) * 10 + (-1, 2)), min_size=n, max_size=n)),
            draw(ints), draw(ints),
            draw(st.lists(st.sampled_from(tuple(range(6)) * 4 + (-2, -1)),
                          min_size=n, max_size=n)))


_RULE_BREAKS = {  # columns breaking one rule at sample 1, with from_columns' message
    "status 2": (([0, 1, 2], [0] * 3, [1, 2, 3], [1, 2, 1], [0] * 3, [0] * 3, [1, 1, 1]),
                 "s: sample 1: status must be 0 or 1, got 2"),
    "status -1": (([0, 1, 2], [0] * 3, [1, 2, 3], [1, -1, 1], [0] * 3, [0] * 3, [1, 1, 1]),
                  "s: sample 1: status must be 0 or 1, got -1"),
    "negative pressure": (([0, 1], [0, 0], [1, 2], [1, 1], [0, 0], [0, 0], [3, -2]),
                          "s: sample 1: negative pressure -2"),
    "repeated timestamp": (([0, 1], [0, 0], [4, 4], [1, 1], [0, 0], [0, 0], [3, 3]),
                           "s: sample 1: timestamp 4 after 4"),
}


@settings(max_examples=300, deadline=None)
@given(rule_columns())
@example(_RULE_BREAKS["status 2"][0])
@example(_RULE_BREAKS["status -1"][0])
@example(_RULE_BREAKS["negative pressure"][0])
@example(_RULE_BREAKS["repeated timestamp"][0])
def test_from_columns_keeps_the_parsers_rules(cols):
    # one sample per line, so sample i is line i + 1
    lines = list(map("{} {} {} {} {} {} {}".format, *cols))
    try:
        parsed = parse_session("\n".join(lines))
        first_line = parsed.warnings[0].line if parsed.warnings else None
    except ParseError as exc:
        # a duplicate before the faulty line warned first
        before = parse_session("\n".join(lines[:exc.line - 1])).warnings if exc.line > 1 else ()
        parsed, first_line = None, before[0].line if before else exc.line
    try:
        stream = SampleStream.from_columns(*cols)
    except ValueError as exc:
        assert first_line is not None
        assert int(re.match(r"<stream>: sample (\d+): ", str(exc))[1]) == first_line - 1
    else:
        assert first_line is None
        assert stream == parsed
        segment(stream)  # a stream from_columns accepts segments without IndexError


@pytest.mark.parametrize("name", sorted(_RULE_BREAKS))
def test_from_columns_names_the_sample_and_rule(name):
    cols, message = _RULE_BREAKS[name]
    with pytest.raises(ValueError) as info:
        SampleStream.from_columns(*cols, source_id="s")
    assert str(info.value) == message
