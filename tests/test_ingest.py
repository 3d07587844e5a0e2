import codecs
import csv
import io
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from penair import (
    EmptyInputError,
    ManifestError,
    ParseError,
    SampleStream,
    ParseOptions,
    ParseWarning,
    TimestampOrderError,
    load_manifest,
    parse_session,
    read_manifest,
    read_session,
    segment,
    serialize_session,
)
from penair import ingest
from penair.ingest import MANIFEST_HEADER, ManifestRecord, csv_text
from penair.cli import main

from test_parse_properties import _outcome, reference_parse


def test_parse_single_row():
    stream = parse_session("10 20 100 1 0 0 512")
    assert len(stream.samples) == 1
    assert stream.samples[0] == (10, 20, 100, 1, 0, 0, 512)
    assert (stream.x, stream.y, stream.t, stream.status) == ((10,), (20,), (100,), (1,))
    assert (stream.azimuth, stream.altitude, stream.pressure) == ((0,), (0,), (512,))


def test_parse_four_column_defaults():
    stream = parse_session("10 20 100 0\n11 21 102 1")
    assert stream.status == (0, 1)
    assert (stream.azimuth, stream.altitude, stream.pressure) == ((0, 0),) * 3


def test_parse_skips_blank_lines_and_tabs():
    text = "\n10 20 100 1\n\n11\t21\t102\t0\n\n"
    stream = parse_session(text)
    assert stream.t == (100, 102)


def test_parse_mixed_column_count_rejected():
    with pytest.raises(ParseError) as exc:
        parse_session("10 20 100 1 0 0 512\n11 21 102 1")
    assert exc.value.line == 2


def test_parse_bad_column_count_first_row():
    with pytest.raises(ParseError) as exc:
        parse_session("10 20 100")
    assert exc.value.line == 1


def test_parse_non_integer_field():
    with pytest.raises(ParseError) as exc:
        parse_session("10 20 1e2 1")
    assert exc.value.line == 1


def test_parse_bad_status():
    with pytest.raises(ParseError):
        parse_session("10 20 100 2")


def test_parse_negative_pressure():
    with pytest.raises(ParseError):
        parse_session("10 20 100 1 0 0 -5")


def test_duplicate_timestamp_keeps_first_and_warns():
    stream = parse_session("1 2 100 1\n3 4 100 0")
    assert len(stream.samples) == 1
    assert stream.x == (1,)
    assert stream.status == (1,)
    assert len(stream.warnings) == 1
    assert stream.warnings[0].line == 2


def test_decreasing_timestamp_rejected():
    with pytest.raises(TimestampOrderError) as exc:
        parse_session("1 2 100 1\n3 4 98 1")
    assert exc.value.line == 2
    assert isinstance(exc.value, ParseError)


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_session("")
    with pytest.raises(EmptyInputError):
        parse_session("\n  \n")


def test_derive_status_from_pressure():
    text = "1 2 100 1 0 0 0\n3 4 102 0 0 0 300"
    stream = parse_session(text, ParseOptions(derive_status_from_pressure=True))
    assert stream.status == (0, 1)


def test_stream_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        SampleStream.from_columns([0, 0], [0, 0], [5, 5], [0, 0])
    with pytest.raises(EmptyInputError):
        SampleStream.from_columns((), (), (), ())


def test_stream_columns_must_be_of_equal_length():
    with pytest.raises(ValueError, match="^<stream>: columns differ in length$"):
        SampleStream.from_columns([0, 1], [0, 1], [5, 6], [0, 0], pressure=[0])


def test_an_empty_column_is_refused_not_zero_filled():
    with pytest.raises(ValueError, match="^<stream>: columns differ in length$"):
        SampleStream.from_columns([0, 1], [0, 1], [5, 6], [0, 0], pressure=[])


@pytest.mark.parametrize("column, value", [
    ("t", 2.0), ("status", 1.0), ("x", Fraction(1, 2)), ("pressure", "3"), ("altitude", None),
])
def test_from_columns_refuses_a_value_that_is_not_an_int(column, value):
    # a float t made every interval a long stroke; a float status crashed segment
    columns = {name: [0, 0, 0, 0] for name in ingest.COLUMNS}
    columns["t"], columns["status"] = [0, 1, 3, 4], [1, 1, 0, 1]
    columns[column][2] = value
    with pytest.raises(ValueError) as info:
        SampleStream.from_columns(**columns)
    assert str(info.value) == f"<stream>: sample 2: {column} must be an int, got {value!r}"


def test_from_columns_takes_bools_as_ints():
    stream = SampleStream.from_columns([0, 0], [0, 0], [1, 2], [True, False])
    assert stream.status == (True, False) == (1, 0)
    assert [s.cls.value for s in segment(stream).strokes] == ["on_surface", "in_air_short"]


def test_a_stream_is_built_only_by_from_columns_or_the_parser():
    # SampleStream() would be a stream without even the columns
    for args in ((), ((0,), (0,), (0,), (1,), (0,), (0,), (0,), "<stream>", ())):
        with pytest.raises(TypeError, match="^a SampleStream is built by "
                                            r"SampleStream\.from_columns or the parser$"):
            SampleStream(*args)


def test_parsed_and_built_streams_refuse_emptiness_alike():
    with pytest.raises(EmptyInputError) as parsed:
        parse_session("")
    with pytest.raises(EmptyInputError) as built:
        SampleStream.from_columns((), (), (), ())
    assert str(parsed.value) == str(built.value) == "<stream>: no samples"


def test_samples_slice_to_a_tuple_of_rows():
    stream = parse_session("1 2 10 1 0 0 5\n3 4 12 0 0 0 0\n5 6 14 1 0 0 7\n")
    assert stream.samples[1:] == ((3, 4, 12, 0, 0, 0, 0), (5, 6, 14, 1, 0, 0, 7))
    assert stream.samples[::-2] == ((5, 6, 14, 1, 0, 0, 7), (1, 2, 10, 1, 0, 0, 5))


def test_serialize_parse_round_trip():
    rng = random.Random(20113)
    for _ in range(25):
        t = 0
        rows = []
        for _ in range(rng.randint(1, 120)):
            t += rng.randint(1, 9)
            rows.append((
                rng.randint(-500, 5000), rng.randint(-500, 5000), t,
                rng.randint(0, 1), rng.randint(0, 359),
                rng.randint(0, 90), rng.randint(0, 1023),
            ))
        stream = SampleStream.from_columns(*zip(*rows))
        again = parse_session(serialize_session(stream))
        assert again == stream
        assert tuple(again.samples) == tuple(rows)
        assert serialize_session(again) == serialize_session(stream)


def test_read_session_strips_bom(tmp_path):
    path = tmp_path / "bom.svc"
    path.write_bytes(b"\xef\xbb\xbf10 20 100 1\n")
    stream = read_session(path)
    assert len(stream.samples) == 1
    assert stream.source_id == str(path)


def test_read_session_never_holds_the_files_text(tmp_path):
    # the file is read a block at a time: beyond the stream it returns, the
    # parse holds far less than the file's text at its peak
    path = tmp_path / "rec.svc"
    path.write_text("".join(f"{10000 + i % 9973} {i % 7919 - 20000} {100000 + 3 * i} {i % 2}\n"
                            for i in range(60000)), encoding="utf-8")
    read_session(path)  # what the first parse imports is not the parse's
    tracemalloc.start()
    try:
        stream = read_session(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream.t) == 60000
    assert peak - held < path.stat().st_size / 2


def parse_report(tmp_path, capsys, text):
    """The one row of ``penair parse`` on ``text``, keyed by its header."""
    path = tmp_path / "rec.svc"
    path.write_text(text, encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    return dict(zip(header, row))


def test_validate_single_sample(tmp_path, capsys):
    report = parse_report(tmp_path, capsys, "1 2 100 1")
    assert report["span"] == "0"
    assert report["status_transitions"] == "0"
    assert report["n_samples"] == "1"


def test_validate_alternating_statuses(tmp_path, capsys):
    lines = [f"0 0 {10 * i} {i % 2}" for i in range(10)]
    report = parse_report(tmp_path, capsys, "\n".join(lines))
    assert report["status_transitions"] == "9"


def test_validate_pressure_range_and_warnings(tmp_path, capsys):
    text = "1 2 10 1 0 0 700\n1 2 10 1 0 0 700\n1 2 12 0 0 0 0"
    report = parse_report(tmp_path, capsys, text)
    assert (report["pressure_min"], report["pressure_max"]) == ("0", "700")
    assert report["warnings"] == "1"


def test_manifest_single_row(tmp_path):
    text = "path,database,task,subject,cohort\na.svc,db,sig,s01,control\n"
    manifest = load_manifest(text, base_dir=tmp_path)
    assert len(manifest) == 1
    record = manifest[0]
    assert record.path == tmp_path / "a.svc"
    assert (record.database, record.task, record.subject, record.cohort) == (
        "db", "sig", "s01", "control")


def test_manifest_header_only_is_empty():
    manifest = load_manifest("path,database,task,subject,cohort\n")
    assert manifest == ()


def test_manifest_duplicate_rows_rejected():
    # paths are compared as paths: ./a.svc is a.svc and sub//a.svc is sub/a.svc
    for first, second in [("a.svc", "a.svc"), ("a.svc", "./a.svc"),
                          ("sub/a.svc", "sub//a.svc")]:
        text = ("path,database,task,subject,cohort\n"
                f"{first},db,sig,s01,control\n"
                f"{second},db,sig,s01,control\n")
        with pytest.raises(ManifestError,
                           match=re.escape(f"line 3: duplicate record ('db', 'sig', 's01', "
                                           f"'{second}')")):
            load_manifest(text)


def test_manifest_bad_header():
    with pytest.raises(ManifestError):
        load_manifest("file,db,task,subject,cohort\na.svc,x,y,z,w\n")
    with pytest.raises(ManifestError):
        load_manifest("")


def test_manifest_field_count_and_empty_labels():
    with pytest.raises(ManifestError):
        load_manifest("path,database,task,subject,cohort\na.svc,db,sig,s01\n")
    with pytest.raises(ManifestError):
        load_manifest("path,database,task,subject,cohort\na.svc,db,,s01,control\n")


def test_manifest_skips_a_blank_line():
    text = "path,database,task,subject,cohort\n\na.svc,db,sig,s01,control\n\n"
    assert [r.subject for r in load_manifest(text)] == ["s01"]


def test_manifest_errors_name_the_first_line_of_their_record():
    # the quoted subject of line 2 runs on to line 3, so the third record starts on line 4
    text = ('path,database,task,subject,cohort\na.svc,db,sig,"s\n01",control\n'
            "b.svc,db,sig,s02,\n")
    with pytest.raises(ManifestError, match="^line 4: empty cohort$"):
        load_manifest(text)
    with pytest.raises(ManifestError, match="^line 4: expected 5 fields, got 4$"):
        load_manifest(text.replace("s02,", "s02"))


def test_crlf_manifest_with_bom_reads_as_its_lf_copy(tmp_path):
    text = ('path,database,task,subject,cohort\na.svc,db,"s,g",s01,control\n'
            "b.svc,db,sig,s02,patient\n")
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode())
    crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    assert read_manifest(crlf) == read_manifest(lf)
    assert len(read_manifest(lf)) == 2


def test_manifest_absolute_path_kept(tmp_path):
    text = "path,database,task,subject,cohort\n/data/a.svc,db,sig,s01,control\n"
    manifest = load_manifest(text, base_dir=tmp_path)
    assert str(manifest[0].path) == "/data/a.svc"


def test_read_manifest_resolves_against_parent(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "manifest.csv").write_text(
        "path,database,task,subject,cohort\nrec/a.svc,db,sig,s01,control\n",
        encoding="utf-8",
    )
    manifest = read_manifest(tmp_path / "corpus" / "manifest.csv")
    assert manifest[0].path == tmp_path / "corpus" / "rec" / "a.svc"


# a label as load_manifest keeps it: stripped, not empty and free of NUL; half
# are drawn from the characters that make csv quote a field
_LABEL = st.one_of(st.text(st.sampled_from(',"\r\n a\xe9'), min_size=1, max_size=8),
                   st.text(st.characters(exclude_characters="\0"), min_size=1, max_size=8),
                   ).map(str.strip).filter(bool)


@given(st.lists(st.tuples(_LABEL, _LABEL, _LABEL, _LABEL, _LABEL), max_size=8,
                unique_by=lambda row: row[3]))
def test_manifest_written_by_csv_text_reads_back_in_order(rows):
    records = load_manifest(csv_text(MANIFEST_HEADER, rows))
    assert records == tuple(ManifestRecord(Path(path), *labels) for path, *labels in rows)


@pytest.mark.parametrize("text, message", [
    ("path,database,task,subject,cohort\na\0b.svc,db,sig,s01,control\n", "line 2: NUL byte"),
    ('path,database,task,subject,cohort\n"a.svc",db,"s\n\0",s01,control\n', "line 3: NUL byte"),
    ("path,database,task,subject,cohort\na.svc,db,sig,s01,control\r"
     "b.svc,d\0b,sig,s02,control\n", "line 3: NUL byte"),
    (f"path,database,task,subject,cohort\n{'a' * 200_000},db,sig,s01,control\n",
     "line 2: field larger than field limit"),
], ids=["nul", "nul_in_quoted_field", "nul_after_bare_cr", "over_long_field"])
def test_manifest_csv_faults_name_their_line(text, message):
    with pytest.raises(ManifestError, match=f"^{message}"):
        load_manifest(text)


# The field grammar is Python's: int() literals, str.split fields and
# str.splitlines rows. penair's writer only emits the plain ASCII subset.

def test_fields_are_python_int_literals():
    stream = parse_session("+2 1_0 \u0663 1\n-0 0_0 4 0\n")
    assert (stream.x, stream.y, stream.t) == ((2, 0), (10, 0), (3, 4))


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_splitlines_boundaries_end_rows(sep):
    stream = parse_session(f"0 0 1 1{sep}5 5 2 0\n")
    assert stream.t == (1, 2)
    assert stream.x == (0, 5)


def test_any_unicode_whitespace_separates_fields():
    stream = parse_session("1\xa02\u30003 1\n")
    assert (stream.x, stream.y, stream.t) == ((1,), (2,), (3,))


def test_field_longer_than_int_digit_limit_exits_two(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    assert parse_session(f"0 0 {'9' * limit} 1\n").t == (int("9" * limit),)
    text = f"0 0 1 1\n0 0 {'9' * (limit + 1)} 1\n"
    message = f"integer field of {limit + 1} digits exceeds the limit of {limit} digits"
    with pytest.raises(ParseError, match=message) as exc:
        parse_session(text)
    assert exc.value.line == 2
    # a sign and underscores are not digits; a field int() cannot read at all is not an integer
    with pytest.raises(ParseError, match=message):
        parse_session(f"0 0 +{'1_' * limit}1 1\n")
    with pytest.raises(ParseError, match="non-integer field in '0 0 999"):
        parse_session(f"0 0 {'9' * (limit + 1)}x 1\n")
    path = tmp_path / "long.svc"
    path.write_text(text, encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


# A block in the writer's subset is read by the JSON scanner, any other one
# by split and int(); the two must agree to the value and to the line.

def canonical_rows(n):
    return [f"{i % 7} {i % 5} {i + 1} {i % 2} 0 0 {i % 3}" for i in range(n)]


@pytest.mark.parametrize("chunk, rows", [
    ("1 -2 3 4\n5 6 7 0\n", [[1, -2, 3, 4], [5, 6, 7, 0]]),
    ("1 -2 3 4\n5 6 7 0", [[1, -2, 3, 4], [5, 6, 7, 0]]),
    ("1 2\n\n3 4\n", None),  # a blank line
    ("1 2\r\n", None), ("1\t2\n", None), ("+1 2\n", None), ("1.5 2\n", None),
    ("007 2\n", None), ("1  2\n", None), ("1 2 \n", None),
    (" 1 2\n", None), ("1-2 3\n", None), ("- 1\n", None), ("--1 2\n", None),
    ("0 0 1 1\n\n0 0 2 1\n", None),  # a blank line among four-column rows
    ("0 0 1 1\n0 0 2\n1 0 0 3 1\n", None),  # 4, 3 and 5 fields: 12, as three rows of 4 hold
])
def test_json_scanner_reads_exactly_the_writers_subset(chunk, rows):
    # any width is scanned, the first line's; the rows come back as columns
    columns = rows and [list(column) for column in zip(*rows)]
    assert ingest._scanned_columns(chunk.encode("ascii")) == columns


def refuse_to_scan(raw, width=None):
    raise AssertionError(f"scanned: {raw!r}")


@pytest.mark.parametrize("text", ["٣ 2\n", "1 \ud800\n", "٣ 2 1 1\n0 0 2 1\n"])
def test_non_ascii_text_is_read_line_by_line(text, monkeypatch):
    # only ASCII bytes reach the JSON scanner; a lone surrogate cannot even be encoded
    monkeypatch.setattr(ingest, "_scanned_columns", refuse_to_scan)
    got = _outcome(parse_session, text)
    if got[0] == "ok":
        got = ("ok", (tuple(got[1].samples), got[1].warnings))
    assert got == _outcome(reference_parse, text)


def refuse_to_read_a_line(last_t, t, status, pressure):
    # only the row reader calls _row_fault during a parse
    raise AssertionError(f"read line by line: the row of timestamp {t}")


@pytest.mark.parametrize("final_newline", [True, False])
def test_canonical_text_never_leaves_the_scanner(final_newline, monkeypatch, tmp_path):
    # a block refused by mistake would still be read right, only slower
    n = 8000
    stream = SampleStream.from_columns(range(n), range(0, -n, -1), range(1, n + 1),
                                       [i % 2 for i in range(n)], [0] * n, [45] * n,
                                       [i % 1024 for i in range(n)])
    seven = serialize_session(stream)
    four = "".join(f"{i % 7} {-i} {i} {i % 2}\n" for i in range(n))
    assert min(len(seven), len(four)) > 3 * ingest._BLOCK_CHARS
    if not final_newline:
        seven, four = seven.removesuffix("\n"), four.removesuffix("\n")
    monkeypatch.setattr(ingest, "_row_fault", refuse_to_read_a_line)
    assert parse_session(seven) == stream
    assert parse_session(four).t == tuple(range(n))
    # a text's "\r\n" and "\r" line ends are read as "\n"
    for eol in ("\r\n", "\r"):
        assert parse_session(seven.replace("\n", eol)) == stream
        assert parse_session(four.replace("\n", eol)) == parse_session(four)
    # a file's "\r\n" and "\r" line ends are read as "\n", after any byte order mark
    path = tmp_path / "rec.svc"
    for eol, bom in (("\r\n", b""), ("\r", b""), ("\r\n", codecs.BOM_UTF8)):
        for text in (seven, four):
            path.write_bytes(bom + text.replace("\n", eol).encode("ascii"))
            assert read_session(path) == parse_session(text, source_id=str(path))


def test_lone_surrogate_is_a_non_integer_field():
    # a str from a caller, not a file: read_text refuses what is not UTF-8
    with pytest.raises(ParseError) as exc:
        parse_session("0 0 1 1\n0 \ud800 2 1\n")
    assert str(exc.value) == "line 2: non-integer field in '0 \\ud800 2 1'"


def test_canonical_field_over_digit_limit_names_its_line():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    rows = canonical_rows(50)
    rows[30] = f"0 {'9' * (limit + 1)} 31 1 0 0 0"
    with pytest.raises(ParseError) as exc:
        parse_session("\n".join(rows) + "\n")
    assert exc.value.line == 31
    assert str(exc.value) == (f"line 31: integer field of {limit + 1} digits exceeds "
                              f"the limit of {limit} digits")


def test_canonical_block_with_a_repeated_timestamp_warns_at_its_line():
    rows = canonical_rows(50)
    rows[20] = "9 9 20 1 0 0 0"  # line 21 repeats line 20's timestamp
    stream = parse_session("\n".join(rows) + "\n")
    assert stream.warnings == (ParseWarning(21, "duplicate timestamp 20 dropped"),)
    assert stream.t == tuple(range(1, 21)) + tuple(range(22, 51))
    assert stream.x[19:21] == (19 % 7, 21 % 7)


def test_tab_block_after_canonical_blocks_keeps_line_numbers():
    # 5000 canonical rows span several default blocks; the tab rows follow
    rows = canonical_rows(5000) + [row.replace(" ", "\t") for row in canonical_rows(6000)[5000:]]
    rows[5499] = rows[5498]  # a duplicate among the tab rows, line 5500
    stream = parse_session("\n".join(rows) + "\n")
    assert stream.warnings == (ParseWarning(5500, "duplicate timestamp 5499 dropped"),)
    assert stream.t == tuple(range(1, 5500)) + tuple(range(5501, 6001))
    rows[5899] = "0\t0\t5900\t2\t0\t0\t0"
    with pytest.raises(ParseError, match="status must be 0 or 1, got 2") as exc:
        parse_session("\n".join(rows) + "\n")
    assert exc.value.line == 5900


def test_final_line_without_line_end():
    assert parse_session("0 0 1 1\n5 6 2 0").t == (1, 2)
    stream = parse_session("0 0 1 1\n5 6 1 0")
    assert stream.x == (0,)
    assert stream.warnings == (ParseWarning(2, "duplicate timestamp 1 dropped"),)
    with pytest.raises(TimestampOrderError) as exc:
        parse_session("0 0 2 1\n5 6 1 0")
    assert exc.value.line == 2


def test_minus_zero_and_twenty_digit_fields():
    stream = parse_session("-0 12345678901234567890 1 1 0 0 -0\n"
                           "-12345678901234567890 0 2 0 0 0 99999999999999999999\n")
    assert stream.x == (0, -12345678901234567890)
    assert stream.y == (12345678901234567890, 0)
    assert stream.pressure == (0, 99999999999999999999)
    assert all(type(v) is int for v in stream.x + stream.y + stream.pressure)
