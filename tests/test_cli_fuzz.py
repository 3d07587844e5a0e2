"""Hypothesis tests that drive ``cli.main`` with hostile files.

Each example writes generated bytes (near-valid recordings, arbitrary text,
arbitrary bytes, empty files) or points at a directory, runs one command and
checks the CLI contract: the exit code is 0, 2 or 3, stderr holds no
traceback, and stdout is empty whenever the exit is nonzero.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from penair.cli import main

_FIELD = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["", "x", "1.5", "+2", "1_0", "\u0663", "-", "0x10", "9" * 5000]),
)
_ROW = st.one_of(
    st.lists(_FIELD, min_size=4, max_size=4),
    st.lists(_FIELD, min_size=7, max_size=7),
    st.lists(_FIELD, max_size=9),
)
_SEP = st.sampled_from([" ", "\t", "  ", "\xa0"])
_EOL = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028", ""])


@st.composite
def recording_rows(draw):
    """A valid recording (increasing timestamps, binary status, gaps now and
    then), or one with a single faulty row: a timestamp moved back, a bad
    status or pressure, or arbitrary fields."""
    width = draw(st.sampled_from([4, 7]))
    t = draw(st.integers(-5, 5))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from([1, 1, 1, 2, 3, 50]))
        rows.append([str(draw(st.integers(-50, 50))), str(draw(st.integers(-50, 50))), str(t),
                     str(draw(st.integers(0, 1)))] + [str(draw(st.integers(0, 400)))] * (width - 4))
    fault = draw(st.sampled_from([None] * 4 + ["time", "status", "pressure", "fields"]))
    if fault is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "time":
            row[2] = str(int(row[2]) - draw(st.sampled_from([1, 2, 100])))
        elif fault == "status":
            row[3] = "2"
        elif fault == "pressure":
            row[-1] = "-1"
        else:
            row[:] = draw(_ROW)
    return "\n".join(map(" ".join, rows)) + draw(_EOL)


@st.composite
def texts(draw):
    lines = draw(st.lists(st.tuples(st.lists(_FIELD, max_size=8), _SEP, _EOL), max_size=12))
    return "".join(sep.join(fields) + eol for fields, sep, eol in lines)


FILE_BYTES = st.one_of(
    st.just(b""),
    recording_rows().map(lambda s: s.encode("utf-8")),
    texts().map(lambda s: s.encode("utf-8")),
    st.text(max_size=200).map(lambda s: s.encode("utf-8")),
    st.binary(max_size=200),
    recording_rows().map(lambda s: b"\xef\xbb\xbf" + s.encode("utf-8")),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(code, out, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["parse", "segment", "render"]),
       data=st.one_of(FILE_BYTES, st.none()),
       flags=st.sampled_from([[], ["--derive-status-from-pressure"], ["--gap-factor", "1.5"],
                              ["--min-gap-ticks", "1"], ["--format", "md"]]))
def test_single_file_commands_keep_exit_contract(command, data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.svc"
        if data is None:  # a directory where a file should be
            path.mkdir()
        else:
            path.write_bytes(data)
        check_contract(*run([command, str(path), *flags]))


# manifest rows: "good" is a valid recording with one gap that is not
# anomalous, "bad" generated bytes, "missing" a path that does not exist,
# "dir" a directory
_ENTRY = st.sampled_from(["good"] * 6 + ["bad", "bad", "missing", "dir"])
GOOD = "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n4 4 14 0\n5 5 16 1\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entries=st.lists(st.tuples(_ENTRY, FILE_BYTES, st.sampled_from(["control", "patient"])),
                        max_size=6),
       command=st.sampled_from(["features", "aggregate", "compare"]))
def test_manifest_commands_keep_exit_contract(entries, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rows = ["path,database,task,subject,cohort"]
        for i, (kind, data, cohort) in enumerate(entries):
            path = root / f"f{i}.svc"
            if kind == "good":
                path.write_text(GOOD, encoding="utf-8")
            elif kind == "bad":
                path.write_bytes(data)
            elif kind == "dir":
                path.mkdir()
            rows.append(f"{path.name},db,copy,s{i},{cohort}")
        manifest = root / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = [command, str(manifest)]
        if command == "compare":
            argv += ["--cohort-a", "control", "--cohort-b", "patient"]
        check_contract(*run(argv))
