"""Hypothesis tests that drive ``cli.main`` with hostile files.

Each example writes generated bytes (near-valid recordings, arbitrary text,
arbitrary bytes, empty files) or points at a directory, runs one command and
checks the CLI contract: the exit code is 0, 2 or 3, stderr holds no
traceback, and stdout is empty whenever the exit is nonzero. A manifest's own
path and label fields may hold NUL, commas, quotes and line breaks. ``synth`` runs
on generated corpus specs and raw bytes, and ``features`` must accept every
manifest it writes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from penair.cli import main
from penair.ingest import MANIFEST_HEADER, csv_text

from fresh import usable_cpus

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
# now and then one of a row's path and label fields is replaced by text that
# may hold NUL, commas, quotes, line breaks and spaces
_ODD_FIELD = st.one_of(st.none(), st.none(), st.tuples(
    st.integers(0, 4), st.text(st.sampled_from('ab\xe9 ,"\n\r\0'), max_size=6)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entries=st.lists(st.tuples(_ENTRY, FILE_BYTES, st.sampled_from(["control", "patient"]),
                                  _ODD_FIELD),
                        max_size=6),
       command=st.sampled_from(["features", "aggregate", "compare"]),
       workers=st.sampled_from([1, 2]))
def test_manifest_commands_keep_exit_contract(entries, command, workers):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rows = []
        for i, (kind, data, cohort, odd) in enumerate(entries):
            path = root / f"f{i}.svc"
            if kind == "good":
                path.write_text(GOOD, encoding="utf-8")
            elif kind == "bad":
                path.write_bytes(data)
            elif kind == "dir":
                path.mkdir()
            row = [path.name, "db", "copy", f"s{i}", cohort]
            if odd is not None:
                row[odd[0]] = odd[1]
            rows.append(row)
        manifest = root / "manifest.csv"
        manifest.write_text(csv_text(MANIFEST_HEADER, rows), encoding="utf-8", newline="")
        argv = [command, str(manifest)]
        if command == "compare":
            argv += ["--cohort-a", "control", "--cohort-b", "patient"]
        with usable_cpus(workers):
            check_contract(*run(argv))


def _range(lo, hi):
    n = st.integers(lo, hi)
    return st.one_of(n.map(str), st.tuples(n, n).map(sorted).map("{0[0]}..{0[1]}".format))


# (good values, bad values) per key; ticks stay at or below 2,000 and there
# are at most 3 files per cohort, so no example writes a large corpus
_CORPUS_KEYS = {
    "period": (st.integers(1, 6).map(str), ["0", "-3", "x", "", "1.5"]),
    "jitter": (st.integers(0, 3).map(str), ["-1", "9", "x", ""]),
    "gap_factor": (st.sampled_from(["3", "2", "3.5", "7/2", "5"]),
                   ["1", "0", "-2", "x", "1/0", "", "nan", "1e3", "1.1"]),
    "database": (st.sampled_from(["clinic", "a,b", 'q"uote', "50%", "two\n  lines", "", " "]),
                 []),
    "task": (st.sampled_from(["spiral", "copy task", ""]), []),
}
_BAD_RANGES = ["", "x", "-1", "0", "3..1", "1..", "..4", "1...3", "1.5"]
# a cohort name starts its files' names, so a path separator or NUL is refused
_COHORT_NAMES = ["control", "patient", "a b", "x,y", "../up", "a\x00b"]
_COHORT_KEYS = {
    "files": (st.integers(1, 3).map(str), ["0", "-1", "x", "", "1..2"]),
    "surface_strokes": (_range(1, 4), _BAD_RANGES),
    "surface_ticks": (_range(1, 2000), _BAD_RANGES),
    "air_ticks": (_range(1, 2000), _BAD_RANGES),
    "gaps": (_range(0, 3), _BAD_RANGES),
    "gap_ticks": (_range(50, 2000), _BAD_RANGES + ["1..2000"]),
}


@st.composite
def _section(draw, name, keys):
    """One INI section; now and then one key is missing or has a bad value."""
    values = {key: draw(good) for key, (good, _) in keys.items()}
    fault = draw(st.sampled_from([None] * 2 * len(keys) + list(keys)))
    if fault is not None:
        bad = keys[fault][1]
        if bad and draw(st.booleans()):
            values[fault] = draw(st.sampled_from(bad))
        else:
            del values[fault]
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


@st.composite
def corpus_specs(draw):
    """INI corpus specs, mostly valid: a [corpus] section and up to three
    cohorts, with bad ranges, bad or missing values, bad gap_factor values,
    now and then a bad, duplicate or missing section."""
    sections = [draw(_section("corpus", _CORPUS_KEYS))]
    for name in draw(st.lists(st.sampled_from(_COHORT_NAMES), min_size=1, max_size=3,
                              unique=True)):
        sections.append(draw(_section(f"cohort {name}", _COHORT_KEYS)))
    odd = draw(st.sampled_from([None] * 12 + ["cohort ", "cohort", "other", "corpus",
                                             "cohort control", "drop corpus"]))
    if odd == "drop corpus":
        del sections[0]
    elif odd is not None:
        sections.append(f"[{odd}]\nfiles = 1\n")
    return "\n".join(draw(st.permutations(sections)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.one_of(corpus_specs().map(str.encode), st.binary(max_size=300)),
       seed=st.integers(-5, 2**70), workers=st.sampled_from([1, 2]))
def test_synth_keeps_exit_contract_and_its_corpus_reads_back(spec, seed, workers):
    with tempfile.TemporaryDirectory() as tmp, usable_cpus(workers):
        spec_path = Path(tmp) / "spec.ini"
        spec_path.write_bytes(spec)
        argv = ["synth", "--spec", str(spec_path), "--seed", str(seed),
                "--out", str(Path(tmp) / "out")]
        code, out, err = run(argv)
        assert code in (0, 2), (code, err)
        assert "Traceback" not in err
        if code != 0:
            assert out == ""
            assert not (Path(tmp) / "out").exists()  # a refused spec writes nothing
            return
        # whatever synth writes, penair's own readers accept
        code, out, err = run(["features", out.removesuffix("\n")])
        assert code == 0, err
