import csv
import gc
import hashlib
import io
import itertools
import os
import re
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from penair import SynthSpecError, cli, ingest, load_corpus_spec
from penair.cli import main
from penair.ingest import MANIFEST_HEADER, csv_text

from fresh import run_penair, run_python, usable_cpus

USABLE_CPUS = cli._usable_cpus  # the real count, for the tests of the function itself


@pytest.fixture(autouse=True)
def two_workers():
    """A command run in this process fans out at two workers unless its test
    sets another count: its own share and one forked child, on any machine."""
    with usable_cpus(2):
        yield


CORPUS_INI = """
[corpus]
period = 2
jitter = 1
database = demo
task = copy

[cohort control]
files = 4
surface_strokes = 2..4
surface_ticks = 100..300
air_ticks = 50..150
gaps = 1..2
gap_ticks = 40..100

[cohort patient]
files = 4
surface_strokes = 2..4
surface_ticks = 100..300
air_ticks = 50..150
gaps = 1..2
gap_ticks = 300..700
"""


def write_session(tmp_path, name="rec.svc", text="0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def manifest_text(*rows):
    return "path,database,task,subject,cohort\n" + "".join(f"{row}\n" for row in rows)


OK_TEXT = "0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 6 0\n4 4 8 0\n5 5 10 1\n"
BAD_TEXT = "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n4 4 200 0\n5 5 202 1\n"  # a 194-tick gap: anomalous


def make_corpus(tmp_path, seed=5):
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI, encoding="utf-8")
    out = tmp_path / "corpus"
    code = main(["synth", "--spec", str(spec), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out / "manifest.csv"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["compare", "whatever.csv", "--cohort-a", "x"]) == 1


def test_bad_flag_value_exits_one(tmp_path, capsys):
    path = write_session(tmp_path)
    assert main(["segment", str(path), "--gap-factor", "1.0"]) == 1
    assert main(["segment", str(path), "--anomaly-threshold", "zzz"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--gap-factor", "--anomaly-threshold"])
@pytest.mark.parametrize("value", ["abc", "1/0", "3_0", "3 / 2"])
def test_unreadable_fraction_flag_says_not_a_number(tmp_path, capsys, flag, value):
    assert main(["segment", str(write_session(tmp_path)), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: not a number: {value!r}\n")


def test_fraction_flag_exponent_over_digit_limit_is_refused(tmp_path, capsys):
    # Fraction computes ten to the exponent in full; 1e10000000 took seconds
    path = str(write_session(tmp_path))
    assert main(["segment", path, "--gap-factor", "1e4300"]) == 0
    capsys.readouterr()
    for value in ("1e4301", "1e10000000"):
        assert main(["segment", path, "--gap-factor", value]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --gap-factor: exponent of {value!r} exceeds the integer digit "
            "limit of 4300\n")


def test_parse_reports_summary(tmp_path, capsys):
    path = write_session(tmp_path)
    assert main(["parse", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("source,n_samples,t_first,t_last,span")
    cells = lines[1].split(",")
    assert cells[1:5] == ["4", "0", "6", "6"]


def test_segment_lists_strokes(tmp_path, capsys):
    path = write_session(tmp_path, text="0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 40 1\n4 4 42 1\n")
    assert main(["segment", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "class,start_t,end_t,duration,n_samples"
    assert lines[1] == "on_surface,0,4,4,3"
    assert lines[2] == "in_air_long,4,40,36,0"
    assert lines[3] == "on_surface,40,42,2,2"


def test_segment_respects_gap_flags(tmp_path, capsys):
    text = "0 0 0 1\n1 1 2 1\n2 2 12 1\n3 3 14 1\n"
    path = write_session(tmp_path, text=text)
    assert main(["segment", str(path)]) == 0
    with_default = capsys.readouterr().out
    assert "in_air_long" in with_default
    assert main(["segment", str(path), "--gap-factor", "8"]) == 0
    assert "in_air_long" not in capsys.readouterr().out
    assert main(["segment", str(path), "--min-gap-ticks", "30"]) == 0
    assert "in_air_long" not in capsys.readouterr().out


def test_derive_status_from_pressure_flag(tmp_path, capsys):
    text = "0 0 0 0 0 0 500\n1 1 2 0 0 0 500\n2 2 4 0 0 0 0\n"
    path = write_session(tmp_path, text=text)
    assert main(["segment", str(path)]) == 0
    plain = capsys.readouterr().out
    assert plain.count("in_air_short") == 1
    assert "on_surface" not in plain
    assert main(["segment", str(path), "--derive-status-from-pressure"]) == 0
    derived = capsys.readouterr().out
    assert "on_surface" in derived


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_session(tmp_path)
    target = tmp_path / "report.csv"
    assert main(["parse", str(path), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8").startswith("source,")


def test_markdown_format(tmp_path, capsys):
    path = write_session(tmp_path)
    assert main(["segment", str(path), "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| class | start_t |")


@pytest.mark.parametrize("command, columns, database", [("features", 12, 1),
                                                        ("aggregate", 9, 0)])
def test_markdown_cells_escape_pipes_backslashes_and_line_breaks(tmp_path, capsys, command,
                                                                 columns, database):
    write_session(tmp_path, "ok.svc", "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n")
    labels = ["d|x", "d\nq", "d\r\nr", "d\rs", "a\\b|"]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(csv_text(MANIFEST_HEADER, (["ok.svc", label, "t", f"s{i}", "a"]
                                                   for i, label in enumerate(labels))),
                        encoding="utf-8", newline="")
    assert main([command, str(manifest), "--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(labels)  # header, rule, one line per record
    for line in lines:
        # a cell's "\\\\" and "\\|" are escapes; every other "|" separates cells
        assert re.sub(r"\\.", "", line).count("|") == columns + 1
    cells = {line[2:-2].split(" | ")[database] for line in lines[2:]}
    assert cells == {"d\\|x", "d<br>q", "d<br>r", "d<br>s", "a\\\\b\\|"}


def test_synth_requires_out(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI, encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "1"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --out\n")


@pytest.mark.parametrize("flag", [["--gap-factor", "0.5"], ["--gap-factor", "9"],
                                  ["--format", "md"], ["--derive-status-from-pressure"]])
def test_synth_refuses_the_common_flags_it_would_ignore(tmp_path, capsys, flag):
    # synth takes its gap factor from the spec: a flag it cannot honour is a usage error
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
    assert not out.exists()


@pytest.mark.parametrize("timing", ["period = 0", "period = 2\njitter = 2",
                                    "period = 2\ngap_factor = 1",
                                    "period = 2\njitter = 1\ngap_factor = 1.2"],
                         ids=["period", "jitter", "gap_factor", "blur"])
def test_synth_timing_refusal_names_no_cohort(tmp_path, capsys, timing):
    # the [corpus] timing is shared by both cohorts; the first is not to blame
    text = CORPUS_INI.replace("period = 2\njitter = 1", timing)
    with pytest.raises(SynthSpecError) as caught:
        load_corpus_spec(text)
    assert "cohort" not in str(caught.value)
    spec, out = tmp_path / "corpus.ini", tmp_path / "out"
    spec.write_text(text, encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {caught.value}\n")
    assert not out.exists()


def test_synth_writes_manifest_path(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    out = capsys.readouterr().out.strip()
    assert out == str(manifest)
    assert manifest.exists()


def test_features_schema(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["features", str(manifest)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("path,database,task,subject,cohort,"
                        "T_S,T_AS,T_AL,Strokes_S,Strokes_AS,Strokes_AL,anomalous")
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == "demo"
        assert cells[2] == "copy"
        assert cells[11] in ("true", "false")
        assert all(int(c) >= 0 for c in cells[5:11])


def test_features_anomaly_threshold_is_strict(tmp_path, capsys):
    # BAD_TEXT's long in-air time is 194 of its 202 ticks: 97/101, at the threshold, not above
    write_session(tmp_path, "bad.svc", BAD_TEXT)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text("bad.svc,db,t,s,c"), encoding="utf-8")
    for threshold, anomalous in (("97/101", "false"), ("96/101", "true")):
        assert main(["features", str(manifest), "--anomaly-threshold", threshold]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.endswith(f"bad.svc,db,t,s,c,4,4,194,2,2,1,{anomalous}")


def test_aggregate_table(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["aggregate", str(manifest)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("database,cohort,task,")
    assert len(lines) == 3
    assert lines[1].startswith("demo,control,copy,")
    assert lines[2].startswith("demo,patient,copy,")
    assert "%" in lines[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_csv_faults_exit_two_naming_the_line(tmp_path, capsys, monkeypatch, workers):
    # csv refuses an over-long field, and Python 3.10's csv a NUL, while 3.11's
    # keeps a NUL for open() to refuse: each is one error line on every Python
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    write_session(tmp_path, "good.svc")
    cases = [
        (f"{'a' * 200_000}.svc,db,copy,s0,control\n",
         "line 2: field larger than field limit (131072)"),
        ("good.svc,db,copy,s0,control\nbad\0.svc,db,copy,s1,patient\n", "line 3: NUL byte"),
        ('good.svc,db,"co\npy",s0,control\ngood.svc,d\0b,copy,s1,patient\n', "line 4: NUL byte"),
    ]
    manifest = tmp_path / "manifest.csv"
    for rows, message in cases:
        manifest.write_text(manifest_text() + rows, encoding="utf-8")
        for argv in (["features", str(manifest)], ["aggregate", str(manifest)],
                     ["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_compare_long_table(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "task,feature,n_A,n_B,U_A,p,method,significant"
    assert len(lines) == 7
    features = [line.split(",")[1] for line in lines[1:]]
    assert features == ["T_S", "T_AS", "T_AL", "Strokes_S", "Strokes_AS", "Strokes_AL"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "copy"
        assert cells[2] == "4" and cells[3] == "4"
        assert cells[6] == "exact"
        assert 0 < float(cells[5]) <= 1
        assert cells[7] in ("true", "false")


def test_compare_markdown_is_wide(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient", "--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| task | p_T_S | p_T_AS | p_T_AL | p_Strokes_S | p_Strokes_AS | p_Strokes_AL |"
    assert len(lines) == 3


def test_compare_exact_limit_switches_method(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient", "--exact-limit", "7"]) == 0
    methods = {line.split(",")[6] for line in capsys.readouterr().out.splitlines()[1:]}
    assert methods == {"approx"}
    from penair import stats
    from penair.report import RunConfig

    args = cli.build_parser().parse_args(["compare", "m.csv", "--cohort-a", "a",
                                          "--cohort-b", "b"])
    assert args.exact_limit == RunConfig.exact_limit == stats.DEFAULT_EXACT_LIMIT


def at_alpha_manifest(tmp_path):
    """Ten files of task t whose Strokes_AL, one per step of 5 ticks among
    steps of 1, pool to an exact p of 1/20: 3 files in cohort a, 7 in b."""
    rows = []
    for i, (k, cohort) in enumerate([(k, "a") for k in (0, 0, 2)]
                                    + [(k, "b") for k in (4, 3, 3, 6, 1, 5, 1)]):
        ticks = itertools.accumulate((5 if j < k else 1 for j in range(99)), initial=0)
        write_session(tmp_path, f"f{i}.svc", "".join(f"0 0 {t} 1\n" for t in ticks))
        rows.append(f"f{i}.svc,db,t,s{i},{cohort}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text(*rows), encoding="utf-8")
    return manifest


def test_compare_p_of_exactly_alpha_is_not_significant(tmp_path, capsys):
    compare = ["compare", str(at_alpha_manifest(tmp_path)), "--cohort-a", "a", "--cohort-b", "b"]
    assert main(compare) == 0
    assert "t,Strokes_AL,3,7,2,0.05,exact,false" in capsys.readouterr().out.splitlines()
    assert main(compare + ["--format", "md"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "| t | 0.0500 | 1.0000 | 0.0500 | 0.0500 | 1.0000 | 0.0500 |")


def test_compare_is_exact_up_to_exact_limit(tmp_path, capsys):
    compare = ["compare", str(at_alpha_manifest(tmp_path)), "--cohort-a", "a", "--cohort-b", "b"]
    assert main(compare + ["--exact-limit", "10"]) == 0
    assert "t,Strokes_AL,3,7,2,0.05,exact,false" in capsys.readouterr().out.splitlines()
    assert main(compare + ["--exact-limit", "9"]) == 0
    assert ("t,Strokes_AL,3,7,2,0.0657425747669786,approx,false"
            in capsys.readouterr().out.splitlines())


def test_compare_names_excluded_files_of_compared_cohorts_only(tmp_path, capsys):
    # anomalous files of the two compared cohorts in --database are named in
    # manifest order; those of another cohort or database are not, and the
    # table is the one the manifest gives without any anomalous file
    write_session(tmp_path, "ok.svc", OK_TEXT)
    bad = write_session(tmp_path, "bad.svc", BAD_TEXT)
    rows = ["ok.svc,db1,spiral,s1,control",
            "bad.svc,db1,spiral,s2,patient",
            "bad.svc,db1,spiral,s3,other",
            "bad.svc,db2,spiral,s4,patient",
            "bad.svc,db1,copy,s5,control",
            "ok.svc,db1,copy,s6,control",
            "ok.svc,db1,copy,s7,patient",
            "ok.svc,db1,spiral,s8,patient"]
    argv = ["--cohort-a", "control", "--cohort-b", "patient", "--database", "db1"]
    outs = []
    for name, kept in (("all.csv", rows), ("clean.csv", [r for r in rows if r[:3] == "ok."])):
        manifest = tmp_path / name
        manifest.write_text(manifest_text(*kept), encoding="utf-8")
        assert main(["compare", str(manifest), *argv]) == 0
        outs.append(capsys.readouterr())
    assert outs[0].err == (
        f"WARN {bad} anomalous: excluded from comparison (cohort patient, task spiral)\n"
        f"WARN {bad} anomalous: excluded from comparison (cohort control, task copy)\n")
    assert outs[1].err == ""
    assert outs[0].out == outs[1].out


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_manifest_errors_and_warnings_follow_manifest_order(tmp_path, capsys, monkeypatch,
                                                            workers):
    # file 0 warns, file 1 is good, file 2 is malformed on line 3, file 3
    # warns and file 4 is missing: file 0's warning, then file 2's error, and
    # nothing of files 3 and 4, though at 2 and 3 workers another share reads file 3
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers, raising=False)
    warn = write_session(tmp_path, "warn.svc", "0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n")
    write_session(tmp_path, "good.svc")
    bad = write_session(tmp_path, "bad.svc", "0 0 0 1\n1 1 2 1\n2 2 x 1\n")
    write_session(tmp_path, "warn2.svc", "0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text("warn.svc,db,copy,s0,control", "good.svc,db,copy,s1,patient",
                                      "bad.svc,db,copy,s2,control",
                                      "warn2.svc,db,copy,s3,patient",
                                      "missing.svc,db,copy,s4,patient"), encoding="utf-8")
    for argv in (["features", str(manifest)], ["aggregate", str(manifest)],
                 ["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"WARN {warn}:3 duplicate timestamp 2 dropped\n"
                                f"error: {bad}: line 3: non-integer field in '2 2 x 1'\n")
    # a single-file command names no path: the user gave only one
    assert main(["parse", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 3: non-integer field in '2 2 x 1'\n"


def corpus_with_warnings(tmp_path):
    # a duplicated row in three of the eight files, so each warns once
    manifest = make_corpus(tmp_path)
    records = list(csv.DictReader(io.StringIO(manifest.read_text(encoding="utf-8"))))
    for k in (1, 4, 6):
        path = manifest.parent / records[k]["path"]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:5] + lines[4:]), encoding="utf-8")
    return manifest


def test_manifest_commands_same_bytes_for_any_worker_count(tmp_path, capsys, monkeypatch):
    manifest = corpus_with_warnings(tmp_path)
    crlf = manifest.with_name("crlf.csv")  # the same records, each line ending in "\r\n"
    crlf.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    for argv in (["features"], ["aggregate"],
                 ["compare", "--cohort-a", "control", "--cohort-b", "patient"]):
        outputs = set()
        for source, workers in itertools.product((manifest, crlf), (1, 2, 3)):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            assert main([*argv, str(source)]) == 0
            outputs.add(capsys.readouterr())
        assert len(outputs) == 1
        (captured,) = outputs
        assert captured.out and captured.err.count("WARN ") == 3


NO_T2 = ("ok.svc,d,t1,s1,a", "ok.svc,d,t2,s1,a", "ok.svc,d,t1,s2,b")  # cohort b has no t2
CONTRACT_FILES = {  # beside the corpus_with_warnings corpus in corpus/
    "ok.svc": OK_TEXT,
    "bad.svc": BAD_TEXT,
    "status5.svc": "0 0 0 5 0 0 1\n",
    "one.svc": "0 0 0 1\n",  # one sample: no stroke has any duration, so every time is zero
    # every patient file of task spiral is anomalous; the other tasks are fine
    "tasks.csv": manifest_text("ok.svc,db,copy,s1,control", "ok.svc,db,copy,s2,patient",
                               "ok.svc,db,spiral,s1,control", "bad.svc,db,spiral,s2,patient",
                               "ok.svc,db,words,s1,control", "ok.svc,db,words,s2,patient"),
    "one.csv": manifest_text("one.svc,d,t,s,a"),
    "no_t2.csv": manifest_text(*NO_T2),
    "bad_t2.csv": manifest_text(*NO_T2, "bad.svc,d,t2,s2,b", "bad.svc,d,t2,s3,b"),
    "no_t2_t3.csv": manifest_text("ok.svc,d,t3,s1,a", *NO_T2),  # cohort b has no t2 or t3
    "zero.svc": "0 0 zero 1\n",
    "dup.svc": "0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n",  # line 3 repeats timestamp 2
    "four.svc": "0 0 0 1\n1 1 2 1\n2 2 4 0\n",  # four columns: no pressure
    "four.csv": manifest_text("four.svc,db,copy,s0,control"),
    "huge.svc": f"1{'0' * 400} 0 0 1\n0 0 2 1\n",  # an x that no float holds
    # 4, 3 and 5 fields: as many as three rows of 4 hold, but line 2 is short
    "balanced.svc": "0 0 1 1\n0 0 2\n1 0 0 3 1\n",
    "balanced.csv": manifest_text("balanced.svc,db,copy,s0,control"),
    "empty.csv": manifest_text(),  # the header alone: a valid manifest of no files
    "header.csv": "wrong,header,entirely,x,y\n",
    "no_period.ini": "[corpus]\njitter = 3\n",
    "nul.ini": CORPUS_INI.replace("database = demo", "database = de\0mo"),
    # the stripped section name: [cohort  patient] names cohort patient again
    "twice.ini": CORPUS_INI + "\n" + CORPUS_INI[CORPUS_INI.index("[cohort patient]"):].replace(
        "[cohort patient]", "[cohort  patient]").replace("files = 4", "files = 1"),
    # one-tick surface entries make 1 the modal step, so the gap threshold is 3
    # and each 6-tick step crosses it: the spec loads, and its first member is refused
    "ambiguous.ini": "[corpus]\nperiod = 6\njitter = 0\n\n[cohort c]\nfiles = 3\n"
                     "surface_strokes = 4\nsurface_ticks = 1\nair_ticks = 7\ngaps = 0\n"
                     "gap_ticks = 40\n",
}


@pytest.fixture
def contract_inputs(tmp_path, monkeypatch, capsys):
    """Writes every input that CONTRACT names, in the working directory: the
    command lines give relative paths, so no output names a temporary one."""
    monkeypatch.chdir(tmp_path)
    corpus_with_warnings(tmp_path)
    for name, text in CONTRACT_FILES.items():
        write_session(tmp_path, name, text)
    capsys.readouterr()


CORPUS = "corpus/manifest.csv"
RECORDING = "corpus/control_001.svc"  # one of the files that warn
# the stderr of a command on RECORDING, and on CORPUS
WARN_1 = "WARN corpus/control_001.svc:6 duplicate timestamp 7 dropped\n"
WARN_3 = (WARN_1 + "WARN corpus/patient_000.svc:6 duplicate timestamp 6 dropped\n"
          "WARN corpus/patient_002.svc:6 duplicate timestamp 6 dropped\n")
COHORTS = "--cohort-a control --cohort-b patient"
EXCLUDED = "WARN bad.svc anomalous: excluded from comparison (cohort {}, task {})\n"
FOUR_COLUMNS = ("error: four.svc: deriving status needs the pressure column; "
                "the file has 4 columns\n")
# each command line (its argv joined by spaces), its exit code, the sha256 of
# its stdout (None for a nonzero exit, which writes none) and its whole stderr:
# a golden that changes only with an intended change of output. Every compare
# table here is on the exact path.
CONTRACT = {
    "parse": (f"parse {RECORDING}", 0,
              "4d0c3beee857efe1d9138d52b60c31d01904bc045fa52b7857b25a60af8dcc47", WARN_1),
    "segment": (f"segment {RECORDING}", 0,
                "2b00d42c52578f00f7274e7432678368050e79965bd32657aadf10736068e250", WARN_1),
    "features": (f"features {CORPUS}", 0,
                 "1721ea89a91da12ea7c3c451846b5933866f53dfaf343b5c875c6bf3b894a069", WARN_3),
    "aggregate": (f"aggregate {CORPUS}", 0,
                  "39a5e03486e90a3db683d68bdce968b59f4435fb8ec8b5479e3a6655f0a76436", WARN_3),
    "compare": (f"compare {CORPUS} {COHORTS}", 0,
                "76d88d35390e091ec76a2b74b0256b55db94064e88d1190106dbaefe4f31cbe7", WARN_3),
    # every file of CORPUS is in database demo, so the filter keeps them all
    "compare_database": (f"compare {CORPUS} {COHORTS} --database demo", 0,
                         "76d88d35390e091ec76a2b74b0256b55db94064e88d1190106dbaefe4f31cbe7",
                         WARN_3),
    "compare_md": (f"compare {CORPUS} {COHORTS} --format md", 0,
                   "88f87d96f872375b09667a6163c03c5e0a033688900ece353ef311be77d0a05c", WARN_3),
    "render": (f"render {RECORDING}", 0,
               "38614f09a60ec46183d468f84a18a28d7a440d6466eadde0d046c269efce38ca", WARN_1),
    "features_md": (f"features {CORPUS} --format md", 0,
                    "3b7f19fbabcbd93c8700df161e856b2ced6b697182aaffe6265e12f64f43b611", WARN_3),
    "aggregate_md": (f"aggregate {CORPUS} --format md", 0,
                     "1323933cca4c971f750ac09c4b5fe8f6ee49c2f68a6222e93bce7750d6c14bad", WARN_3),
    # the one anomalous file is the patient file of task spiral
    "features_tasks": ("features tasks.csv", 0,
                       "321f71cecc672da3c5b624e3431470bd85a478b47d79f17436dd35c459724265", ""),
    # flag values that main refuses itself, before it reads a file: none of these exists
    "gap_factor_1": ("segment absent.svc --gap-factor 1", 1, None,
                     "error: gap_factor must be > 1, got 1\n"),
    "min_gap_ticks_0": ("segment absent.svc --min-gap-ticks 0", 1, None,
                        "error: min_gap_ticks must be >= 1\n"),
    "anomaly_threshold_2": ("features absent.csv --anomaly-threshold 2", 1, None,
                            "error: threshold must be in (0, 1], got 2\n"),
    "exact_limit_1": (f"compare absent.csv {COHORTS} --exact-limit 1", 1, None,
                      "error: exact limit must be >= 2, got 1\n"),
    "same_cohort": ("compare absent.csv --cohort-a control --cohort-b control", 1, None,
                    "error: --cohort-a and --cohort-b both name cohort 'control'\n"),
    # --derive-status-from-pressure replaces the status column, but checks it first
    "derive_status_bad_status": ("parse status5.svc --derive-status-from-pressure", 2, None,
                                 "error: line 1: status must be 0 or 1, got 5\n"),
    "aggregate_all_anomalous": ("aggregate tasks.csv", 3, None,
                                "error: database 'db', cohort 'patient', task 'spiral': "
                                "all 1 files excluded as anomalous\n"),
    "aggregate_zero_total": ("aggregate one.csv", 3, None, "error: database 'd', cohort 'a', "
                             "task 't': total time is zero; percentages undefined\n"),
    # a task left empty on one side aborts the run, though the others compare
    "compare_anomalous_task": (f"compare tasks.csv {COHORTS}", 3, None,
                               EXCLUDED.format("patient", "spiral") + "error: task 'spiral': "
                               "cohort 'patient' is empty after anomaly exclusion: "
                               "all 1 of its files are anomalous\n"),
    "compare_no_file_for_task": ("compare no_t2.csv --cohort-a a --cohort-b b", 3, None,
                                 "error: task 't2': cohort 'b' has no file for it\n"),
    # the first failing test in task order is the one reported, as a serial run stops there
    "compare_no_file_for_two_tasks": ("compare no_t2_t3.csv --cohort-a a --cohort-b b", 3, None,
                                      "error: task 't2': cohort 'b' has no file for it\n"),
    "compare_all_anomalous_for_task": ("compare bad_t2.csv --cohort-a a --cohort-b b", 3, None,
                                       EXCLUDED.format("b", "t2") * 2 + "error: task 't2': "
                                       "cohort 'b' is empty after anomaly exclusion: "
                                       "all 2 of its files are anomalous\n"),
    "aggregate_empty_manifest": ("aggregate empty.csv", 3, None,
                                 "error: manifest lists no files\n"),
    "compare_unknown_cohort": (f"compare {CORPUS} --cohort-a control --cohort-b ghost", 3, None,
                               WARN_3 + "error: no files for cohort 'ghost'\n"),
    # cohort control has files, but none in database absent
    "compare_database_absent": (f"compare {CORPUS} {COHORTS} --database absent", 3, None,
                                WARN_3 + "error: no files for cohort 'control' "
                                "in database 'absent'\n"),
    "aggregate_bad_header": ("aggregate header.csv", 2, None,
                             "error: bad manifest header 'wrong,header,entirely,x,y'; "
                             "expected 'path,database,task,subject,cohort'\n"),
    "parse_malformed": ("parse zero.svc", 2, None,
                        "error: line 1: non-integer field in '0 0 zero 1'\n"),
    "parse_missing": ("parse absent.svc", 2, None,
                      "error: [Errno 2] No such file or directory: 'absent.svc'\n"),
    # the first row of a timestamp wins; each later one is dropped with a warning
    "parse_duplicate_timestamp": ("parse dup.svc", 0,
                                  "47f2366b437c7af5472078550d97e98a1e87e0f5746510aeb5aba8bd584aa938",
                                  "WARN dup.svc:3 duplicate timestamp 2 dropped\n"),
    # a four-column file has no pressure: deriving from it would mark every sample in-air
    "derive_status_four_columns": ("segment four.svc --derive-status-from-pressure", 2, None,
                                   FOUR_COLUMNS),
    "derive_status_four_columns_manifest": ("features four.csv --derive-status-from-pressure",
                                            2, None, FOUR_COLUMNS),
    # the view box is written in floats, so an x beyond their range is refused, not drawn
    "render_beyond_float": ("render huge.svc", 3, None, "error: huge.svc: x coordinates exceed "
                            "the float range; the trajectories cannot be drawn\n"),
    # every line's width is checked, not the block's total of fields
    "parse_widths_balance_out": ("parse balanced.svc", 2, None,
                                 "error: line 2: expected 4 columns, got 3\n"),
    "features_widths_balance_out": ("features balanced.csv", 2, None,
                                    "error: balanced.svc: line 2: expected 4 columns, got 3\n"),
    # synth refuses a spec, or a member of its corpus, before it writes anything
    "synth_no_period": ("synth --spec no_period.ini --seed 1 --out c", 2, None,
                        "error: [corpus] missing period\n"),
    "synth_nul_database": ("synth --spec nul.ini --seed 1 --out c", 2, None,
                           "error: database and task names must not hold NUL\n"),
    "synth_cohort_named_twice": ("synth --spec twice.ini --seed 1 --out c", 2, None,
                                 "error: [cohort  patient] names cohort 'patient', "
                                 "which an earlier section already named\n"),
    "synth_ambiguous_ground_truth": ("synth --spec ambiguous.ini --seed 1 --out c", 2, None,
                                     "error: c_000.svc: seed 15011141628560312956: "
                                     "sampling step 6 crosses threshold 3; "
                                     "ground truth would be ambiguous\n"),
}


# one worker reads a manifest's files, runs compare's tests and generates a
# synth corpus in this process; two fork one child for the second share
WORKERS = (1, 2)


@pytest.mark.parametrize("argv, code, stdout_sha256, stderr", CONTRACT.values(), ids=CONTRACT)
def test_command_line_contract(contract_inputs, capsys, argv, code, stdout_sha256, stderr):
    for workers in WORKERS:
        with usable_cpus(workers):
            assert main(argv.split()) == code, workers
            out, err = capsys.readouterr()
            assert err == stderr, workers
            if code == 0:
                assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256, workers
                continue
            # a refused command line writes nothing: no stdout, and no file at --out
            assert out == ""
            if argv.startswith("synth "):  # synth's own --out names a directory
                assert not Path(argv.split()[-1]).exists()
            assert main([*argv.split(), "--out", "out.txt"]) == code
            assert capsys.readouterr() == ("", stderr)
            assert not Path("out.txt").exists()


GOLDEN = [argv for argv, code, _, _ in CONTRACT.values() if code == 0]


@pytest.mark.parametrize("argv", GOLDEN, ids=[f"argv{i}" for i in range(len(GOLDEN))])
def test_out_file_holds_the_bytes_stdout_would(contract_inputs, capsys, argv):
    for workers in WORKERS:
        with usable_cpus(workers):
            assert main(argv.split()) == 0
            to_stdout = capsys.readouterr()
            assert main([*argv.split(), "--out", "out.txt"]) == 0
            assert capsys.readouterr() == ("", to_stdout.err)
            assert to_stdout.out and Path("out.txt").read_bytes() == to_stdout.out.encode("utf-8")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_holds_the_utf8_bytes_of_out_under_any_io_encoding(tmp_path, encoding):
    # a file and a cohort named outside ASCII show whether stdout and stderr
    # took the stream's encoding
    recording = write_session(tmp_path, "contr\u00f4le.svc", "0 0 0 1\n1 1 2 1\n2 2 2 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text("contr\u00f4le.svc,db,copy,s0,contr\u00f4le"),
                        encoding="utf-8")
    target = tmp_path / "out.csv"
    env = {"PYTHONIOENCODING": encoding}
    argv = ["features", str(manifest)]
    runs = [run_penair(command, env=env) for command in (argv, [*argv, "--out", str(target)])]
    warn = f"WARN {recording}:3 duplicate timestamp 2 dropped\n".encode("utf-8")
    assert [(done.returncode, done.stderr) for done in runs] == [(0, warn), (0, warn)]
    assert runs[1].stdout == b""
    assert runs[0].stdout == target.read_bytes()
    assert "contr\u00f4le".encode("utf-8") in runs[0].stdout
    absent = tmp_path / "absent_\u00e9.svc"
    done = run_penair(["parse", str(absent)], env=env)
    error = f"error: [Errno 2] No such file or directory: {str(absent)!r}\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", error.encode("utf-8"))


def test_synth_prints_only_the_manifest_path(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI, encoding="utf-8")
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"{out / 'manifest.csv'}\n", "")
    assert (out / "manifest.csv").is_file()
    assert len(list(out.glob("*.svc"))) == 8


@pytest.mark.parametrize("command", ["parse", "features", "render"])
def test_out_in_a_missing_directory_exits_two(tmp_path, capsys, command):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    source = manifest if command == "features" else manifest.parent / "control_000.svc"
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    assert main([command, str(source), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert not target.parent.exists()


def modules_loaded_by(tmp_path, argv, workers):
    """Names in sys.modules once cli.main(argv) has run in a fresh interpreter."""
    listing = tmp_path / "modules.txt"
    prelude = ("import atexit\n"
               "def write_listing():\n"
               f"    with open({str(listing)!r}, 'w', encoding='utf-8') as out:\n"
               "        out.write(' '.join(sys.modules))\n"
               "atexit.register(write_listing)")
    done = run_penair(argv, workers, prelude)
    assert done.returncode == 0, done.stderr
    return set(listing.read_text(encoding="utf-8").split())


def test_each_command_loads_only_what_it_runs(tmp_path):
    manifest = make_corpus(tmp_path)
    recording = str(manifest.parent / "control_000.svc")
    large = str(long_recording(tmp_path))
    to = ["--out", str(tmp_path / "output")]
    synth = {"penair.synth", "hashlib", "configparser"}
    # penair's value classes need neither dataclasses (nor its inspect) nor
    # typing. Under -S no site module loads typing first, so a command that
    # loaded it would show here
    never = {"dataclasses", "inspect", "typing"}
    only_synth = synth | never
    single = only_synth | {"penair.stats", "pickle"}  # a one-recording command
    # json loads where a recording is parsed, for ingest's JSON scanner: in the
    # main process of every command that parses one
    runs = [  # (command, workers, argv, modules it loads, modules it must not load)
        ("parse", 2, ["parse", recording, *to], {"penair.ingest", "json"}, single),
        ("segment", 2, ["segment", recording, *to], {"penair.segmentation", "json"}, single),
        ("render", 2, ["render", recording, *to], {"penair.report", "json"}, single),
        # a single-file command parses in one process at any size: it never forks
        ("parse large", 2, ["parse", large, *to], {"json"}, single),
    ]
    compare = ["--cohort-a", "control", "--cohort-b", "patient"]
    for workers in WORKERS:
        # at two workers a command forks, and pickle carries the child's results
        # back; the main process parses its own share of the files at any count
        fork = {"pickle"} if workers > 1 else set()
        unforked = {"pickle"} - fork
        runs += [
            ("features", workers, ["features", str(manifest), *to], fork | {"json"},
             only_synth | {"penair.stats"} | unforked),
            ("aggregate", workers, ["aggregate", str(manifest), *to], fork | {"json"},
             only_synth | {"penair.stats"} | unforked),
            ("compare", workers, ["compare", str(manifest), *compare, *to],
             {"penair.stats"} | fork | {"json"}, only_synth | unforked),
            # synth parses no recording
            ("synth", workers, ["synth", "--spec", str(tmp_path / "corpus.ini"), "--seed", "1",
                                "--out", str(tmp_path / f"again{workers}")],
             synth | fork, never | ({"json", "pickle"} - fork)),
        ]
    # what a bare interpreter loads is not penair's doing
    bare = set(run_python("print(' '.join(sys.modules))").stdout.decode().split())
    for command, workers, argv, needed, refused in runs:
        loaded = modules_loaded_by(tmp_path, argv, workers)
        assert needed <= loaded, (command, workers)
        assert not refused & (loaded - bare), (command, workers)


def dying_worker(target):
    """A prelude under which the function ``target`` (module.name) exits with
    status 7 in a forked worker."""
    return (f"import {target.rpartition('.')[0]}\nreal = {target}\n"
            "def dying(*args):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(7)\n"
            "    return real(*args)\n"
            f"{target} = dying")


def buggy_worker(target, where="child"):
    """A prelude under which the function ``target`` (module.name) raises
    ZeroDivisionError in a forked worker, or with ``where`` "parent" in the
    main process's own share, and runs as before in the other."""
    return (f"import {target.rpartition('.')[0]}\nreal = {target}\n"
            "def buggy(*args):\n"
            f"    if ('child' if os.getpid() != parent else 'parent') == {where!r}:\n"
            f"        raise ZeroDivisionError('boom in {where}')\n"
            "    return real(*args)\n"
            f"{target} = buggy")


# a prelude under which the process writes "no child left" to stderr as it
# exits, after any traceback, when it has no child left, running or unreaped
CHILDLESS_AT_EXIT = ("\nimport atexit\n"
                     "def report_childless():\n"
                     "    try:\n"
                     "        os.waitpid(-1, os.WNOHANG)\n"
                     "    except ChildProcessError:\n"
                     "        sys.stderr.write('no child left\\n')\n"
                     "atexit.register(report_childless)\n")


# what each worker runs per item: features reads a file, and synth, which
# imports member_text when it runs, generates one. The worker tests run the CLI
# in a fresh interpreter at two workers: a forked child that got back into
# the CLI would write to the real stdout, which only a separate process shows
REDUCE_FILE, MEMBER_TEXT = "penair.cli._reduce_file", "penair.synth.member_text"


def synth_argv(tmp_path):
    spec = write_session(tmp_path, "corpus.ini", CORPUS_INI)
    return ["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "corpus")]


def test_worker_that_dies_without_result_fails_the_run(tmp_path):
    manifest = make_corpus(tmp_path)
    done = run_penair(["features", str(manifest)], 2, dying_worker(REDUCE_FILE))
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"error: worker process exited with status 7 before sending its results\n"


def test_synth_worker_that_dies_without_result_writes_nothing(tmp_path):
    done = run_penair(synth_argv(tmp_path), 2, dying_worker(MEMBER_TEXT))
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"error: worker process exited with status 7 before sending its results\n"
    assert not (tmp_path / "corpus").exists()


def test_worker_bug_reaches_parent_and_no_table_is_printed(tmp_path):
    manifest = make_corpus(tmp_path)
    done = run_penair(["features", str(manifest)], 2, buggy_worker(REDUCE_FILE))
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"ZeroDivisionError: boom in child" in done.stderr
    assert b"worker process failed" in done.stderr


def test_synth_worker_bug_reaches_parent_and_nothing_is_written(tmp_path):
    done = run_penair(synth_argv(tmp_path), 2, buggy_worker(MEMBER_TEXT))
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"ZeroDivisionError: boom in child" in done.stderr
    assert b"worker process failed" in done.stderr
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("command", ["features", "synth"])
def test_bug_in_the_main_process_share_fails_the_run_and_leaves_no_child(tmp_path, command):
    # the main process raises on its own first item while its child still works
    if command == "features":
        argv, target = ["features", str(make_corpus(tmp_path))], REDUCE_FILE
    else:
        argv, target = synth_argv(tmp_path), MEMBER_TEXT
    done = run_penair(argv, 2, buggy_worker(target, "parent") + CHILDLESS_AT_EXIT)
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.startswith(b"Traceback (most recent call last):\n")
    assert done.stderr.endswith(b"ZeroDivisionError: boom in parent\nno child left\n")
    assert b"worker process failed" not in done.stderr
    if command == "synth":
        assert not (tmp_path / "corpus").exists()


LONG_INI = """
[corpus]
period = 2
jitter = 1
database = demo
task = long

[cohort solo]
files = 1
surface_strokes = 180
surface_ticks = 300..500
air_ticks = 100..200
gaps = 12
gap_ticks = 40..400
"""


def long_recording(tmp_path):
    """A synth recording of about 43 parse blocks with five repeated rows,
    each dropped with a warning: one at each sixth of its lines."""
    spec = tmp_path / "long.ini"
    spec.write_text(LONG_INI, encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "long")]) == 0
    path = tmp_path / "long" / "solo_000.svc"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for sixths in (5, 4, 3, 2, 1):  # from the end, so the earlier indices still hold
        i = len(lines) * sixths // 6
        lines.insert(i, lines[i])
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_single_file_commands_same_bytes_for_any_worker_count(tmp_path, capsys):
    # parsed in one process: stdout and --out hold the same bytes, and each
    # repeated row warns once
    path = long_recording(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    outputs = {}
    for command in ("parse", "segment", "render"):
        assert main([command, str(path)]) == 0
        to_stdout = outputs[command] = capsys.readouterr()
        assert main([command, str(path), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", to_stdout.err)
        assert to_stdout.out and out.read_bytes() == to_stdout.out.encode()
        assert to_stdout.err.count("WARN ") == 5 and len(to_stdout.err.splitlines()) == 5
    # a CRLF copy is read with "\n" line ends, as the file itself: only a block
    # holding a repeated row leaves the JSON scanner. Of a tab-separated copy,
    # the line reader reads every block. Each copy gives the same bytes and
    # warnings, and a copy without the repeated rows is all scanned, to no warning
    text = path.read_text(encoding="utf-8")
    for copy, warns in ((text.replace("\n", "\r\n"), True), (text.replace(" ", "\t"), True),
                        ("".join(dict.fromkeys(text.splitlines(keepends=True))), False)):
        path.write_text(copy, encoding="utf-8", newline="")  # at the same path, as WARN names it
        for command in ("segment", "render"):
            assert main([command, str(path)]) == 0
            want = outputs[command]
            assert capsys.readouterr() == (want.out, want.err if warns else "")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_manifest_fan_out_reaps_every_child_on_every_path(tmp_path, capsys, monkeypatch):
    manifest = make_corpus(tmp_path)
    bad = write_session(tmp_path / "corpus", "bad.svc", "0 0 0 1\n1 1 2 1\n2 2 x 1\n")
    broken = tmp_path / "corpus" / "broken.csv"
    broken.write_text(manifest.read_text(encoding="utf-8") + "bad.svc,demo,copy,s9,patient\n",
                      encoding="utf-8")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    capsys.readouterr()
    assert main(["features", str(manifest)]) == 0
    no_child_left()
    assert main(["features", str(broken)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3: non-integer field in '2 2 x 1'\n"
    no_child_left()
    parent, real = os.getpid(), cli._reduce_file

    def dying(*args):
        if os.getpid() != parent:
            os._exit(7)
        return real(*args)

    monkeypatch.setattr(cli, "_reduce_file", dying)
    assert main(["features", str(manifest)]) == 2
    assert capsys.readouterr().err == (
        "error: worker process exited with status 7 before sending its results\n")
    no_child_left()

    def interrupted(*args):  # in this process's own share, while the children work
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "_reduce_file", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["features", str(manifest)])
    assert capsys.readouterr() == ("", "")
    no_child_left()
    monkeypatch.setattr(cli, "_reduce_file", real)
    forks, real_fork = [], os.fork

    def fork_once():  # the second fork fails, after the first child started
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert main(["features", str(manifest)]) == 2
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    no_child_left()


def test_each_further_usable_cpu_forks_one_child(tmp_path, capsys, monkeypatch):
    # one task and four files per cohort: features fans out its files, and
    # compare its files and then its six rank tests
    manifest = make_corpus(tmp_path)
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    compare = ["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient"]
    for workers, features_forks, compare_forks in ((1, 0, 0), (2, 1, 2), (3, 2, 4)):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        for argv, expected in ((["features", str(manifest)], features_forks),
                               (compare, compare_forks)):
            forks.clear()
            assert main(argv) == 0
            assert len(forks) == expected, (argv[0], workers)
            no_child_left()


def test_render_svg(tmp_path, capsys):
    path = write_session(tmp_path, text="0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 40 1\n4 4 42 1\n")
    target = tmp_path / "plot.svg"
    assert main(["render", str(path), "--out", str(target)]) == 0
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")


def test_gap_factor_boundary_exact(tmp_path, capsys):
    # period 100; 4.35 * 100 is 434.99999999999994 in binary floating point,
    # but a 435-tick interval does not strictly exceed 4.35 periods
    times = [0, 100, 200, 300, 735, 835, 935, 1035, 1471, 1571, 1671]
    text = "".join(f"0 0 {t} 1\n" for t in times)
    path = write_session(tmp_path, text=text)
    assert main(["segment", str(path), "--gap-factor", "4.35"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith("in_air_long")] == ["in_air_long,1035,1471,436,0"]


ODD_LABELS_INI = CORPUS_INI.replace("database = demo", "database = clinic, north").replace(
    "task = copy", 'task = say "hi",\n  twice').replace(
    "[cohort control]", "[cohort control, a]").replace("[cohort patient]", '[cohort pat"ient]')


def test_synth_manifest_with_odd_labels_is_read_back(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text(ODD_LABELS_INI, encoding="utf-8")
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["features", str(out / "manifest.csv")]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert len(rows) == 9
    assert {tuple(r[1:3]) for r in rows[1:]} == {("clinic, north", 'say "hi",\ntwice')}
    assert sorted({r[4] for r in rows[1:]}) == ["control, a", 'pat"ient']


UNDECODABLE = b"1 2 3 1\n\xff\xfe 2 4 1\n"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_undecodable_files_exit_two_naming_file_and_byte(tmp_path, capsys, monkeypatch,
                                                         workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    bad = tmp_path / "bad.svc"
    bad.write_bytes(UNDECODABLE)
    bom = tmp_path / "bom.svc"
    bom.write_bytes(b"\xef\xbb\xbf" + UNDECODABLE)  # offsets count the mark's 3 bytes
    write_session(tmp_path, "good.svc")
    write_session(tmp_path, "also_good.svc")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text("good.svc,db,copy,s0,control", "bad.svc,db,copy,s1,patient",
                                      "also_good.svc,db,copy,s2,patient"), encoding="utf-8")
    bad_manifest = tmp_path / "bad_manifest.csv"
    bad_manifest.write_bytes(b"path,database,task,subject,cohort\n"
                             b"good.svc,db,copy,s\xff,control\n")
    spec = tmp_path / "bad.ini"
    spec.write_bytes(CORPUS_INI.encode("utf-8").replace(b"demo", b"d\xffmo"))
    compare = ["--cohort-a", "control", "--cohort-b", "patient"]
    cases = [
        (["parse", str(bad)], bad, 8),
        (["parse", str(bom)], bom, 11),
        (["segment", str(bad)], bad, 8),
        (["render", str(bad)], bad, 8),
        (["features", str(manifest)], bad, 8),
        (["aggregate", str(manifest)], bad, 8),
        (["compare", str(manifest)] + compare, bad, 8),
        (["features", str(bad_manifest)], bad_manifest, 52),
        (["aggregate", str(bad_manifest)], bad_manifest, 52),
        (["compare", str(bad_manifest)] + compare, bad_manifest, 52),
        (["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "out")],
         spec, CORPUS_INI.index("demo") + 1),
    ]
    for argv, path, offset in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        # the path once: manifest commands add it only to errors that lack it
        assert captured.err == (
            f"error: {path}: not UTF-8 text: byte {offset}: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_part_of_a_byte_order_mark_is_not_utf8(tmp_path, capsys):
    # only a whole mark is dropped; its first one or two bytes alone are a
    # truncated UTF-8 sequence at the file's first byte, not an empty file
    rec = tmp_path / "rec.svc"
    rec.write_bytes(b"\xef")
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"\xef\xbb")
    spec = tmp_path / "corpus.ini"
    spec.write_bytes(b"\xef")
    cases = [
        (["parse", str(rec)], rec),
        (["features", str(manifest)], manifest),
        (["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "out")], spec),
    ]
    for argv, path in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == (
            "", f"error: {path}: not UTF-8 text: byte 0: unexpected end of data\n")
    assert not (tmp_path / "out").exists()


def test_bad_byte_beats_an_earlier_faulty_row(tmp_path, capsys):
    # a file that is not UTF-8 is refused before any of its rows is read: a
    # non-integer field or a repeated timestamp on line 2 neither wins nor warns
    rows = [f"{i % 7} {i % 5} {i + 1} {i % 2} 0 0 {i % 3}\n" for i in range(6000)]
    offset = 3 * ingest._BLOCK_CHARS + 200  # three blocks past the first
    path = tmp_path / "rec.svc"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest_text("rec.svc,db,copy,s0,control"), encoding="utf-8")
    for line_2 in ("1 x 2 1 0 0 1\n", "1 1 1 1 0 0 1\n"):
        data = "".join(rows[:1] + [line_2] + rows[2:]).encode("ascii")
        assert len(data) > offset
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        for argv in (["parse", str(path)], ["segment", str(path)], ["render", str(path)],
                     ["features", str(manifest)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", f"error: {path}: not UTF-8 text: byte {offset}: invalid start byte\n")


@pytest.fixture
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_collector_as_it_found_it(tmp_path, capsys, monkeypatch, restore_collector,
                                              enabled):
    good = write_session(tmp_path)
    bad = write_session(tmp_path, "bad.svc", "0 0 x 1\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("path,database,task,subject,cohort\n", encoding="utf-8")
    cases = [
        (["parse", str(good)], 0),
        (["bogus"], 1),  # a usage error, before any command runs
        (["synth", "--spec", "any.ini", "--seed", "1"], 1),  # no --out: a usage error
        (["parse", str(bad)], 2),
        (["aggregate", str(empty)], 3),
    ]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    for argv, code in cases:
        assert main(argv) == code
        assert gc.isenabled() is enabled

    def buggy(*args):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "segment", buggy)
    with pytest.raises(ZeroDivisionError):
        main(["segment", str(good)])
    assert gc.isenabled() is enabled


def test_collector_is_paused_while_a_command_runs(tmp_path, capsys, monkeypatch,
                                                  restore_collector):
    seen = []
    real = cli.segment

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(cli, "segment", spy)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    gc.enable()
    manifest = make_corpus(tmp_path)
    assert main(["segment", str(write_session(tmp_path))]) == 0
    assert main(["features", str(manifest)]) == 0
    assert seen == [False] * 9
    assert gc.isenabled()


def cyclic_garbage(call):
    # objects only the cyclic collector can free, left behind by call()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def long_recording_text(n):
    # strokes of 40 samples, alternating status, a long gap every 400 samples
    t = 0
    rows = []
    for i in range(n):
        rows.append(f"{i % 97} {-(i % 89)} {t} {(i // 40) % 2}\n")
        t += 500 if i % 400 == 399 else 2
    return "".join(rows)


def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(tmp_path, capsys,
                                                                  monkeypatch):
    # penair's data holds no reference cycles, which is why a command may run
    # with the collector paused: all a run leaves is argparse's parser tree
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    parser_only = cyclic_garbage(cli.build_parser)
    small_spec = tmp_path / "small.ini"
    small_spec.write_text(CORPUS_INI.replace("files = 4", "files = 1"), encoding="utf-8")
    assert main(["synth", "--spec", str(small_spec), "--seed", "5",
                 "--out", str(tmp_path / "small")]) == 0
    small = tmp_path / "small" / "manifest.csv"
    large = make_corpus(tmp_path)
    short = write_session(tmp_path, "short.svc")
    long = write_session(tmp_path, "long.svc", long_recording_text(20000))
    capsys.readouterr()
    for argv in (["features", str(small)], ["features", str(large)],
                 ["render", str(short)], ["render", str(long)]):
        assert cyclic_garbage(lambda: main(argv)) == parser_only
        assert capsys.readouterr().out


@pytest.mark.parametrize("old, new, message", [
    ("jitter = 1", "jitter = 1\ngap_factr = 1.5", "[corpus] unknown key 'gap_factr'"),
    ("files = 4", "files = 4\nfile = 2", "[cohort control] unknown key 'file'"),
    ("[corpus]", "[DEFAULT]\nfiles = 2\n\n[corpus]", "unexpected section [DEFAULT]"),
    ("database = demo", f"database = {'d' * 140_000}",
     "manifest.csv would be refused: line 2: field larger than field limit (131072)"),
    ("[cohort patient]", f"[cohort {'p' * 300}]",
     f"cohort {'p' * 300!r}: a file name of 308 bytes is over the limit of 255"),
], ids=["corpus_key_typo", "unknown_cohort_key", "default_section", "over_long_database",
        "over_long_cohort_name"])
def test_synth_refuses_a_spec_with_one_error_line_and_writes_nothing(tmp_path, capsys,
                                                                      old, new, message):
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI.replace(old, new, 1), encoding="utf-8")
    out = tmp_path / "c"
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_usable_cpus_without_affinity_or_fork(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert USABLE_CPUS() == (3 if hasattr(os, "fork") else 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert USABLE_CPUS() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask")
def test_one_cpu_of_the_affinity_mask_is_one_worker():
    # what taskset -c 0 does from outside, the child does to itself
    done = run_python("from penair import cli\n"
                      "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                      "print(cli._usable_cpus())")
    assert (done.returncode, done.stdout) == (0, b"1\n"), done.stderr
