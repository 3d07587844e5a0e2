import csv
import gc
import io
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from penair import cli
from penair.cli import main

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
@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_unreadable_fraction_flag_says_not_a_number(tmp_path, capsys, flag, value):
    assert main(["segment", str(write_session(tmp_path)), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: not a number: {value!r}\n")


def test_parse_reports_summary(tmp_path, capsys):
    path = write_session(tmp_path)
    assert main(["parse", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("source,n_samples,t_first,t_last,span")
    cells = lines[1].split(",")
    assert cells[1:5] == ["4", "0", "6", "6"]


def test_parse_malformed_file_exits_two(tmp_path, capsys):
    path = write_session(tmp_path, text="0 0 zero 1\n")
    assert main(["parse", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_parse_missing_file_exits_two(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.svc")]) == 2


def test_duplicate_timestamp_warning_format(tmp_path, capsys):
    path = write_session(tmp_path, text="0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n")
    assert main(["parse", str(path)]) == 0
    err = capsys.readouterr().err
    assert err == f"WARN {path}:3 duplicate timestamp 2 dropped\n"


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


def test_derive_status_refuses_four_column_file(tmp_path, capsys):
    # a four-column file has no pressure: deriving from it would mark every sample in-air
    path = write_session(tmp_path, text="0 0 0 1\n1 1 2 1\n2 2 4 0\n")
    message = f"error: {path}: deriving status needs the pressure column; the file has 4 columns\n"
    assert main(["segment", str(path), "--derive-status-from-pressure"]) == 2
    assert capsys.readouterr() == ("", message)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,database,task,subject,cohort\n"
                        "rec.svc,db,copy,s0,control\n", encoding="utf-8")
    assert main(["features", str(manifest), "--derive-status-from-pressure"]) == 2
    assert capsys.readouterr() == ("", message)


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


def test_synth_bad_spec_exits_two(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text("[corpus]\njitter = 3\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c")]) == 2


def test_synth_refuses_nul_in_database_and_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text(CORPUS_INI.replace("database = demo", "database = de\0mo"), encoding="utf-8")
    out = tmp_path / "c"
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: database and task names must not hold NUL\n"
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


def test_aggregate_empty_manifest_exits_three(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,database,task,subject,cohort\n", encoding="utf-8")
    assert main(["aggregate", str(manifest)]) == 3


def test_aggregate_names_group_with_every_file_anomalous(tmp_path, capsys):
    # one file per cohort; the patient file spends most of its time in a long gap
    write_session(tmp_path, "ok.svc",
                  "0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 6 0\n4 4 8 0\n5 5 10 1\n")
    write_session(tmp_path, "bad.svc",
                  "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n4 4 200 0\n5 5 202 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,database,task,subject,cohort\n"
                        "ok.svc,db,copy,s1,control\nbad.svc,db,copy,s2,patient\n",
                        encoding="utf-8")
    assert main(["aggregate", str(manifest)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: database 'db', cohort 'patient', task 'copy': "
                            "all 1 files excluded as anomalous\n")


def test_aggregate_bad_manifest_exits_two(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("wrong,header,entirely,x,y\n", encoding="utf-8")
    assert main(["aggregate", str(manifest)]) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_csv_faults_exit_two_naming_the_line(tmp_path, capsys, monkeypatch, workers):
    # csv refuses an over-long field, and Python 3.10's csv a NUL, while 3.11's
    # keeps a NUL for open() to refuse: each is one error line on every Python
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    write_session(tmp_path, "good.svc")
    header = "path,database,task,subject,cohort\n"
    cases = [
        (f"{'a' * 200_000}.svc,db,copy,s0,control\n",
         "line 2: field larger than field limit (131072)"),
        ("good.svc,db,copy,s0,control\nbad\0.svc,db,copy,s1,patient\n", "line 3: NUL byte"),
        ('good.svc,db,"co\npy",s0,control\ngood.svc,d\0b,copy,s1,patient\n', "line 4: NUL byte"),
    ]
    manifest = tmp_path / "manifest.csv"
    for rows, message in cases:
        manifest.write_text(header + rows, encoding="utf-8")
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


def test_compare_unknown_cohort_exits_three(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "ghost"]) == 3
    assert "ghost" in capsys.readouterr().err


def test_compare_task_with_empty_side_aborts_run(tmp_path, capsys):
    # every patient file of task "spiral" is anomalous (a 194-tick gap in the
    # air); the other tasks are fine
    write_session(tmp_path, "ok.svc",
                  "0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 6 0\n4 4 8 0\n5 5 10 1\n")
    write_session(tmp_path, "bad.svc",
                  "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n4 4 200 0\n5 5 202 1\n")
    rows = ["path,database,task,subject,cohort"]
    for task in ("copy", "spiral", "words"):
        rows.append(f"ok.svc,db,{task},s1,control")
        rows.append(f"{'bad' if task == 'spiral' else 'ok'}.svc,db,{task},s2,patient")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["features", str(manifest)]) == 0
    flags = [line.split(",")[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert flags == ["false"] * 3 + ["true"] + ["false"] * 2
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'spiral'" in captured.err
    assert "anomaly exclusion" in captured.err
    # the excluded file is named once, before the error
    assert captured.err.startswith(
        f"WARN {tmp_path / 'bad.svc'} anomalous: excluded from comparison "
        "(cohort patient, task spiral)\nerror: ")


def test_compare_names_excluded_files_of_compared_cohorts_only(tmp_path, capsys):
    # anomalous files of the two compared cohorts in --database are named in
    # manifest order; those of another cohort or database are not, and the
    # table is the one the manifest gives without any anomalous file
    write_session(tmp_path, "ok.svc",
                  "0 0 0 1\n1 1 2 1\n2 2 4 1\n3 3 6 0\n4 4 8 0\n5 5 10 1\n")
    bad = write_session(tmp_path, "bad.svc",
                        "0 0 0 1\n1 1 2 1\n2 2 4 0\n3 3 6 0\n4 4 200 0\n5 5 202 1\n")
    rows = [("ok", "db1", "spiral", "s1", "control"),
            ("bad", "db1", "spiral", "s2", "patient"),
            ("bad", "db1", "spiral", "s3", "other"),
            ("bad", "db2", "spiral", "s4", "patient"),
            ("bad", "db1", "copy", "s5", "control"),
            ("ok", "db1", "copy", "s6", "control"),
            ("ok", "db1", "copy", "s7", "patient"),
            ("ok", "db1", "spiral", "s8", "patient")]
    argv = ["--cohort-a", "control", "--cohort-b", "patient", "--database", "db1"]
    outs = []
    for name, kept in (("all.csv", rows), ("clean.csv", [r for r in rows if r[0] == "ok"])):
        manifest = tmp_path / name
        manifest.write_text("path,database,task,subject,cohort\n" + "".join(
            f"{r[0]}.svc,{','.join(r[1:])}\n" for r in kept), encoding="utf-8")
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
    # file 0 warns, file 1 is good, file 2 is malformed on line 3, file 3 is
    # missing: file 0's warning, then file 2's error, and nothing of file 3
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers, raising=False)
    warn = write_session(tmp_path, "warn.svc", "0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n")
    write_session(tmp_path, "good.svc")
    bad = write_session(tmp_path, "bad.svc", "0 0 0 1\n1 1 2 1\n2 2 x 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,database,task,subject,cohort\n"
                        "warn.svc,db,copy,s0,control\n"
                        "good.svc,db,copy,s1,patient\n"
                        "bad.svc,db,copy,s2,control\n"
                        "missing.svc,db,copy,s3,patient\n", encoding="utf-8")
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
    capsys.readouterr()
    for argv in (["features", str(manifest)], ["aggregate", str(manifest)],
                 ["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient"]):
        outputs = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            assert main(argv) == 0
            outputs.add(capsys.readouterr())
        assert len(outputs) == 1
        (captured,) = outputs
        assert captured.out and captured.err.count("WARN ") == 3


def run_cli_in_fresh_interpreter(prelude, argv):
    # a forked child that got back into the CLI would write to the real
    # stdout, which only a separate process shows
    code = (f"import os, sys\nfrom penair import cli\nparent = os.getpid()\n{prelude}\n"
            f"cli._usable_cpus = lambda: 2\nsys.exit(cli.main({argv!r}))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def modules_loaded_by(tmp_path, argv):
    """Names in sys.modules once cli.main(argv) has run in a fresh interpreter."""
    listing = tmp_path / "modules.txt"
    prelude = ("import atexit\n"
               f"atexit.register(lambda: open({str(listing)!r}, 'w').write(' '.join(sys.modules)))")
    done = run_cli_in_fresh_interpreter(prelude, argv)
    assert done.returncode == 0, done.stderr
    return set(listing.read_text().split())


def test_each_command_loads_only_what_it_runs(tmp_path):
    manifest = make_corpus(tmp_path)
    recording = str(manifest.parent / "control_000.svc")
    large = str(long_recording(tmp_path))
    to = ["--out", str(tmp_path / "output")]
    synth = {"penair.synth", "hashlib", "configparser"}
    single = synth | {"penair.stats", "pickle"}  # a one-recording command
    # json loads where a recording is parsed, for ingest's JSON scanner
    runs = {  # command: (argv, modules it loads, modules it must not load)
        "parse": (["parse", recording, *to], {"penair.ingest", "json"}, single),
        "segment": (["segment", recording, *to], {"penair.segmentation", "json"}, single),
        "render": (["render", recording, *to], {"penair.report", "json"}, single),
        # a single-file command parses in one process at any size: it never forks
        "parse large": (["parse", large, *to], {"json"}, single),
        # run_cli_in_fresh_interpreter gives two workers, so these fan out, and
        # only the workers parse
        "features": (["features", str(manifest), *to], {"pickle"},
                     synth | {"penair.stats", "json"}),
        "aggregate": (["aggregate", str(manifest), *to], {"pickle"},
                      synth | {"penair.stats", "json"}),
        "compare": (["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient",
                     *to], {"penair.stats", "pickle"}, synth | {"json"}),
        "synth": (["synth", "--spec", str(tmp_path / "corpus.ini"), "--seed", "1",
                   "--out", str(tmp_path / "again")], synth, {"json"}),
    }
    # what a bare interpreter loads (site hooks, say) is not penair's doing
    bare = set(subprocess.run([sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
                              capture_output=True, text=True, check=True, timeout=60).stdout.split())
    for command, (argv, needed, refused) in runs.items():
        loaded = modules_loaded_by(tmp_path, argv)
        assert needed <= loaded, command
        assert not refused & (loaded - bare), command


def test_worker_that_dies_without_result_fails_the_run(tmp_path):
    manifest = make_corpus(tmp_path)
    prelude = ("real = cli._reduce_files\n"
               "def dying(*args):\n"
               "    if os.getpid() != parent:\n"
               "        os._exit(7)\n"
               "    return real(*args)\n"
               "cli._reduce_files = dying")
    done = run_cli_in_fresh_interpreter(prelude, ["features", str(manifest)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: worker process exited with status 7 before sending its results\n"


def test_worker_bug_reaches_parent_and_no_table_is_printed(tmp_path):
    manifest = make_corpus(tmp_path)
    prelude = ("def buggy(*args):\n"
               "    where = 'child' if os.getpid() != parent else 'parent'\n"
               "    raise ZeroDivisionError('boom in ' + where)\n"
               "cli._reduce_files = buggy")
    done = run_cli_in_fresh_interpreter(prelude, ["features", str(manifest)])
    assert done.returncode == 1
    assert done.stdout == ""
    assert "ZeroDivisionError: boom in child" in done.stderr
    assert "worker process failed" in done.stderr


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
    for command in ("parse", "segment", "render"):
        assert main([command, str(path)]) == 0
        to_stdout = capsys.readouterr()
        assert main([command, str(path), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", to_stdout.err)
        assert to_stdout.out and out.read_bytes() == to_stdout.out.encode()
        assert to_stdout.err.count("WARN ") == 5 and len(to_stdout.err.splitlines()) == 5


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
    parent, real = os.getpid(), cli._reduce_files

    def dying(*args):
        if os.getpid() != parent:
            os._exit(7)
        return real(*args)

    monkeypatch.setattr(cli, "_reduce_files", dying)
    assert main(["features", str(manifest)]) == 2
    assert capsys.readouterr().err == (
        "error: worker process exited with status 7 before sending its results\n")
    no_child_left()
    monkeypatch.setattr(cli, "_reduce_files", real)
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


def test_compare_database_filter(tmp_path, capsys):
    manifest = make_corpus(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient", "--database", "absent"]) == 3
    capsys.readouterr()
    assert main(["compare", str(manifest), "--cohort-a", "control",
                 "--cohort-b", "patient", "--database", "demo"]) == 0


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
    manifest.write_text("path,database,task,subject,cohort\n"
                        "good.svc,db,copy,s0,control\n"
                        "bad.svc,db,copy,s1,patient\n"
                        "also_good.svc,db,copy,s2,patient\n", encoding="utf-8")
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
