import csv
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


def test_synth_bad_spec_exits_two(tmp_path, capsys):
    spec = tmp_path / "corpus.ini"
    spec.write_text("[corpus]\njitter = 3\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c")]) == 2


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


def test_aggregate_bad_manifest_exits_two(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("wrong,header,entirely,x,y\n", encoding="utf-8")
    assert main(["aggregate", str(manifest)]) == 2


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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_manifest_errors_and_warnings_follow_manifest_order(tmp_path, capsys, monkeypatch,
                                                            workers):
    # file 0 warns, file 1 is good, file 2 is malformed on line 3, file 3 is
    # missing: file 0's warning, then file 2's error, and nothing of file 3
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers, raising=False)
    warn = write_session(tmp_path, "warn.svc", "0 0 0 1\n1 1 2 1\n2 2 2 1\n3 3 4 1\n")
    write_session(tmp_path, "good.svc")
    write_session(tmp_path, "bad.svc", "0 0 0 1\n1 1 2 1\n2 2 x 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,database,task,subject,cohort\n"
                        "warn.svc,db,copy,s0,control\n"
                        "good.svc,db,copy,s1,patient\n"
                        "bad.svc,db,copy,s2,control\n"
                        "missing.svc,db,copy,s3,patient\n", encoding="utf-8")
    for argv in (["features", str(manifest)],
                 ["compare", str(manifest), "--cohort-a", "control", "--cohort-b", "patient"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"WARN {warn}:3 duplicate timestamp 2 dropped\n"
                                "error: line 3: non-integer field in '2 2 x 1'\n")


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
