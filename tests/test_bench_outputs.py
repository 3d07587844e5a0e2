"""The benchmark's output table, checked without the benchmark.

Each workload of ``bench/workloads.py`` writes its seed-1 corpus with
``penair synth`` and runs its command in this process; the sha256 of the
output must equal the workload's row of the seed-1 table in
``bench/README.md``, and the workload's own check must pass it against the
ground truth ``build_truth`` regenerates through the generator API, as
``bench/run.py`` checks every output it times. A change that must keep the
CLI's output byte-identical keeps every row. The commands run at two
workers, this process's share and one forked child, on any machine. Nothing
under ``bench/`` is written.
"""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from penair.cli import main

from fresh import usable_cpus

BENCH = Path(__file__).resolve().parents[1] / "bench"
# loaded by file, so bench/ does not join sys.path; its dataclasses find
# their module in sys.modules
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

TABLE = dict(re.findall(r"^\| `(\w+)` \| `([0-9a-f]{64})` \|$",
                        (BENCH / "README.md").read_text(encoding="utf-8"), re.M))


@pytest.fixture
def two_workers():
    with usable_cpus(2):
        yield


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_one_output_matches_bench_readme(name, tmp_path, monkeypatch, capsys, two_workers):
    workload = workloads.WORKLOADS[name]("full")
    jobs = workload.jobs(1)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    monkeypatch.chdir(corpus)
    for k, job in enumerate(jobs):  # as bench/run.py writes it, from the corpus directory
        spec = tmp_path / f"spec{k:02d}.ini"
        spec.write_text(job.spec, encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--seed", str(job.seed),
                     "--out", job.subdir or "."]) == 0
    workload.merge(corpus, jobs)
    capsys.readouterr()
    assert main(workload.argv()) == 0
    out = workload.output_path()
    output = (corpus / out).read_bytes() if out else capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(output).hexdigest() == TABLE[name]
    truth = [ft for job in jobs for ft in workloads.build_truth(job)]
    assert workload.check(output, workload.expected(truth)) == []
