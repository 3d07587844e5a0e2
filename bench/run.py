#!/usr/bin/env python3
"""penair benchmark: seeded synthetic corpora, timed through the CLI.

Run from the repository root:

    python3 bench/run.py --workload corpus_features --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

For one workload the script writes the corpus with ``penair synth --seed``,
rebuilds its ground truth in memory, then runs the workload's CLI command as
a fresh ``python -m penair`` child in a closed loop (one client, one
invocation at a time) for ``--seconds`` seconds, checking every output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes a separate
traced run: untraced invocations alternate with repetitions of the same
pipeline in fresh interpreters (``trace_child.py``) that time each layer from
outside, followed by a sweep of the exact test's cost over pooled size.
``--workload all`` runs every workload both ways.

Every child is started by ``launcher.py``, a small helper process, and
measured there with ``os.wait4`` (see that file for why). Times are reported
in reference seconds: on a shared virtual machine the CPU speed swings by up
to a factor of two within seconds as other tenants load the host, so each
child is bracketed by a calibration child (a fresh interpreter that reads and
parses a fixed text the way the CLI reads a recording, without importing
penair) and its times are scaled by
``CALIB_REF_S / mean(calibration before, calibration after)``.
The raw medians and the speed factor are printed next to the scaled values.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it describe the
environment, the corpus and the sha256 of the command's output. Everything
the benchmark writes goes under ``.bench_work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("corpus_features", "compare_exact", "long_recording")

SETUP_REPS = 3  # corpus writes per untraced run; setup_s is their median
MIN_INVOCATIONS = 3  # a run keeps going past --seconds until it has this many
SWEEP_REPS = 3  # fresh interpreters running the exact-test sweep
DEADLINE_S = 170  # a run that is not done by then gives up without a result
CALIB_ROWS = 30_000
CALIB_REF_S = 0.1  # a calibration child on an uncontended core of a 2.1 GHz Xeon

END_TO_END = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "ingest.read_s": "s",
    "ingest.parse_s": "s",
    "ingest.parse_samples_per_s": "1/s",
    "ingest.manifest_s": "s",
    "ingest.samples": "count",
    "ingest.bytes": "B",
    "ingest.dropped_rows": "count",
    "segmentation.period_s": "s",
    "segmentation.gaps_s": "s",
    "segmentation.segment_s": "s",
    "segmentation.strokes": "count",
    "segmentation.gaps": "count",
    "features.vector_s": "s",
    "features.aggregate_s": "s",
    "features.anomalous_files": "count",
    "stats.u_s": "s",
    "stats.exact_s": "s",
    "stats.approx_s": "s",
    "stats.compare_s": "s",
    "stats.exact_calls": "count",
    "stats.approx_calls": "count",
    "stats.exact_distinct_ratio": "ratio",
    "stats.exact_sweep_s.n20": "s",
    "stats.exact_sweep_s.n40": "s",
    "stats.exact_sweep_s.n60": "s",
    "stats.exact_sweep_s.n80": "s",
    "report.table_s": "s",
    "report.svg_s": "s",
    "report.bytes_out": "B",
    "synth.corpus_s": "s",
    "synth.samples_written": "count",
    "synth.bytes_written": "B",
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "ops_failed_ratio": "ratio",
}

# spans that partition a traced run's wall time; nested spans
# (segmentation.period_s, stats.exact_s, ...) are left out of the sum
TOP_LEVEL_SPANS = (
    "cli.import_s", "ingest.manifest_s", "ingest.read_s", "ingest.parse_s",
    "segmentation.segment_s", "features.vector_s", "stats.compare_s",
    "report.table_s", "report.svg_s",
)


class RunAborted(Exception):
    """The run cannot produce a result: set-up failed or a child hung."""


_CALIB_CODE = """
import sys
rows, last = [], -1
for line in open(sys.argv[1], encoding="utf-8").read().splitlines():
    values = [int(f) for f in line.split()]
    if values[2] > last:
        rows.append(tuple(values))
        last = values[2]
counts = {}
for a, b in zip(rows, rows[1:]):
    counts[b[2] - a[2]] = counts.get(b[2] - a[2], 0) + 1
"""


@dataclass
class Invocation:
    wall_s: float  # raw
    rss_mb: float
    cpu_s: float  # raw
    code: int
    stdout: bytes
    speed: float  # reference seconds per raw second while the child ran
    after: float  # raw seconds of the calibration child that followed

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed


class Launcher:
    """Runs children through ``launcher.py`` and brackets each with
    calibration children."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.calibration_text = WORK / "calibration.txt"
        self.calibration_text.parent.mkdir(parents=True, exist_ok=True)
        self.calibration_text.write_text("".join(
            f"{3000 + i * 7 % 500} {2000 + i * 13 % 300} {i * 4} {i % 2} {i % 360} "
            f"{40 + i % 40} {i % 900}\n" for i in range(CALIB_ROWS)), encoding="utf-8")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def _run(self, argv: list[str], cwd: Path) -> dict:
        request = {
            "argv": argv, "cwd": str(cwd), "env": self.env,
            "stdout": str(cwd / ".stdout"), "stderr": str(cwd / ".stderr"),
            "timeout": max(0.1, DEADLINE_S - (time.perf_counter() - STARTED)),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply.get("timeout"):
            raise RunAborted(f"{' '.join(argv[1:3])} still running at the "
                             f"{DEADLINE_S} s deadline")
        return reply

    def calibrate(self) -> float:
        """Raw wall seconds of one calibration child."""
        reply = self._run([sys.executable, "-c", _CALIB_CODE, str(self.calibration_text)],
                          WORK)
        if reply["code"] != 0:
            raise RunAborted(f"calibration child exited {reply['code']}")
        return reply["wall_s"]

    def invoke(self, argv: list[str], cwd: Path, before: float | None = None) -> Invocation:
        """Run one child to completion; ``before`` reuses the calibration
        that ended the previous child."""
        if before is None:
            before = self.calibrate()
        reply = self._run(argv, cwd)
        after = self.calibrate()
        return Invocation(reply["wall_s"], reply["rss_mb"], reply["cpu_s"], reply["code"],
                          (cwd / ".stdout").read_bytes(),
                          CALIB_REF_S / ((before + after) / 2), after)


def penair_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "penair", *args]


def child_argv(args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "trace_child.py"), *args]


class Run:
    """One benchmark run of one workload: corpus, truth, invocations."""

    def __init__(self, workload, seed: int, seconds: float, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / workload.name
        self.corpus = self.dir / "corpus"
        self.jobs = workload.jobs(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.expected = None  # what the workload's check compares against
        self.reference: bytes | None = None  # first output that passed its check
        self.info: dict = {}
        self.last_calibration: float | None = None

    def invoke(self, argv: list[str]) -> Invocation:
        """Run a child in the corpus directory, sharing calibration children
        between back-to-back invocations."""
        inv = self.launcher.invoke(argv, self.corpus, self.last_calibration)
        self.last_calibration = inv.after
        return inv

    # -- set-up --------------------------------------------------------------

    def write_specs(self) -> list[Path]:
        shutil.rmtree(self.dir, ignore_errors=True)
        specs = []
        for k, job in enumerate(self.jobs):
            path = self.dir / "specs" / f"spec{k:02d}.ini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job.spec, encoding="utf-8")
            specs.append(path)
        return specs

    def write_corpus(self, specs: list[Path]) -> tuple[float, float]:
        """Write the corpus with the CLI; returns (reference, raw) wall seconds."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        self.corpus.mkdir(parents=True)
        ref = raw = 0.0
        for spec, job in zip(specs, self.jobs):
            inv = self.invoke(penair_argv(["synth", "--spec", str(spec), "--seed",
                                           str(job.seed), "--out", job.subdir or "."]))
            if inv.code != 0:
                raise RunAborted(f"synth exited {inv.code}: "
                                 + (self.corpus / ".stderr").read_text()[-500:])
            ref += inv.ref_wall_s
            raw += inv.wall_s
        start = time.perf_counter()
        self.workload.merge(self.corpus, self.jobs)
        merge = time.perf_counter() - start
        return ref + merge * inv.speed, raw + merge

    def trace_corpus(self, specs: list[Path]) -> dict:
        """Write the corpus from a traced interpreter; returns its spans."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        self.corpus.mkdir(parents=True)
        args = ["synth"]
        for spec, job in zip(specs, self.jobs):
            args += [str(spec), str(job.seed), job.subdir]
        rep = self.scaled(self.invoke(child_argv(args)))
        self.workload.merge(self.corpus, self.jobs)
        return rep["spans"] | rep["counts"]

    def prepare_truth(self) -> None:
        from workloads import build_truth

        truth = [ft for job in self.jobs for ft in build_truth(job)]
        self.expected = self.workload.expected(truth)
        self.info.update(
            n_files=len(truth),
            n_samples=sum(ft.n_samples for ft in truth),
            bytes=sum(p.stat().st_size for p in self.corpus.rglob("*.svc")),
        )
        self.last_calibration = None  # stale after this much work

    # -- measured invocations ------------------------------------------------

    def output_of(self, inv: Invocation) -> bytes:
        out = self.workload.output_path()
        return (self.corpus / out).read_bytes() if out else inv.stdout

    def accept(self, code: int, output: bytes, what: str) -> bool:
        """Check one invocation's exit code and output; count the attempt."""
        self.attempted += 1
        errors = [f"exit code {code}"] if code != 0 else []
        if not errors:
            if self.reference is None:
                errors = self.workload.check(output, self.expected)
                if not errors:
                    self.reference = output
            elif output != self.reference:
                errors = ["output differs from the first checked output"]
        if errors:
            self.failed += 1
            self.errors.append(f"{what}: {errors[0]}")
        return not errors

    def cli(self) -> Invocation:
        inv = self.invoke(penair_argv(self.workload.argv()))
        self.accept(inv.code, self.output_of(inv) if inv.code == 0 else b"", "cli")
        return inv

    def closed_loop(self, step) -> list:
        results = []
        start = time.perf_counter()
        while len(results) < MIN_INVOCATIONS or time.perf_counter() - start < self.seconds:
            results.append(step())
        return results

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> dict:
        specs = self.write_specs()
        setup = [self.write_corpus(specs) for _ in range(SETUP_REPS)]
        self.prepare_truth()
        runs = [inv for inv in self.closed_loop(self.cli) if inv.code == 0]
        if not runs:
            raise RunAborted("no invocation succeeded")
        wall = median([r.ref_wall_s for r in runs])
        self.info.update(
            invocations=len(runs),
            raw_wall_s=median([r.wall_s for r in runs]),
            speed=median([r.speed for r in runs]),
            raw_setup_s=median([raw for _, raw in setup]),
            setup_reps=len(setup),
        )
        return {
            "wall_s": wall,
            "samples_per_s": self.info["n_samples"] / wall,
            "peak_rss_mb": median([r.rss_mb for r in runs]),
            "setup_s": median([ref for ref, _ in setup]),
        }

    def traced(self) -> dict:
        specs = self.write_specs()
        synth = self.trace_corpus(specs)
        self.prepare_truth()
        # untraced and traced invocations alternate, so each traced one has an
        # untraced neighbour run under nearly the same host load
        pairs = [(inv, rep) for inv, rep in self.closed_loop(
            lambda: (self.cli(), self.traced_rep())) if inv.code == 0 and rep is not None]
        if not pairs:
            raise RunAborted("no untraced and traced pair of invocations succeeded")
        untraced = [inv for inv, _ in pairs]
        reps = [rep for _, rep in pairs]
        sweeps = [self.scaled(self.invoke(child_argv(["sweep", str(self.seed)])))
                  for _ in range(SWEEP_REPS)]

        def span(name, rows=reps):
            return median([r["spans"].get(name, 0.0) for r in rows])

        def count(name):
            return median([r["counts"].get(name, 0) for r in reps])

        metrics = {name: span(name) for name in PER_LAYER if name.endswith("_s")}
        metrics.update({name: count(name) for name in PER_LAYER if not name.endswith("_s")})
        for n in (20, 40, 60, 80):
            name = f"stats.exact_sweep_s.n{n}"
            metrics[name] = span(name, sweeps)
        metrics["ingest.parse_samples_per_s"] = median(
            [r["counts"]["ingest.samples"] / r["spans"]["ingest.parse_s"] for r in reps])
        for name in ("synth.corpus_s", "synth.samples_written", "synth.bytes_written"):
            metrics[name] = synth[name]
        metrics["cli.unaccounted_s"] = median(
            [r["wall_s"] - sum(r["spans"].get(s, 0.0) for s in TOP_LEVEL_SPANS) for r in reps])
        metrics["trace.overhead_s"] = median(
            [rep["wall_s"] - inv.ref_wall_s for inv, rep in pairs])
        metrics["cli.cpu_s"] = median([u.cpu_s * u.speed for u in untraced])
        metrics["ops_failed_ratio"] = self.failed / self.attempted
        self.info.update(traced_reps=len(reps), untraced_reps=len(untraced),
                         speed=median([u.speed for u in untraced]))
        return metrics

    def traced_rep(self) -> dict | None:
        inv = self.invoke(child_argv(["cli", *self.workload.argv()]))
        output = b""
        if inv.code == 0:
            output = (self.corpus / "trace.out").read_bytes()
        if not self.accept(inv.code, output, "traced"):
            return None
        rep = self.scaled(inv)
        # the aggregate probe runs after the pipeline; it is not the command's time
        rep["wall_s"] = (inv.wall_s - rep["probe_s"]) * inv.speed
        return rep

    def scaled(self, inv: Invocation) -> dict:
        """A trace child's report with its spans in reference seconds."""
        if inv.code != 0:
            raise RunAborted(f"trace child exited {inv.code}: "
                             + (self.corpus / ".stderr").read_text()[-500:])
        rep = json.loads(inv.stdout)
        if not Path(rep["penair_file"]).resolve().is_relative_to(SRC.resolve()):
            raise RunAborted(f"trace child imported penair from {rep['penair_file']}")
        rep["spans"] = {k: v * inv.speed for k, v in rep["spans"].items()}
        return rep


def environment(run: Run) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": run.workload.name,
        "seed": run.seed,
        "scale": run.workload.scale,
        **run.info,
        "output_sha256": hashlib.sha256(run.reference).hexdigest() if run.reference else None,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    if not (SRC / "penair" / "__init__.py").is_file():
        sys.stderr.write(f"error: no penair package under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    launcher = Launcher()
    run = Run(WORKLOADS[name](scale), seed, seconds, launcher)
    try:
        values = run.traced() if trace else run.end_to_end()
    except RunAborted as exc:
        sys.stderr.write(f"error: {exc}\n")
        for line in run.errors[:10]:
            sys.stderr.write(f"  {line}\n")
        return 1
    finally:
        launcher.close()
    units = PER_LAYER if trace else END_TO_END
    env = environment(run)
    print("env " + json.dumps(env, sort_keys=True))
    for line in run.errors[:10]:
        print(f"check failed: {line}")
    correct = not run.errors
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                code = 1
                combined["correct"] = False
                print(f"[{name} trace={trace}] exited {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            for key, m in result["metrics"].items():
                print(f"[{name} trace={trace}] {key} = {m['value']:.6g} {m['unit']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="corpus_features, compare_exact, long_recording or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small files, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.scale)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOAD_NAMES)}, all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
