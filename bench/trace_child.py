"""Traced run of one workload in a fresh interpreter.

Modes (the working directory is the workload's corpus directory):

    trace_child.py cli <penair args...>   run the CLI pipeline for these args
    trace_child.py synth <spec> <seed> <subdir> [...]   write the corpus
    trace_child.py sweep <seed>           time exact_p at pooled sizes 20..80

``cli`` parses the arguments with the CLI's own parser, then calls the public
functions of ingest, segmentation, features, stats and report in the order
the CLI calls them for that command (``features``, ``compare`` with csv
output, or ``render``), and times each call from here. Calls a layer makes
internally (``nominal_period`` and ``detect_gaps`` inside ``segment``;
``mann_whitney_u``, ``exact_p`` and ``approx_p`` inside ``compare_cohorts``)
are timed by wrapping those module attributes for the life of this process;
the package source is untouched.
The output the CLI would print is written to ``trace.out`` so the parent can
compare it with the untraced CLI's. One JSON object of spans and counts goes
to stdout.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

_T_START = time.perf_counter()

SPANS: dict[str, float] = defaultdict(float)
COUNTS: dict[str, float] = defaultdict(int)


def _wrap(module, name: str, span: str, on_call=None) -> None:
    inner = getattr(module, name)

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            SPANS[span] += time.perf_counter() - t
            if on_call is not None:
                on_call(*args)

    setattr(module, name, timed)


def _import_penair():
    t = time.perf_counter()
    import penair.cli  # noqa: F401  the CLI pays for importing all of it

    SPANS["cli.import_s"] = time.perf_counter() - t
    return penair


def run_cli(argv: list[str]) -> None:
    penair = _import_penair()
    from penair import cli, features, ingest, report, segmentation, stats
    from workloads import COMPARE_HEADER, FEATURE_HEADER, compare_row, feature_row

    args = cli.build_parser().parse_args(argv)

    # distinct keys of the exact null-distribution cache, taken outside the
    # exact_p span and with the unwrapped U so stats.u_s counts only the CLI's calls
    exact_keys = set()
    original_u = stats.mann_whitney_u
    _wrap(segmentation, "nominal_period", "segmentation.period_s")
    _wrap(segmentation, "detect_gaps", "segmentation.gaps_s")
    _wrap(stats, "mann_whitney_u", "stats.u_s")

    def note_exact(a, b, *rest):
        COUNTS["stats.exact_calls"] += 1
        exact_keys.add((original_u(a, b).tie_profile, len(a)))

    def note_approx(*_):
        COUNTS["stats.approx_calls"] += 1

    _wrap(stats, "exact_p", "stats.exact_s", note_exact)
    _wrap(stats, "approx_p", "stats.approx_s", note_approx)

    cfg = report.RunConfig(
        gap_factor=args.gap_factor,
        min_gap_ticks=args.min_gap_ticks,
        anomaly_threshold=args.anomaly_threshold,
        exact_limit=args.exact_limit,
        table_format=args.table_format,
    )
    seg_cfg = cfg.segmentation_config()
    policy = cfg.anomaly_policy()
    opts = ingest.ParseOptions(derive_status_from_pressure=args.derive_status_from_pressure)

    def load(path, record=None):
        t = time.perf_counter()
        text = Path(path).read_text(encoding="utf-8-sig")
        t1 = time.perf_counter()
        stream = ingest.parse_session(text, opts, source_id=str(path))
        t2 = time.perf_counter()
        seg = segmentation.segment(stream, seg_cfg)
        t3 = time.perf_counter()
        vec = features.feature_vector(seg, policy, record)
        t4 = time.perf_counter()
        SPANS["ingest.read_s"] += t1 - t
        SPANS["ingest.parse_s"] += t2 - t1
        SPANS["segmentation.segment_s"] += t3 - t2
        SPANS["features.vector_s"] += t4 - t3
        COUNTS["ingest.samples"] += len(stream.samples)
        COUNTS["ingest.bytes"] += len(text.encode("utf-8"))
        COUNTS["ingest.dropped_rows"] += len(stream.warnings)
        COUNTS["segmentation.strokes"] += len(seg.strokes)
        COUNTS["segmentation.gaps"] += seg.class_counts[segmentation.StrokeClass.IN_AIR_LONG]
        COUNTS["features.anomalous_files"] += vec.anomalous
        return stream, seg, vec

    if args.command == "render":
        stream, seg, vec = load(args.file)
        vectors = [vec]
        t = time.perf_counter()
        out = report.render_trajectories(stream, seg)
        SPANS["report.svg_s"] += time.perf_counter() - t
    else:
        t = time.perf_counter()
        manifest = ingest.read_manifest(args.manifest)
        SPANS["ingest.manifest_s"] += time.perf_counter() - t
        vectors = [load(rec.path, rec)[2] for rec in manifest]
        if args.command == "features":
            header, rows = FEATURE_HEADER, [feature_row(v) for v in vectors]
        elif args.command == "compare" and cfg.table_format == report.TableFormat.CSV:
            header = COMPARE_HEADER
            rows = [compare_row(r) for r in _compare(vectors, args, features.Feature, stats,
                                                     cfg.exact_limit)]
        else:
            raise SystemExit(f"cannot trace penair {' '.join(argv)}")
        t = time.perf_counter()
        out = report.format_table(header, rows, cfg.table_format)
        SPANS["report.table_s"] += time.perf_counter() - t
    Path("trace.out").write_text(out, encoding="utf-8")
    COUNTS["report.bytes_out"] = len(out.encode("utf-8"))
    pipeline_end = time.perf_counter()

    # not part of the workload's command: one aggregate per cohort, as the
    # aggregate command would; its time is reported so the parent can drop it
    groups = defaultdict(list)
    for v in vectors:
        src = v.source
        groups[(src.database, src.cohort, src.task) if src else ()].append(v)
    t = time.perf_counter()
    for key in sorted(groups):
        features.aggregate_cohort(groups[key])
    SPANS["features.aggregate_s"] = time.perf_counter() - t
    calls = COUNTS["stats.exact_calls"]
    COUNTS["stats.exact_distinct_ratio"] = len(exact_keys) / calls if calls else 0.0
    _emit(penair, probe_s=time.perf_counter() - pipeline_end)


def _compare(vectors, args, Feature, stats, exact_limit):
    # the cohort selection of the CLI's compare command; empty cohorts are not traced
    if args.database is not None:
        vectors = [v for v in vectors if v.source.database == args.database]
    side_a = [v for v in vectors if v.source.cohort == args.cohort_a]
    side_b = [v for v in vectors if v.source.cohort == args.cohort_b]
    tasks = sorted({v.source.task for v in side_a} | {v.source.task for v in side_b})
    results = []
    for task in tasks:
        for feature in Feature:
            t = time.perf_counter()
            results.append(stats.compare_cohorts(side_a, side_b, task, feature, exact_limit))
            SPANS["stats.compare_s"] += time.perf_counter() - t
    return results


def run_synth(jobs: list[tuple[str, str, str]]) -> None:
    penair = _import_penair()
    from penair import synth

    def note_written(stream):
        COUNTS["synth.samples_written"] += len(stream.samples)

    inner = synth.serialize_session

    def serialize(stream):
        text = inner(stream)
        note_written(stream)
        COUNTS["synth.bytes_written"] += len(text.encode("utf-8"))
        return text

    synth.serialize_session = serialize
    for spec_path, seed, subdir in jobs:
        t = time.perf_counter()
        spec = synth.read_corpus_spec(spec_path)
        synth.generate_corpus(spec, subdir or ".", int(seed))
        SPANS["synth.corpus_s"] += time.perf_counter() - t
    _emit(penair)


SWEEP_SIZES = (20, 40, 60, 80)


def run_sweep(seed: int) -> None:
    """Time exact_p once per pooled size, each on a fresh tie profile, with
    the null-distribution cache cold because this interpreter is new."""
    penair = _import_penair()
    for n in SWEEP_SIZES:
        rng = random.Random(f"{seed}:sweep:{n}")
        # half the pool drawn from a narrow range (ties), half from a wide one
        pool = [rng.randrange(n // 4) for _ in range(n // 2)]
        pool += [rng.randrange(10**6) for _ in range(n - n // 2)]
        rng.shuffle(pool)
        a, b = pool[: n // 2], pool[n // 2:]
        t = time.perf_counter()
        penair.exact_p(a, b, exact_limit=n)
        SPANS[f"stats.exact_sweep_s.n{n}"] = time.perf_counter() - t
    _emit(penair)


def _emit(penair, probe_s: float = 0.0) -> None:
    json.dump({"spans": SPANS, "counts": COUNTS, "probe_s": probe_s,
               "penair_file": penair.__file__,
               "in_process_s": time.perf_counter() - _T_START}, sys.stdout)
    sys.stdout.write("\n")


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "cli":
        run_cli(rest)
    elif mode == "synth":
        run_synth([tuple(rest[i:i + 3]) for i in range(0, len(rest), 3)])
    elif mode == "sweep":
        run_sweep(int(rest[0]))
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
