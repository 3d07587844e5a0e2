"""Command line interface.

Subcommands: parse, segment, features, aggregate, compare, synth, render.
Data goes to stdout (or --out PATH); diagnostics go to stderr. Exit codes:
0 success, 1 usage error, 2 parse/format error, 3 empty-cohort or
degenerate-data error. Manifest commands read their files in one forked
process per usable CPU; output and warnings keep manifest order. The
single-file commands (parse, segment, render) parse their recording in this
process. A command imports only the modules it runs: synth and the rank tests
load in their handlers, pickle only when forking.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from itertools import islice
from operator import ne
from pathlib import Path

from .errors import (
    DegenerateDataError,
    EmptyCohortError,
    InsufficientDataError,
    ParseError,
    PenAirError,
)
from .features import AnomalyPolicy, Feature, aggregate_cohort, feature_vector
from .ingest import (
    MANIFEST_HEADER,
    ParseOptions,
    ParseWarning,
    SampleStream,
    read_manifest,
    read_session,
)
from .report import (
    RunConfig,
    TableFormat,
    format_table,
    render_p_table,
    render_time_table,
    render_trajectories,
)
from .segmentation import SegmentationConfig, segment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        # argparse prints this type's message but reports a ValueError as "invalid _fraction value"
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gap-factor", type=_fraction, default=SegmentationConfig.gap_factor,
                        metavar="F", help="gap threshold multiple of the modal period "
                        f"(default {SegmentationConfig.gap_factor})")
    common.add_argument("--min-gap-ticks", type=int, default=None, metavar="N",
                        help="absolute floor for the gap threshold (default none)")
    common.add_argument("--anomaly-threshold", type=_fraction, default=AnomalyPolicy.threshold,
                        metavar="R", help="in-air-long share marking a file anomalous "
                        f"(default {float(AnomalyPolicy.threshold):g})")
    common.add_argument("--exact-limit", type=int, default=RunConfig.exact_limit, metavar="N",
                        help="largest pooled size for the exact test "
                        f"(default {RunConfig.exact_limit})")
    common.add_argument("--format", choices=[TableFormat.CSV, TableFormat.MARKDOWN],
                        default=TableFormat.CSV, dest="table_format",
                        help="table output format (default csv)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output here instead of stdout")
    common.add_argument("--derive-status-from-pressure", action="store_true",
                        help="ignore the status column; on-surface means pressure > 0")

    parser = _Parser(prog="penair", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse one recording and report summary statistics")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("segment", parents=[common], help="list the strokes of one recording")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_segment)

    p = sub.add_parser("features", parents=[common], help="per-file feature vectors for a corpus manifest")
    p.add_argument("manifest")
    p.set_defaults(handler=_cmd_features)

    p = sub.add_parser("aggregate", parents=[common], help="cohort mean-time table for a corpus manifest")
    p.add_argument("manifest")
    p.set_defaults(handler=_cmd_aggregate)

    p = sub.add_parser("compare", parents=[common], help="rank tests between two cohorts, per task and feature")
    p.add_argument("manifest")
    p.add_argument("--cohort-a", required=True, metavar="NAME")
    p.add_argument("--cohort-b", required=True, metavar="NAME")
    p.add_argument("--database", default=None, metavar="NAME",
                   help="restrict the comparison to one database label")
    p.set_defaults(handler=_cmd_compare)

    # synth takes its knobs from the spec, so none of the common flags
    p = sub.add_parser("synth", help="generate a synthetic corpus with a manifest")
    p.add_argument("--spec", required=True, metavar="FILE", help="corpus description (INI format)")
    p.add_argument("--seed", required=True, type=int, metavar="N")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the recordings and manifest.csv")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("render", parents=[common], help="render one recording's trajectories to SVG")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_render)

    return parser


def _run_config(args) -> RunConfig:
    return RunConfig(
        gap_factor=args.gap_factor,
        min_gap_ticks=args.min_gap_ticks,
        anomaly_threshold=args.anomaly_threshold,
        exact_limit=args.exact_limit,
        table_format=args.table_format,
    )


def _parse_options(args) -> ParseOptions:
    return ParseOptions(derive_status_from_pressure=args.derive_status_from_pressure)


def _print_warnings(warnings: tuple[ParseWarning, ...], shown_path: str) -> None:
    for w in warnings:
        sys.stderr.write(f"WARN {shown_path}:{w.line} {w.message}\n")


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_recording(args) -> SampleStream:
    """read_session of the single-file commands, its warnings printed."""
    stream = read_session(args.file, _parse_options(args))
    _print_warnings(stream.warnings, args.file)
    return stream


def _cmd_parse(args, cfg: RunConfig) -> int:
    stream = _read_recording(args)
    t, status, pressure = stream.t, stream.status, stream.pressure
    header = ("source", "n_samples", "t_first", "t_last", "span",
              "status_transitions", "pressure_min", "pressure_max", "warnings")
    row = (args.file, len(t), t[0], t[-1], t[-1] - t[0],
           sum(map(ne, status, islice(status, 1, None))), min(pressure), max(pressure),
           len(stream.warnings))
    _emit(format_table(header, [tuple(map(str, row))], cfg.table_format), args)
    return EXIT_OK


def _cmd_segment(args, cfg: RunConfig) -> int:
    seg = segment(_read_recording(args), cfg.segmentation_config())
    header = ("class", "start_t", "end_t", "duration", "n_samples")
    rows = [
        (s.cls.value, str(s.start_t), str(s.end_t), str(s.duration), str(s.n_samples))
        for s in seg.strokes
    ]
    _emit(format_table(header, rows, cfg.table_format), args)
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run workers on: its affinity mask where the
    platform has one (so ``taskset`` narrows it), else the machine's count;
    1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reduce_files(records, opts: ParseOptions, seg_cfg, policy) -> list:
    """read_session -> segment -> feature_vector for each record, in order.

    Returns ``(warnings, vector)`` per record. At the first PenAirError or
    OSError it stops and returns that exception as the last entry.
    """
    results = []
    for record in records:
        try:
            stream = read_session(record.path, opts)
            vector = feature_vector(segment(stream, seg_cfg), policy, record)
        except (PenAirError, OSError) as exc:
            results.append(exc)
            break
        results.append((stream.warnings, vector))
    return results


def _fan_out(records, workers: int, context) -> list:
    """``_reduce_files`` on each share ``records[w::workers]`` in one forked
    child, merged back into manifest order; entries after a share's exception
    stay None. Every child is read and reaped before any is judged: one that
    exited without sending raises ChildProcessError, one that hit a bug its
    RuntimeError."""
    # raw fork, not a multiprocessing pool: the CLI runs no threads, and a
    # pool's import and start-up ate most of the saving when measured
    import pickle  # before the fork, so the children inherit it loaded

    children, fds = [], ()
    try:
        for w in range(workers):
            fds = os.pipe()
            pid = os.fork()
            if pid == 0:
                # never returns into the CLI and never writes to stdout or stderr:
                # a child that got back to main would print the table a second time
                status = 1
                try:
                    os.close(fds[0])
                    try:
                        result = _reduce_files(records[w::workers], *context)
                    except Exception:  # a bug: the parent raises it with this traceback
                        import traceback

                        result = RuntimeError(f"worker process failed:\n{traceback.format_exc()}")
                    with open(fds[1], "wb") as pipe:
                        pickle.dump(result, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds[1])
            children.append((pid, fds[0]))
            fds = ()
    except BaseException:
        # a pipe or fork failed: read ends first, so that a child blocked on a
        # full pipe fails its write and exits, then reap every child started
        for fd in [read_fd for _, read_fd in children] + list(fds):
            os.close(fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
        raise
    payloads = []
    for pid, read_fd in children:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
        payloads.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data))
    merged = [None] * len(records)
    for w, (status, data) in enumerate(payloads):
        if status != 0:
            raise ChildProcessError(
                f"worker process exited with status {status} before sending its results")
        share = pickle.loads(data)
        if isinstance(share, RuntimeError):
            raise share
        merged[w:w + workers * len(share):workers] = share
    return merged


def _collect_vectors(manifest_path: str, args, cfg: RunConfig):
    records = read_manifest(manifest_path)
    context = (_parse_options(args), cfg.segmentation_config(), cfg.anomaly_policy())
    workers = min(len(records), _usable_cpus())
    results = (_fan_out(records, workers, context) if workers > 1
               else _reduce_files(records, *context))
    vectors = []
    for record, result in zip(records, results):
        if isinstance(result, ParseError) and result.line is not None:
            # a row error names its line, not its file: add it, as WARN lines do
            raise ParseError(f"{record.path}: {result}") from result
        if isinstance(result, Exception):
            raise result
        warnings, vector = result
        _print_warnings(warnings, str(record.path))
        vectors.append(vector)
    return vectors


def _cmd_features(args, cfg: RunConfig) -> int:
    vectors = _collect_vectors(args.manifest, args, cfg)
    header = MANIFEST_HEADER + tuple(f.value for f in Feature) + ("anomalous",)
    rows = []
    for v in vectors:
        rec = v.source
        rows.append(
            (str(rec.path), rec.database, rec.task, rec.subject, rec.cohort)
            + tuple(str(v.value(f)) for f in Feature)
            + ("true" if v.anomalous else "false",)
        )
    _emit(format_table(header, rows, cfg.table_format), args)
    return EXIT_OK


def _cmd_aggregate(args, cfg: RunConfig) -> int:
    vectors = _collect_vectors(args.manifest, args, cfg)
    if not vectors:
        raise EmptyCohortError("manifest lists no files")
    groups: dict[tuple[str, str, str], list] = {}
    for v in vectors:
        rec = v.source
        groups.setdefault((rec.database, rec.cohort, rec.task), []).append(v)
    summaries = [aggregate_cohort(groups[key]) for key in sorted(groups)]
    _emit(render_time_table(summaries, cfg.table_format), args)
    return EXIT_OK


def _cmd_compare(args, cfg: RunConfig) -> int:
    vectors = _collect_vectors(args.manifest, args, cfg)
    if args.database is not None:
        vectors = [v for v in vectors if v.source.database == args.database]
    for v in vectors:  # compare_cohorts drops anomalous files: name each one
        rec = v.source
        if v.anomalous and rec.cohort in (args.cohort_a, args.cohort_b):
            sys.stderr.write(f"WARN {rec.path} anomalous: excluded from comparison "
                             f"(cohort {rec.cohort}, task {rec.task})\n")
    side_a = [v for v in vectors if v.source.cohort == args.cohort_a]
    side_b = [v for v in vectors if v.source.cohort == args.cohort_b]
    if not side_a or not side_b:
        raise EmptyCohortError(
            f"no files for cohort {args.cohort_a!r}" if not side_a
            else f"no files for cohort {args.cohort_b!r}"
        )
    from .stats import compare_cohorts

    tasks = sorted({v.source.task for v in side_a} | {v.source.task for v in side_b})
    results = [
        compare_cohorts(side_a, side_b, task, feature, cfg.exact_limit)
        for task in tasks
        for feature in Feature
    ]
    if cfg.table_format == TableFormat.MARKDOWN:
        _emit(render_p_table(results, TableFormat.MARKDOWN), args)
        return EXIT_OK
    header = ("task", "feature", "n_A", "n_B", "U_A", "p", "method", "significant")
    rows = [
        (
            r.task,
            r.feature.value,
            str(r.u.n_a),
            str(r.u.n_b),
            _number(r.u.u_a),
            repr(float(r.p)),
            r.method,
            "true" if r.significant else "false",
        )
        for r in results
    ]
    _emit(format_table(header, rows, cfg.table_format), args)
    return EXIT_OK


def _number(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def _cmd_synth(args, cfg: None) -> int:
    from .synth import generate_corpus, read_corpus_spec

    spec = read_corpus_spec(args.spec)
    manifest = generate_corpus(spec, args.out, args.seed)
    sys.stdout.write(f"{manifest}\n")
    return EXIT_OK


def _cmd_render(args, cfg: RunConfig) -> int:
    stream = _read_recording(args)
    seg = segment(stream, cfg.segmentation_config())
    _emit(render_trajectories(stream, seg), args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by --help (0) and usage errors (1)
        return int(exc.code or 0)
    try:
        cfg = None if args.command == "synth" else _run_config(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    # penair's data holds no reference cycles, so the cyclic collector would
    # only walk the parsed columns and strokes again and again: a command runs
    # with it paused (forked workers inherit that); library calls leave it alone
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args, cfg)
    except (EmptyCohortError, DegenerateDataError, InsufficientDataError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except (PenAirError, OSError) as exc:  # any other library error is a data problem
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FORMAT
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
