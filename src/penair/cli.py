"""Command line interface.

Subcommands: parse, segment, features, aggregate, compare, synth, render.
Each handler returns its output text (a table, an SVG, or the manifest path
synth wrote to its --out DIR); main alone writes it, the same UTF-8 bytes to
--out PATH or else to stdout under any locale, and main alone maps an error
to its stderr line and exit code: 0 success, 1 usage error, 2 parse/format
error, 3 empty-cohort or degenerate-data error. WARN and error lines go to
stderr, as UTF-8 bytes too.
Manifest commands read their files, compare runs its rank tests, and synth
generates its corpus's files in this process and one forked process per
further usable CPU; output, warnings and the error reported keep manifest
order, and a corpus is the same bytes at any count.
The single-file commands (parse, segment, render) parse their recording in
this process. A command imports only the modules it runs: synth and the rank
tests load in their handlers, pickle only when forking.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
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
from .segmentation import SegmentationConfig, as_fraction, segment, status_changes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_DEGENERATE = 3


def _write(stream, text: str) -> None:
    """``text`` to ``stream`` as UTF-8 bytes whatever the locale, after what
    its text layer holds, and flushed, as stderr's text layer flushes each
    line; a stream without bytes (a StringIO) takes the text."""
    if hasattr(stream, "buffer"):
        stream.flush()
        stream.buffer.write(text.encode("utf-8"))
        stream.buffer.flush()
    else:
        stream.write(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        _write(sys.stderr, f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        # argparse prints this type's message but reports a ValueError as "invalid _fraction value"
        raise argparse.ArgumentTypeError(str(exc)) from None


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
                        help="replace the status (still 0 or 1) by pressure > 0")

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
    p.add_argument("--out", required=True, metavar="DIR", dest="out_dir",
                   help="directory for the recordings and manifest.csv")
    # args.out is the output file everywhere; synth prints its manifest path
    p.set_defaults(handler=_cmd_synth, out=None)

    p = sub.add_parser("render", parents=[common], help="render one recording's trajectories to SVG")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_render)

    return parser


def _from_flags(cls, args):
    """The config class ``cls`` built from the flags that carry its field names."""
    return cls(**{name: getattr(args, name) for name in cls._fields})


def _print_warnings(warnings: tuple[ParseWarning, ...], shown_path: str) -> None:
    for w in warnings:
        _write(sys.stderr, f"WARN {shown_path}:{w.line} {w.message}\n")


def _read_recording(args) -> SampleStream:
    """read_session of the single-file commands, its warnings printed."""
    stream = read_session(args.file, _from_flags(ParseOptions, args))
    _print_warnings(stream.warnings, args.file)
    return stream


def _cmd_parse(args, cfg: RunConfig) -> str:
    stream = _read_recording(args)
    t, status, pressure = stream.t, stream.status, stream.pressure
    header = ("source", "n_samples", "t_first", "t_last", "span",
              "status_transitions", "pressure_min", "pressure_max", "warnings")
    row = (args.file, len(t), t[0], t[-1], t[-1] - t[0],
           len(status_changes(status)), min(pressure), max(pressure),
           len(stream.warnings))
    return format_table(header, [tuple(map(str, row))], cfg.table_format)


def _cmd_segment(args, cfg: RunConfig) -> str:
    seg = segment(_read_recording(args), cfg.segmentation_config())
    header = ("class", "start_t", "end_t", "duration", "n_samples")
    rows = [
        (s.cls.value, str(s.start_t), str(s.end_t), str(s.duration), str(s.n_samples))
        for s in seg.strokes
    ]
    return format_table(header, rows, cfg.table_format)


def _usable_cpus() -> int:
    """CPUs this process may run workers on: its affinity mask where the
    platform has one (so ``taskset`` narrows it), else the machine's count;
    1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reduce_file(opts: ParseOptions, seg_cfg, policy, record):
    """read_session -> segment -> feature_vector of one manifest record:
    ``(warnings, vector)``. A row's ParseError names its line, not its file:
    it is raised again with the path in front, as WARN lines have it."""
    try:
        stream = read_session(record.path, opts)
    except ParseError as exc:
        if exc.line is None:
            raise
        raise ParseError(f"{record.path}: {exc}") from exc
    return stream.warnings, feature_vector(segment(stream, seg_cfg), policy, record)


def _fan_out(step, items, context) -> tuple[list, Exception | None]:
    """``step(*context, item)`` on each item up to the first that raises
    PenAirError or OSError: ``(results, failure)``, the results of the items
    before it and its exception, else every result and None. With one worker
    per usable CPU, worker ``w`` runs the share ``items[w::workers]`` and stops
    at its own first failure: worker 0 is this process, and each other worker
    a forked child, so one usable CPU or one item forks nothing. The earliest
    failure in item order is the one a serial run stops at. The children are
    judged in order once this process's share is done: one that exited
    without sending raises ChildProcessError, one that hit a bug its
    RuntimeError. Every child is reaped on every path, a bug or an interrupt
    in this process's own share included."""

    def run(share):
        results = []
        for item in share:
            try:
                results.append(step(*context, item))
            except (PenAirError, OSError) as exc:
                return results, exc
        return results, None

    workers = max(1, min(len(items), _usable_cpus()))
    # raw fork, not a multiprocessing pool: the CLI runs no threads, and a
    # pool's import and start-up ate most of the saving when measured
    pids, pipes = [], []  # the children not yet reaped, and every read end
    try:
        for w in range(1, workers):
            import pickle  # before each fork, so the children inherit it loaded

            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as sink:  # this process's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    # never returns into the CLI and never writes to stdout or stderr:
                    # a child that got back to main would print the table a second time
                    status = 1
                    try:
                        # with no read end left here, a write the parent will not
                        # read fails at once instead of blocking
                        for pipe in pipes:
                            pipe.close()
                        try:
                            result = run(items[w::workers])
                        except Exception:  # a bug: the parent raises it with this traceback
                            import traceback

                            result = RuntimeError(
                                f"worker process failed:\n{traceback.format_exc()}")
                        pickle.dump(result, sink)
                        sink.close()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        shares = [run(items[0::workers])]
        for pipe in pipes:
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if status != 0:
                raise ChildProcessError(
                    f"worker process exited with status {status} before sending its results")
            share = pickle.loads(data)
            if isinstance(share, RuntimeError):
                raise share
            shares.append(share)
    finally:
        # read ends first, so that a child blocked on a full pipe fails its
        # write and exits, then reap every child not yet reaped
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    merged, stop, failure = [None] * len(items), len(items), None
    for w, (results, exc) in enumerate(shares):
        at = w + workers * len(results)  # the share's next item: the one that failed, if any
        merged[w:at:workers] = results
        if exc is not None and at < stop:
            stop, failure = at, exc
    return merged[:stop], failure


def _collect_vectors(manifest_path: str, args, cfg: RunConfig):
    records = read_manifest(manifest_path)
    context = (_from_flags(ParseOptions, args), cfg.segmentation_config(), cfg.anomaly_policy())
    results, failure = _fan_out(_reduce_file, records, context)
    for record, (warnings, _) in zip(records, results):
        _print_warnings(warnings, str(record.path))
    if failure is not None:
        raise failure
    return [vector for _, vector in results]


def _cmd_features(args, cfg: RunConfig) -> str:
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
    return format_table(header, rows, cfg.table_format)


def _cmd_aggregate(args, cfg: RunConfig) -> str:
    vectors = _collect_vectors(args.manifest, args, cfg)
    if not vectors:
        raise EmptyCohortError("manifest lists no files")
    groups: dict[tuple[str, str, str], list] = {}
    for v in vectors:
        rec = v.source
        groups.setdefault((rec.database, rec.cohort, rec.task), []).append(v)
    summaries = [aggregate_cohort(groups[key]) for key in sorted(groups)]
    return render_time_table(summaries, cfg.table_format)


def _cmd_compare(args, cfg: RunConfig) -> str:
    vectors = _collect_vectors(args.manifest, args, cfg)
    if args.database is not None:
        vectors = [v for v in vectors if v.source.database == args.database]
    for v in vectors:  # compare_cohorts drops anomalous files: name each one
        rec = v.source
        if v.anomalous and rec.cohort in (args.cohort_a, args.cohort_b):
            _write(sys.stderr, f"WARN {rec.path} anomalous: excluded from comparison "
                               f"(cohort {rec.cohort}, task {rec.task})\n")
    side_a = [v for v in vectors if v.source.cohort == args.cohort_a]
    side_b = [v for v in vectors if v.source.cohort == args.cohort_b]
    for cohort, side in ((args.cohort_a, side_a), (args.cohort_b, side_b)):
        if not side:
            where = "" if args.database is None else f" in database {args.database!r}"
            raise EmptyCohortError(f"no files for cohort {cohort!r}{where}")
    from .stats import compare_cohorts

    def rank_test(side_a, side_b, exact_limit, test):
        task, feature = test
        return compare_cohorts(side_a, side_b, task, feature, exact_limit)

    tasks = sorted({v.source.task for v in side_a} | {v.source.task for v in side_b})
    tests = [(task, feature) for task in tasks for feature in Feature]
    results, failure = _fan_out(rank_test, tests, (side_a, side_b, cfg.exact_limit))
    if failure is not None:
        raise failure
    if cfg.table_format == TableFormat.MARKDOWN:
        return render_p_table(results, TableFormat.MARKDOWN)
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
    return format_table(header, rows, cfg.table_format)


def _number(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def _cmd_synth(args, cfg: None) -> str:
    from .synth import corpus_members, member_text, read_corpus_spec, write_corpus

    spec = read_corpus_spec(args.spec)
    texts, refused = _fan_out(member_text, corpus_members(spec), (spec, args.seed))
    if refused is not None:
        raise refused
    return f"{write_corpus(spec, texts, args.out_dir)}\n"


def _cmd_render(args, cfg: RunConfig) -> str:
    stream = _read_recording(args)
    return render_trajectories(stream, segment(stream, cfg.segmentation_config()))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by --help (0) and usage errors (1)
        return int(exc.code or 0)
    try:
        cfg = None if args.command == "synth" else _from_flags(RunConfig, args)
        if args.command == "compare" and args.cohort_a == args.cohort_b:
            raise ValueError(f"--cohort-a and --cohort-b both name cohort {args.cohort_a!r}")
    except ValueError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_USAGE
    # penair's data holds no reference cycles, so the cyclic collector would
    # only walk the parsed columns and strokes again and again: a command runs
    # with it paused (forked workers inherit that); library calls leave it alone
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        text = args.handler(args, cfg)
        if args.out:
            Path(args.out).write_bytes(text.encode("utf-8"))
        else:
            _write(sys.stdout, text)
        return EXIT_OK
    except (PenAirError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}\n")
        # an empty cohort or degenerate data is 3; any other library error is a data problem
        degenerate = (EmptyCohortError, DegenerateDataError, InsufficientDataError)
        return EXIT_DEGENERATE if isinstance(exc, degenerate) else EXIT_FORMAT
    finally:
        if was_enabled:
            gc.enable()
