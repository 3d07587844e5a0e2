"""Deterministic generator for synthetic recordings with exact ground truth.

Sessions are built from a stroke plan: an alternating list of (class,
duration) entries in ticks. On-surface and short in-air entries emit samples
at the nominal period plus bounded jitter; a long in-air entry emits nothing
and survives only as a timestamp jump, exactly like a pen leaving tracking
range. The generator refuses parameter combinations that could make gap
detection ambiguous, and double-checks the emitted stream against the
intended gap threshold, so the returned ground truth is what segmentation
must recover.

Corpus generation derives one 64-bit seed per role from sha256 of
"{master_seed}:{label}". Per-sample draws call getrandbits with randint's own
rejection rule, so corpora are byte-identical to earlier releases and do not
depend on how randint is implemented.
"""

from __future__ import annotations

import hashlib
import random
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from .errors import SynthSpecError
from .ingest import MANIFEST_HEADER, SampleStream, csv_text, read_text, serialize_session
from .segmentation import SegmentationConfig, StrokeClass, detect_gaps, nominal_period


def file_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for one generation role under a master seed."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SynthSpec:
    """One synthetic session.

    stroke_plan entries are (class, duration in ticks). The plan must not
    start or end with IN_AIR_LONG (a gap with no sample on one side leaves no
    trace in the data) and may not repeat a class back to back. jitter is the
    maximum +/- applied to each sampling step; it must keep steps positive
    and keep period + jitter within the gap threshold at a modal period of
    period - jitter, the worst realized one, so no legitimate step can reach
    it. Long entries must exceed the threshold at period + jitter.
    """

    nominal_period: int
    jitter: int
    stroke_plan: tuple[tuple[StrokeClass, int], ...]
    seed: int
    gap_factor: Fraction = SegmentationConfig.gap_factor

    def __post_init__(self):
        object.__setattr__(self, "stroke_plan", tuple(tuple(e) for e in self.stroke_plan))
        p, j = self.nominal_period, self.jitter
        if p < 1:
            raise SynthSpecError(f"nominal_period must be >= 1, got {p}")
        try:
            cfg = SegmentationConfig(self.gap_factor)
        except ValueError as exc:
            raise SynthSpecError(str(exc)) from None
        object.__setattr__(self, "gap_factor", cfg.gap_factor)
        if j < 0 or p - j < 1:
            raise SynthSpecError(f"jitter must be in [0, period), got {j}")
        if p + j > cfg.gap_threshold(p - j):
            raise SynthSpecError(
                f"jitter {j} could blur gap detection: need "
                f"period + jitter <= gap_factor * (period - jitter)"
            )
        plan = self.stroke_plan
        if not plan:
            raise SynthSpecError("stroke plan is empty")
        worst = cfg.gap_threshold(p + j)
        for cls, dur in plan:
            if not isinstance(cls, StrokeClass):
                raise SynthSpecError(f"bad stroke class {cls!r}")
            if dur < 1:
                raise SynthSpecError(f"stroke durations must be >= 1, got {dur}")
            if cls is StrokeClass.IN_AIR_LONG and not dur > worst:
                raise SynthSpecError(
                    f"in-air-long duration {dur} must exceed the worst-case "
                    f"gap threshold {worst}"
                )
        for (a, _), (b, _) in zip(plan, plan[1:]):
            if a is b:
                raise SynthSpecError(f"consecutive {a.value} entries in plan")
        if plan[0][0] is StrokeClass.IN_AIR_LONG or plan[-1][0] is StrokeClass.IN_AIR_LONG:
            raise SynthSpecError("plan cannot start or end with an in-air-long entry")


@dataclass(frozen=True)
class GroundTruth:
    """Realized stroke boundaries and per-class totals of a generated session."""

    strokes: tuple[tuple[StrokeClass, int, int], ...]
    class_times: dict[StrokeClass, int]
    class_counts: dict[StrokeClass, int]


def generate_session(spec: SynthSpec) -> tuple[SampleStream, GroundTruth]:
    """Emit one session and its realized ground truth.

    Surface and short in-air entries place their first sample at the entry's
    start tick and step by period + jitter draws while inside the entry; the
    final plan entry closes with a sample exactly at its end. A long entry
    emits nothing, so the next entry's first sample lands one whole entry
    duration plus one step after the previous sample, and the realized long
    stroke spans that whole interval (boundaries follow the emitted samples,
    not the plan).
    """
    rng = random.Random(spec.seed)
    x, y = rng.randrange(2000, 6000), rng.randrange(2000, 6000)
    vx, vy = rng.randint(-4, 4), rng.randint(-4, 4)
    azimuth = rng.randrange(0, 360)
    altitude = rng.randint(30, 80)
    pressure = rng.randint(300, 700)
    # Per-sample draws run randint(lo, hi)'s own algorithm on getrandbits:
    # with n = hi - lo + 1, draw r = getrandbits(n.bit_length()) while r >= n,
    # then return lo + r. Same draws, same words consumed, same corpora.
    bits = rng.getrandbits
    step_lo = spec.nominal_period - spec.jitter
    n_step = 2 * spec.jitter + 1
    k_step = n_step.bit_length()
    plan = spec.stroke_plan
    last = len(plan) - 1
    columns: tuple[list[int], ...] = ([], [], [], [], [], [], [])
    xs, ys, ts, statuses, azimuths, altitudes, pressures = columns
    gt: list[tuple[StrokeClass, int, int]] = []
    seg_end = 0
    for i, (cls, dur) in enumerate(plan):
        seg_start, seg_end = seg_end, seg_end + dur
        if cls is StrokeClass.IN_AIR_LONG:
            # validated: never first, so ts[-1] exists
            gt.append((cls, ts[-1], seg_end))
            continue
        status = 1 if cls is StrokeClass.ON_SURFACE else 0
        emit_t = seg_start
        while True:
            while (r := bits(3)) >= 5:  # randint(-2, 2)
                pass
            vx += r - 2
            vx = 12 if vx > 12 else -12 if vx < -12 else vx
            while (r := bits(3)) >= 5:  # randint(-2, 2)
                pass
            vy += r - 2
            vy = 12 if vy > 12 else -12 if vy < -12 else vy
            x += vx
            y += vy
            while (r := bits(3)) >= 7:  # randint(-3, 3)
                pass
            azimuth = (azimuth + r - 3) % 360
            while (r := bits(2)) >= 3:  # randint(-1, 1)
                pass
            altitude += r - 1
            altitude = 85 if altitude > 85 else 15 if altitude < 15 else altitude
            if status:
                while (r := bits(6)) >= 51:  # randint(-25, 25)
                    pass
                pressure += r - 25
                pressure = 1000 if pressure > 1000 else 150 if pressure < 150 else pressure
            xs.append(x)
            ys.append(y)
            ts.append(emit_t)
            statuses.append(status)
            azimuths.append(azimuth)
            altitudes.append(altitude)
            pressures.append(pressure if status else 0)
            if emit_t == seg_end:  # the closing sample of the last entry
                break
            while (r := bits(k_step)) >= n_step:  # randint(-jitter, jitter)
                pass
            emit_t += step_lo + r
            if emit_t >= seg_end:
                if i < last:
                    break
                emit_t = seg_end
        # a stroke before a gap ends at its last sample, any other at its entry's end
        before_gap = i < last and plan[i + 1][0] is StrokeClass.IN_AIR_LONG
        gt.append((cls, seg_start, ts[-1] if before_gap else seg_end))
    stream = SampleStream.from_columns(*columns, source_id=f"synth:{spec.seed}")
    _verify_unambiguous(stream, spec, gt)
    times = {c: 0 for c in StrokeClass}
    counts = {c: 0 for c in StrokeClass}
    for cls, start, end in gt:
        times[cls] += end - start
        counts[cls] += 1
    return stream, GroundTruth(tuple(gt), times, counts)


def _verify_unambiguous(
    stream: SampleStream, spec: SynthSpec, gt: list[tuple[StrokeClass, int, int]]
) -> None:
    # Run the segmenter's own gap detection and confirm it finds exactly the
    # planned gaps. SynthSpec's invariants make failures impossible for sane
    # plans; this guards degenerate ones loudly.
    cfg = SegmentationConfig(spec.gap_factor)
    found = {(g.start_t, g.end_t) for g in detect_gaps(stream, cfg)}
    planned = {(start, end) for cls, start, end in gt if cls is StrokeClass.IN_AIR_LONG}
    if found == planned:
        return
    # the earliest interval on the wrong side of the threshold
    start, end = min(found ^ planned)
    threshold = cfg.gap_threshold(nominal_period(stream))
    if (start, end) in planned:
        raise SynthSpecError(
            f"seed {spec.seed}: planned gap {end - start} does not clear "
            f"threshold {threshold}"
        )
    raise SynthSpecError(
        f"seed {spec.seed}: sampling step {end - start} crosses threshold "
        f"{threshold}; ground truth would be ambiguous"
    )


@dataclass(frozen=True)
class IntRange:
    """Inclusive integer range for corpus draws."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise SynthSpecError(f"empty range {self.lo}..{self.hi}")

    def draw(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class PlanDistribution:
    """Random stroke-plan family for one cohort.

    A plan alternates on-surface and short in-air entries (surface first and
    last), then long in-air entries are inserted at distinct interior
    boundaries. The drawn gap count is clamped to the available boundaries.
    """

    surface_strokes: IntRange
    surface_ticks: IntRange
    air_ticks: IntRange
    gaps: IntRange
    gap_ticks: IntRange

    def __post_init__(self):
        if self.surface_strokes.lo < 1:
            raise SynthSpecError("plans need at least one on-surface stroke")
        if self.gaps.lo < 0:
            raise SynthSpecError("gap count cannot be negative")

    def build_plan(self, rng: random.Random) -> tuple[tuple[StrokeClass, int], ...]:
        entries: list[tuple[StrokeClass, int]] = []
        for k in range(self.surface_strokes.draw(rng)):
            if k:
                entries.append((StrokeClass.IN_AIR_SHORT, self.air_ticks.draw(rng)))
            entries.append((StrokeClass.ON_SURFACE, self.surface_ticks.draw(rng)))
        n_gaps = min(self.gaps.draw(rng), len(entries) - 1)
        for slot in sorted(rng.sample(range(1, len(entries)), n_gaps), reverse=True):
            entries.insert(slot, (StrokeClass.IN_AIR_LONG, self.gap_ticks.draw(rng)))
        return tuple(entries)


@dataclass(frozen=True)
class CohortSpec:
    n_files: int
    plan: PlanDistribution

    def __post_init__(self):
        if self.n_files < 1:
            raise SynthSpecError(f"cohort needs at least one file, got {self.n_files}")


@dataclass(frozen=True)
class CorpusSpec:
    """A whole corpus: shared timing parameters plus one plan family per cohort."""

    nominal_period: int
    jitter: int
    cohorts: dict[str, CohortSpec]
    database: str = "synth"
    task: str = "synth"
    gap_factor: Fraction = SegmentationConfig.gap_factor

    def __post_init__(self):
        if not self.cohorts:
            raise SynthSpecError("corpus spec declares no cohorts")
        # the manifest refuses an empty label or a NUL, so synth must not write one
        if not all(label.strip() for label in (self.database, self.task, *self.cohorts)):
            raise SynthSpecError("database, task and cohort names must not be empty")
        if "\0" in self.database + self.task:
            raise SynthSpecError("database and task names must not hold NUL")
        for name in self.cohorts:  # a cohort name starts its files' names
            if {"/", "\\", "\0"} & set(name):
                raise SynthSpecError(f"cohort name {name!r} holds '/', '\\' or NUL")
        # each range's smallest draw, so that no seed can draw an entry SynthSpec refuses
        for name, cohort in self.cohorts.items():
            dist = cohort.plan
            surface = (StrokeClass.ON_SURFACE, dist.surface_ticks.lo)
            shortest = (surface, (StrokeClass.IN_AIR_SHORT, dist.air_ticks.lo), surface,
                        (StrokeClass.IN_AIR_LONG, dist.gap_ticks.lo), surface)
            try:
                SynthSpec(self.nominal_period, self.jitter, shortest, 0, self.gap_factor)
            except SynthSpecError as exc:
                raise SynthSpecError(f"cohort {name!r}: {exc}") from None


def generate_corpus(
    spec: CorpusSpec, out_dir: str | Path, master_seed: int
) -> Path:
    """Write one file per cohort member plus ``manifest.csv``; returns the
    manifest path. Fully determined by (spec, master_seed): same inputs give
    byte-identical files. Every session is generated before anything is
    written, so a session the generator refuses leaves no files behind."""
    texts: list[str] = []
    rows: list[tuple[str, str, str, str, str]] = []
    for cohort_name, cohort in spec.cohorts.items():
        for i in range(cohort.n_files):
            plan_rng = random.Random(file_seed(master_seed, f"{cohort_name}:{i}:plan"))
            session = SynthSpec(
                nominal_period=spec.nominal_period,
                jitter=spec.jitter,
                stroke_plan=cohort.plan.build_plan(plan_rng),
                seed=file_seed(master_seed, f"{cohort_name}:{i}:session"),
                gap_factor=spec.gap_factor,
            )
            stream, _ = generate_session(session)
            texts.append(serialize_session(stream))
            name = f"{cohort_name}_{i:03d}.svc"
            rows.append((name, spec.database, spec.task, f"{cohort_name}_{i:03d}", cohort_name))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (name, *_), text in zip(rows, texts):
        (out / name).write_text(text, encoding="utf-8")
    manifest = out / "manifest.csv"
    manifest.write_text(csv_text(MANIFEST_HEADER, rows), encoding="utf-8", newline="")
    return manifest


def _parse_range(raw: str, context: str) -> IntRange:
    lo, sep, hi = raw.strip().partition("..")
    try:
        return IntRange(int(lo), int(hi if sep else lo))
    except ValueError:
        raise SynthSpecError(f"{context}: bad range {raw!r} (want N or LO..HI)") from None


def load_corpus_spec(text: str) -> CorpusSpec:
    """Parse the declarative corpus format (INI syntax).

    One ``[corpus]`` section with period, jitter, and optional gap_factor,
    database, and task; one ``[cohort NAME]`` section per cohort with files
    plus the plan ranges. Ranges are ``N`` or ``LO..HI`` inclusive::

        [corpus]
        period = 2
        jitter = 1
        database = clinic
        task = spiral

        [cohort control]
        files = 15
        surface_strokes = 4..8
        surface_ticks = 300..900
        air_ticks = 100..400
        gaps = 1..4
        gap_ticks = 60..140
    """
    parser = ConfigParser(interpolation=None)  # a % in a label is a plain character
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise SynthSpecError(f"bad corpus spec: {exc}") from None
    if "corpus" not in parser:
        raise SynthSpecError("corpus spec needs a [corpus] section")
    corpus = parser["corpus"]
    try:
        period = corpus.getint("period")
        jitter = corpus.getint("jitter", 0)
        gap_factor = Fraction(corpus.get("gap_factor", str(CorpusSpec.gap_factor)).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SynthSpecError(f"[corpus]: {exc}") from None
    if period is None:
        raise SynthSpecError("[corpus] must set period")
    cohorts: dict[str, CohortSpec] = {}
    for section in parser.sections():
        if section == "corpus":
            continue
        if not section.startswith("cohort "):
            raise SynthSpecError(f"unexpected section [{section}]")
        name = section[len("cohort "):].strip()
        if not name:
            raise SynthSpecError("cohort section needs a name")
        sec = parser[section]
        try:
            n_files = sec.getint("files")
        except ValueError as exc:
            raise SynthSpecError(f"[{section}]: {exc}") from None
        if n_files is None:
            raise SynthSpecError(f"[{section}] must set files")
        keys = [f.name for f in fields(PlanDistribution)]
        missing = [key for key in keys if key not in sec]
        if missing:
            raise SynthSpecError(f"[{section}] missing {', '.join(missing)}")
        plan = PlanDistribution(**{key: _parse_range(sec[key], section) for key in keys})
        cohorts[name] = CohortSpec(n_files, plan)
    return CorpusSpec(
        nominal_period=period,
        jitter=jitter,
        cohorts=cohorts,
        database=corpus.get("database", "synth").strip(),
        task=corpus.get("task", "synth").strip(),
        gap_factor=gap_factor,
    )


def read_corpus_spec(path: str | Path) -> CorpusSpec:
    return load_corpus_spec(read_text(Path(path), SynthSpecError))
