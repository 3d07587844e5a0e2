"""Deterministic generator for synthetic recordings with exact ground truth.

Sessions are built from a stroke plan: an alternating list of (class,
duration) entries in ticks. On-surface and short in-air entries emit samples
at the nominal period plus bounded jitter; a long in-air entry emits nothing
and survives only as a timestamp jump, exactly like a pen leaving tracking
range. The generator refuses parameter combinations that could make gap
detection ambiguous, and double-checks the emitted stream against the
intended gap threshold, so the returned ground truth is what segmentation
must recover.

Seeding is stable across platforms: corpus generation derives one 64-bit seed
per role from sha256 of "{master_seed}:{label}".
"""

from __future__ import annotations

import csv
import hashlib
import random
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import SynthSpecError
from .ingest import MANIFEST_HEADER, SampleStream, serialize_session
from .segmentation import (
    SegmentationConfig,
    StrokeClass,
    as_fraction,
    detect_gaps,
    nominal_period,
)


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
    and must satisfy period + jitter <= gap_factor * (period - jitter), so no
    legitimate step can reach the gap threshold even in the worst realized
    modal period. Long entries must exceed gap_factor * (period + jitter).
    """

    nominal_period: int
    jitter: int
    stroke_plan: tuple[tuple[StrokeClass, int], ...]
    seed: int
    gap_factor: Fraction = Fraction(3)

    def __post_init__(self):
        object.__setattr__(self, "stroke_plan", tuple(tuple(e) for e in self.stroke_plan))
        object.__setattr__(self, "gap_factor", as_fraction(self.gap_factor))
        p, j, gf = self.nominal_period, self.jitter, self.gap_factor
        if p < 1:
            raise SynthSpecError(f"nominal_period must be >= 1, got {p}")
        if not gf > 1:
            raise SynthSpecError(f"gap_factor must be > 1, got {gf}")
        if j < 0 or p - j < 1:
            raise SynthSpecError(f"jitter must be in [0, period), got {j}")
        if not j < (gf - 1) * p:
            raise SynthSpecError(f"jitter {j} too large for gap_factor {gf}")
        if p + j > gf * (p - j):
            raise SynthSpecError(
                f"jitter {j} could blur gap detection: need "
                f"period + jitter <= gap_factor * (period - jitter)"
            )
        plan = self.stroke_plan
        if not plan:
            raise SynthSpecError("stroke plan is empty")
        for cls, dur in plan:
            if not isinstance(cls, StrokeClass):
                raise SynthSpecError(f"bad stroke class {cls!r}")
            if dur < 1:
                raise SynthSpecError(f"stroke durations must be >= 1, got {dur}")
            if cls is StrokeClass.IN_AIR_LONG and not dur > gf * (p + j):
                raise SynthSpecError(
                    f"in-air-long duration {dur} must exceed the worst-case "
                    f"gap threshold {gf * (p + j)}"
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


class _PenWalk:
    """Smooth pseudo-random pen trajectory with plausible auxiliary channels."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.x = rng.randrange(2000, 6000)
        self.y = rng.randrange(2000, 6000)
        self.vx = rng.randint(-4, 4)
        self.vy = rng.randint(-4, 4)
        self.azimuth = rng.randrange(0, 360)
        self.altitude = rng.randint(30, 80)
        self.pressure = rng.randint(300, 700)

    def sample(self, t: int, cls: StrokeClass) -> tuple[int, ...]:
        """One row in column order: x y t status azimuth altitude pressure."""
        rng = self.rng
        self.vx = max(-12, min(12, self.vx + rng.randint(-2, 2)))
        self.vy = max(-12, min(12, self.vy + rng.randint(-2, 2)))
        self.x += self.vx
        self.y += self.vy
        self.azimuth = (self.azimuth + rng.randint(-3, 3)) % 360
        self.altitude = max(15, min(85, self.altitude + rng.randint(-1, 1)))
        if cls is StrokeClass.ON_SURFACE:
            self.pressure = max(150, min(1000, self.pressure + rng.randint(-25, 25)))
            return (self.x, self.y, t, 1, self.azimuth, self.altitude, self.pressure)
        return (self.x, self.y, t, 0, self.azimuth, self.altitude, 0)


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
    walk = _PenWalk(rng)
    period, jitter = spec.nominal_period, spec.jitter
    plan = spec.stroke_plan
    rows: list[tuple[int, ...]] = []
    gt: list[tuple[StrokeClass, int, int]] = []
    t = 0
    for i, (cls, dur) in enumerate(plan):
        seg_start, seg_end = t, t + dur
        if cls is StrokeClass.IN_AIR_LONG:
            # validated: never first, so rows[-1] exists
            gt.append((cls, rows[-1][2], seg_end))
            t = seg_end
            continue
        emit_t = seg_start
        while True:
            rows.append(walk.sample(emit_t, cls))
            step = period + rng.randint(-jitter, jitter)
            if emit_t + step >= seg_end:
                break
            emit_t += step
        if i + 1 == len(plan):
            rows.append(walk.sample(seg_end, cls))  # closing sample
            gt.append((cls, seg_start, seg_end))
        elif plan[i + 1][0] is StrokeClass.IN_AIR_LONG:
            gt.append((cls, seg_start, rows[-1][2]))
        else:
            gt.append((cls, seg_start, seg_end))
        t = seg_end
    stream = SampleStream.from_columns(*zip(*rows), source_id=f"synth:{spec.seed}")
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
    if len(stream.t) < 2:
        return
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
    gap_factor: Fraction = Fraction(3)

    def __post_init__(self):
        if not self.cohorts:
            raise SynthSpecError("corpus spec declares no cohorts")


def generate_corpus(
    spec: CorpusSpec, out_dir: str | Path, master_seed: int
) -> Path:
    """Write one file per cohort member plus ``manifest.csv``; returns the
    manifest path. Fully determined by (spec, master_seed): same inputs give
    byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
            name = f"{cohort_name}_{i:03d}.svc"
            (out / name).write_text(serialize_session(stream), encoding="utf-8")
            rows.append((name, spec.database, spec.task, f"{cohort_name}_{i:03d}", cohort_name))
    manifest = out / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest


def _parse_range(raw: str, context: str) -> IntRange:
    text = raw.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return IntRange(int(lo), int(hi))
        value = int(text)
        return IntRange(value, value)
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
    parser = ConfigParser()
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
        gap_factor = Fraction(corpus.get("gap_factor", "3").strip())
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
        required = ("surface_strokes", "surface_ticks", "air_ticks", "gaps", "gap_ticks")
        missing = [key for key in required if key not in sec]
        if missing:
            raise SynthSpecError(f"[{section}] missing {', '.join(missing)}")
        cohorts[name] = CohortSpec(
            n_files=n_files,
            plan=PlanDistribution(
                surface_strokes=_parse_range(sec["surface_strokes"], section),
                surface_ticks=_parse_range(sec["surface_ticks"], section),
                air_ticks=_parse_range(sec["air_ticks"], section),
                gaps=_parse_range(sec["gaps"], section),
                gap_ticks=_parse_range(sec["gap_ticks"], section),
            ),
        )
    return CorpusSpec(
        nominal_period=period,
        jitter=jitter,
        cohorts=cohorts,
        database=corpus.get("database", "synth").strip(),
        task=corpus.get("task", "synth").strip(),
        gap_factor=gap_factor,
    )


def read_corpus_spec(path: str | Path) -> CorpusSpec:
    return load_corpus_spec(Path(path).read_text(encoding="utf-8-sig"))
