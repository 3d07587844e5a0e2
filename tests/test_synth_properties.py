"""``generate_session`` against the generator it replaced, on hypothesis specs.

The oracle below is the earlier generator: a pen-walk object drawing every
per-sample value with ``random.randint``, rows transposed into columns at the
end. The current generator draws from ``getrandbits`` directly and must give
the same bytes, the same ground truth and the same errors.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from penair import (
    GroundTruth,
    SampleStream,
    StrokeClass,
    SynthSpec,
    SynthSpecError,
    generate_session,
    serialize_session,
)
from penair.synth import _verify_unambiguous

S = StrokeClass.ON_SURFACE
A = StrokeClass.IN_AIR_SHORT
L = StrokeClass.IN_AIR_LONG


class _PenWalk:
    def __init__(self, rng):
        self.rng = rng
        self.x = rng.randrange(2000, 6000)
        self.y = rng.randrange(2000, 6000)
        self.vx = rng.randint(-4, 4)
        self.vy = rng.randint(-4, 4)
        self.azimuth = rng.randrange(0, 360)
        self.altitude = rng.randint(30, 80)
        self.pressure = rng.randint(300, 700)

    def sample(self, t, cls):
        rng = self.rng
        self.vx = max(-12, min(12, self.vx + rng.randint(-2, 2)))
        self.vy = max(-12, min(12, self.vy + rng.randint(-2, 2)))
        self.x += self.vx
        self.y += self.vy
        self.azimuth = (self.azimuth + rng.randint(-3, 3)) % 360
        self.altitude = max(15, min(85, self.altitude + rng.randint(-1, 1)))
        if cls is S:
            self.pressure = max(150, min(1000, self.pressure + rng.randint(-25, 25)))
            return (self.x, self.y, t, 1, self.azimuth, self.altitude, self.pressure)
        return (self.x, self.y, t, 0, self.azimuth, self.altitude, 0)


def oracle_session(spec):
    rng = random.Random(spec.seed)
    walk = _PenWalk(rng)
    period, jitter = spec.nominal_period, spec.jitter
    plan = spec.stroke_plan
    rows, gt = [], []
    t = 0
    for i, (cls, dur) in enumerate(plan):
        seg_start, seg_end = t, t + dur
        if cls is L:
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
        elif plan[i + 1][0] is L:
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


@st.composite
def synth_specs(draw):
    period = draw(st.integers(1, 6))
    gap_factor = draw(st.sampled_from([Fraction(3), Fraction(5, 4), Fraction(2), Fraction(9, 2)]))
    valid = [j for j in range(period) if period + j <= gap_factor * (period - j)]
    jitter = draw(st.sampled_from(valid))  # 0 is always valid
    threshold = gap_factor * (period + jitter)
    durations = st.one_of(st.integers(1, 3), st.integers(1, 40 * period))
    # surface and short in-air entries; same-class neighbours need a gap between
    core = draw(st.lists(st.sampled_from([S, A]), min_size=1, max_size=8))
    plan = [(core[0], draw(durations))]
    for prev, cls in zip(core, core[1:]):
        if prev is cls or draw(st.booleans()):
            plan.append((L, draw(st.integers(int(threshold) + 1, int(threshold) + 200))))
        plan.append((cls, draw(durations)))
    seed = draw(st.integers(0, 2**64 - 1))
    return SynthSpec(period, jitter, tuple(plan), seed, gap_factor)


def outcome(generate, spec):
    try:
        stream, truth = generate(spec)
    except SynthSpecError as exc:
        return ("error", str(exc))
    return serialize_session(stream), truth


# single-entry plans, plans ending in a short in-air entry, jitter 0
@example(SynthSpec(4, 0, ((S, 1),), 1))
@example(SynthSpec(4, 1, ((A, 7),), 2))
@example(SynthSpec(4, 0, ((S, 30), (L, 50), (A, 2)), 3))
@example(SynthSpec(1, 0, ((S, 30), (A, 1)), 4))
@settings(max_examples=300, deadline=None)
@given(synth_specs())
def test_session_matches_randint_generator(spec):
    assert outcome(generate_session, spec) == outcome(oracle_session, spec)
