"""Differential test: ``render_trajectories`` writes, byte for byte, the SVG
that the earlier ``xml.etree`` renderer kept here as the oracle built."""

from fractions import Fraction
from itertools import accumulate
from xml.etree import ElementTree as ET

from hypothesis import example, given, settings, strategies as st

from penair import SampleStream, SegmentationConfig, StrokeClass, segment
from penair.report import render_trajectories

_SVG_W = 800
_PANEL_H = 300
_STRIP_H = 80
_PANEL_COLORS = {StrokeClass.ON_SURFACE: "#1f6feb", StrokeClass.IN_AIR_SHORT: "#d4a017"}


def oracle_panel(stream, seg, cls, y_offset, label):
    xs, ys = stream.x, stream.y
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    pad_x = (max_x - min_x) * 0.05 or 1.0
    pad_y = (max_y - min_y) * 0.05 or 1.0
    panel = ET.Element(
        "svg",
        {
            "x": "0",
            "y": str(y_offset),
            "width": str(_SVG_W),
            "height": str(_PANEL_H),
            "viewBox": f"{min_x - pad_x:g} {min_y - pad_y:g} "
                       f"{max_x - min_x + 2 * pad_x:g} {max_y - min_y + 2 * pad_y:g}",
            "preserveAspectRatio": "xMidYMid meet",
        },
    )
    for stroke in seg.strokes:
        if stroke.cls is not cls or stroke.n_samples == 0:
            continue
        lo, hi = stroke.sample_range
        points = " ".join(map("{},{}".format, xs[lo:hi], ys[lo:hi]))
        ET.SubElement(
            panel,
            "polyline",
            {
                "points": points,
                "fill": "none",
                "stroke": _PANEL_COLORS[cls],
                "stroke-width": "2",
                "vector-effect": "non-scaling-stroke",
            },
        )
    title = ET.SubElement(panel, "text", {
        "x": f"{min_x - pad_x:g}",
        "y": f"{min_y - pad_y:g}",
        "dy": "1em",
        "font-size": f"{2 * pad_y:g}",
        "fill": "#666666",
    })
    title.text = label
    return panel


def oracle_render(stream, seg):
    total_h = 2 * _PANEL_H + _STRIP_H
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_SVG_W),
            "height": str(total_h),
            "viewBox": f"0 0 {_SVG_W} {total_h}",
        },
    )
    root.append(oracle_panel(stream, seg, StrokeClass.ON_SURFACE, 0, "on-surface"))
    root.append(oracle_panel(stream, seg, StrokeClass.IN_AIR_SHORT, _PANEL_H, "in-air short"))

    strip = ET.SubElement(root, "g")
    axis_y = 2 * _PANEL_H + _STRIP_H // 2
    left, right = 40, _SVG_W - 20
    ET.SubElement(strip, "line", {
        "x1": str(left), "y1": str(axis_y), "x2": str(right), "y2": str(axis_y),
        "stroke": "#444444", "stroke-width": "1",
    })
    t0, t1 = stream.t_first, stream.t_last
    span = t1 - t0

    def to_x(t):
        if span == 0:
            return float(left)
        return left + (right - left) * (t - t0) / span

    for stroke in seg.strokes:
        if stroke.cls is not StrokeClass.IN_AIR_LONG:
            continue
        x = to_x(stroke.start_t)
        ET.SubElement(strip, "line", {
            "x1": f"{x:g}", "y1": str(axis_y - 14),
            "x2": f"{x:g}", "y2": str(axis_y + 6),
            "stroke": "#c0392b", "stroke-width": "2",
        })
        label = ET.SubElement(strip, "text", {
            "x": f"{x:g}", "y": str(axis_y - 18),
            "font-size": "11", "text-anchor": "middle", "fill": "#c0392b",
        })
        label.text = str(stroke.duration)
    caption = ET.SubElement(strip, "text", {
        "x": str(left), "y": str(axis_y + 24), "font-size": "12", "fill": "#666666",
    })
    caption.text = "in-air long events on the session timeline"
    return ET.tostring(root, encoding="unicode") + "\n"


@st.composite
def streams(draw):
    n = draw(st.integers(1, 60))
    period = draw(st.integers(1, 5))
    # mostly the period, some jitter, some jumps far above any threshold
    step = st.one_of(st.just(period), st.integers(1, 3 * period), st.integers(1, 60 * period))
    diffs = draw(st.lists(step, min_size=n - 1, max_size=n - 1))
    t = list(accumulate(diffs, initial=draw(st.integers(-10**6, 10**6))))
    # constant columns give a zero extent; wide ranges give negative and
    # large coordinates
    coord = st.one_of(st.just(draw(st.integers(-50, 50))), st.integers(-10**7, 10**7),
                      st.integers(-3, 3))
    x = draw(st.lists(coord, min_size=n, max_size=n))
    y = draw(st.lists(coord, min_size=n, max_size=n))
    status = draw(st.one_of(st.just([1] * n), st.lists(st.integers(0, 1), min_size=n,
                                                         max_size=n)))
    return SampleStream.from_columns(x, y, t, status)


gap_factors = st.sampled_from([Fraction(101, 100), Fraction(3, 2), Fraction(3), Fraction(20)])


@settings(max_examples=300, deadline=None)
@given(streams(), st.lists(gap_factors, min_size=1, max_size=3))
@example(SampleStream.from_columns([5], [-7], [0], [1]), [Fraction(3)])
@example(SampleStream.from_columns([0, 1, 2, 3], [4, 4, 4, 4], [0, 1, 2, 3], [1, 1, 1, 1]),
         [Fraction(3)])
@example(SampleStream.from_columns([-3, -3, -3], [-9, 0, 9], [0, 2, 100], [0, 1, 0]),
         [Fraction(101, 100), Fraction(3), Fraction(20)])
def test_svg_text_equals_element_tree_oracle(stream, factors):
    for factor in factors:
        seg = segment(stream, SegmentationConfig(factor))
        assert render_trajectories(stream, seg) == oracle_render(stream, seg)
