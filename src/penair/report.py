"""Rendering: cohort time tables, p-value tables, and trajectory plots.

All renderers are pure functions of their inputs (no timestamps, no locale),
so identical inputs give byte-identical output. The SVG is written as text,
byte-identical to the ElementTree serialisation of earlier releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .features import AnomalyPolicy, CohortSummary, Feature
from .ingest import SampleStream, csv_text
from .segmentation import SegmentationConfig, SessionSegmentation, StrokeClass

if TYPE_CHECKING:  # annotations only: a table renderer does not load the rank tests
    from .stats import RankTestResult


class TableFormat:
    CSV = "csv"
    MARKDOWN = "md"


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by the CLI commands.

    The significance level is fixed; it is not a knob.
    """

    gap_factor: Fraction = SegmentationConfig.gap_factor
    min_gap_ticks: int | None = None
    anomaly_threshold: Fraction = AnomalyPolicy.threshold
    exact_limit: int = 20
    table_format: str = TableFormat.CSV

    def __post_init__(self):
        # fail fast on bad flag values; constructors re-validate on use
        object.__setattr__(self, "gap_factor", self.segmentation_config().gap_factor)
        object.__setattr__(self, "anomaly_threshold", self.anomaly_policy().threshold)
        if self.exact_limit < 2:
            raise ValueError(f"exact limit must be >= 2, got {self.exact_limit}")
        if self.table_format not in (TableFormat.CSV, TableFormat.MARKDOWN):
            raise ValueError(f"unknown table format {self.table_format!r}")

    def segmentation_config(self) -> SegmentationConfig:
        return SegmentationConfig(self.gap_factor, self.min_gap_ticks)

    def anomaly_policy(self) -> AnomalyPolicy:
        return AnomalyPolicy(self.anomaly_threshold)


TIME_TABLE_COLUMNS = (
    "database",
    "cohort",
    "task",
    "on_surface",
    "in_air_short",
    "in_air_long",
    "strokes_on_surface",
    "strokes_in_air_short",
    "strokes_in_air_long",
)

P_TABLE_COLUMNS = ("task",) + tuple(f"p_{f.value}" for f in Feature)


def _time_cell(mean_time, pct) -> str:
    return f"{float(mean_time):.1f} ({float(pct):.1f}%)"


def _strokes_cell(mean_strokes) -> str:
    return f"{float(mean_strokes):.2f}"


def _p_cell(result: RankTestResult) -> str:
    text = f"{float(result.p):.4f}"
    return text + "*" if result.significant else text


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def format_table(header, rows, fmt: str) -> str:
    """Render a plain header+rows table in the requested format."""
    if fmt == TableFormat.MARKDOWN:
        return _md_table(header, rows)
    return csv_text(header, rows)


def render_time_table(summaries: Sequence[CohortSummary], fmt: str = TableFormat.CSV) -> str:
    """One row per summary: three "time (pct%)" cells then three mean-stroke
    cells, times and percentages to one decimal, strokes to two."""
    rows = [
        (
            s.database,
            s.cohort,
            s.task,
            _time_cell(s.mean_time_on_surface, s.pct_on_surface),
            _time_cell(s.mean_time_in_air_short, s.pct_in_air_short),
            _time_cell(s.mean_time_in_air_long, s.pct_in_air_long),
            _strokes_cell(s.mean_strokes_on_surface),
            _strokes_cell(s.mean_strokes_in_air_short),
            _strokes_cell(s.mean_strokes_in_air_long),
        )
        for s in summaries
    ]
    return format_table(TIME_TABLE_COLUMNS, rows, fmt)


def render_p_table(results: Sequence[RankTestResult], fmt: str = TableFormat.CSV) -> str:
    """Wide per-task table: one p column per feature, four decimals, ``*``
    marking p < 0.05 (strict). Missing (task, feature) pairs render empty."""
    by_task: dict[str, dict[Feature, RankTestResult]] = {}
    for r in results:
        by_task.setdefault(r.task, {})[r.feature] = r
    rows = []
    for task, cells in by_task.items():
        row = [task]
        for f in Feature:
            row.append(_p_cell(cells[f]) if f in cells else "")
        rows.append(row)
    return format_table(P_TABLE_COLUMNS, rows, fmt)


# SVG layout constants; abstract user units
_SVG_W = 800
_PANEL_H = 300
_STRIP_H = 80
_PANEL_COLORS = {StrokeClass.ON_SURFACE: "#1f6feb", StrokeClass.IN_AIR_SHORT: "#d4a017"}


def render_trajectories(stream: SampleStream, seg: SessionSegmentation) -> str:
    """Fixed two-panel figure: on-surface trajectories on top, short in-air
    trajectories below, and a timeline strip marking each long in-air stroke
    with a labeled tick. Returns a well-formed SVG document string."""
    # written as text: every attribute value and text node below is a number
    # or a fixed ASCII word, so nothing needs XML escaping
    total_h = 2 * _PANEL_H + _STRIP_H
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{total_h}" '
             f'viewBox="0 0 {_SVG_W} {total_h}">']
    xs, ys = stream.x, stream.y
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    # 5% margin around the data bounds; degenerate extents get a unit pad
    pad_x = (max_x - min_x) * 0.05 or 1.0
    pad_y = (max_y - min_y) * 0.05 or 1.0
    left_x, top_y = f"{min_x - pad_x:g}", f"{min_y - pad_y:g}"
    view_box = f"{left_x} {top_y} {max_x - min_x + 2 * pad_x:g} {max_y - min_y + 2 * pad_y:g}"
    for cls, y_offset, label in ((StrokeClass.ON_SURFACE, 0, "on-surface"),
                                 (StrokeClass.IN_AIR_SHORT, _PANEL_H, "in-air short")):
        parts.append(f'<svg x="0" y="{y_offset}" width="{_SVG_W}" height="{_PANEL_H}" '
                     f'viewBox="{view_box}" preserveAspectRatio="xMidYMid meet">')
        tail = (f'" fill="none" stroke="{_PANEL_COLORS[cls]}" stroke-width="2" '
                f'vector-effect="non-scaling-stroke" />')
        for stroke in seg.strokes:
            if stroke.cls is not cls or stroke.n_samples == 0:
                continue
            lo, hi = stroke.sample_range
            # one %-format over x0, y0, x1, y1, ...: %d of an int is its str
            flat = [0] * (2 * (hi - lo))
            flat[::2], flat[1::2] = xs[lo:hi], ys[lo:hi]
            parts.append('<polyline points="' + " ".join(["%d,%d"] * (hi - lo)) % tuple(flat)
                         + tail)
        parts.append(f'<text x="{left_x}" y="{top_y}" dy="1em" font-size="{2 * pad_y:g}" '
                     f'fill="#666666">{label}</text></svg>')

    axis_y = 2 * _PANEL_H + _STRIP_H // 2
    left, right = 40, _SVG_W - 20
    parts.append(f'<g><line x1="{left}" y1="{axis_y}" x2="{right}" y2="{axis_y}" '
                 f'stroke="#444444" stroke-width="1" />')
    t0 = stream.t_first
    span = stream.t_last - t0
    for stroke in seg.strokes:
        if stroke.cls is not StrokeClass.IN_AIR_LONG:
            continue
        x = left + (right - left) * (stroke.start_t - t0) / span if span else float(left)
        parts.append(f'<line x1="{x:g}" y1="{axis_y - 14}" x2="{x:g}" y2="{axis_y + 6}" '
                     f'stroke="#c0392b" stroke-width="2" />'
                     f'<text x="{x:g}" y="{axis_y - 18}" font-size="11" text-anchor="middle" '
                     f'fill="#c0392b">{stroke.duration}</text>')
    parts.append(f'<text x="{left}" y="{axis_y + 24}" font-size="12" fill="#666666">'
                 f'in-air long events on the session timeline</text></g></svg>\n')
    return "".join(parts)
