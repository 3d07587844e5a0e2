from fractions import Fraction
from xml.etree import ElementTree as ET

import pytest

from penair import (
    CohortSummary,
    Feature,
    RunConfig,
    SampleStream,
    StrokeClass,
    TableFormat,
    RankTestResult,
    mann_whitney_u,
    relative_times,
    render_p_table,
    render_time_table,
    render_trajectories,
    segment,
)
from penair.report import format_table


def summary(t_s, t_as, t_al, s_s="6.62", s_as="5.94", s_al="0.32",
            database="db", cohort="control", task="sig"):
    mean_s, mean_as, mean_al = Fraction(t_s), Fraction(t_as), Fraction(t_al)
    if mean_s + mean_as + mean_al:
        pcts = relative_times(mean_s, mean_as, mean_al)
    else:
        pcts = (Fraction(0), Fraction(0), Fraction(0))
    return CohortSummary(
        database=database, task=task, cohort=cohort, n_files=10, n_anomalous=0,
        mean_time_on_surface=mean_s, mean_time_in_air_short=mean_as,
        mean_time_in_air_long=mean_al,
        pct_on_surface=pcts[0], pct_in_air_short=pcts[1], pct_in_air_long=pcts[2],
        mean_strokes_on_surface=Fraction(s_s), mean_strokes_in_air_short=Fraction(s_as),
        mean_strokes_in_air_long=Fraction(s_al),
    )


def result(p, task="sig", feature=Feature.TIME_ON_SURFACE):
    u = mann_whitney_u([1, 2], [3, 4])
    return RankTestResult(task=task, feature=feature, u=u, p=p,
                      method="exact", significant=p < Fraction(1, 20))


def test_time_cell_rounding():
    text = render_time_table([summary("2857.6", "715.4", "17.5")])
    row = text.splitlines()[1]
    assert "2857.6 (79.6%)" in row
    assert "715.4 (19.9%)" in row
    assert "17.5 (0.5%)" in row
    assert row.endswith("6.62,5.94,0.32")


def test_time_cell_zero_component():
    text = render_time_table([summary(100, 50, 0)])
    assert "0.0 (0.0%)" in text.splitlines()[1]


def test_time_table_csv_shape():
    text = render_time_table([summary(10, 5, 5), summary(20, 5, 5, cohort="patient")])
    lines = text.splitlines()
    assert lines[0] == ("database,cohort,task,on_surface,in_air_short,in_air_long,"
                        "strokes_on_surface,strokes_in_air_short,strokes_in_air_long")
    assert len(lines) == 3
    assert lines[1].startswith("db,control,sig,")
    assert lines[2].startswith("db,patient,sig,")
    assert text.endswith("\n")


def test_time_table_markdown_shape():
    text = render_time_table([summary(10, 5, 5)], TableFormat.MARKDOWN)
    lines = text.splitlines()
    assert lines[0].startswith("| database | cohort | task |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert lines[2].startswith("| db | control | sig |")


def test_p_cell_formats():
    text = render_p_table([result(Fraction(1, 1))])
    assert ",1.0000," in text or text.splitlines()[1].split(",")[1] == "1.0000"


def test_p_exactly_at_level_is_unmarked():
    text = render_p_table([result(Fraction(1, 20))])
    cells = text.splitlines()[1].split(",")
    assert cells[1] == "0.0500"


def test_p_below_level_is_starred():
    text = render_p_table([result(Fraction(1, 100))])
    cells = text.splitlines()[1].split(",")
    assert cells[1] == "0.0100*"


def test_p_table_wide_layout():
    results = [result(Fraction(1, 10), feature=f) for f in Feature]
    text = render_p_table(results)
    lines = text.splitlines()
    assert lines[0] == "task,p_T_S,p_T_AS,p_T_AL,p_Strokes_S,p_Strokes_AS,p_Strokes_AL"
    assert lines[1] == "sig," + ",".join(["0.1000"] * 6)


def test_p_table_missing_feature_is_empty_cell():
    text = render_p_table([result(Fraction(1, 10), feature=Feature.TIME_IN_AIR_LONG)])
    cells = text.splitlines()[1].split(",")
    assert cells[3] == "0.1000"
    assert cells[1] == "" and cells[2] == ""


def test_p_table_markdown():
    text = render_p_table([result(Fraction(1, 100))], TableFormat.MARKDOWN)
    assert "| 0.0100* |" in text


def test_format_table_quotes_commas():
    text = format_table(("a", "b"), [("x,y", "z")], TableFormat.CSV)
    assert '"x,y"' in text


def test_run_config_validation():
    RunConfig()
    with pytest.raises(ValueError):
        RunConfig(gap_factor=0.5)
    with pytest.raises(ValueError):
        RunConfig(anomaly_threshold=Fraction(3, 2))
    with pytest.raises(ValueError):
        RunConfig(exact_limit=1)
    with pytest.raises(ValueError):
        RunConfig(table_format="yaml")


def stream_from(times, statuses):
    index = range(len(times))
    return SampleStream.from_columns([10 * i for i in index], [5 * i for i in index],
                                     times, statuses)


def count_polylines(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    panels = [el for el in root if el.tag in ("svg", ns + "svg")]
    return [
        sum(1 for el in panel if el.tag.endswith("polyline"))
        for panel in panels
    ]


def test_render_all_surface_session():
    stream = stream_from([0, 2, 4, 6], [1, 1, 1, 1])
    svg = render_trajectories(stream, segment(stream))
    assert count_polylines(svg) == [1, 0]
    ET.fromstring(svg)


def test_render_three_short_air_strokes():
    times = list(range(0, 26, 2))
    statuses = [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    stream = stream_from(times, statuses)
    seg = segment(stream)
    assert seg.class_counts[StrokeClass.IN_AIR_SHORT] == 3
    svg = render_trajectories(stream, seg)
    assert count_polylines(svg)[1] == 3


def test_render_marks_long_strokes_on_timeline():
    stream = stream_from([0, 2, 4, 60, 62, 120, 122], [1, 1, 1, 1, 1, 1, 1])
    seg = segment(stream)
    assert seg.class_counts[StrokeClass.IN_AIR_LONG] == 2
    svg = render_trajectories(stream, seg)
    root = ET.fromstring(svg)
    ticks = [el for el in root.iter() if el.get("stroke") == "#c0392b"]
    assert len(ticks) == 2


def test_render_single_sample_session():
    stream = stream_from([5], [1])
    svg = render_trajectories(stream, segment(stream))
    ET.fromstring(svg)


def test_render_is_deterministic():
    stream = stream_from([0, 2, 4, 40, 42], [1, 0, 0, 1, 1])
    seg = segment(stream)
    assert render_trajectories(stream, seg) == render_trajectories(stream, seg)
