"""SVG figure generation from traces."""

import re
from xml.etree import ElementTree

import pytest

from sgdlab.errors import TraceFormatError
from sgdlab.harness import (ExperimentConfig, TraceRecord, read_trace, run_experiment,
                            write_trace)
from sgdlab.plots import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, emit_plots


@pytest.fixture()
def rademacher_trace(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        problem="rademacher", theta0=2.0, optimizer="sgd", k=10, alpha=0.05,
        epochs=5, epoch_size=100, eval_every=1, seed=21))
    records, _ = run_experiment(cfg)
    path = tmp_path / "rad.csv"
    write_trace(records, path)
    return path


@pytest.fixture()
def logistic_trace(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        problem="logistic", dim=4, n_classes=3, separation=2.0, problem_seed=2,
        theta0=0.0, optimizer="momentum", beta_policy="cv_linear", k=10,
        alpha=0.05, epochs=3, train_size=200, eval_every=5, seed=22))
    records, _ = run_experiment(cfg)
    path = tmp_path / "logi.csv"
    write_trace(records, path)
    return path


def test_single_trace_single_series(rademacher_trace, tmp_path, capsys):
    out = tmp_path / "figs"
    written = emit_plots([rademacher_trace], out)
    names = {p.name for p in written}
    assert "risk.svg" in names and "cv_scatter.svg" in names
    assert "accuracy.svg" not in names
    assert "accuracy.svg skipped" in capsys.readouterr().out
    risk_svg = (out / "risk.svg").read_text()
    assert risk_svg.count("<polyline") == 1
    assert risk_svg.count('font-size="11">rad<') == 1  # one legend entry


def test_accuracy_chart_for_classification(logistic_trace, tmp_path):
    written = emit_plots([logistic_trace], tmp_path / "figs")
    names = {p.name for p in written}
    assert names == {"risk.svg", "accuracy.svg", "cv_scatter.svg"}


def test_multiple_traces_overlayed(rademacher_trace, logistic_trace, tmp_path):
    written = emit_plots([rademacher_trace, logistic_trace], tmp_path / "figs")
    risk_svg = next(p for p in written if p.name == "risk.svg").read_text()
    assert risk_svg.count("<polyline") == 2


def test_same_named_traces_are_labelled_by_path(rademacher_trace, tmp_path):
    # what `sgdlab run cfg.yaml --out a` and `--out b` leave behind
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "run.trace.csv")
        paths[-1].write_bytes(rademacher_trace.read_bytes())
    emit_plots(paths, tmp_path / "figs")
    risk_svg = (tmp_path / "figs" / "risk.svg").read_text()
    assert risk_svg.count("<polyline") == 2
    for path in paths:
        assert risk_svg.count(f'font-size="11">{path}<') == 1


def test_cv_scatter_spans_epoch_range(rademacher_trace, tmp_path):
    records = read_trace(rademacher_trace)
    epochs = [r.epoch for r in records if r.cv_raw is not None]
    written = emit_plots([rademacher_trace], tmp_path / "figs")
    svg = next(p for p in written if p.name == "cv_scatter.svg").read_text()
    ticks = re.findall(r'text-anchor="middle" font-family="sans-serif" '
                       r'font-size="11">([-\d.]+)</text>', svg)
    assert float(ticks[0]) == min(epochs)
    assert float(ticks[-1]) == max(epochs)


def test_missing_column_is_named(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("epoch,iteration,true_risk\n0,1,2.0\n")
    with pytest.raises(TraceFormatError, match="est_risk"):
        emit_plots([bad], tmp_path / "figs")


def test_labels_are_xml_escaped(rademacher_trace, tmp_path):
    odd = rademacher_trace.with_name("a&b<c.csv")
    odd.write_bytes(rademacher_trace.read_bytes())
    written = emit_plots([odd], tmp_path / "figs")
    for name in ("risk.svg", "cv_scatter.svg"):
        root = ElementTree.parse(tmp_path / "figs" / name).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c" in texts
    assert {p.name for p in written} == {"risk.svg", "cv_scatter.svg"}


def test_flat_series_of_large_magnitude_plots(tmp_path):
    # the risk stays at 1e18, where a +/-0.5 widening of the equal y limits
    # rounds away; the flat line is drawn across the middle of the plot
    cfg = ExperimentConfig.from_dict(dict(
        problem="rademacher", theta0=1e9, optimizer="sgd", k=1, alpha=5e-324,
        alpha_schedule="inverse_t", epochs=1, epoch_size=50, eval_every=1, seed=0))
    records, _ = run_experiment(cfg)
    assert {r.true_risk for r in records} == {1e18}
    path = tmp_path / "flat.csv"
    write_trace(records, path)
    written = emit_plots([path], tmp_path / "figs")
    assert "risk.svg" in {p.name for p in written}
    svg = (tmp_path / "figs" / "risk.svg").read_text()
    points = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    assert {p.split(",")[1] for p in points.split()} == {"225.00"}
    # the band is 2e12 wide at 1e18: each y tick needs more than 4 digits
    y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" '
                          r'font-size="11">([^<]+)</text>', svg)
    assert len(y_labels) == len(set(y_labels)) == 5


def test_infinite_risk_is_rejected_before_any_figure(rademacher_trace, tmp_path):
    # sgdlab never writes a non-finite value; plotting one drew NaN coordinates
    records = read_trace(rademacher_trace)
    records[-1] = records[-1]._replace(true_risk=float("inf"))
    path = tmp_path / "inf.csv"
    write_trace(records, path)
    with pytest.raises(TraceFormatError, match=f"inf.csv:{len(records) + 1}: "
                                               "non-finite value 'inf'"):
        emit_plots([path], tmp_path / "figs")
    assert not (tmp_path / "figs").exists()


def test_falling_risk_is_drawn_downward_inside_the_plot_area(tmp_path):
    # SVG y grows downward, so a falling risk is a polyline whose y rises; the
    # epoch range spans the plot area from its left edge to its right edge
    risks = {"fast": [4.0, 2.0, 1.5, 1.25, 1.0], "slow": [4.5, 4.0, 3.5, 3.0, 2.5]}
    paths = []
    for label, values in risks.items():
        paths.append(tmp_path / f"{label}.csv")
        write_trace([TraceRecord(epoch, 10 * epoch, risk, risk, None, None, 0.1, 0.0,
                                 None, 1.0) for epoch, risk in enumerate(values)],
                    paths[-1])
    emit_plots(paths, tmp_path / "figs")
    root = ElementTree.parse(tmp_path / "figs" / "risk.svg").getroot()
    svg = "{http://www.w3.org/2000/svg}"
    polylines = list(root.iter(f"{svg}polyline"))
    assert len(polylines) == len(risks)
    for polyline in polylines:
        points = [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]
        xs, ys = zip(*points)
        assert list(ys) == sorted(ys) and len(set(ys)) == len(ys)
        assert all(MARGIN_T <= y <= HEIGHT - MARGIN_B for y in ys)
        assert xs[0] == MARGIN_L and xs[-1] == WIDTH - MARGIN_R
    # the highest risk sits on the top edge, the lowest on the bottom edge
    all_ys = [float(p.split(",")[1]) for pl in polylines for p in pl.get("points").split()]
    assert min(all_ys) == MARGIN_T and max(all_ys) == HEIGHT - MARGIN_B
    legend = [line for line in root.iter(f"{svg}line") if line.get("stroke-width") == "2"]
    assert len(legend) == len(risks)
