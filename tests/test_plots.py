"""SVG figure generation from traces."""

import re
from xml.etree import ElementTree

import pytest

from sgdlab.errors import TraceFormatError
from sgdlab.harness import ExperimentConfig, read_trace, run_experiment, write_trace
from sgdlab.plots import emit_plots


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
