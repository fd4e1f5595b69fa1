"""SVG figures from trace CSVs: metric-vs-epoch lines and per-epoch CV scatter.

Charts are written as plain SVG with no plotting dependency. The x axis spans
exactly the epoch range present in the traces.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .harness import TraceRecord, read_trace

WIDTH, HEIGHT = 760, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _escape(text: str) -> str:
    """Text escaped for an SVG text node. (xml.sax.saxutils.escape does the
    same but its import pulls in urllib.request: ~25 ms and ~7 MB.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.parts: list[str] = []
        x0, x1 = xlim
        y0, y1 = ylim
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        self.parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        self.parts.append(
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')
        # axes
        bx, by = MARGIN_L, HEIGHT - MARGIN_B
        tx, ty = WIDTH - MARGIN_R, MARGIN_T
        self.parts.append(f'<line x1="{bx}" y1="{by}" x2="{tx}" y2="{by}" stroke="black"/>')
        self.parts.append(f'<line x1="{bx}" y1="{by}" x2="{bx}" y2="{ty}" stroke="black"/>')
        for xv in _ticks(x0, x1):
            px = self.px(xv)
            self.parts.append(f'<line x1="{px}" y1="{by}" x2="{px}" y2="{by + 5}" stroke="black"/>')
            self.parts.append(
                f'<text x="{px}" y="{by + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{xv:g}</text>')
        for yv in _ticks(y0, y1):
            py = self.py(yv)
            self.parts.append(f'<line x1="{bx - 5}" y1="{py}" x2="{bx}" y2="{py}" stroke="black"/>')
            self.parts.append(
                f'<text x="{bx - 8}" y="{py + 4}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
        self.parts.append(
            f'<text x="{(bx + tx) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>')
        self.parts.append(
            f'<text x="18" y="{(by + ty) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 18 {(by + ty) / 2})">{_escape(ylabel)}</text>')
        self._legend_y = MARGIN_T + 10

    def px(self, x: float) -> float:
        span = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * span

    def py(self, y: float) -> float:
        span = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * span

    def polyline(self, xs: Sequence[float], ys: Sequence[float], color: str) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="1.5"/>')

    def dots(self, xs: Sequence[float], ys: Sequence[float], color: str) -> None:
        for x, y in zip(xs, ys):
            self.parts.append(f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" '
                              f'r="2" fill="{color}" fill-opacity="0.55"/>')

    def legend(self, label: str, color: str) -> None:
        x = WIDTH - MARGIN_R + 12
        self.parts.append(f'<line x1="{x}" y1="{self._legend_y}" x2="{x + 18}" '
                          f'y2="{self._legend_y}" stroke="{color}" stroke-width="2"/>')
        self.parts.append(
            f'<text x="{x + 24}" y="{self._legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>')
        self._legend_y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _series(records: list[TraceRecord], value_of) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for r in records:
        value = value_of(r)
        if value is not None:
            xs.append(float(r.epoch))
            ys.append(float(value))
    return xs, ys


def _chart(traces: dict[str, list[TraceRecord]], value_of, title: str,
           ylabel: str, scatter: bool) -> Optional[str]:
    series = {}
    for label, records in traces.items():
        xs, ys = _series(records, value_of)
        if xs:
            series[label] = (xs, ys)
    if not series:
        return None
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    canvas = _Canvas(title, "epoch", ylabel,
                     (min(all_x), max(all_x)), (min(all_y), max(all_y)))
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        if scatter:
            canvas.dots(xs, ys, color)
        else:
            canvas.polyline(xs, ys, color)
        canvas.legend(label, color)
    return canvas.render()


def _risk_value(r: TraceRecord):
    return r.true_risk if r.true_risk is not None else r.est_risk


FIGURES = (
    # (filename, description, value extractor, title, ylabel, scatter)
    ("risk.svg", "risk", _risk_value, "Risk vs epoch", "risk", False),
    ("accuracy.svg", "accuracy", lambda r: r.accuracy,
     "Test accuracy vs epoch", "accuracy", False),
    ("cv_scatter.svg", "cv_raw", lambda r: r.cv_raw,
     "Per-minibatch CV estimates", "cv estimate", True),
)


def emit_plots(trace_paths: Sequence, out_dir) -> list[Path]:
    """One SVG per figure kind; figures with no data are skipped with a notice.

    The risk figure uses true_risk where a trace carries it and est_risk
    otherwise; the CV figure scatters the raw per-minibatch values. Each trace
    is labelled by its file stem, or by its path where stems collide.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stems = [Path(p).stem for p in trace_paths]
    # a path labels its trace where stems collide, as runs with two --out dirs do
    traces = {stem if stems.count(stem) == 1 else str(p): read_trace(p)
              for stem, p in zip(stems, trace_paths)}
    written = []
    for filename, description, value_of, title, ylabel, scatter in FIGURES:
        svg = _chart(traces, value_of, title, ylabel, scatter)
        if svg is None:
            print(f"{filename} skipped: no {description} values in any trace")
            continue
        path = out_dir / filename
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written
