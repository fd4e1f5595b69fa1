"""SVG figures from trace CSVs: metric-vs-epoch lines and per-epoch CV scatter.

Charts are written as plain SVG with no plotting dependency. The x axis spans
exactly the epoch range present in the traces.
"""

from __future__ import annotations

import math
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
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _limits(lo: float, hi: float) -> tuple[float, float]:
    """An axis range spanning [lo, hi]; equal limits are widened by more than
    rounding loses at large magnitudes."""
    if hi == lo:
        return lo - max(0.5, 1e-6 * abs(lo)), hi + max(0.5, 1e-6 * abs(hi))
    return lo, hi


def _chart(traces: dict[str, list[TraceRecord]], value_of, title: str,
           ylabel: str, scatter: bool) -> Optional[str]:
    """One figure's SVG text, drawn top to bottom: frame, axes, ticks, then a
    line (or dots) and a legend row per trace with values; None if none has."""
    series = []
    for label, records in traces.items():
        xs, ys = [], []
        for r in records:
            value = value_of(r)
            if value is not None:
                xs.append(float(r.epoch))
                ys.append(float(value))
        if xs:
            series.append((label, xs, ys))
    if not series:
        return None
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x0, x1 = _limits(min(all_x), max(all_x))
    y0, y1 = _limits(min(all_y), max(all_y))
    x_span, y_span = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * x_span

    def py(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * y_span

    # axes from the bottom-left corner (bx, by) to (tx, ty)
    bx, by = MARGIN_L, HEIGHT - MARGIN_B
    tx, ty = WIDTH - MARGIN_R, MARGIN_T
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        f'<line x1="{bx}" y1="{by}" x2="{tx}" y2="{by}" stroke="black"/>',
        f'<line x1="{bx}" y1="{by}" x2="{bx}" y2="{ty}" stroke="black"/>',
    ]
    for xv in _ticks(x0, x1):
        x = px(xv)
        parts.append(f'<line x1="{x}" y1="{by}" x2="{x}" y2="{by + 5}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{by + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:g}</text>')
    # 4 significant digits, or enough that a band narrow against its
    # magnitude still reads as distinct ticks (4 where the ratio is inf/NaN)
    ratio = 4.0 * max(abs(y0), abs(y1)) / (y1 - y0)
    digits = 1 + math.ceil(math.log10(ratio)) if 1e3 < ratio < math.inf else 4
    for yv in _ticks(y0, y1):
        y = py(yv)
        parts.append(f'<line x1="{bx - 5}" y1="{y}" x2="{bx}" y2="{y}" stroke="black"/>')
        parts.append(f'<text x="{bx - 8}" y="{y + 4}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.{digits}g}</text>')
    parts.append(f'<text x="{(bx + tx) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">epoch</text>')
    parts.append(f'<text x="18" y="{(by + ty) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {(by + ty) / 2})">{_escape(ylabel)}</text>')
    lx = WIDTH - MARGIN_R + 12
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if scatter:
            parts.extend(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2" '
                         f'fill="{color}" fill-opacity="0.55"/>' for x, y in zip(xs, ys))
        else:
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = MARGIN_T + 10 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


FIGURES = (
    # (filename, description, value extractor, title, ylabel, scatter)
    ("risk.svg", "risk", lambda r: r.risk, "Risk vs epoch", "risk", False),
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
    stems = [Path(p).stem for p in trace_paths]
    # a path labels its trace where stems collide, as runs with two --out dirs do
    traces = {stem if stems.count(stem) == 1 else str(p): read_trace(p)
              for stem, p in zip(stems, trace_paths)}
    out_dir = Path(out_dir)  # made once every trace has been read
    out_dir.mkdir(parents=True, exist_ok=True)
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
