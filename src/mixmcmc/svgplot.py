"""Minimal self-contained SVG renderers for run summaries.

Hand-rolled on purpose: the output is deterministic, diffable text with no
rendering dependency. Each function returns a complete SVG document.
"""

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN = 60


def _fmt(v):
    return f"{v:.2f}"


def _document(title, x_min, x_max, y_min, y_max, body):
    """A complete document: the title, axes labelled with the two ranges, then ``body``."""
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="black"/>',
        f'<text x="{left}" y="{bottom + 20}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x_min)}</text>',
        f'<text x="{right}" y="{bottom + 20}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x_max)}</text>',
        f'<text x="{left - 8}" y="{bottom}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y_min)}</text>',
        f'<text x="{left - 8}" y="{top + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y_max)}</text>',
    ]
    return "\n".join(parts + body + ["</svg>"]) + "\n"


def _scale(values, lo, hi, out_lo, out_hi):
    values = np.asarray(values, dtype=float)
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def _curve(title, xs, ys, x_min, x_max, y_min, y_max, stroke):
    """A document of one polyline through (xs, ys), over axes spanning the two ranges."""
    xs = _scale(xs, x_min, x_max, MARGIN, WIDTH - MARGIN)
    ys = _scale(ys, y_min, y_max, HEIGHT - MARGIN, MARGIN)
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return _document(title, x_min, x_max, y_min, y_max,
                     [f'<polyline points="{points}" fill="none" {stroke}/>'])


def density_curve_svg(grid, density, title="Posterior predictive density"):
    """Polyline of a density curve over a 1-d grid."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    density = np.asarray(density, dtype=float).reshape(-1)
    if grid.shape != density.shape:
        raise ValueError("grid and density lengths differ")
    return _curve(title, grid, density, float(grid.min()), float(grid.max()),
                  0.0, float(max(density.max(), 1e-12)), 'stroke="crimson" stroke-width="1.5"')


def histogram_svg(values, title="Posterior of the number of clusters"):
    """Bar chart of the relative frequencies of integer values."""
    values = np.asarray(values, dtype=int).reshape(-1)
    if values.size == 0:
        raise ValueError("empty series")
    uniq, counts = np.unique(values, return_counts=True)
    freqs = counts / counts.sum()
    x_min, x_max = float(uniq.min()) - 0.5, float(uniq.max()) + 0.5
    y_max = float(freqs.max())
    bottom = HEIGHT - MARGIN
    bars = []
    for value, freq in zip(uniq, freqs):
        x0 = _scale(value - 0.4, x_min, x_max, MARGIN, WIDTH - MARGIN)
        x1 = _scale(value + 0.4, x_min, x_max, MARGIN, WIDTH - MARGIN)
        top = _scale(freq, 0.0, y_max, bottom, MARGIN)
        bars.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(bottom - top)}" fill="steelblue"/>'
        )
        bars.append(
            f'<text x="{_fmt((x0 + x1) / 2)}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{int(value)}</text>'
        )
    return _document(title, x_min, x_max, 0.0, y_max, bars)


def traceplot_svg(values, title="Trace of the number of clusters"):
    """Step trace of a series against its iteration index."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("empty series")
    return _curve(title, np.arange(values.size), values, 0.0, float(values.size - 1),
                  float(values.min()) - 0.5, float(values.max()) + 0.5,
                  'stroke="darkgreen" stroke-width="1"')
