"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def line_chart(series: dict[str, tuple[list[float], list[float]]],
               title: str, x_label: str, y_label: str) -> str:
    """Render labelled (x, y) polylines into an SVG document string."""
    width, height = 640, 420
    pad_l, pad_r, pad_t, pad_b = 70, 20, 40, 55
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    xs = [x for pts in series.values() for x in pts[0] if math.isfinite(x)]
    ys = [y for pts in series.values() for y in pts[1] if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return pad_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2})">{y_label}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = x_lo + frac * (x_hi - x_lo)
        gy = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(gx):.1f}" y="{pad_t + plot_h + 16}" '
                     f'text-anchor="middle">{gx:.4g}</text>')
        parts.append(f'<text x="{pad_l - 6}" y="{sy(gy):.1f}" '
                     f'text-anchor="end" dominant-baseline="middle">{gy:.4g}</text>')
        parts.append(f'<line x1="{pad_l}" x2="{pad_l + plot_w}" y1="{sy(gy):.1f}" '
                     f'y2="{sy(gy):.1f}" stroke="#eee"/>')

    for k, (label, (px, py)) in enumerate(series.items()):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(px, py)
                       if math.isfinite(x) and math.isfinite(y))
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        parts.append(f'<text x="{pad_l + 8}" y="{pad_t + 16 + 15 * k}" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
