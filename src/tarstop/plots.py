"""Minimal static SVG rendering for plot-data series.

Hand-rolled polylines keep the output dependency-free and byte-stable.
"""

from __future__ import annotations

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")


def _scale(values: list[float], lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_svg(
    series: dict[str, list[tuple[float, float]]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Named (x, y) series as the text of an SVG line/point chart."""
    all_x = [x for pts in series.values() for x, _ in pts]
    all_y = [y for pts in series.values() for _, y in pts]
    if not all_x:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - 10}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_MARGIN}" '
        f'y2="10" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_HEIGHT // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_HEIGHT // 2})">{y_label}</text>',
    ]
    for idx, (name, pts) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        xs = _scale([p[0] for p in pts], x_lo, x_hi, _MARGIN, _WIDTH - 10)
        ys = _scale([p[1] for p in pts], y_lo, y_hi, _HEIGHT - _MARGIN, 10)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        if len(pts) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        else:
            parts.append(f'<circle cx="{xs[0]:.2f}" cy="{ys[0]:.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{_WIDTH - 150}" y="{20 + 16 * idx}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
