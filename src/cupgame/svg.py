"""Minimal SVG plot of a trace's backlog series, no plotting dependency.

One polyline vertex per post state, pixel coordinates computed with integer
arithmetic only, and the exact rational series embedded in a <desc> element
so the picture is a faithful (and machine-recoverable) view of the CSV.
"""

from __future__ import annotations

from math import gcd

from .rational import floor_rat

WIDTH = 800
HEIGHT = 400
MARGIN = 40
PLOT_W = WIDTH - 2 * MARGIN
PLOT_H = HEIGHT - 2 * MARGIN


def backlog_svg(trace) -> str:
    maxima = trace.maxima()
    last = len(maxima) - 1
    ymax = max(1, floor_rat(trace.max_backlog()) + 1)
    points = []
    exact = []  # each backlog in lowest terms
    for t, (top, den) in enumerate(maxima):
        common = gcd(top, den)
        exact.append(f"{top // common}/{den // common}")
        x = MARGIN + (t * PLOT_W) // max(last, 1)
        # backlog/ymax of the plot height, floored in ints; ymax >= 1
        y = HEIGHT - MARGIN - (top * PLOT_H) // (den * ymax)
        points.append(f"{x},{y}")
    config = trace.config
    title = (
        f"backlog: n={config.n} p={config.p} filler={config.filler} "
        f"emptier={config.emptier} seed={config.seed}"
    )
    desc = " ".join(exact)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"  <desc>t=0..{last} backlog {desc}</desc>",
        f'  <rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'  <line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'  <line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'  <text x="{MARGIN}" y="{MARGIN - 10}" font-size="14">{title}</text>',
        f'  <text x="{MARGIN - 30}" y="{MARGIN + 5}" font-size="12">{ymax}</text>',
        f'  <text x="{MARGIN - 30}" y="{HEIGHT - MARGIN}" font-size="12">0</text>',
        f'  <text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 20}" '
        f'font-size="12">{last}</text>',
        f'  <polyline fill="none" stroke="steelblue" stroke-width="1" '
        f'points="{" ".join(points)}"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
