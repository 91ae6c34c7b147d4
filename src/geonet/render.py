"""Deterministic SVG rendering of networks.

Plain text output with fixed-precision coordinates: identical networks render
to byte-identical documents, so images can be golden-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_int
from .network import Network

RAY_REACH = 1.3  # exterior rays drawn to this multiple of the circle radius


@dataclass(frozen=True)
class RenderStyle:
    size: int = 512
    stroke_scale: float = 1.0
    labels: bool = False

    def __post_init__(self):
        check_int("size", self.size)
        if self.size < 64:
            raise ValueError("canvas must be at least 64 px")
        if not 0 < self.stroke_scale < math.inf:
            raise ValueError("stroke scale must be positive and finite")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(net: Network, style: RenderStyle = RenderStyle()) -> str:
    half = style.size / 2.0
    radius = half / (RAY_REACH + 0.1)
    # widths stay proportional to multiplicity; the heaviest stroke is pinned
    # to size/40 so large integer solutions do not swamp the drawing; an
    # empty network draws the bare circle
    heaviest = max(
        [v.exterior_mult for v in net.vertices] + [e.mult for e in net.edges],
        default=1,
    )
    base_width = style.stroke_scale * style.size / (40.0 * heaviest)

    def to_px(x: float, y: float) -> tuple[str, str]:
        # y flipped: SVG's axis points down
        return _fmt(half + radius * x), _fmt(half - radius * y)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.size}" '
        f'height="{style.size}" viewBox="0 0 {style.size} {style.size}">',
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(radius)}" '
        f'fill="none" stroke="#999" stroke-width="{_fmt(style.size / 400.0)}"/>',
    ]
    for v in net.vertices:
        x, y = v.position.xy()
        x1, y1 = to_px(x, y)
        x2, y2 = to_px(RAY_REACH * x, RAY_REACH * y)
        lines.append(
            f'<line class="ray" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#07a" stroke-width="{_fmt(base_width * v.exterior_mult)}"/>'
        )
    for e in net.edges:
        ax, ay = net.vertices[e.i].position.xy()
        bx, by = net.vertices[e.j].position.xy()
        x1, y1 = to_px(ax, ay)
        x2, y2 = to_px(bx, by)
        lines.append(
            f'<line class="chord" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#000" stroke-width="{_fmt(base_width * e.mult)}"/>'
        )
    if style.labels:
        for k, v in enumerate(net.vertices):
            x, y = v.position.xy()
            px, py = to_px(1.15 * x, 1.15 * y)
            lines.append(
                f'<text class="label" x="{px}" y="{py}" font-size='
                f'"{_fmt(style.size / 32)}" text-anchor="middle">'
                f"v{k} (m={v.exterior_mult})</text>"
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
