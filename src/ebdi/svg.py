"""Minimal deterministic SVG scatter plots.

The quadrant plot needs only circles, lines, and text, and its bytes must be
reproducible run-to-run, so the markup is emitted directly instead of going
through a plotting library (those embed creation timestamps and generated
ids). Element classes are stable so the output is machine-checkable:
``point`` circles, ``point-label`` texts, and exactly two ``threshold`` lines.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, Sequence

WIDTH = 880
HEIGHT = 640
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 60
N_TICKS = 5
#: code points XML 1.0 forbids: C0 controls other than tab, LF and CR, surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """Text content: ``&`` (first), ``<`` and ``>`` escaped, each code point XML forbids made U+FFFD.

    A CR is written as ``&#13;``: a parser turns a raw CR into LF.
    """
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")
    return _NOT_XML.sub("\ufffd", escaped)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _element(tag: str, cls: str, text: str | None = None, **attributes: object) -> str:
    """``<tag class="cls" name="value" ...>text</tag>`` and a newline, ``_`` in a name written ``-``.

    Attributes follow ``class`` in call order; ``text`` is escaped, and without it the element is empty.
    """
    head = f'<{tag} class="{cls}"' + "".join(
        f' {name.replace("_", "-")}="{value}"' for name, value in attributes.items())
    return f"{head}/>\n" if text is None else f"{head}>{_escape(text)}</{tag}>\n"


def _axis(
    values: Sequence[float], pix_lo: float, pix_hi: float,
) -> tuple[Callable[[float], float], list[float]]:
    """A value's pixel position on an axis over ``values`` padded by 5%, and the axis ticks."""
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    padded_lo = lo - pad
    if lo >= 0.0 > padded_lo:
        padded_lo = 0.0  # indicator values are non-negative; so is the axis
    lo, hi = padded_lo, hi + pad

    def position(value: float) -> float:
        return pix_lo + (value - lo) / (hi - lo) * (pix_hi - pix_lo)

    return position, [lo + i * (hi - lo) / (N_TICKS - 1) for i in range(N_TICKS)]


def scatter_svg(
    points: Sequence[tuple[str, float, float]],
    x_threshold: float,
    y_threshold: float,
    quadrant_labels: Mapping[str, str] | None = None,
) -> Iterator[str]:
    """Scatter plot with one point per unit and two median threshold lines.

    Yields the markup line by line, each ending in a newline, so a plot of
    any size is written without holding its whole text.

    ``points`` are (label, x, y) triples; the x axis, "EBDI (cited)", carries
    the cited dimension and the y axis, "EBDI (citing)", the citing one, under
    the title "Disciplinarity by dimension". ``quadrant_labels`` may name the
    four regions (keys top_left, top_right, bottom_left, bottom_right) that
    the threshold lines cut out.
    """
    points = sorted(points)
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    sx, x_ticks = _axis([x for _, x, _ in points] + [x_threshold], left, right)
    sy, y_ticks = _axis([y for _, _, y in points] + [y_threshold], bottom, top)  # y grows upward

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n'
    )
    axis = {"stroke": "#444444", "stroke_width": 1}
    yield _element("text", "title", "Disciplinarity by dimension",
                   x=_fmt(WIDTH / 2), y=24, text_anchor="middle", font_size=16)

    # frame and axes
    yield _element("rect", "plot-area", x=left, y=top, width=right - left, height=bottom - top,
                   fill="none", **axis)
    for tick in x_ticks:
        px = _fmt(sx(tick))
        yield _element("line", "tick", x1=px, y1=bottom, x2=px, y2=bottom + 5, **axis)
        yield _element("text", "tick-label", f"{tick:.3g}",
                       x=px, y=bottom + 18, text_anchor="middle", font_size=11)
    for tick in y_ticks:
        py = sy(tick)
        yield _element("line", "tick", x1=left - 5, y1=_fmt(py), x2=left, y2=_fmt(py), **axis)
        yield _element("text", "tick-label", f"{tick:.3g}",
                       x=left - 8, y=_fmt(py + 4), text_anchor="end", font_size=11)
    middle = _fmt((top + bottom) / 2)
    yield _element("text", "axis-label", "EBDI (cited)",
                   x=_fmt((left + right) / 2), y=HEIGHT - 16, text_anchor="middle", font_size=13)
    yield _element("text", "axis-label", "EBDI (citing)", x=18, y=middle, text_anchor="middle",
                   font_size=13, transform=f"rotate(-90 18 {middle})")

    # the two median threshold lines
    tx, ty = _fmt(sx(x_threshold)), _fmt(sy(y_threshold))
    dashed = {"stroke": "#b22222", "stroke_width": 1, "stroke_dasharray": "6 4"}
    yield _element("line", "threshold", x1=tx, y1=top, x2=tx, y2=bottom, **dashed)
    yield _element("line", "threshold", x1=left, y1=ty, x2=right, y2=ty, **dashed)

    if quadrant_labels:
        corners = {
            "top_left": (left + 6, top + 16, "start"),
            "top_right": (right - 6, top + 16, "end"),
            "bottom_left": (left + 6, bottom - 8, "start"),
            "bottom_right": (right - 6, bottom - 8, "end"),
        }
        for corner, (cx, cy, anchor) in corners.items():
            label = quadrant_labels.get(corner)
            if label:
                yield _element("text", "quadrant-label", label,
                               x=cx, y=cy, text_anchor=anchor, font_size=11, fill="#999999")

    # one point and its label per unit; f-strings, as a call per element would cost this loop 2-4x
    for label, x, y in points:
        px, py = sx(x), sy(y)
        yield (
            f'<circle class="point" cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
            f'fill="#1f77b4" fill-opacity="0.8"/>\n'
        )
        yield (
            f'<text class="point-label" x="{_fmt(px + 6)}" y="{_fmt(py - 5)}" '
            f'font-size="10" fill="#333333">{_escape(label)}</text>\n'
        )

    yield "</svg>\n"
