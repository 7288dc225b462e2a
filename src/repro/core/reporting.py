"""Plain-text rendering of tables, series, and breakdown bars.

Every figure prints through these helpers so the regenerated figures
share one look: fixed-width tables for the paper's tables, ASCII series
for its line charts, and stacked-percentage rows for its breakdown bars.
"""

from __future__ import annotations

_BAR_WIDTH = 50


def format_table(headers: list[str], rows: list[list],
                 title: str | None = None) -> str:
    """A fixed-width table; floats are rendered with 3 significant places."""

    def cell(v) -> str:
        if isinstance(v, float):
            return f"{v:.3g}"
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(name: str, points: list[tuple[float, float]],
                  x_label: str = "x", y_label: str = "y") -> str:
    """One line-chart series as an aligned (x, y, bar) listing."""
    if not points:
        return f"{name}: (no points)"
    peak = max(y for _, y in points) or 1.0
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in points:
        bar = "#" * max(0, round(_BAR_WIDTH * y / peak))
        x_txt = f"{x:g}".rjust(6)
        lines.append(f"  {x_txt}  {y:8.3f}  {bar}")
    return "\n".join(lines)


def format_breakdown_bar(label: str, components: dict[str, float]) -> str:
    """One stacked-percentage bar (a Figure 5 / Figure 7 column)."""
    total = sum(components.values()) or 1.0
    segments = []
    pieces = []
    for key, value in components.items():
        frac = value / total
        width = round(_BAR_WIDTH * frac)
        segments.append((key[0].upper()) * width)
        pieces.append(f"{key}={frac:5.1%}")
    return f"{label:<28} |{''.join(segments):<{_BAR_WIDTH}}| " + " ".join(pieces)


def format_breakdown_table(rows: list[tuple[str, dict[str, float]]],
                           title: str | None = None) -> str:
    """Several stacked bars with a legend line."""
    lines = []
    if title:
        lines.append(title)
    for label, components in rows:
        lines.append(format_breakdown_bar(label, components))
    return "\n".join(lines)

