"""Plain-text rendering of experiment results (tables and series)."""

from __future__ import annotations

from typing import Sequence


def format_value(value: object, precision: int = 2) -> str:
    """Render one cell: floats to ``precision``, everything else via str."""
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 2,
) -> str:
    """A minimal aligned text table, in the spirit of the paper's tables."""
    rendered = [[format_value(cell, precision) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered)) if rendered
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out = [line([str(h) for h in headers])]
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def series_block(name: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """Render one figure series as an ``x -> y`` listing (y to 3 decimals)."""
    pairs = "  ".join(
        f"{format_value(x, 0)}:{format_value(float(y), 3)}"
        for x, y in zip(xs, ys)
    )
    return f"{name}: {pairs}"


#: Symbols assigned to chart series, in declaration order.
CHART_SYMBOLS = "*o+x#@"


def ascii_chart(
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    height: int = 12,
    title: str = "",
) -> str:
    """A multi-series text line chart (the figure panels, in a terminal).

    Each series is drawn with its own symbol at the x positions of ``xs``;
    the y axis is annotated with min/max, and a legend maps symbols to
    series names. Coinciding points show the later series' symbol.
    """
    if not series or not xs:
        raise ValueError("ascii_chart needs at least one series and one x")
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    for name, values in series.items():
        if len(values) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(values)} points for {len(xs)} xs"
            )

    all_values = [float(v) for values in series.values() for v in values]
    low, high = min(all_values), max(all_values)
    span = (high - low) or 1.0
    column_width = max(max(len(str(x)) for x in xs) + 1, 3)
    grid = [
        [" " for _ in range(len(xs) * column_width)] for _ in range(height)
    ]
    for (name, values), symbol in zip(series.items(), CHART_SYMBOLS):
        for i, value in enumerate(values):
            row = height - 1 - int((float(value) - low) / span * (height - 1))
            grid[row][i * column_width + column_width // 2] = symbol

    axis_width = max(len(f"{high:.2f}"), len(f"{low:.2f}"))
    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{high:.2f}".rjust(axis_width)
        elif row_index == height - 1:
            label = f"{low:.2f}".rjust(axis_width)
        else:
            label = " " * axis_width
        lines.append(f"{label} |{''.join(row)}")
    ticks = "".join(str(x).center(column_width) for x in xs)
    lines.append(" " * axis_width + " +" + "-" * len(ticks))
    lines.append(" " * axis_width + "  " + ticks)
    legend = "  ".join(
        f"{symbol}={name}"
        for (name, _), symbol in zip(series.items(), CHART_SYMBOLS)
    )
    lines.append(" " * axis_width + "  " + legend)
    return "\n".join(lines)
