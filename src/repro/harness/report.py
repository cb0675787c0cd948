"""Plain-text reporting of experiment rows (``python -m repro figures``)."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in table
    )
    parts = [title, header, rule, body] if title else [header, rule, body]
    return "\n".join(parts)


def ascii_chart(
    rows: Iterable[Dict[str, object]],
    x: str,
    y: str,
    group: Callable[[Dict[str, object]], str],
    width: int = 40,
    title: str = "",
    value_format: str = "{:.1f}",
) -> str:
    """Horizontal bar chart of ``rows``' ``y`` by ``x`` (terminal-friendly).

    One series per ``group(row)`` label, ``x`` ascending.  Bars are scaled
    to the global maximum so relative magnitudes -- who wins, by what
    factor -- are visible at a glance.
    """
    series: Dict[str, List[Tuple[object, float]]] = {}
    for row in rows:
        series.setdefault(group(row), []).append((row[x], float(row[y])))
    if not series:
        return f"{title}\n(no data)" if title else "(no data)"
    points = [point for pairs in series.values() for point in pairs]
    peak = max(value for _at, value in points) or 1.0
    label_width = max(len(str(label)) for label in series)
    x_width = max(len(str(at)) for at, _value in points)

    lines = [title] if title else []
    for label, pairs in series.items():
        for at, value in sorted(pairs, key=lambda pair: pair[0]):
            bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
            lines.append(
                f"{str(label):<{label_width}}  {str(at):>{x_width}}  "
                f"|{bar:<{width}}| {value_format.format(value)}"
            )
    return "\n".join(lines)
