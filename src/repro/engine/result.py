"""Query results: an ordered relation with named columns."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.resilience import Diagnostics


class Result:
    """An immutable result relation.

    Rows are tuples aligned with ``columns``; ``to_dicts()`` gives the
    dict view, ``pretty()`` an aligned text table for examples and
    benchmark reports.

    ``diagnostics`` records anything the producing execution skipped,
    downgraded, or cut short (see :mod:`repro.resilience`); it is
    informational and excluded from equality/hashing, so result
    comparisons keep their relational meaning.  ``profile`` is the
    EXPLAIN ANALYZE-style :class:`~repro.obs.QueryProfile` of a traced
    execution (None on untraced runs) — likewise informational and
    excluded from equality.
    """

    __slots__ = ("columns", "rows", "diagnostics", "profile")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[tuple],
        diagnostics: Optional[Diagnostics] = None,
    ):
        self.columns = tuple(columns)
        self.rows = tuple(map(tuple, rows))
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self.profile = None
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            bad = next(row for row in self.rows if len(row) != width)
            raise ValueError(f"row width {len(bad)} != column count {width}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[object]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no result column {name!r}") from None
        return [row[index] for row in self.rows]

    def pretty(self, max_rows: int | None = 20) -> str:
        """Aligned text rendering, truncated to ``max_rows`` (None = all)."""
        shown = list(self.rows if max_rows is None else self.rows[:max_rows])
        cells = [[_fmt(value) for value in row] for row in shown]
        widths = [
            max([len(name)] + [len(row[i]) for row in cells])
            for i, name in enumerate(self.columns)
        ]
        header = " | ".join(name.ljust(w) for name, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells
        ]
        lines = [header, rule, *body]
        hidden = len(self.rows) - len(shown)
        if hidden > 0:
            lines.append(f"... ({hidden} more rows)")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """Write the result relation as CSV (dates in ISO form)."""
        import csv
        import datetime as _dt

        def render(value: object) -> str:
            if value is None:
                return ""
            if isinstance(value, _dt.date):
                return value.isoformat()
            return str(value)

        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([render(value) for value in row])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Result):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.columns, self.rows))

    def __repr__(self) -> str:
        note = "" if self.diagnostics.ok else ", diagnostics"
        return f"Result({len(self.rows)} rows x {len(self.columns)} cols{note})"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value is None:
        return "NULL"
    return str(value)
