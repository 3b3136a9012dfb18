"""Plain-text reporting: result tables, sparklines, shape checks.

Experiments print the same rows/series the paper's figures plot.  A
:class:`ResultTable` is a column-ordered grid with aligned text and CSV
output; a :class:`ShapeCheck` records whether a qualitative expectation
from the paper (who wins, what plateaus) held in this run — the bench
suite asserts on them and EXPERIMENTS.md records them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (powers of 1024)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{value:.0f} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def format_cell(value: Cell, float_digits: int = 2) -> str:
    """Render one cell: floats rounded, everything else stringified."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def sparkline(values: Sequence[float]) -> str:
    """A unicode mini-chart of a numeric series."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    out = []
    for value in values:
        idx = int((value - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


@dataclass
class ResultTable:
    """A fixed-column table of experiment rows."""

    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    float_digits: int = 2

    def add_row(self, *values: Cell) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> List[Cell]:
        """All values of one column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        """Aligned fixed-width rendering."""
        rendered = [[format_cell(cell, self.float_digits) for cell in row]
                    for row in self.rows]
        widths = [len(col) for col in self.columns]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        out = io.StringIO()
        header = "  ".join(col.ljust(widths[i])
                           for i, col in enumerate(self.columns))
        out.write(header + "\n")
        out.write("  ".join("-" * width for width in widths) + "\n")
        for row in rendered:
            out.write("  ".join(cell.rjust(widths[i])
                                for i, cell in enumerate(row)) + "\n")
        return out.getvalue()

    def to_csv(self) -> str:
        """Comma-separated rendering (no quoting; cells are simple)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_cell(cell, self.float_digits)
                                  for cell in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> Dict[str, object]:
        """Machine-readable form: list of column->cell row dicts."""
        return {"columns": list(self.columns),
                "rows": [dict(zip(self.columns, row)) for row in self.rows]}


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative expectation from the paper, evaluated on this run."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        """Status line for reports."""
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    tables: List[tuple] = field(default_factory=list)  # (caption, ResultTable)
    checks: List[ShapeCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    #: Pre-rendered text blocks appended after the tables (the CLI uses
    #: these for latency percentiles and slowest-op waterfalls).
    sections: List[tuple] = field(default_factory=list)  # (caption, text)

    def add_table(self, caption: str, table: ResultTable) -> None:
        """Attach one captioned table."""
        self.tables.append((caption, table))

    def add_section(self, caption: str, text: str) -> None:
        """Attach one captioned free-text block."""
        self.sections.append((caption, text))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one shape check."""
        self.checks.append(ShapeCheck(name, bool(passed), detail))

    def note(self, text: str) -> None:
        """Attach a free-form note."""
        self.notes.append(text)

    @property
    def all_checks_passed(self) -> bool:
        """True when every recorded shape check held."""
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[ShapeCheck]:
        """The checks that did not hold."""
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        """Full text report (what the CLI prints)."""
        out = io.StringIO()
        out.write(f"=== {self.experiment_id}: {self.title} ===\n")
        for note in self.notes:
            out.write(f"  {note}\n")
        for caption, table in self.tables:
            out.write(f"\n--- {caption} ---\n")
            out.write(table.to_text())
        for caption, text in self.sections:
            out.write(f"\n--- {caption} ---\n")
            out.write(text if text.endswith("\n") else text + "\n")
        if self.checks:
            out.write("\nShape checks (paper expectations):\n")
            for check in self.checks:
                out.write("  " + check.render() + "\n")
        return out.getvalue()

    def to_json_dict(self) -> Dict[str, object]:
        """Machine-readable form of the whole result."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "notes": list(self.notes),
            "tables": [{"caption": caption, **table.to_json_dict()}
                       for caption, table in self.tables],
            "sections": [{"caption": caption, "text": text}
                         for caption, text in self.sections],
            "checks": [{"name": check.name, "passed": check.passed,
                        "detail": check.detail} for check in self.checks],
            "all_checks_passed": self.all_checks_passed,
        }


def percentile_table(registry) -> ResultTable:
    """Latency percentiles per op type, one row per op.

    ``registry`` is a :class:`~repro.obs.registry.MetricsRegistry`;
    the CLI appends this table to every experiment report.
    """
    table = ResultTable(columns=["op", "count", "mean_us", "p50_us",
                                 "p90_us", "p99_us", "p999_us", "max_us"])
    for row in registry.percentile_rows():
        table.add_row(row["op"], int(row["count"]), row["mean"],
                      row["p50"], row["p90"], row["p99"], row["p999"],
                      row["max"])
    return table


def render_waterfall(span, width: int = 32, indent: str = "") -> str:
    """Text waterfall for one traced span: stage bars plus counters.

    Stages are sorted by time spent; bar lengths are proportional to
    the span total.  Child spans (a flush inside a put, a compaction
    inside a flush) render recursively, indented.
    """
    out = io.StringIO()
    detail = f" [{span.detail}]" if span.detail else ""
    out.write(f"{indent}{span.op}{detail}: {span.total_us:.2f} us\n")
    total = span.total_us or 1.0
    for stage, us in sorted(span.stage_us.items(),
                            key=lambda item: (-item[1], item[0])):
        bar = "#" * max(1, int(round(us / total * width)))
        out.write(f"{indent}  {stage:<18} {us:>12.2f} us  {bar}\n")
    if span.counters:
        pairs = "  ".join(f"{name}={value:g}"
                          for name, value in sorted(span.counters.items()))
        out.write(f"{indent}  counters: {pairs}\n")
    for child in span.children:
        out.write(render_waterfall(child, width=width, indent=indent + "    "))
    return out.getvalue()
