"""Plain-text rendering of a CAD View in the style of paper Table 1.

Each pivot value becomes one multi-line row: the Compare Attributes are
listed in the second column, and each IUnit cell shows that IUnit's
representative values for the attribute on the same line(s).  Labels
that wrap get extra lines in *every* cell of that attribute, so the
attribute rows stay aligned across IUnits.  Optionally a set of
highlighted IUnits (from a ``HIGHLIGHT SIMILAR IUNITS`` statement) is
marked with ``*``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cadview import CADView, IUnitRef

__all__ = ["render_cadview"]


def _wrap(text: str, width: int) -> List[str]:
    """Greedy wrap on spaces, hard-splitting over-long words."""
    words = text.split()
    lines: List[str] = []
    current = ""
    for w in words:
        while len(w) > width:
            if current:
                lines.append(current)
                current = ""
            lines.append(w[:width])
            w = w[width:]
        if not current:
            current = w
        elif len(current) + 1 + len(w) <= width:
            current += " " + w
        else:
            lines.append(current)
            current = w
    if current:
        lines.append(current)
    return lines or [""]


def _pad(lines: List[str], height: int) -> List[str]:
    return lines + [""] * (height - len(lines))


def render_cadview(
    cad: CADView,
    cell_width: int = 26,
    highlight: Optional[Iterable[IUnitRef]] = None,
    show_sizes: bool = True,
    show_report: bool = True,
) -> str:
    """Render ``cad`` as an ASCII grid.

    ``highlight`` marks specific IUnits (e.g. the result of
    :meth:`CADView.similar_iunits`) with ``*`` around their size header.
    When the build was partial or degraded, a ``-- build report``
    footer lists every incident and ladder step (suppress with
    ``show_report=False``); clean builds render exactly the bare grid.
    """
    highlighted: Set[Tuple[str, int]] = {
        (ref.pivot_value, ref.iunit_id) for ref in (highlight or [])
    }
    k = max((len(r) for r in cad.rows.values()), default=0)
    pivot_w = max(
        [len(cad.pivot_attribute)] + [len(v) for v in cad.pivot_values]
    ) + 2
    attr_w = max(
        [len("Compare Attrs.")] + [len(a) for a in cad.compare_attributes]
    ) + 2
    inner = cell_width - 2

    headers = [cad.pivot_attribute, "Compare Attrs."] + [
        f"IUnit {i + 1}" for i in range(k)
    ]
    widths = [pivot_w, attr_w] + [cell_width] * k

    def hline() -> str:
        return "+" + "+".join("-" * w for w in widths) + "+"

    def emit(cells: Sequence[List[str]]) -> List[str]:
        height = max(len(c) for c in cells)
        out = []
        for i in range(height):
            parts = []
            for cell, w in zip(cells, widths):
                text = cell[i] if i < len(cell) else ""
                parts.append(" " + text.ljust(w - 1))
            out.append("|" + "|".join(parts) + "|")
        return out

    lines = [hline()]
    lines.extend(emit([[h] for h in headers]))
    lines.append(hline())

    for value in cad.pivot_values:
        row_units = cad.rows[value]
        pivot_cell = [value]
        attr_cell: List[str] = []
        unit_cells: List[List[str]] = [[] for _ in range(k)]

        if show_sizes:
            attr_cell.append("")
            for j in range(k):
                if j < len(row_units):
                    u = row_units[j]
                    mark = "*" if (value, u.uid) in highlighted else ""
                    unit_cells[j].append(f"{mark}(n={u.size}){mark}")
                else:
                    unit_cells[j].append("")

        # attribute-aligned blocks: every cell of an attribute gets the
        # same number of lines (the tallest wrapped label)
        for attr in cad.compare_attributes:
            blocks = []
            for j in range(k):
                if j < len(row_units):
                    blocks.append(
                        _wrap(row_units[j].label_text(attr), inner)
                    )
                else:
                    blocks.append([""])
            height = max(len(b) for b in blocks)
            attr_cell.extend(_pad([attr], height))
            for j in range(k):
                unit_cells[j].extend(_pad(blocks[j], height))

        lines.extend(emit([pivot_cell, attr_cell] + unit_cells))
        lines.append(hline())
    if show_report and not cad.report.clean:
        lines.extend(f"-- build report: {l}" for l in cad.report.lines())
    return "\n".join(lines)
