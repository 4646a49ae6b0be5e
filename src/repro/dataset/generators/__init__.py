"""Dataset generators standing in for the paper's two real datasets.

* :func:`generate_usedcars` — synthetic Yahoo-style used-car listings
  (40,000 x 11 by default), with built-in conditional dependencies.
* :func:`generate_mushroom` — synthetic UCI-style mushroom records
  (8124 x 23), sampled from a hand-written Bayesian network.

Both are deterministic given their seed; see DESIGN.md section 3 for the
substitution rationale.  :func:`load_table` is the one loader the CLI
and the serving workers share: a CSV under the dataset's schema, or a
generated table.
"""

from typing import Optional

from repro.dataset.generators.mushroom import (
    MUSHROOM_ATTRIBUTES,
    generate_mushroom,
    mushroom_schema,
)
from repro.dataset.generators.usedcars import (
    CAR_CATALOG,
    CarModel,
    generate_usedcars,
    usedcars_schema,
)
from repro.dataset.table import Table

__all__ = [
    "CarModel",
    "CAR_CATALOG",
    "usedcars_schema",
    "generate_usedcars",
    "MUSHROOM_ATTRIBUTES",
    "mushroom_schema",
    "generate_mushroom",
    "load_table",
]

# paper scale (Sec. 6.1): rows generated when no row count is given
_DEFAULT_ROWS = {"usedcars": 40_000, "mushroom": 8_124}


def load_table(
    dataset: str,
    rows: Optional[int] = None,
    seed: int = 7,
    csv: Optional[str] = None,
    max_bad_rows: int = 0,
) -> Table:
    """The ``usedcars`` or ``mushroom`` table: ``csv`` read under the
    dataset's schema (up to ``max_bad_rows`` malformed rows
    quarantined), or else ``rows`` rows (default: paper scale)
    generated from ``seed``."""
    if dataset not in _DEFAULT_ROWS:
        raise ValueError(f"unknown dataset {dataset!r}")
    if csv:
        schema = (
            usedcars_schema() if dataset == "usedcars"
            else mushroom_schema()
        )
        return Table.from_csv(csv, schema, max_bad_rows=max_bad_rows)
    rows = rows or _DEFAULT_ROWS[dataset]
    if dataset == "usedcars":
        return generate_usedcars(rows, seed=seed)
    return generate_mushroom(rows, seed=seed)
