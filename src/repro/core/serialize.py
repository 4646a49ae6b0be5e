"""JSON export of CAD Views.

"Our proposed CAD View can be integrated with any structured data
presentation system" (paper Sec. 1) — this module defines that
integration surface: a stable JSON document carrying the full view
(pivot, Compare Attributes, per-row IUnits with display labels, sizes
and value-frequency distributions, the label domains, and the
selection predicate of every displayed label so front-ends can make
labels clickable).  ``repro.serve.stress.result_payload`` hashes this
document, so a view's digest covers every IUnit it shows.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.cadview import CADView
from repro.iunits.iunit import IUnit

__all__ = ["to_dict"]

FORMAT_VERSION = 1


def _iunit_to_dict(unit: IUnit) -> dict:
    return {
        "uid": unit.uid,
        "size": unit.size,
        "display": {a: list(v) for a, v in unit.display.items()},
        "distributions": {
            a: np.asarray(unit.distributions[a], dtype=float).tolist()
            for a in unit.compare_attributes
        },
    }


def to_dict(cad: CADView) -> dict:
    """The JSON-ready document for one CAD View."""
    labels = {
        a: list(cad.view.labels(a)) for a in cad.compare_attributes
    }
    selectors: Dict[str, Dict[str, str]] = {}
    for attr in cad.compare_attributes:
        selectors[attr] = {
            label: cad.view.predicate_for(attr, code).to_sql()
            for code, label in enumerate(cad.view.labels(attr))
        }
    return {
        "format": FORMAT_VERSION,
        "name": cad.name,
        "pivot_attribute": cad.pivot_attribute,
        "pivot_values": list(cad.pivot_values),
        "compare_attributes": list(cad.compare_attributes),
        "tau": cad.tau,
        "labels": labels,
        "label_selectors": selectors,
        "rows": {
            value: [_iunit_to_dict(u) for u in cad.rows[value]]
            for value in cad.pivot_values
        },
    }
