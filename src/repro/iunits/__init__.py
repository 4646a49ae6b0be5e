"""IUnits: the labeled clusters a CAD View is made of.

Covers paper Problems 1.2 (candidate generation + labeling), 2
(diversified top-k), 3 (similar IUnits) and 4 (similar pivot values).
"""

from repro.iunits.diversify import (
    div_astar,
    div_greedy,
    diversified_topk,
    similarity_graph,
)
from repro.iunits.iunit import IUnit
from repro.iunits.labeling import (
    LabelingConfig,
    build_iunits,
    representative_values,
)
from repro.iunits.ranking import (
    AttributePreference,
    CompositePreference,
    PreferenceFunction,
    SizePreference,
)
from repro.iunits.similarity import (
    default_tau,
    iunit_similarity,
    ranked_list_distance,
)

__all__ = [
    "IUnit",
    "LabelingConfig", "build_iunits",
    "representative_values",
    "PreferenceFunction", "SizePreference", "AttributePreference",
    "CompositePreference",
    "similarity_graph", "div_astar", "div_greedy", "diversified_topk",
    "iunit_similarity", "default_tau",
    "ranked_list_distance",
]
