"""Synthetic mushroom dataset in the image of UCI Mushroom (8124 x 23).

The paper's user study (Sec. 6.1/6.2) runs on the UCI Mushroom dataset:
8124 tuples, 23 categorical attributes, unfamiliar to every subject.
The UCI file is not available offline, so we generate a table with the
same schema and — crucially — the same *kind* of conditional dependency
structure the three study tasks rely on:

* ``odor`` and ``spore-print-color`` are highly predictive of ``class``
  and of ``bruises`` (task 1, Simple Classifier, is well-posed: one or
  two attribute values separate ``bruises = true`` from ``false`` well);
* ``gill-color`` values ``brown`` and ``white`` co-occur with nearly the
  same distributions over other attributes, while ``buff`` and ``green``
  are distinctive (task 2, Most Similar Facet Value Pair, has an
  unambiguous answer);
* ``stalk-shape = enlarged`` with ``spore-print-color = chocolate``
  selects nearly the same tuples as a two-value selection over other
  attributes (``odor = foul`` with ``gill-size = broad``), so task 3,
  Alternative Search Condition, has a low-error solution.

The sampler is a hand-written Bayesian network evaluated ancestrally; it
is deterministic given the seed, so tests can assert the dependency
structure is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.generators._weighted import option_table
from repro.dataset.schema import AttrKind, Attribute, Schema
from repro.dataset.table import Table

__all__ = ["MUSHROOM_ATTRIBUTES", "mushroom_schema", "generate_mushroom"]


#: All 23 attribute names, UCI order (class first).
MUSHROOM_ATTRIBUTES: Tuple[str, ...] = (
    "class", "cap-shape", "cap-surface", "cap-color", "bruises", "odor",
    "gill-attachment", "gill-spacing", "gill-size", "gill-color",
    "stalk-shape", "stalk-root", "stalk-surface-above-ring",
    "stalk-surface-below-ring", "stalk-color-above-ring",
    "stalk-color-below-ring", "veil-type", "veil-color", "ring-number",
    "ring-type", "spore-print-color", "population", "habitat",
)


@dataclass(frozen=True)
class _Node:
    """One conditional distribution of the generating Bayesian network.

    ``cpt`` maps a tuple of parent values to a (value, weight) list;
    the key ``()`` is used when the node has no parents, and a key of
    ``None`` serves as the fallback row for unlisted parent combinations.
    """

    name: str
    parents: Tuple[str, ...]
    cpt: Mapping[Optional[Tuple[str, ...]], Sequence[Tuple[str, float]]]

    def sample_column(
        self, uniforms: np.ndarray, columns: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """This node's value for every row, given its parents' columns.

        ``uniforms[r]`` is row ``r``'s draw; a row whose parent values
        are not a ``cpt`` key uses the ``None`` row.  Every ``cpt`` row
        is validated, matched by a row or not.
        """
        out = np.empty(len(uniforms), dtype=object)
        unmatched = np.ones(len(uniforms), dtype=bool)
        tables = {key: option_table(dist) for key, dist in self.cpt.items()}
        for key, (values, cdf) in tables.items():
            if key is None:
                continue
            rows = unmatched.copy()
            for parent, value in zip(self.parents, key):
                rows &= columns[parent] == value
            unmatched &= ~rows
            out[rows] = _pick(values, cdf, uniforms[rows])
        if unmatched.any():
            values, cdf = tables[None]
            out[unmatched] = _pick(values, cdf, uniforms[unmatched])
        return out


def _pick(values: Tuple[str, ...], cdf: np.ndarray, uniforms: np.ndarray):
    return np.array(values, dtype=object)[
        cdf.searchsorted(uniforms, side="right")
    ]


def _network() -> Tuple[_Node, ...]:
    """The generating network, in ancestral (topological) order."""
    e, p = "edible", "poisonous"
    return (
        _Node("class", (), {(): [(e, 0.518), (p, 0.482)]}),
        # Odor is the famous near-perfect predictor of class.
        _Node("odor", ("class",), {
            (e,): [("none", 0.78), ("almond", 0.11), ("anise", 0.11)],
            (p,): [("foul", 0.55), ("none", 0.12), ("pungent", 0.07),
                   ("creosote", 0.05), ("fishy", 0.15), ("spicy", 0.05),
                   ("musty", 0.01)],
        }),
        # Bruising is strongly (not perfectly) tied to class & odor.
        _Node("bruises", ("class", "odor"), {
            (e, "none"): [("true", 0.55), ("false", 0.45)],
            (e, "almond"): [("true", 0.92), ("false", 0.08)],
            (e, "anise"): [("true", 0.92), ("false", 0.08)],
            (p, "foul"): [("true", 0.12), ("false", 0.88)],
            (p, "none"): [("true", 0.10), ("false", 0.90)],
            (p, "pungent"): [("true", 0.85), ("false", 0.15)],
            None: [("true", 0.08), ("false", 0.92)],
        }),
        # Spore print color depends on class and odor; chocolate clusters
        # with foul odor (this powers study task 3).
        _Node("spore-print-color", ("class", "odor"), {
            (p, "foul"): [("chocolate", 0.82), ("white", 0.12),
                          ("brown", 0.06)],
            (p, "pungent"): [("black", 0.45), ("brown", 0.45),
                             ("chocolate", 0.10)],
            (p, "none"): [("white", 0.75), ("green", 0.25)],
            (e, "none"): [("brown", 0.38), ("black", 0.36), ("white", 0.20),
                          ("purple", 0.03), ("yellow", 0.03)],
            (e, "almond"): [("brown", 0.42), ("black", 0.42),
                            ("purple", 0.16)],
            (e, "anise"): [("brown", 0.42), ("black", 0.42),
                           ("purple", 0.16)],
            None: [("white", 0.5), ("brown", 0.25), ("black", 0.25)],
        }),
        # Gill colors: brown and white are generated with near-identical
        # conditionals (task 2's "most similar pair"); buff is poison-heavy,
        # green is rare & poisonous.
        _Node("gill-color", ("class",), {
            (e,): [("brown", 0.26), ("white", 0.25), ("pink", 0.16),
                   ("gray", 0.13), ("black", 0.10), ("purple", 0.06),
                   ("chocolate", 0.04)],
            (p,): [("buff", 0.40), ("chocolate", 0.17), ("pink", 0.10),
                   ("white", 0.09), ("brown", 0.08), ("gray", 0.09),
                   ("green", 0.02), ("black", 0.05)],
        }),
        _Node("gill-size", ("class", "odor"), {
            (p, "foul"): [("broad", 0.72), ("narrow", 0.28)],
            (p, "none"): [("narrow", 0.80), ("broad", 0.20)],
            (e, "none"): [("broad", 0.72), ("narrow", 0.28)],
            None: [("broad", 0.6), ("narrow", 0.4)],
        }),
        # Stalk shape: enlarged co-occurs with foul odor / chocolate spores.
        _Node("stalk-shape", ("odor",), {
            ("foul",): [("enlarged", 0.80), ("tapering", 0.20)],
            ("none",): [("tapering", 0.62), ("enlarged", 0.38)],
            ("almond",): [("enlarged", 0.55), ("tapering", 0.45)],
            ("anise",): [("enlarged", 0.55), ("tapering", 0.45)],
            None: [("tapering", 0.65), ("enlarged", 0.35)],
        }),
        _Node("stalk-root", ("class",), {
            (e,): [("bulbous", 0.42), ("equal", 0.22), ("club", 0.20),
                   ("rooted", 0.08), ("missing", 0.08)],
            (p,): [("bulbous", 0.52), ("missing", 0.28), ("equal", 0.12),
                   ("club", 0.08)],
        }),
        _Node("ring-type", ("class", "odor"), {
            (p, "foul"): [("large", 0.62), ("evanescent", 0.28),
                          ("pendant", 0.10)],
            (e, "none"): [("pendant", 0.62), ("evanescent", 0.30),
                          ("flaring", 0.05), ("none", 0.03)],
            None: [("pendant", 0.5), ("evanescent", 0.4), ("none", 0.1)],
        }),
        _Node("ring-number", ("ring-type",), {
            ("none",): [("none", 1.0)],
            ("flaring",): [("two", 0.6), ("one", 0.4)],
            None: [("one", 0.87), ("two", 0.12), ("none", 0.01)],
        }),
        _Node("cap-shape", ("class",), {
            (e,): [("convex", 0.42), ("flat", 0.36), ("bell", 0.12),
                   ("knobbed", 0.08), ("sunken", 0.02)],
            (p,): [("convex", 0.48), ("flat", 0.38), ("knobbed", 0.12),
                   ("bell", 0.01), ("conical", 0.01)],
        }),
        _Node("cap-surface", ("class",), {
            (e,): [("fibrous", 0.38), ("smooth", 0.32), ("scaly", 0.30)],
            (p,): [("scaly", 0.48), ("smooth", 0.32), ("fibrous", 0.19),
                   ("grooves", 0.01)],
        }),
        _Node("cap-color", ("class",), {
            (e,): [("brown", 0.28), ("gray", 0.24), ("white", 0.14),
                   ("red", 0.12), ("yellow", 0.10), ("buff", 0.06),
                   ("pink", 0.03), ("cinnamon", 0.02), ("green", 0.01)],
            (p,): [("brown", 0.24), ("red", 0.21), ("yellow", 0.19),
                   ("gray", 0.15), ("white", 0.12), ("buff", 0.05),
                   ("pink", 0.03), ("purple", 0.01)],
        }),
        _Node("gill-attachment", (), {
            (): [("free", 0.974), ("attached", 0.026)],
        }),
        _Node("gill-spacing", ("class",), {
            (e,): [("close", 0.71), ("crowded", 0.29)],
            (p,): [("close", 0.94), ("crowded", 0.06)],
        }),
        _Node("stalk-surface-above-ring", ("class", "bruises"), {
            (e, "true"): [("smooth", 0.85), ("fibrous", 0.12),
                          ("silky", 0.03)],
            (e, "false"): [("smooth", 0.60), ("fibrous", 0.35),
                           ("silky", 0.05)],
            (p, "false"): [("silky", 0.62), ("smooth", 0.30),
                           ("fibrous", 0.08)],
            (p, "true"): [("smooth", 0.75), ("silky", 0.20),
                          ("fibrous", 0.05)],
        }),
        _Node("stalk-surface-below-ring", ("stalk-surface-above-ring",), {
            ("smooth",): [("smooth", 0.85), ("fibrous", 0.10),
                          ("silky", 0.04), ("scaly", 0.01)],
            ("silky",): [("silky", 0.88), ("smooth", 0.10),
                         ("fibrous", 0.02)],
            ("fibrous",): [("fibrous", 0.80), ("smooth", 0.18),
                           ("scaly", 0.02)],
            None: [("smooth", 0.6), ("fibrous", 0.3), ("silky", 0.1)],
        }),
        _Node("stalk-color-above-ring", ("class",), {
            (e,): [("white", 0.62), ("gray", 0.14), ("pink", 0.12),
                   ("orange", 0.06), ("brown", 0.06)],
            (p,): [("white", 0.40), ("pink", 0.22), ("brown", 0.18),
                   ("buff", 0.14), ("cinnamon", 0.04), ("yellow", 0.02)],
        }),
        _Node("stalk-color-below-ring", ("stalk-color-above-ring",), {
            None: [("white", 0.5), ("pink", 0.18), ("brown", 0.14),
                   ("gray", 0.10), ("buff", 0.08)],
            ("white",): [("white", 0.86), ("pink", 0.07), ("gray", 0.07)],
            ("pink",): [("pink", 0.80), ("white", 0.14), ("brown", 0.06)],
            ("brown",): [("brown", 0.78), ("white", 0.12), ("buff", 0.10)],
            ("gray",): [("gray", 0.82), ("white", 0.18)],
            ("buff",): [("buff", 0.84), ("brown", 0.16)],
        }),
        _Node("veil-type", (), {(): [("partial", 1.0)]}),
        _Node("veil-color", (), {
            (): [("white", 0.975), ("brown", 0.012), ("orange", 0.012),
                 ("yellow", 0.001)],
        }),
        _Node("population", ("class",), {
            (e,): [("several", 0.30), ("scattered", 0.25),
                   ("numerous", 0.14), ("solitary", 0.15),
                   ("abundant", 0.12), ("clustered", 0.04)],
            (p,): [("several", 0.52), ("solitary", 0.22),
                   ("scattered", 0.20), ("clustered", 0.06)],
        }),
        _Node("habitat", ("class",), {
            (e,): [("woods", 0.36), ("grasses", 0.33), ("meadows", 0.12),
                   ("paths", 0.10), ("urban", 0.04), ("waste", 0.04),
                   ("leaves", 0.01)],
            (p,): [("woods", 0.40), ("paths", 0.25), ("grasses", 0.17),
                   ("leaves", 0.10), ("urban", 0.06), ("meadows", 0.02)],
        }),
    )


def mushroom_schema(queriable: Optional[Sequence[str]] = None) -> Schema:
    """The 23-attribute all-categorical mushroom schema.

    All attributes are queriable by default; study task 3 hides the two
    given attributes per task instance instead of at schema level.
    """
    schema = Schema([
        Attribute(name, AttrKind.CATEGORICAL) for name in MUSHROOM_ATTRIBUTES
    ])
    if queriable is not None:
        schema = schema.with_queriable(queriable)
    return schema


def generate_mushroom(n: int = 8124, seed: int = 13) -> Table:
    """Generate the synthetic mushroom table (default UCI size, 8124).

    Deterministic given (n, seed); ancestral sampling of the network
    returned by :func:`_network`.  Each row takes one uniform per node,
    in network order, so the whole table is one ``rng.random`` block
    of shape (n, nodes), mapped node by node through each parent key's
    cdf — the draws per-row ``rng.choice(p=...)`` calls would make
    (DESIGN.md section 16).
    """
    nodes = _network()
    rng = np.random.default_rng(seed)
    uniforms = rng.random(n * len(nodes)).reshape(n, len(nodes))
    columns: Dict[str, np.ndarray] = {}
    for j, node in enumerate(nodes):
        columns[node.name] = node.sample_column(uniforms[:, j], columns)
    return Table.from_columns(mushroom_schema(), columns)
