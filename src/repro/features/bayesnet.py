"""Tree-structured Bayesian network over discretized attributes.

The paper's related work: "a Bayesian network [15] can provide a more
accurate description of attribute interactions by giving probabilistic
dependencies between attributes.  These techniques can be used to
create CAD Views with other types of data summaries."

This module implements the classic Chow–Liu construction: the
maximum-spanning tree of the pairwise mutual-information graph is the
maximum-likelihood tree-shaped network.  The fitted tree exposes

* the learned dependency structure (:attr:`ChowLiuTree.edges`,
  :meth:`neighbors`) — an interaction map over the whole schema;
* smoothed CPTs and exact inference along the tree
  (:meth:`conditional`);
* ancestral sampling (:meth:`sample_codes`) and model log-likelihood
  (:meth:`loglik`), which tests use to verify the structure learner
  recovers the generators' dependency skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.discretize.discretizer import DiscretizedView
from repro.errors import QueryError
from repro.features.contingency import contingency_table

__all__ = ["ChowLiuTree"]


def _mutual_information(joint: np.ndarray) -> float:
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, p / (px @ py), 1.0)
    return float((p[mask] * np.log2(ratio[mask])).sum())


@dataclass(frozen=True)
class _Node:
    name: str
    parent: Optional[str]
    cpt: np.ndarray  # (parent_card, card) rows sum to 1; root: (1, card)


class ChowLiuTree:
    """A fitted Chow–Liu tree.  Build with :meth:`fit`."""

    def __init__(
        self,
        nodes: Mapping[str, _Node],
        order: Sequence[str],
        edges: Sequence[Tuple[str, str, float]],
        cards: Mapping[str, int],
    ):
        self._nodes = dict(nodes)
        self.order = tuple(order)          # topological (root first)
        self.edges = tuple(edges)          # (parent, child, MI)
        self._cards = dict(cards)

    # -- construction ---------------------------------------------------

    @classmethod
    def fit(
        cls,
        view: DiscretizedView,
        attributes: Optional[Sequence[str]] = None,
        root: Optional[str] = None,
        smoothing: float = 1.0,
    ) -> "ChowLiuTree":
        """Learn the tree from a discretized view.

        ``root`` picks which attribute becomes the tree root (defaults
        to the first attribute); ``smoothing`` is the Laplace prior for
        the CPTs.
        """
        names = tuple(attributes) if attributes else view.attribute_names
        if len(names) < 2:
            raise QueryError("a tree needs at least two attributes")
        for n in names:
            if n not in view:
                raise QueryError(f"attribute {n!r} not in view")
        root = root or names[0]
        if root not in names:
            raise QueryError(f"root {root!r} not among attributes")

        cards = {n: max(1, view.ncodes(n)) for n in names}
        joints: Dict[Tuple[str, str], np.ndarray] = {}
        mi: Dict[Tuple[str, str], float] = {}
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                joint = contingency_table(
                    view.codes(x), view.codes(y), cards[x], cards[y]
                )
                joints[(x, y)] = joint
                mi[(x, y)] = _mutual_information(joint)

        # maximum spanning tree via Prim's, starting from the root
        in_tree = {root}
        parent: Dict[str, str] = {}
        edge_list: List[Tuple[str, str, float]] = []
        while len(in_tree) < len(names):
            best, best_edge = -1.0, None
            for u in in_tree:
                for v in names:
                    if v in in_tree:
                        continue
                    key = (u, v) if (u, v) in mi else (v, u)
                    if mi[key] > best:
                        best, best_edge = mi[key], (u, v)
            u, v = best_edge  # type: ignore[misc]
            in_tree.add(v)
            parent[v] = u
            edge_list.append((u, v, best))

        # topological order: BFS from root
        children: Dict[str, List[str]] = {n: [] for n in names}
        for v, u in parent.items():
            children[u].append(v)
        order: List[str] = []
        frontier = [root]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            frontier.extend(sorted(children[node]))

        # CPTs with Laplace smoothing
        nodes: Dict[str, _Node] = {}
        for name in order:
            card = cards[name]
            p = parent.get(name)
            if p is None:
                codes = view.codes(name)
                counts = np.bincount(
                    codes[codes >= 0], minlength=card
                ).astype(float)
                cpt = (counts + smoothing)
                cpt = (cpt / cpt.sum()).reshape(1, card)
            else:
                key = (p, name)
                if key in joints:
                    joint = joints[key]          # (card_p, card)
                else:
                    joint = joints[(name, p)].T  # transpose to (p, name)
                cpt = joint + smoothing
                cpt = cpt / cpt.sum(axis=1, keepdims=True)
            nodes[name] = _Node(name, p, cpt)
        return cls(nodes, order, edge_list, cards)

    # -- structure ------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attributes in the tree (topological order)."""
        return self.order

    def neighbors(self, name: str) -> Tuple[str, ...]:
        """Tree neighbors = the attribute's Markov blanket in a tree."""
        self._node(name)
        out = []
        for u, v, _ in self.edges:
            if u == name:
                out.append(v)
            elif v == name:
                out.append(u)
        return tuple(sorted(out))

    def edge_strength(self, a: str, b: str) -> float:
        """Mutual information of a tree edge (0 if not an edge)."""
        for u, v, w in self.edges:
            if {u, v} == {a, b}:
                return w
        return 0.0

    # -- inference --------------------------------------------------------

    def conditional(self, name: str, parent_code: Optional[int] = None) -> np.ndarray:
        """P(name | parent = parent_code), or the root marginal."""
        node = self._node(name)
        if node.parent is None:
            return node.cpt[0].copy()
        if parent_code is None:
            raise QueryError(f"{name!r} has parent {node.parent!r}: "
                             "a parent_code is required")
        if not 0 <= parent_code < node.cpt.shape[0]:
            raise QueryError(f"parent code {parent_code} out of range")
        return node.cpt[parent_code].copy()

    def loglik(self, view: DiscretizedView) -> float:
        """Total log2-likelihood of the view's rows under the tree.

        Rows with a missing value in any tree attribute are skipped.
        """
        n = len(view)
        ll = np.zeros(n)
        valid = np.ones(n, dtype=bool)
        codes = {name: view.codes(name) for name in self.order}
        for name in self.order:
            valid &= codes[name] >= 0
        for name in self.order:
            node = self._nodes[name]
            child = codes[name]
            if node.parent is None:
                probs = node.cpt[0][np.clip(child, 0, None)]
            else:
                par = codes[node.parent]
                probs = node.cpt[
                    np.clip(par, 0, None), np.clip(child, 0, None)
                ]
            with np.errstate(divide="ignore"):
                ll += np.where(valid, np.log2(probs), 0.0)
        return float(ll[valid].sum())

    def sample_codes(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> Dict[str, np.ndarray]:
        """Ancestral samples as attribute -> int32 code arrays."""
        rng = rng or np.random.default_rng(0)
        out: Dict[str, np.ndarray] = {}
        for name in self.order:
            node = self._nodes[name]
            card = self._cards[name]
            if node.parent is None:
                out[name] = rng.choice(
                    card, size=n, p=node.cpt[0]
                ).astype(np.int32)
            else:
                parent_codes = out[node.parent]
                draws = np.empty(n, dtype=np.int32)
                for pc in np.unique(parent_codes):
                    mask = parent_codes == pc
                    draws[mask] = rng.choice(
                        card, size=int(mask.sum()), p=node.cpt[pc]
                    )
                out[name] = draws
        return out

    def _node(self, name: str) -> _Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise QueryError(
                f"attribute {name!r} not in tree ({list(self.order)})"
            ) from None
