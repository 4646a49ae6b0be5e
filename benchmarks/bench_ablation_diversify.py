"""E-DIV — ablation of the diversified top-k choice (Sec. 3.2).

The paper argues for the exact div-astar over (a) picking the top-k by
cluster size alone (redundant IUnits) and (b) greedy diversified
selection (can be arbitrarily bad).  This bench quantifies both on real
candidate IUnit sets from the used-car data:

* redundancy = number of displayed IUnit pairs with similarity >= tau;
* objective  = total score (cluster size) of the selected set.
"""

from itertools import combinations

import numpy as np
import pytest

from repro import CADViewBuilder, CADViewConfig
from repro.iunits import (
    div_astar, div_greedy, iunit_similarity, similarity_graph,
)
from bench_fig8_worst_case import MAKES, result_of_size


@pytest.fixture(scope="module")
def candidates(cars40k):
    result = result_of_size(cars40k, 20_000, np.random.default_rng(6))
    cfg = CADViewConfig(compare_limit=5, iunits_k=3, generated_l=12, seed=0)
    cad = CADViewBuilder(cfg).build(
        result, pivot="Make", pivot_values=list(MAKES)
    )
    return cad, {v: list(cad.candidates[v]) for v in cad.pivot_values}


def redundancy(units, tau):
    return sum(
        1 for a, b in combinations(units, 2)
        if iunit_similarity(a, b) >= tau
    )


def select(units, k, tau, method):
    scores = [float(u.size) for u in units]
    adj = similarity_graph(units, tau)
    if method == "size_only":
        order = np.argsort(-np.asarray(scores), kind="stable")[:k]
        return [units[i] for i in order]
    solver = div_astar if method == "div_astar" else div_greedy
    return [units[i] for i in solver(scores, adj, k)]


def test_ablation_diversification(candidates):
    cad, cands = candidates
    tau = cad.tau
    k = 3
    print("\n== E-DIV: top-k selection ablation (k=3) ==")
    print(f"{'pivot value':>12} {'method':>10} {'score':>8} {'redundant':>10}")
    totals = {m: 0.0 for m in ("size_only", "div_greedy", "div_astar")}
    redund = {m: 0 for m in totals}
    for value, units in cands.items():
        for method in totals:
            chosen = select(units, k, tau, method)
            s = sum(u.size for u in chosen)
            r = redundancy(chosen, tau)
            totals[method] += s
            redund[method] += r
            print(f"{value:>12} {method:>10} {s:>8} {r:>10}")

    print(f"totals: {totals}; redundant pairs: {redund}")
    # size-only maximizes raw score but may display redundant IUnits
    assert redund["size_only"] >= redund["div_astar"]
    # div-astar shows zero redundant pairs by construction
    assert redund["div_astar"] == 0
    assert redund["div_greedy"] == 0
    # exact never scores below greedy
    assert totals["div_astar"] >= totals["div_greedy"] - 1e-9


def test_bench_div_astar(benchmark, candidates):
    cad, cands = candidates
    units = max(cands.values(), key=len)
    scores = [float(u.size) for u in units]
    adj = similarity_graph(units, cad.tau)
    got = benchmark(lambda: div_astar(scores, adj, 6))
    assert len(got) <= 6
