"""Discovering a dataset's dependency structure before exploring it.

Before a user even picks a Pivot Attribute, the library can map how the
attributes interact — the machinery the paper's related work points to
(functional dependencies / CORDS [16], Bayesian networks [15]) built on
the same substrate as the CAD View:

1. exact and soft functional dependencies;
2. the strongest pairwise correlations (Cramér's V);
3. a Chow–Liu tree of the whole schema (the maximum-likelihood
   tree-shaped Bayesian network), whose edges say which attribute
   best explains which;
4. a warehouse-style group-by aggregate for contrast with the CAD
   View's context-dependent summaries.

Run:  python examples/schema_discovery.py
"""

from repro.dataset.generators import generate_usedcars
from repro.discretize import Discretizer
from repro.features import (
    ChowLiuTree,
    correlation_pairs,
    discover_dependencies,
)
from repro.query import AggregateSpec, group_by


def main() -> None:
    cars = generate_usedcars(20_000, seed=7)

    print("=== soft functional dependencies (strength >= 0.98) ===")
    for dep in discover_dependencies(cars, threshold=0.98, seed=1):
        print(f"  {dep}")

    print("\n=== strongest correlations (Cramér's V) ===")
    for x, y, v in correlation_pairs(cars, seed=1)[:8]:
        print(f"  {x:>12} ~ {y:<12} {v:.3f}")

    print("\n=== Chow–Liu dependency tree ===")
    view = Discretizer(nbins=6).fit(cars)
    tree = ChowLiuTree.fit(view, root="Make")
    for parent, child, mi in sorted(tree.edges, key=lambda e: -e[2]):
        print(f"  {parent:>12} — {child:<12} (MI {mi:.2f} bits)")
    print(f"  model log-likelihood: {tree.loglik(view):,.0f} bits")

    print("\n=== OLAP contrast: mean price by body type x drivetrain ===")
    g = group_by(
        cars, ["BodyType", "Drivetrain"],
        [AggregateSpec("count"), AggregateSpec("mean", "Price")],
    )
    for key in g.sorted_keys():
        count = g.value(key, "count(*)")
        price = g.value(key, "mean(Price)")
        print(f"  {str(key):>24}: n={count:>6.0f}  mean ${price:>9,.0f}")
    print("\n(the group-by answers 'what is the average?'; the CAD View "
          "answers")
    print(" 'how do my shortlisted makes differ, given what I've already")
    print(" selected?' — run examples/used_car_exploration.py for that)")


if __name__ == "__main__":
    main()
