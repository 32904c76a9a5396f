"""When can a secret be disclosed at the best possible rate 1/2?

Every vertex of a CDS instance is a signal; qualified edges must reveal
the secret, unqualified edges must reveal nothing.  Rate 1/2 (one secret
symbol per two transmitted symbols) is achievable exactly when no
qualified edge connects two vertices that an unqualified path already
ties together inside the same qualified component.
"""

from cdskit import (
    half_rate_feasible,
    qualified_components,
    unqualified_components_within,
)
from cdskit.synthesis import builtin_example1_instance, builtin_fig2_instance

good = builtin_example1_instance()
print("== a feasible instance ==")
print(f"vertices: {', '.join(good.vertices)}")
parts = qualified_components(good)
for block in parts.blocks:
    unq = unqualified_components_within(good, block)
    print(f"qualified component {block}:")
    for sub in unq.blocks:
        print(f"  unqualified component {sub}")
result = half_rate_feasible(good)
print(f"half-rate feasible? {result.feasible}")
print()

bad = builtin_fig2_instance()
print("== the smallest infeasible instance ==")
result = half_rate_feasible(bad)
print(f"half-rate feasible? {result.feasible}")
edge = result.witness_edge
path = result.witness_path.vertices
print(f"witness: qualified edge {{{edge[0]}, {edge[1]}}} joins the endpoints")
print(f"of the unqualified path ({', '.join(path)}).")
print("Those two signals would have to be equal (security along the path)")
print("and still decode the secret together - impossible, so the rate")
print("must drop below 1/2 for this graph.")
