"""Exact Shannon-type converse bounds by rational linear programming.

One LP variable per nonempty subset of {secret} + signals, the elemental
Shannon inequalities as the cone, decodability/security as equalities,
and all signal entropies normalized to 1.  Maximizing H(S) and halving
gives an upper bound on the rate - computed here in exact rationals and
certified by dual weights that recombine to the optimum.

For the 6-vertex obstruction instance the bound lands at 5/12, strictly
above the best linear rate 2/5: closing that gap needs either non-linear
schemes or inequalities beyond the Shannon cone, and nobody knows which.
"""

from cdskit import dual_certificate, rate_report, shannon_bound
from cdskit.instance import CdsInstance
from cdskit.synthesis import builtin_fig2_instance, builtin_fig2_scheme

# Warm-up: a single qualified edge with one unqualified partner.
tiny = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])
res = shannon_bound(tiny)
print(f"tiny instance: rate bound {res.rate_bound} (max H(S) = {res.entropy_bound})")
print("certificate:")
print(dual_certificate(res.solution, res.lp))

inst = builtin_fig2_instance()
res = shannon_bound(inst)
print(f"6-vertex instance: rate bound {res.rate_bound} "
      f"(max H(S) = {res.entropy_bound}, "
      f"{res.lp.rows.m} constraints, {res.lp.n_vars} variables)")

weights = sum(1 for y in res.solution.duals if y != 0)
print(f"dual certificate uses {weights} constraints; re-verified exactly.")

sch = builtin_fig2_scheme()
report = rate_report(inst, sch, converse=res.rate_bound)
lo, hi = report.bounds
print(f"\ncapacity interval: [{lo}, {hi}]")
assert lo < hi
print(f"the gap of {hi - lo} is real: linear schemes top out at {lo}, "
      f"Shannon inequalities cannot push below {hi}.")
