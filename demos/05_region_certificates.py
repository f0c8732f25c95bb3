#!/usr/bin/env python3
"""Certificates for the auxiliary-function bounds, for every integer z.

The integer solutions of the system are pinned down by two auxiliary
functions g1, g2 that are integer-valued on candidate parameters yet provably
trapped inside short open intervals.  Each bound is proved by a fixed list of
steps: a polynomial, an affine substitution in u, w >= 0, and Polya's test
(every coefficient >= 0, the constant > 0); the pieces of each region
cover every integer z it needs.  g1 has one form, its numerator and
denominator in x and t = z(z+1)/2, and its 8 steps substitute into that
form; g2's 18 steps and the y2 curve's 4 substitute into integer tables,
30 steps in all.  The one boundary case g1 = 1 is read off the t-form on
the strip x = t - 1 and solved in closed form: its roots are
(-1 +- sqrt(41))/2, so no integer slips through.

The box options only choose which lattice points are counted per region;
the proof is the same for every box.
"""

from twodist.dioph import _Y2_CURVE, region_scan, y2_curve_search
from twodist.regions import y2_curve_proof


def show(steps):
    for step in steps:
        print(f"  {step.method:8} {step.claim:46} covers {step.covers}")


print("g1: (0,1) off the strip, (0,2) on the strip x = t - 1, t = z(z+1)/2:")
g1 = region_scan("g1", zmin=-25, zmax=25, xmax=400)
show(g1.steps)
print(f"  {len(g1.violations)} violations; lattice points of |z| <= 25, x <= 400:",
      g1.points_checked)
strip = g1.notes["strip_equation"]
print("  strip equation g1 = 1 reduces to z^2 + z - 10 = 0,"
      f" roots {strip.roots[0]} and {strip.roots[1]}")
print("  integer roots on the strip:", strip.integer_roots or "none")

print("\ng2: (31,33) for x in {1,2} outside z in [-14, 9], (-1,38) for x >= 3:")
g2 = region_scan("g2", zmin=-25, zmax=25, xmax=400)
show(g2.steps)
print(f"  {len(g2.violations)} violations; lattice points of |z| <= 25, x <= 400:",
      g2.points_checked)
print("  integral g2 values for x in {1,2}, z in [-14, 9]:",
      g2.notes["integer_values"])

print("\nthe second-branch curve p3 = 0 (cleared) for x >= 1:")
show(y2_curve_proof(_Y2_CURVE))
hits = y2_curve_search(3, 400, -25, 25)
print(f"  {len(hits)} lattice points with x in [3,400], |z| <= 25, all on the line z = 0:",
      all(z == 0 for _, z in hits))
