#!/usr/bin/env python3
"""The exact parameter calculus and the integrality gate.

Every quasi-symmetric design determines eight derived quantities
(Lambda, T, N, P, n, k, r, s) as rational functions of (m, S, alpha, beta).
For a design to exist they must all be integers (and Lambda >= 1).  The gate
reports precisely which condition fails, which is what drives the
classification in demo 04.
"""

from twodist.designs import derive_parameters, integrality_violations
from twodist.dioph import family_points

CASES = [
    (9, 2, 1, 0),        # the 45-point configuration's design
    (27, 7, 3, 1),       # next point on the family curve
    (54, 15, 6, 3),      # fails: T = 795/2
    (90, 26, 10, 6),     # integral again, killed later by the tight filter
    (23, 7, 3, 1),       # the Witt 4-(23,7,1) design as a 2-design
]

for m, S, alpha, beta in CASES:
    p = derive_parameters(m, S, alpha, beta)
    violations = list(integrality_violations(p))
    print(f"(m={m}, S={S}, alpha={alpha}, beta={beta})")
    print(f"  Lambda={p.Lambda} T={p.T} N={p.N} P={p.P} n={p.n} k={p.k} r={p.r} s={p.s}")
    print(f"  block graph: lambda={p.lambda_graph} mu={p.mu_graph}")
    for violation in violations:
        print(f"  gate: FAIL — {violation}")
    if not violations:
        print("  gate: pass")
    print()

print("family (i) walks these tuples for z = 1, 2, 3, 4:")
for z in (1, 2, 3, 4):
    print(f"  z={z}: (S,m,x,y) = {family_points(z)}")
