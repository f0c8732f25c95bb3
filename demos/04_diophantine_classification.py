#!/usr/bin/env python3
"""The classification: the 45-point set is the only two-distance embedding.

A two-distance embedding forces three quartic conditions p1 = p2 = p3 = 0 on
(S, m, x, y).  This demo re-derives the solution set three independent ways:
symbolic identities for the parametrized solution curve, a brute-force
lattice search, and the quadratic exclusions that close the S-ranges.  One
survivor remains: (S, m, x, y) = (2, 9, 1, 0), the design of demo 01.
"""

from twodist.dioph import (
    brute_solver,
    classify,
    eval_p,
    quadratic_exclusions,
    verify_identities,
    z_of,
)

print("p-values at the survivor:",
      [eval_p(w, 2, 9, 1, 0) for w in ("p1", "p2", "p3")],
      "| swapped branch p1:", eval_p("p1", 2, 9, 0, 1))

identities = verify_identities()
if all(step.passed for step in identities):
    print(f"\n{len(identities)} symbolic identities hold (each residue is the zero polynomial):")
else:
    print("\nsymbolic identities: some FAIL (the failing ones show their residue):")
for step in identities:
    print(f"  - {step.claim}, {step.covers}" + ("" if step.passed else f": {step.witness}"))

print("\nbrute force over 0 <= y < x < S <= 30, S < m <= 400 with the gate on:")
for cert in brute_solver(30, 400):
    S, m, x, y, z = cert.candidate
    mark = "ACCEPTED" if cert.accepted else "rejected"
    print(f"  (S,m,x,y)=({S},{m},{x},{y}) z={z_of(S, m, x)}  {mark}"
          + ("" if cert.accepted else f"  [{cert.verdict.split(': ', 1)[1][:48]}...]"))

print("\nwalking the solution family, all gates on:")
for cert in classify(8):
    deciding = next((g for g in cert.gates if not g.passed), cert.gates[-1])
    print(f"  z={cert.candidate[4]}: {cert.smxy} -> {cert.verdict[:84]}\n"
          f"      decided by {deciding.claim} on {deciding.covers}: {deciding.method}")

print("\nquadratic S-range exclusions:")
ex = quadratic_exclusions()
for entry in ex.entries:
    roots = ", ".join(str(r) for r in entry.roots)
    print(f"  {entry.label:22s} {entry.quadratic} -> z in {{{roots}}}")
print("non-square discriminants:", ex.nonsquare_discriminants)
print("\n=> the only integer parameter left standing is z = 1: the 45-point set.")
