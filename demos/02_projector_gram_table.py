#!/usr/bin/env python3
"""From the abstract design to the same 45 points, with no coordinates.

The 2-(9,2,1) design induces a two-fiber configuration with nine relations.
Its adjacency algebra carries a rank-8 symmetric idempotent E; the entries
of E are the Gram matrix of an embedding into two concentric spheres.  One
free parameter remains: the radius R2 of the block sphere.  Choosing
R2 = sqrt(14)/3 reproduces the two-distance set of demo 01 exactly.
"""

from twodist.coherent import from_design, projector_and_gram, verify_axioms
from twodist.designs import lisonek_design
from twodist.exactnum import parse_scalar
from twodist.geometry import (
    native_block_radius,
    native_gram_distances,
    spectrum_from_gram,
    theoretical_spectrum,
    two_distance_classify,
)

design = lisonek_design()
cc = from_design(design)
print("design: 2-(9,2,1),", design.block_count, "blocks,", cc.params.as_dict())

axioms = verify_axioms(cc)
print("\ncoherent-configuration axioms:", "ok" if axioms.ok else axioms.violation)
print("sample intersection numbers: p_33^3 =", axioms.p_constant(3, 3, 3),
      " p_44^4 =", axioms.p_constant(4, 4, 4),
      " p_44^2 =", axioms.p_constant(4, 4, 2))

result = projector_and_gram(cc)   # raises if E^2 != E, E^T != E or trace != 8
print("\nGram classes of the projector E (all exact):")
for name, value in result.gram.items():
    print(f"  {name:8s} {value}")

native = native_gram_distances(result.gram)
print("\nprojector-frame squared distances (V at mutual distance 1):")
for name, value in native.items():
    print(f"  {name:10s} {value}")
print("native block radius:", native_block_radius(result.gram))

# the free radius: generic choices give up to 5 distances, the root gives 2
for r2_text in ("1/3", "1", "1/3*sqrt(14)"):
    spec = spectrum_from_gram(result.gram, parse_scalar(r2_text))
    distinct = spec.distinct_squared()
    print(f"\nR2 = {r2_text}: {len(distinct)} distinct squared distances:",
          sorted(str(v) for v in distinct))

spec = spectrum_from_gram(result.gram, parse_scalar("1/3*sqrt(14)"))
verdict = two_distance_classify(spec)
print("\ntwo-distance at the root radius:", verdict.is_two_distance,
      "| gamma =", verdict.gamma_sq, "| case", verdict.letter)

theory = theoretical_spectrum(2, 9, 1, 0, "gt2")
print("closed-form spectrum agrees with the Gram route:",
      theory.classes == spec.classes)
