"""Does a data matrix admit an exact nondecreasing factorization?

A dose-response table (three compound variants, four concentrations) looks
monotone at a glance, but monotonicity alone is not enough: the matrix must
lie in the finite-ND-rank cone, and the certificate below pins down exactly
which inequalities fail.
"""

import numpy as np

from ndrank import datasets, is_monotone, membership_finite_rank, finite_rank_hrep

T, posets = datasets.fixture("selenium")
print("data:\n", T)

mono = is_monotone(T, posets)
print("\nmonotone over the product order?", mono.member)
for v in mono.violated:
    print("   ", v.label, f"(value {v.value:+.2f})")

cert = membership_finite_rank(T, posets)
print("\nfinite ND rank?", cert.member, f"(method: {cert.method})")
for v in cert.violated:
    print("   ", v.label, f"(value {v.value:+.2f})")

# the certificate inequalities are facets of the cone: signed differences
# over covers of the bottom-augmented posets, one integer row of normals per
# facet over the flattened 3 x 4 table
normals = finite_rank_hrep(posets)
print("\nthe cone has", len(normals), "facet inequalities; the first few normals:")
print(normals[:4])

# contrast: a staircase matrix is monotone yet has no finite ND rank
from ndrank import chain
stair = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
print("\nstaircase matrix monotone:",
      is_monotone(stair, [chain(2), chain(3)]).member,
      "| finite ND rank:",
      membership_finite_rank(stair, [chain(2), chain(3)]).member)
