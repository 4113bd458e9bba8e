"""How large can the ND rank get, and how common is finite ND rank?

For a matrix whose row and column orders are both "two elements below one
top", the maximum ND rank is 4 even though the matrix is only 3 x 3, and a
specific integer matrix attains it.  Uniform sampling of the order polytope
shows how quickly finite ND rank becomes rare as the grid grows.
"""

import numpy as np

from ndrank import (
    FitConfig,
    collider_to_top,
    datasets,
    hals,
    rank_bounds,
    sample_finite_rank_probability,
    tri_factorization_verify,
)

fork = collider_to_top(3)
b = rank_bounds([fork, fork])
print("3 x 3 with forked orders: ray counts", b.extremal_ray_counts,
      "| max ND rank", b.exact_max, "| typical ranks", b.typical_range)

T, posets = datasets.fixture("collider3")
print("\nwitness matrix:\n", T.astype(int))
chk = tri_factorization_verify(T, np.eye(4), posets)
print("tri-factorization with the identity mixing matrix: residual", chk.residual)

for r in (4, 3):
    _, report = hals(T, posets, FitConfig(rank=r, restarts=10, seed=0))
    print(f"best rank-{r} fit residual: {report.final_residual:.2e}")
# rank 4 is exact to solver precision; rank 3 stays bounded away from zero,
# numerical evidence that the ND rank is really 4

print("\nshare of the order polytope with finite ND rank:")
for m in (1, 2, 3):
    est = sample_finite_rank_probability(m, 100_000, seed=5)
    print(f"  {m} x {m} grid: {est.estimate:.4f} +/- {est.stderr:.4f}")
# the 4 x 4 grid's 24 024 linear extensions are tabulated once; finite rank
# is rare enough there that two million samples see fewer than a hundred
est = sample_finite_rank_probability(4, 2_000_000, seed=5)
print(f"  4 x 4 grid: {est.estimate:.1e} +/- {est.stderr:.0e} ({est.members}/{est.n_samples})")
