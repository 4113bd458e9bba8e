"""The upset-indicator transform, its inverse, and tensor differencing.

For a collider-free poset the linear map sending e_x to the indicator of
everything above x is invertible, and its inverse has a signed-difference
form; for chains it is the familiar bidiagonal differencing matrix, so
``apply_kronecker`` of the chain inverses differences a tensor along every
mode, as ``np.diff`` does axis by axis.  Under the product of these maps,
finite-ND-rank membership turns into plain entrywise nonnegativity, and a
probability mass function maps to its cumulative distribution.
"""

import numpy as np

from ndrank import (
    apply_kronecker,
    chain,
    mobius_inverse_matrix,
    mobius_matrix,
    product,
)
from ndrank.tensor import outer

c4 = chain(4)
M = mobius_matrix(c4)
Minv = mobius_inverse_matrix(c4)
print("upset map of a 4-chain:\n", M.astype(int))
print("its inverse (differencing):\n", Minv.astype(int))
print("product equals identity:", np.array_equal(M @ Minv, np.eye(4)))

# differencing a doubly-cumulative matrix recovers the seed
rng = np.random.default_rng(0)
seed = rng.uniform(0, 1, (3, 4))
cum = np.cumsum(np.cumsum(seed, axis=0), axis=1)
back = apply_kronecker([mobius_inverse_matrix(chain(p)) for p in cum.shape], cum)
print("\nfull differencing inverts double cumulation:", np.allclose(back, seed))

# on a product of chains, the Kronecker of inverse maps equals
# differencing along each mode in turn
maps = [mobius_inverse_matrix(chain(3)), mobius_inverse_matrix(chain(4))]
X = rng.standard_normal((3, 4))
diffed = np.diff(np.diff(X, axis=0, prepend=0.0), axis=1, prepend=0.0)
print("kronecker form matches differencing:", np.allclose(apply_kronecker(maps, X), diffed))

# probabilistic reading: the transform of a PMF is its CDF
q_row = rng.dirichlet(np.ones(3))
q_col = rng.dirichlet(np.ones(4))
pmf = outer([q_row, q_col])
cdf = apply_kronecker([mobius_matrix(chain(3)), mobius_matrix(chain(4))], pmf)
print("\nCDF of a product PMF is the product of cumulative marginals:",
      np.allclose(cdf, outer([np.cumsum(q_row), np.cumsum(q_col)])))
