"""Posets, their product, and the rays of the order cone.

The ground objects of the package are finite posets given by their cover
relations.  Each poset carries an order cone: the nonnegative vectors that
are nondecreasing along the order.  Its extremal rays are indicators of
connected upsets, so a 2 x 3 grid order yields "staircase" matrices.
``order_cone_vrep`` returns them as the rows of one 0/1 matrix.
"""

import numpy as np

from ndrank import chain, connected_upsets, count_antichains, from_relation, product
from ndrank import order_cone_vrep

# a chain is a total order; a "fork to the top" order has two incomparable
# elements below a common maximum
c3 = chain(3)
fork = from_relation(["low-a", "low-b", "top"], [("low-a", "top"), ("low-b", "top")])
print("chain(3) covers:      ", [(c3.labels[a], c3.labels[b]) for a, b in c3.covers])
print("fork covers:          ", [(fork.labels[a], fork.labels[b]) for a, b in fork.covers])

# connected upsets index the extremal rays of the order cone
print("chain(3) upsets:      ", [sorted(u) for u in connected_upsets(c3)])
print("fork upsets:          ", [sorted(u) for u in connected_upsets(fork)])

# the product order compares coordinatewise; for two chains the rays of the
# product cone are staircase matrices, each a row of the (rays, 6) matrix
grid = product([chain(2), chain(3)])
print("\n2 x 3 grid: ", grid.p, "elements,", len(grid.covers), "covers,",
      count_antichains(grid), "antichains")
print("staircase rays of the product order cone:")
for g in order_cone_vrep(grid):
    print(np.asarray(g, dtype=int).reshape(2, 3), "\n")
