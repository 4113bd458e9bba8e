"""Finite posets represented by their Hasse diagram of cover relations.

Elements are indexed 0..p-1 in declaration order; a label table maps indices
to user-facing names.  All order queries derive from ``leq``, the reflexive
transitive closure of the cover relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleError, ParseError, TooLarge, UnknownLabel

CONNECTED_UPSET_GUARD = 24
LINEAR_EXTENSION_GUARD = 12
LINEAR_EXTENSION_COUNT_LIMIT = 1_000_000


@dataclass(frozen=True, eq=False)
class Poset:
    """A finite poset.

    Parameters
    ----------
    labels : tuple
        Element names in declaration order.
    covers : tuple of (int, int)
        Index pairs ``(x, y)`` meaning y covers x (x is immediately below y).
    leq : numpy.ndarray of bool, shape (p, p)
        ``leq[x, y]`` is True iff x <= y.  Reflexive, antisymmetric,
        transitive, and equal to the reflexive-transitive closure of covers.
    """

    labels: tuple
    covers: tuple
    leq: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.leq.setflags(write=False)
        # the projection caches look a poset up on every call; hashing the
        # cover set each time was a measurable share of a small projection
        object.__setattr__(self, "_hash", hash((self.labels, frozenset(self.covers))))

    @property
    def p(self) -> int:
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and set(self.covers) == set(other.covers)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild rather than copy the cached hash: string hashes differ
        # between processes
        return Poset, (self.labels, self.covers, self.leq)

    def __repr__(self):
        return f"Poset(p={self.p}, covers={sorted(self.covers)})"

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def upper_covers(self, x: int) -> list[int]:
        return [b for a, b in self.covers if a == x]

    def minimal_elements(self) -> list[int]:
        has_lower = {b for _, b in self.covers}
        return [x for x in range(self.p) if x not in has_lower]

    def maximal_elements(self) -> list[int]:
        has_upper = {a for a, _ in self.covers}
        return [x for x in range(self.p) if x not in has_upper]


def _closure_from_edges(p: int, edges) -> np.ndarray:
    """Reflexive-transitive closure of an edge set, as a boolean matrix."""
    reach = np.eye(p)
    for a, b in edges:
        reach[a, b] = 1.0
    # repeated squaring of the reflexive relation, as float64 products:
    # numpy's boolean matmul has no BLAS kernel and is several times slower.
    # Squaring only adds pairs, so an unchanged count means a fixed point.
    count = np.count_nonzero(reach)
    while True:
        reach = np.minimum(reach @ reach, 1.0)
        count, before = np.count_nonzero(reach), count
        if count == before:
            return reach > 0


def _reduce_closure(leq: np.ndarray) -> tuple:
    """Transitively reduced cover pairs of a closure matrix (unique for posets)."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    f = strict.astype(float)
    two_step = (f @ f) > 0
    cov = strict & ~two_step
    xs, ys = np.nonzero(cov)
    return tuple(sorted(zip(xs.tolist(), ys.tolist())))


def from_relation(labels, edges) -> Poset:
    """Build a poset from an arbitrary (not necessarily reduced) relation.

    Parameters
    ----------
    labels : sequence
        Distinct element names; declaration order fixes internal indices.
    edges : sequence of (label, label)
        Pairs ``(x, y)`` asserting x < y.  Redundant edges are reduced away.

    Raises
    ------
    ValueError
        If two labels are equal.
    CycleError
        If the edge digraph has a directed cycle, a self-loop ``(x, x)``
        included: x < x contradicts a strict order.
    UnknownLabel
        If an edge references an undeclared label.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    lut = {lab: i for i, lab in enumerate(labels)}
    idx_edges = []
    for a, b in edges:
        if a not in lut:
            raise UnknownLabel(f"edge references undeclared label {a!r}")
        if b not in lut:
            raise UnknownLabel(f"edge references undeclared label {b!r}")
        if lut[a] == lut[b]:
            raise CycleError(f"relation contains a cycle: {a!r} < {b!r}")
        idx_edges.append((lut[a], lut[b]))
    leq = _closure_from_edges(len(labels), idx_edges)
    sym = leq & leq.T & ~np.eye(len(labels), dtype=bool)
    if sym.any():
        x, y = np.argwhere(sym)[0]
        raise CycleError(f"relation contains a cycle through {labels[x]!r} and {labels[y]!r}")
    return Poset(labels=labels, covers=_reduce_closure(leq), leq=leq)


def chain(p: int) -> Poset:
    """Total order 1 < 2 < ... < p."""
    if p < 1:
        raise ValueError("p must be positive")
    labels = tuple(range(1, p + 1))
    return from_relation(labels, [(i, i + 1) for i in range(1, p)])


def trivial(p: int) -> Poset:
    """Antichain of p elements: no ordering constraints."""
    if p < 1:
        raise ValueError("p must be positive")
    return from_relation(tuple(range(1, p + 1)), [])


def collider_to_top(p: int) -> Poset:
    """Order with elements 1..p-1 incomparable and all below element p."""
    if p < 1:
        raise ValueError("p must be positive")
    labels = tuple(range(1, p + 1))
    return from_relation(labels, [(i, p) for i in range(1, p)])


def product(factors) -> Poset:
    """Product poset with coordinatewise order.

    The ground set is the Cartesian product of the factor ground sets in
    row-major order (last factor varies fastest), matching the flattening of
    a tensor with one mode per factor.  Covers are the pairs differing in
    exactly one coordinate by a cover of that factor.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    labels = tuple(itertools.product(*(f.labels for f in factors)))
    sizes = [f.p for f in factors]
    strides = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    covers = []
    for flat, tup in enumerate(itertools.product(*(range(s) for s in sizes))):
        for j, f in enumerate(factors):
            for b in f.upper_covers(tup[j]):
                covers.append((flat, flat + (b - tup[j]) * strides[j]))
    leq = np.array([[True]])
    for f in factors:
        leq = np.kron(leq, f.leq)
    return Poset(labels=labels, covers=tuple(sorted(covers)), leq=leq)


def has_collider(P: Poset) -> bool:
    """True iff two distinct elements are covered by a common element."""
    seen = {}
    for a, b in P.covers:
        if b in seen and seen[b] != a:
            return True
        seen[b] = a
    return False


def is_simplicial(P: Poset) -> bool:
    """True iff the order cone of P is simplicial (no colliders)."""
    return not has_collider(P)


def _component(start: int, within: int, adj: list[int]) -> int:
    """Bitmask of the elements of ``within`` reachable from ``start`` (a
    bitmask inside ``within``) along edges of ``adj`` that stay in ``within``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            m ^= bit
            nxt |= adj[bit.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def connected_upsets(P: Poset) -> list[frozenset]:
    """All non-empty upsets whose induced (undirected) Hasse subgraph is connected.

    Returned in a deterministic order: by size, then lexicographically by
    sorted element indices.  Worst-case exponential; guarded at p <= 24.
    """
    if P.p > CONNECTED_UPSET_GUARD:
        raise TooLarge(f"connected_upsets is guarded at p <= {CONNECTED_UPSET_GUARD} (got {P.p})")
    adj = [0] * P.p  # undirected Hasse neighbours
    upper_masks = [0] * P.p
    for a, b in P.covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        upper_masks[a] |= 1 << b

    found: list[int] = []
    unseen = (1 << P.p) - 1
    while unseen:
        comp = _component(unseen & -unseen, unseen, adj)
        unseen ^= comp
        # maximal elements of the component first: an element may only be
        # added once everything above it is already in the mask
        order = sorted((i for i in range(P.p) if comp >> i & 1),
                       key=lambda x: int(P.leq[x].sum()))

        def walk(i: int, mask: int):
            if i == len(order):
                if mask and _component(mask & -mask, mask, adj) == mask:
                    found.append(mask)
                return
            walk(i + 1, mask)  # exclude order[i]
            e = order[i]
            if upper_masks[e] & ~mask == 0:
                walk(i + 1, mask | (1 << e))

        walk(0, 0)
    sets = [frozenset(i for i in range(P.p) if m >> i & 1) for m in found]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def count_antichains(P: Poset) -> int:
    """Number of non-empty antichains (pairwise-incomparable subsets).

    For posets with a maximum element this equals the number of connected
    upsets.  Runs in time proportional to the count itself.
    """
    comparable = [0] * P.p
    for x in range(P.p):
        for y in range(P.p):
            if P.leq[x, y] or P.leq[y, x]:
                comparable[x] |= 1 << y

    def count(start: int, allowed: int) -> int:
        total = 0
        m = allowed >> start << start
        while m:
            bit = m & -m
            m ^= bit
            j = bit.bit_length() - 1
            total += 1 + count(j + 1, allowed & ~comparable[j])
        return total

    return count(0, (1 << P.p) - 1)


class _Downsets:
    """Counts of linear extensions of upsets, given as bitmasks, and the
    listing of all extensions.  An extension of U starts with a minimal x of
    U, so count(U) sums count(U - x)."""

    def __init__(self, P: Poset):
        self.full = (1 << P.p) - 1
        self._lower = [0] * P.p
        for a, b in P.covers:
            self._lower[b] |= 1 << a
        self._counts = {0: 1}

    def minimal(self, remaining: int):
        """Yield ``(x, bit)`` for each element x minimal in ``remaining``."""
        lower = self._lower
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            x = bit.bit_length() - 1
            if lower[x] & remaining == 0:
                yield x, bit

    def count(self, remaining: int) -> int:
        c = self._counts.get(remaining)
        if c is None:
            c = 0
            for _, bit in self.minimal(remaining):
                c += self.count(remaining ^ bit)
            self._counts[remaining] = c
        return c

    def extensions(self) -> list[tuple]:
        """Every linear extension as an index tuple, in depth-first order
        over the minimal elements.  Unguarded: callers bound the count."""
        out: list[tuple] = []
        prefix: list[int] = []

        def walk(remaining: int):
            if not remaining:
                out.append(tuple(prefix))
                return
            for x, bit in self.minimal(remaining):
                prefix.append(x)
                walk(remaining ^ bit)
                prefix.pop()

        walk(self.full)
        return out


def count_linear_extensions(P: Poset) -> int:
    """Exact count of linear extensions via dynamic programming over upsets."""
    if P.p > 2 * LINEAR_EXTENSION_GUARD:
        raise TooLarge(f"extension counting guarded at p <= {2 * LINEAR_EXTENSION_GUARD}")
    dp = _Downsets(P)
    return dp.count(dp.full)


def linear_extensions(P: Poset) -> list[tuple]:
    """All total orders (as index tuples) consistent with the poset order.

    Guarded at p <= 12 elements and at most one million extensions.
    """
    if P.p > LINEAR_EXTENSION_GUARD:
        raise TooLarge(f"linear_extensions is guarded at p <= {LINEAR_EXTENSION_GUARD} (got {P.p})")
    dp = _Downsets(P)
    if dp.count(dp.full) > LINEAR_EXTENSION_COUNT_LIMIT:
        raise TooLarge("poset has more than 1e6 linear extensions")
    return dp.extensions()


# ---------------------------------------------------------------------------
# text format:  line 1  "elements: a,b,c"; then relation lines "a < c";
# comments start with '#'.

def parse_poset_text(text: str) -> Poset:
    """Parse the poset text format: an ``elements: a,b,c`` line, then one
    ``x < y`` line per relation; ``#`` starts a comment.

    Raises :class:`ParseError` on every malformed input: no ``elements:``
    line, or one that is not the first; an empty element list or a repeated
    label (both reported at the ``elements:`` line); a relation line that is
    not ``x < y``, one naming an undeclared label, or a line ``x < x`` (each
    reported at its line); a cycle through several lines.
    """
    labels = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("elements:"):
                raise ParseError("first line must be 'elements: a,b,c'", line=lineno)
            labels = [s.strip() for s in line[len("elements:"):].split(",") if s.strip()]
            if not labels:
                raise ParseError("empty element list", line=lineno)
            if len(set(labels)) != len(labels):
                raise ParseError("element labels must be distinct", line=lineno)
            declared = set(labels)
            continue
        if "<" not in line:
            raise ParseError(f"expected 'x < y', got {line!r}", line=lineno)
        left, _, right = line.partition("<")
        a, b = left.strip(), right.strip()
        if not a or not b:
            raise ParseError(f"expected 'x < y', got {line!r}", line=lineno)
        for x in (a, b):
            if x not in declared:
                raise ParseError(f"edge references undeclared label {x!r}", line=lineno)
        if a == b:
            raise ParseError(f"relation contains a cycle: {a!r} < {b!r}", line=lineno)
        edges.append((a, b))
    if labels is None:
        raise ParseError("missing 'elements:' header", line=1)
    try:
        return from_relation(labels, edges)
    except (UnknownLabel, CycleError) as exc:
        raise ParseError(str(exc)) from exc


def format_poset_text(P: Poset) -> str:
    lines = ["elements: " + ",".join(str(lab) for lab in P.labels)]
    lines += [f"{P.labels[a]} < {P.labels[b]}" for a, b in P.covers]
    return "\n".join(lines) + "\n"


def read_poset(path) -> Poset:
    with open(path, encoding="utf-8") as fh:
        return parse_poset_text(fh.read())


def write_poset(P: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_poset_text(P))
