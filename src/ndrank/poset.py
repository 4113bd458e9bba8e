"""Finite posets represented by their Hasse diagram of cover relations.

Elements are indexed 0..p-1 in declaration order; a label table maps indices
to user-facing names.  A poset stores its labels and covers; order queries
read each element's strict upper set as a bit row, unpacked into ``leq``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CycleError, ParseError, TooLarge, UnknownLabel

CONNECTED_UPSET_GUARD = 24
LINEAR_EXTENSION_GUARD = 12
LINEAR_EXTENSION_COUNT_LIMIT = 1_000_000
ANTICHAIN_COUNT_LIMIT = 1_000_000


@dataclass(frozen=True, eq=False)
class Poset:
    """A finite poset, stored as its labels and covers; ``leq`` is derived.

    Parameters
    ----------
    labels : tuple
        Element names in declaration order.
    covers : tuple of (int, int)
        Index pairs ``(x, y)`` meaning y covers x (x is immediately below y).
    """

    labels: tuple
    covers: tuple

    def __post_init__(self):
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
        return Poset, (self.labels, self.covers)

    def __repr__(self):
        return f"Poset(p={self.p}, covers={sorted(self.covers)})"

    @functools.cached_property
    def _upper(self) -> list[int]:
        """Strict upper set of each element, as a bit row."""
        return _close(self.labels, self.covers)[0]

    @functools.cached_property
    def leq(self) -> np.ndarray:
        """Read-only boolean matrix, unpacked from the bit rows in one step."""
        width = self.p // 8 + 1
        rows = b"".join((up | 1 << x).to_bytes(width, "little") for x, up in enumerate(self._upper))
        raw = np.frombuffer(rows, dtype=np.uint8).reshape(self.p, width)
        leq = np.unpackbits(raw, axis=1, count=self.p, bitorder="little").view(bool)
        leq.setflags(write=False)
        return leq

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


def _bits(mask: int):
    """Yield the index of each set bit of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(labels, edges) -> tuple[list[int], tuple]:
    """Strict upper sets (bit rows) and sorted covers generated by index pairs:
    rows are OR-ed down a topological (Kahn) order, and an edge is a cover
    unless it ends in another successor's row (Aho, Garey & Ullman 1972)."""
    p = len(labels)
    succ, out, indeg = [0] * p, [[] for _ in range(p)], [0] * p
    for a, b in set(edges):  # a repeated edge counts once
        succ[a] |= 1 << b
        out[a].append(b)
        indeg[b] += 1
    order = [x for x in range(p) if not indeg[x]]
    for x in order:  # the list grows as elements are freed
        for y in out[x]:
            indeg[y] -= 1
            if not indeg[y]:
                order.append(y)
    if len(order) < p:  # every cycle lies in what Kahn's pass left
        left = (1 << p) - 1 - sum(1 << x for x in order)
        reach = {z: _component(1 << z, left, succ) for z in _bits(left)}
        x, y = next((x, y) for x in reach for y in _bits(reach[x] & ~(1 << x)) if reach[y] >> x & 1)
        raise CycleError(f"relation contains a cycle through {labels[x]!r} and {labels[y]!r}")
    upper, covers = [0] * p, []
    for x in reversed(order):
        above = 0
        for y in out[x]:
            above |= upper[y]
        upper[x] = succ[x] | above
        covers += [(x, y) for y in out[x] if not above >> y & 1]
    return upper, tuple(sorted(covers))


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
        for x in (a, b):
            if x not in lut:
                raise UnknownLabel(f"edge references undeclared label {x!r}")
        if lut[a] == lut[b]:
            raise CycleError(f"relation contains a cycle: {a!r} < {b!r}")
        idx_edges.append((lut[a], lut[b]))
    upper, covers = _close(labels, idx_edges)
    P = Poset(labels, covers)
    vars(P)["_upper"] = upper  # fill the cache with the rows just found
    return P


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
    strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    covers = sorted((flat, flat + (b - tup[j]) * strides[j])
                    for flat, tup in enumerate(itertools.product(*(range(s) for s in sizes)))
                    for j, f in enumerate(factors) for b in f.upper_covers(tup[j]))
    return Poset(labels, tuple(covers))


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
        for x in _bits(frontier):
            nxt |= adj[x]
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
    for a, b in P.covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    found: list[int] = []
    unseen = (1 << P.p) - 1
    while unseen:
        comp = _component(unseen & -unseen, unseen, adj)
        unseen ^= comp
        # maximal elements of the component first: an element may only be
        # added once everything above it is already in the mask
        order = sorted(_bits(comp), key=lambda x: P._upper[x].bit_count())

        def walk(i: int, mask: int):
            if i == len(order):
                if mask and _component(mask & -mask, mask, adj) == mask:
                    found.append(mask)
                return
            walk(i + 1, mask)  # exclude order[i]
            e = order[i]
            if P._upper[e] & ~mask == 0:
                walk(i + 1, mask | (1 << e))

        walk(0, 0)
    sets = [frozenset(_bits(m)) for m in found]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def count_antichains(P: Poset) -> int:
    """Number of non-empty antichains (pairwise-incomparable subsets).

    For posets with a maximum element this equals the number of connected
    upsets.  Runs in time proportional to the count itself, so it raises
    ``TooLarge`` once the count passes ``ANTICHAIN_COUNT_LIMIT``; a large
    poset with few antichains, such as a long chain, is counted.
    """
    up = P._upper
    comparable = [up[x] | 1 << x | sum(1 << y for y in range(P.p) if up[y] >> x & 1)
                  for x in range(P.p)]
    total = 0

    def count(start: int, allowed: int) -> None:
        nonlocal total
        for j in _bits(allowed >> start << start):
            total += 1
            if total > ANTICHAIN_COUNT_LIMIT:
                raise TooLarge(f"poset has more than {ANTICHAIN_COUNT_LIMIT} antichains")
            count(j + 1, allowed & ~comparable[j])

    count(0, (1 << P.p) - 1)
    return total


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
        for x in _bits(remaining):
            if lower[x] & remaining == 0:
                yield x, 1 << x

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
    reported at its line); a cycle through several lines, reported at the
    line that closes the first cycle when the relations are read in order.
    """
    labels = None
    edges, linenos = [], []
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
        linenos.append(lineno)
    if labels is None:
        raise ParseError("missing 'elements:' header", line=1)
    try:
        return from_relation(labels, edges)
    except CycleError as exc:
        raise ParseError(str(exc), line=linenos[_first_cycle_edge(labels, edges)]) from exc


def _first_cycle_edge(labels, edges) -> int:
    """Index of the edge that closes the first cycle when the edges of a
    cyclic relation (without self-loops) are added in order."""
    lut = {lab: i for i, lab in enumerate(labels)}
    upper = [0] * len(labels)  # strict upper sets of the edges so far
    for k, (a, b) in enumerate(edges):
        a, b = lut[a], lut[b]
        if upper[b] >> a & 1:
            return k
        gained = 1 << b | upper[b]
        for x, up in enumerate(upper):
            if x == a or up >> a & 1:
                upper[x] = up | gained


def format_poset_text(P: Poset) -> str:
    """The poset in the text format that ``parse_poset_text`` reads.

    Raises ``ValueError`` naming the first label that would not read back
    as written: one whose text is empty, has surrounding whitespace, breaks
    the line or holds ``,``, ``<`` or ``#``, or equals an earlier label's.
    """
    seen = {}
    for lab in P.labels:
        text = str(lab)
        # an empty text has no line, so the split test catches it too
        if text != text.strip() or text.splitlines() != [text] or not set(text).isdisjoint(",<#"):
            raise ValueError(f"label {lab!r} cannot be written in the poset text format")
        if text in seen:
            raise ValueError(f"labels {seen[text]!r} and {lab!r} both write as {text!r}")
        seen[text] = lab
    lines = ["elements: " + ",".join(str(lab) for lab in P.labels)]
    lines += [f"{P.labels[a]} < {P.labels[b]}" for a, b in P.covers]
    return "\n".join(lines) + "\n"


def read_poset(path) -> Poset:
    with open(path, encoding="utf-8") as fh:
        return parse_poset_text(fh.read())


def write_poset(P: Poset, path) -> None:
    text = format_poset_text(P)  # a label it refuses leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
