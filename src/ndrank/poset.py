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
        leq = _unpack([up | 1 << x for x, up in enumerate(self._upper)], self.p).view(bool)
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


def _unpack(masks, p: int) -> np.ndarray:
    """Bitmasks as the rows of a 0/1 uint8 matrix of p columns, bit x in column x."""
    width = p // 8 + 1
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=1, count=p, bitorder="little")


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


def _labels(p) -> tuple:
    """1..p, the elements of a shorthand; p must be a positive integer, and a bool is none."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer (got {p!r})")
    return tuple(range(1, p + 1))


def chain(p: int) -> Poset:
    """Total order 1 < 2 < ... < p."""
    labels = _labels(p)
    return from_relation(labels, [(i, i + 1) for i in labels[:-1]])


def trivial(p: int) -> Poset:
    """Antichain of p elements: no ordering constraints."""
    return from_relation(_labels(p), [])


def collider_to_top(p: int) -> Poset:
    """Order with elements 1..p-1 incomparable and all below element p."""
    labels = _labels(p)
    return from_relation(labels, [(i, labels[-1]) for i in labels[:-1]])


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
    lo, hi = _product_covers(tuple(factors))
    return Poset(tuple(itertools.product(*(f.labels for f in factors))),
                 tuple(zip(lo.tolist(), hi.tolist())))


# a few entries only: the pairs of a 30x25x20 grid take 690 kB
@functools.lru_cache(maxsize=32)
def _product_covers(factors: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The covers (lo, hi) of ``product(factors)``, sorted, without its
    labels.  Read-only, as they are shared."""
    grid = np.arange(math.prod(P.p for P in factors)).reshape([P.p for P in factors])
    # the empty pair keeps an order-0 tensor, with no posets, coverless
    lo, hi = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for j, P in enumerate(factors):
        a, b = np.array(P.covers, dtype=np.intp).reshape(-1, 2).T
        lo.append(np.take(grid, a, axis=j).ravel())
        hi.append(np.take(grid, b, axis=j).ravel())
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


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


def _upset_masks(P: Poset, parts):
    """Yield the bitmask of every non-empty upset of P inside each bitmask
    of ``parts`` (unions of components), as the upset generated by each
    non-empty antichain: an antichain is extended by a later element
    comparable to none of its members, and its upset by that element's.
    The work is proportional to the upsets yielded, and ``TooLarge`` is
    raised once more than ``ANTICHAIN_COUNT_LIMIT`` have been, over all
    parts together."""
    above = [row | 1 << x for x, row in enumerate(P._upper)]  # the upset x generates
    # the elements comparable to none of it, from the order matrix in one step
    rows = np.packbits(P.leq | P.leq.T, axis=1, bitorder="little")
    free = [~int.from_bytes(row.tobytes(), "little") for row in rows]
    walked = 0
    for part in parts:
        stack = [(part, 0)]  # the elements an antichain may still take, its upset
        while stack:
            rest, upset = stack.pop()
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                walked += 1
                if walked > ANTICHAIN_COUNT_LIMIT:
                    raise TooLarge(f"poset has more than {ANTICHAIN_COUNT_LIMIT} upsets "
                                   "(non-empty antichains)")
                mask = upset | above[j]
                yield mask
                if rest & free[j]:
                    stack.append((rest & free[j], mask))


def _connected_upset_masks(P: Poset):
    """Yield the bitmask of every non-empty connected upset of P, component
    by component, as :func:`connected_upsets` documents (its guard too)."""
    adj = [0] * P.p  # undirected Hasse neighbours
    for a, b in P.covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    comps, unseen = [], (1 << P.p) - 1
    while unseen:
        comps.append(_component(unseen & -unseen, unseen, adj))
        unseen ^= comps[-1]
    maxima = sum(1 << x for x, row in enumerate(P._upper) if not row)
    for mask in _upset_masks(P, comps):
        # an upset holding one maximal element holds a path up to it from
        # each of its elements, so it is connected
        if (mask & maxima).bit_count() == 1 or _component(mask & -mask, mask, adj) == mask:
            yield mask


def _ordered_connected_upset_masks(P: Poset) -> list[int]:
    """The bitmasks of P's connected upsets in :func:`connected_upsets`' order:
    of two masks of one size, the one larger read from bit 0 up first."""
    key = lambda m: (m.bit_count(), -int(f"{m:0{P.p}b}"[::-1], 2))  # noqa: E731
    return sorted(_connected_upset_masks(P), key=key)


def connected_upsets(P: Poset) -> list[frozenset]:
    """All non-empty upsets whose induced (undirected) Hasse subgraph is connected.

    By size, then lexicographically by sorted element indices, the order of
    ``order_cone_vrep``'s rows, unpacked from the same bitmasks.  A connected
    upset lies in one component of P, so each component's non-empty upsets
    are walked, one per antichain, in time proportional to their number; the
    walk raises ``TooLarge`` once it has met more than ``ANTICHAIN_COUNT_LIMIT``
    of them in all: a poset with more than 10^6 non-empty upsets, such as
    ``collider_to_top(21)``, is refused, and a long chain is walked.
    """
    return [frozenset(_bits(m)) for m in _ordered_connected_upset_masks(P)]


def count_connected_upsets(P: Poset) -> int:
    """``len(connected_upsets(P))``, from the same walk and with the same
    guard on the non-empty upsets it meets, without building the sets."""
    return sum(1 for _ in _connected_upset_masks(P))


def count_antichains(P: Poset) -> int:
    """Number of non-empty antichains (pairwise-incomparable subsets).

    For posets with a maximum element this equals the number of connected
    upsets.  Counts P's non-empty upsets, one per antichain, by the walk of
    :func:`connected_upsets` over all of P: ``TooLarge`` once the count
    passes ``ANTICHAIN_COUNT_LIMIT``, while a long chain, with few, is counted.
    """
    return sum(1 for _ in _upset_masks(P, [(1 << P.p) - 1]))


def _downset_walk(P: Poset, start, extend):
    """Sum ``extend`` over P's linear extensions, level by level over its
    upsets as bitmasks, never recursing: an extension of an upset U starts
    with a minimal x of U and goes on with one of U - x.  ``ways`` maps the
    upsets left after removing k elements to the sum, over the orders that
    remove them, of ``start`` extended by each removed x in turn; a level is
    consumed as the next is built.  Raises ``TooLarge`` once it has met more
    than ``ANTICHAIN_COUNT_LIMIT`` upsets, the empty one included."""
    lower = [0] * P.p
    for a, b in P.covers:
        lower[b] |= 1 << a
    ways, seen = {(1 << P.p) - 1: start}, 1
    for _ in range(P.p):
        nxt = {}
        while ways:
            upset, value = ways.popitem()
            for x in _bits(upset):
                if not lower[x] & upset:
                    rest = upset ^ 1 << x
                    if rest in nxt:
                        nxt[rest] += extend(value, x)
                    else:
                        nxt[rest] = extend(value, x)
            if seen + len(nxt) > ANTICHAIN_COUNT_LIMIT:
                raise TooLarge(f"poset has more than {ANTICHAIN_COUNT_LIMIT} upsets")
        seen += len(nxt)
        ways = nxt
    return ways[0]


def count_linear_extensions(P: Poset) -> int:
    """Exact count of linear extensions via dynamic programming over upsets.

    Refuses with ``TooLarge`` a poset with more than 10^6 upsets, such as
    ``trivial(20)``, whose table would not fit."""
    return _downset_walk(P, 1, lambda n, x: n)


def linear_extensions(P: Poset) -> list[tuple]:
    """All total orders (as index tuples) consistent with the poset order,
    in lexicographic order, listed by the walk that counts them.

    Counted first, as :func:`count_linear_extensions` counts, and refused
    with ``TooLarge`` past one million extensions.
    """
    if count_linear_extensions(P) > LINEAR_EXTENSION_COUNT_LIMIT:
        raise TooLarge("poset has more than 1e6 linear extensions")
    return sorted(_downset_walk(P, [()], lambda orders, x: [o + (x,) for o in orders]))


# ---------------------------------------------------------------------------
# text format:  line 1  "elements: a,b,c"; then relation lines "a < c";
# comments start with '#'.

def parse_poset_text(text: str) -> Poset:
    """Parse the poset text format: an ``elements: a,b,c`` line, then one
    ``x < y`` line per relation; ``#`` starts a comment.

    Raises :class:`ParseError` on every malformed input.  As the file is
    read: no ``elements:`` line, or one that is not the first; an empty
    element list or a repeated label (both at the ``elements:`` line); a
    relation line that is not ``x < y`` (at its line).  Then an undeclared
    label, a line ``x < x`` or a cycle, at the first line where the relation
    read in order becomes invalid, with :func:`from_relation`'s message for
    the lines up to that one.
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
            continue
        if "<" not in line:
            raise ParseError(f"expected 'x < y', got {line!r}", line=lineno)
        left, _, right = line.partition("<")
        a, b = left.strip(), right.strip()
        if not a or not b:
            raise ParseError(f"expected 'x < y', got {line!r}", line=lineno)
        edges.append((a, b))
        linenos.append(lineno)
    if labels is None:
        raise ParseError("missing 'elements:' header", line=1)
    try:
        return from_relation(labels, edges)
    except (CycleError, UnknownLabel) as exc:
        error = exc
    # the shortest invalid prefix ends at the line that makes the relation
    # invalid, and its own error names what that line adds
    lo, hi = 0, len(edges)  # a valid prefix and an invalid one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            from_relation(labels, edges[:mid])
            lo = mid
        except (CycleError, UnknownLabel) as exc:
            hi, error = mid, exc
    raise ParseError(str(error), line=linenos[hi - 1]) from error


def format_poset_text(P: Poset) -> str:
    """The poset in the text format that ``parse_poset_text`` reads.

    Raises ``ValueError`` for a poset with no elements, or naming the first
    label that would not read back as written: one whose text is empty, has
    surrounding whitespace, breaks the line or holds ``,``, ``<`` or ``#``,
    or equals an earlier label's.
    """
    if not P.labels:
        raise ValueError("a poset with no elements cannot be written in the poset text format")
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
    # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8" export
    with open(path, encoding="utf-8-sig") as fh:
        return parse_poset_text(fh.read())


def write_poset(P: Poset, path) -> None:
    text = format_poset_text(P)  # a poset it refuses leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
