"""Order-cone geometry: generator and halfspace representations, membership
certificates, a small exact double-description converter, and order-polytope
sampling.

A tensor over a product of posets has finite nondecreasing rank exactly when
it lies in the projective tensor product of the per-mode order cones.  That
cone is generated by outer products of connected-upset indicators, and its
facet normals are always the Kronecker product of a few linear maps: one
plan per poset tuple, computed once and kept for the next call, holds them.
With at most one collider the maps are each mode's H-rep rows
(``tensor._halfspace_rows``); otherwise the one map is the facets double
description finds over the flattened tensor, at toy scale.  Membership is
one contraction of the tensor with the maps, as is the sampler's point test.

Every check hands its facet values to one builder, which keeps the violated
facets' indices and values; a certificate's list of :class:`Violation` s is
rendered on first read, each kept sparse (its value, the normal's support
and coefficients) with its label and dense normal rendered when read, so a
check pays for the sign test, not for paperwork a caller may never look at.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm, prod

import numpy as np

from . import poset as poset_mod
from .errors import DegenerateCone, ShapeMismatch, TooLarge
from .poset import Poset, _product_covers, has_collider
from .tensor import _halfspace_rows, apply_kronecker, check_tensor, poset_list

DD_MAX_DIM = 12
DD_MAX_GENS = 64
VREP_GUARD = 1_000_000


def default_tol(T) -> float:
    """Slack for float noise: 1e-9 * max |entry|, relative to T's scale, so
    c * T gets T's verdicts for every c > 0, up to the rounding of its
    entries (and the zero tensor gets 0)."""
    T = np.asarray(T, dtype=float)
    return 1e-9 * float(np.abs(T).max()) if T.size else 0.0


def _resolve_tol(T, tol) -> float:
    """``tol``, or ``default_tol(T)`` when it is None.  A nan, infinite or
    negative slack would turn every check into a false verdict, and a bool
    is no slack, so those raise ``ValueError``."""
    if tol is None:
        return default_tol(T)
    if isinstance(tol, bool) or not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0 (got {tol!r})")
    return tol


@dataclass
class OrderConeVRep:
    """Extremal rays of an order cone: indicators of connected upsets."""

    poset: Poset
    generators: np.ndarray  # (q, p) 0/1 matrix, one row per connected upset

    @property
    def count(self) -> int:
        return self.generators.shape[0]


@dataclass
class ConeHRep:
    """Halfspace description {x : <a_i, x> >= 0 for all rows a_i}."""

    normals: np.ndarray  # (m, d), integer where exact
    shape: tuple | None = None  # tensor shape for rendering, if known

    @property
    def count(self) -> int:
        return self.normals.shape[0]

    def to_text(self) -> str:
        lines = []
        for row in np.asarray(self.normals):
            lines.append(" ".join(str(int(c)) for c in row))
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class Violation:
    """A violated inequality <normal, T> >= 0, stored sparsely.

    ``value`` is <normal, T>; ``support`` lists the flat (row-major) indices
    of the normal's nonzeros in ascending order and ``coeffs`` their
    coefficients; ``shape`` is the tensor's shape.  ``cover`` marks an
    ``is_monotone`` cover e_b - e_a, which reads ``t[a] <= t[b]``.

    ``label`` and ``normal`` are rendered from this on every access and not
    kept: a signed input can have tens of thousands of violations, each
    normal as long as the tensor.  ``normal`` is a fresh writable float
    array of ``T.size`` entries.
    """

    value: float
    support: tuple
    coeffs: tuple
    shape: tuple
    cover: bool = False

    @property
    def label(self) -> str:
        if self.cover:
            a, b = self.support if self.coeffs[0] < 0 else self.support[::-1]
            return f"{_entry_name(self.shape, a)} <= {_entry_name(self.shape, b)}"
        return _format_terms(self.support, self.coeffs, self.shape)

    @property
    def normal(self) -> np.ndarray:
        normal = np.zeros(prod(self.shape))
        normal[list(self.support)] = self.coeffs
        return normal

    def __eq__(self, other):
        if not isinstance(other, Violation):
            return NotImplemented
        return (self.label == other.label and self.value == other.value
                and np.array_equal(self.normal, other.normal))

    def __repr__(self):
        return f"Violation({self.label!r}, value={self.value!r})"


@dataclass(eq=False)
class MembershipCertificate:
    """A check's verdict; ``min_value`` is the first least facet value (inf if none).  It
    keeps the violated facets' indices and values, not T or the facet array, and renders
    ``violated`` on first read.  Equal when member, violated, method, tol, min_value are."""

    member: bool
    method: str
    tol: float
    min_value: float
    _indices: np.ndarray = field(repr=False)
    _values: np.ndarray = field(repr=False)
    _render: functools.partial = field(repr=False)

    @functools.cached_property
    def violated(self) -> list:
        return list(map(self._render, self._indices.tolist(), self._values.tolist()))

    def __bool__(self):
        return self.member

    def __eq__(self, other):
        key = lambda c: (c.member, c.violated, c.method, c.tol, c.min_value)  # noqa: E731
        return isinstance(other, MembershipCertificate) and key(self) == key(other)


def _certificate(values: np.ndarray, tol: float, method: str, render) -> MembershipCertificate:
    """The certificate of flat facet values: facet i is violated when its
    value lies below ``-tol``, and ``render(i, value)`` is its Violation."""
    indices = np.flatnonzero(values < -tol)
    return MembershipCertificate(
        member=not indices.size, method=method, tol=tol,
        # the first least value, as a running min would keep it
        min_value=float(values[values.argmin()]) if values.size else np.inf,
        _indices=indices, _values=values[indices], _render=render)


def _monotone_violation(shape, lo, hi, i: int, value: float) -> Violation:
    """Value i of ``is_monotone``: entry i of T (row-major) while i < T.size,
    then the cover (lo[k], hi[k]) at k = i - T.size."""
    size = prod(shape)
    if i < size:
        return Violation(value, (i,), (1.0,), shape)
    # the support ascending, with -1 on the lower end of the cover
    a, b = int(lo[i - size]), int(hi[i - size])
    return (Violation(value, (a, b), (-1.0, 1.0), shape, cover=True) if a < b else
            Violation(value, (b, a), (1.0, -1.0), shape, cover=True))


def _facet_violation(shape, rows, i: int, value: float) -> Violation:
    """Facet i (row-major) of a one-contraction check: the outer product of one of ``rows``
    per map.  Each row's support ascends, so the sums, last map fastest, ascend too."""
    index = np.unravel_index(i, [len(mode_rows) for mode_rows in rows])
    picked = [mode_rows[r] for mode_rows, r in zip(rows, index)]
    supports = itertools.product(*(support for support, _ in picked))
    coeffs = itertools.product(*(coeff for _, coeff in picked))
    return Violation(value, tuple(map(sum, supports)), tuple(map(prod, coeffs)), shape)


def _entry_name(shape, flat: int) -> str:
    idx = np.unravel_index(flat, shape)
    return "t[" + ",".join(str(i + 1) for i in idx) + "]"


def _sparse(row: list) -> tuple:
    """A dense vector as ``(support, coefficients)``, float, support ascending."""
    support = [j for j, x in enumerate(row) if x]
    return tuple(support), tuple(float(row[j]) for j in support)


def format_normal(normal, shape) -> str:
    """Render an integer normal as a human-readable '>= 0' inequality."""
    return _format_terms(*_sparse(np.asarray(normal).ravel().tolist()), shape)


def _format_terms(support, coeffs, shape) -> str:
    terms = []
    for flat, c in zip(support, coeffs):
        name = _entry_name(shape, flat)
        mag = "" if abs(c) == 1 else f"{abs(c):g}*"
        if not terms:
            terms.append(("-" if c < 0 else "") + mag + name)
        else:
            terms.append(("- " if c < 0 else "+ ") + mag + name)
    return " ".join(terms) + " >= 0"


def order_cone_vrep(P: Poset) -> OrderConeVRep:
    """V-representation of the order cone of P: one 0/1 generator row per
    connected upset, in the order of :func:`~ndrank.poset.connected_upsets`,
    unpacked from the upset walk's bitmasks without building the sets."""
    masks = poset_mod._ordered_connected_upset_masks(P)
    return OrderConeVRep(poset=P, generators=poset_mod._unpack(masks, P.p).astype(float))


def finite_rank_vrep(posets) -> list:
    """Rank-one generator tensors of the finite-ND-rank cone.

    One generator per tuple of per-mode connected upsets, the outer product
    of the upset indicators, the first mode's varying slowest: a row of the
    Kronecker product of the per-mode generator matrices.  Order 0 has the
    one generator 1.0.  Raises ``TooLarge`` before the product is formed
    when its generators times their entries exceed ``VREP_GUARD``.
    """
    posets = poset_list(posets)
    mats = [order_cone_vrep(P).generators for P in posets]
    total, shape = prod(len(G) for G in mats), tuple(P.p for P in posets)
    if total * prod(shape) > VREP_GUARD:
        raise TooLarge(f"{total} generators x {prod(shape)} entries exceeds the {VREP_GUARD} guard")
    gens = functools.reduce(np.kron, mats, np.ones((1, 1)))
    return list(gens.reshape((total,) + shape))


def is_monotone(T, posets, tol: float | None = None) -> MembershipCertificate:
    """Certificate that T is nonnegative and nondecreasing over the product order.

    ``posets`` is one poset per mode, or one poset on the flattened entries.
    Its values are T's entries, row-major, then ``T.flat[hi] - T.flat[lo]``
    for each cover (lo, hi) of the product order, sorted.
    """
    T = np.asarray(T, dtype=float)
    _, posets = check_tensor(T.ravel() if isinstance(posets, Poset) else T, posets)
    tol = _resolve_tol(T, tol)
    lo, hi = _product_covers(tuple(posets))
    flat = T.ravel()
    return _certificate(np.concatenate([flat, flat[hi] - flat[lo]]), tol, "monotonicity",
                        functools.partial(_monotone_violation, T.shape, lo, hi))


def finite_rank_hrep(posets) -> ConeHRep:
    """Facet halfspaces of the finite-ND-rank cone, in a fresh integer array:
    the Kronecker product of the maps of :func:`_finite_rank_plan`, the
    first map's row varying slowest.  Order 0 has the one facet [1]."""
    posets = tuple(poset_list(posets))
    _, maps, _ = _finite_rank_plan(posets)
    normals = functools.reduce(np.kron, maps, np.ones((1, 1)))
    return ConeHRep(normals=normals.astype(int), shape=tuple(P.p for P in posets))


@functools.lru_cache(maxsize=256)
def _finite_rank_plan(posets: tuple) -> tuple:
    """How membership in the finite-ND-rank cone over ``posets`` is checked.

    Returns ``(method, maps, rows)``: the cone's facet normals are
    ``kron(*maps)``, read-only float matrices.  With at most one
    collider-bearing poset, ``maps`` is each mode's H-rep rows and the
    method "tree-differencing" (no collider) or "halfspace"; otherwise it
    is one matrix, the facets of double description over the flattened
    tensor, and the method "double-description" (an empty tensor's cone
    lies in R^0 and has no facets, so its map is 0 by 0).  ``rows`` holds
    each map's rows as ``(support, coefficients)``, the support scaled by
    the map's row-major stride, so a facet's flat support is the sums over
    one row per map and its coefficients the products.

    Computed once per poset tuple (equal posets built afresh hit the same
    entry).  ``TooLarge`` is raised again on every call, and a tuple past
    the dimension guard is refused before its generators exist.
    """
    n_colliders = sum(has_collider(P) for P in posets)
    if n_colliders <= 1:
        method = "halfspace" if n_colliders else "tree-differencing"
        maps = tuple(_halfspace_rows(P) for P in posets)
    else:
        d = prod(P.p for P in posets)
        _check_dd_dim(d)
        normals = (double_description(finite_rank_vrep(posets)).normals.astype(float)
                   if d else np.empty((0, 0)))
        normals.flags.writeable = False
        method, maps = "double-description", (normals,)
    strides = [prod(M.shape[1] for M in maps[j + 1:]) for j in range(len(maps))]
    rows = tuple(tuple((tuple(j * stride for j in support), coeffs)
                       for support, coeffs in map(_sparse, M.tolist()))
                 for M, stride in zip(maps, strides))
    return method, maps, rows


def membership_finite_rank(T, posets, tol: float | None = None) -> MembershipCertificate:
    """Certificate of finite ND rank: is T in the projective product of order cones?

    The facet values are one contraction of T with the maps of the poset
    tuple's :func:`_finite_rank_plan`, and each violated facet is the outer
    product of one row per map.
    """
    T, posets = check_tensor(T, posets)
    tol = _resolve_tol(T, tol)
    method, maps, rows = _finite_rank_plan(tuple(posets))
    D = apply_kronecker(maps, T.reshape([M.shape[1] for M in maps]))
    return _certificate(D.ravel(), tol, method, functools.partial(_facet_violation, T.shape, rows))


# ---------------------------------------------------------------------------
# double description (exact integer arithmetic)

def _primitive(vec) -> tuple:
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _clear_denominators(vec) -> tuple:
    """The primitive integer vector on the ray of a rational vector."""
    den = lcm(*(v.denominator for v in vec))
    return _primitive([int(v * den) for v in vec])


def _fraction_rref(rows, width):
    """Row-reduce over Q.  Returns (pivot_cols, reduced_rows, used_row_indices)."""
    pivots, reduced, used = [], [], []
    for ri, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        for pc, pr in zip(pivots, reduced):
            if row[pc]:
                f = row[pc]
                row = [a - f * b for a, b in zip(row, pr)]
        lead = next((j for j in range(width) if row[j]), None)
        if lead is None:
            continue
        f = row[lead]
        row = [a / f for a in row]
        for k, (pc, pr) in enumerate(zip(pivots, reduced)):
            if pr[lead]:
                reduced[k] = [a - pr[lead] * b for a, b in zip(pr, row)]
        pivots.append(lead)
        reduced.append(row)
        used.append(ri)
    return pivots, reduced, used


def _nullspace_int(rows, width):
    """Integer basis of {a : row . a = 0 for all rows}."""
    pivots, reduced, _ = _fraction_rref(rows, width)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for fj in free:
        vec = [Fraction(int(j == fj)) for j in range(width)]
        for pc, pr in zip(pivots, reduced):
            vec[pc] = -pr[fj]
        basis.append(_clear_denominators(vec))
    return basis


def _check_dd_dim(d: int) -> None:
    if d > DD_MAX_DIM:
        raise TooLarge(f"ambient dimension {d} exceeds the {DD_MAX_DIM} guard")


def double_description(generators) -> ConeHRep:
    """Irredundant facet normals of the cone generated by integer vectors.

    The generators must span the ambient space (otherwise
    :class:`DegenerateCone` reports the implicit equalities) and generate a
    pointed cone, which holds in particular for nonnegative generators.
    Exact rational arithmetic throughout; guarded at dimension 12 and 64
    generators.
    """
    raw = [np.asarray(g) for g in generators]
    if not raw:
        raise ValueError("need at least one generator")
    shape = raw[0].shape if raw[0].ndim > 1 else None
    flat = [g.ravel() for g in raw]
    d = flat[0].size
    if any(g.size != d for g in flat):
        raise ShapeMismatch("generators must share one shape")
    _check_dd_dim(d)
    G, seen = [], set()
    for g in flat:
        g = g.astype(float)
        if (np.abs(g - np.round(g)) > 1e-9).any():
            raise ValueError("double_description requires integer generators")
        t = _primitive([round(x) for x in g.tolist()])
        if any(t) and t not in seen:
            seen.add(t)
            G.append(t)
    if len(G) > DD_MAX_GENS:
        raise TooLarge(f"{len(G)} generators exceeds the {DD_MAX_GENS} guard")

    pivots, _, used = _fraction_rref(G, d)
    if len(pivots) < d:
        null = _nullspace_int(G, d)
        raise DegenerateCone(
            f"generators span a {len(pivots)}-dimensional subspace of R^{d}",
            equality_normals=np.asarray(null, dtype=int))

    # Dual cone {a : G a >= 0}: its extreme rays are the facet normals of
    # cone(G).  Start from a simplicial subsystem and insert the remaining
    # constraints one at a time (standard double description).
    # [B | I] over the d base rows B reduces to [I | B^-1] once its rows are
    # sorted by pivot; B times column j of B^-1 is e_j, so that ray is tight
    # on every base row except row j.
    pivots, reduced, _ = _fraction_rref(
        [G[i] + tuple(int(i == k) for k in used) for i in used], d)
    inverse = [row[d:] for _, row in sorted(zip(pivots, reduced))]
    rays = [_clear_denominators(col) for col in zip(*inverse)]
    tight = [((1 << d) - 1) ^ (1 << j) for j in range(d)]

    # bit pos of a tight set is the constraint inserted pos-th, base rows first
    remaining = [i for i in range(len(G)) if i not in used]
    for pos, ci in enumerate(remaining, start=d):
        g = G[ci]
        s = [sum(a * b for a, b in zip(g, r)) for r in rays]
        plus = [k for k, v in enumerate(s) if v > 0]
        minus = [k for k, v in enumerate(s) if v < 0]
        need = d - 2
        new_rays, new_tight = [], []
        for kp in plus:
            for km in minus:
                t = tight[kp] & tight[km]
                if t.bit_count() < need:
                    continue
                if any(t & tight[k] == t for k in range(len(rays)) if k not in (kp, km)):
                    continue
                # a positive combination of two rays that satisfy every
                # inserted constraint is tight where both are, and on this
                # one; exact arithmetic and the adjacency test give each new
                # ray once, inside its edge, so none repeats a kept ray
                new = [s[kp] * a - s[km] * b for a, b in zip(rays[km], rays[kp])]
                new_rays.append(_primitive(new))
                new_tight.append(t | 1 << pos)
        keep = [k for k, v in enumerate(s) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        tight = [tight[k] | ((1 << pos) if s[k] == 0 else 0) for k in keep] + new_tight

    normals = sorted(rays)
    return ConeHRep(normals=np.asarray(normals, dtype=int), shape=shape)


def canonical_inequalities(normals) -> list:
    """Sign- and scale-insensitive canonical form, for set comparisons only.

    Divides by the gcd, makes the first nonzero coefficient positive, and
    sorts; flipping signs changes the halfspace, so this is not a valid
    cone representation, just a comparison key.
    """
    out = []
    for row in np.asarray(normals, dtype=int):
        t = _primitive([int(x) for x in row])
        first = next((x for x in t if x), 1)
        if first < 0:
            t = tuple(-x for x in t)
        out.append(t)
    return sorted(out)


# ---------------------------------------------------------------------------
# order-polytope sampling

@dataclass
class ProbabilityEstimate:
    estimate: float
    stderr: float
    n_samples: int
    members: int

    def __str__(self):
        return f"{self.estimate:.6f} +/- {self.stderr:.6f} ({self.members}/{self.n_samples})"


@functools.lru_cache(maxsize=None)
def _grid_sampling_plan(m: int) -> np.ndarray:
    """The m-by-m grid's linear extensions as inverse permutations, one column
    each: entry (e, k) is the position of element e in extension k.
    Read-only; m <= 4, so four entries at most, the largest 16 by 24 024."""
    P = poset_mod.product([poset_mod.chain(m), poset_mod.chain(m)])
    positions = np.argsort(np.asarray(poset_mod.linear_extensions(P)), axis=1).T.copy()
    positions.flags.writeable = False
    return positions


def _grid_members(X: np.ndarray, maps, tol: float) -> int:
    """How many points X[:, :, i] of the m-by-m grid have every facet value
    at least -tol: X contracted with the grid plan's two ``maps``, one per
    mode, as :func:`membership_finite_rank` contracts a tensor.  Each value
    is a difference of two entries, or an entry, plus exact zeros."""
    A, B = maps
    D = B @ (A @ X.reshape(X.shape[0], -1)).reshape(X.shape)
    return int((D >= -tol).all(axis=(0, 1)).sum())


def sample_finite_rank_probability(m: int, n_samples: int, seed: int) -> ProbabilityEstimate:
    """Estimate the chance that a uniform point of the order polytope of the
    m-by-m grid order has finite ND rank.

    Points are drawn by choosing a uniformly random linear extension and
    assigning sorted uniform values along it, then tested against the
    facets: each block of points is contracted with the maps of the grid's
    :func:`_finite_rank_plan`, the m-chain's H-rep rows in both modes.  A
    table of all the grid's linear extensions is built once per m, so
    m <= 4 (the 4-by-4 grid has 24 024 extensions, the 5-by-5 grid
    701 149 020, so m = 5 raises ``TooLarge``).  At m = 4 the target
    probability is small, so a sharp estimate needs millions of samples.
    ``m`` and ``n_samples`` must be positive integers and ``seed`` a
    nonnegative one; a bool is refused.
    A point's entries lie in [0, 1], so each point is tested with the slack
    ``default_tol(1.0)``, the default of a point whose largest entry is 1.
    """
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1
           for n in (m, n_samples)):
        raise ValueError(f"m and n_samples must be positive integers (got {m!r}, {n_samples!r})")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer (got {seed!r})")
    if m > 4:
        raise TooLarge(f"sampling is guarded at m <= 4 (got {m})")
    C = poset_mod.chain(m)
    maps, positions = _finite_rank_plan((C, C))[1], _grid_sampling_plan(m)
    rng = np.random.default_rng(seed)
    members = 0
    tol = default_tol(1.0)
    chunk = 200_000
    # rows per block: a block's arrays (150 kB each at m = 3, 260 kB at
    # m = 4) stay in cache; the draws of a chunk's blocks are the same
    # stream as one draw of the chunk
    block = 2048
    for done in range(0, n_samples, chunk):
        n = min(chunk, n_samples - done)
        picks = rng.integers(0, positions.shape[1], size=n)
        for lo in range(0, n, block):
            b = min(block, n - lo)
            vals = rng.random((b, m * m))
            vals.sort(axis=1)
            # X[e, i] = vals[i, position of e in row i's extension],
            # gathered by flat index so that X is row-major in (e, i)
            flat = np.take(positions, picks[lo:lo + b], axis=1)
            flat += np.arange(0, b * m * m, m * m)
            members += _grid_members(np.take(vals, flat).reshape(m, m, b), maps, tol)
    p_hat = members / n_samples
    stderr = float(np.sqrt(max(p_hat * (1 - p_hat), 0.0) / n_samples))
    return ProbabilityEstimate(estimate=p_hat, stderr=stderr,
                               n_samples=n_samples, members=members)
