"""Exact, certified Euclidean projection onto order cones.

The order cone of a poset P is the set of nonnegative vectors that are
nondecreasing along the order.  Projection onto it is the inner solver of
the ND-HALS factorization loop, so it has to be exact: chains are handled
by pool-adjacent-violators followed by clamping at zero, and every other
poset goes through the Moreau decomposition, where the polar projection is
a nonnegative least squares problem on the cover-edge dual.

A target already in the cone, or within rounding of it (every halfspace row
violated by at most 16 ulps of its 1-norm), is returned as it is, clamped at
zero.  Otherwise the polar problem is solved by ``scipy.optimize.nnls``
first, and every answer is checked against its KKT conditions (see
:func:`_nnls_certified`).  scipy can return a wrong point with a reported
residual of zero on tied, near-feasible targets, and can stop at its
iteration cap; either way the problem is solved again by an in-repo
Lawson-Hanson active set on the Gram matrix, whose answer must pass the same
check.  A point that fails both raises
:class:`~ndrank.errors.UncertifiedSolution`; none is ever returned.

Clamping after the monotone projection is exact for any poset: projecting
onto the cone intersected with the nonnegative orthant equals the monotone
projection followed by an elementwise max with zero.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import UncertifiedSolution
from .poset import Poset
from .tensor import require_finite


# a target whose every halfspace row is violated by at most this much,
# relative to ||y||_1, lies within rounding of the order cone
_ROUNDING = 16 * np.finfo(float).eps


@dataclass
class ProjectionProblem:
    """Weighted projection target: minimize sum_l w_l (y_l - v_l)^2 over C(P)."""

    y: np.ndarray
    poset: Poset
    w: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        require_finite("target", self.y)
        if self.y.shape != (self.poset.p,):
            raise ValueError(f"target length {self.y.shape} != poset size {self.poset.p}")
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=float)
            if self.w.shape != self.y.shape:
                raise ValueError("weights must match the target length")
            require_finite("weights", self.w)
            if (self.w <= 0).any():
                raise ValueError("weights must be strictly positive")


def pava_chain(y, w=None) -> np.ndarray:
    """Weighted isotonic regression on a chain (pool adjacent violators).

    Returns the unique minimizer of sum_l w_l (y_l - v_l)^2 over
    nondecreasing v.  The result is piecewise constant on pooled blocks and
    the operation is idempotent.
    """
    y = np.asarray(y, dtype=float)
    require_finite("target", y)
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != y.shape:
            raise ValueError("weights must match y")
        require_finite("weights", w)
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")
    return _pava(y, w)


def _pava(y: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    # Python floats throughout: iterating over numpy scalars is much slower
    means: list[float] = []
    weights: list[float] = []
    sizes: list[int] = []
    ws = itertools.repeat(1.0) if w is None else w.tolist()
    for m, ww in zip(y.tolist(), ws):
        n = 1
        while means and means[-1] > m:
            m = (ww * m + weights[-1] * means[-1]) / (ww + weights[-1])
            ww += weights[-1]
            n += sizes[-1]
            means.pop(), weights.pop(), sizes.pop()
        means.append(m), weights.append(ww), sizes.append(n)
    return np.repeat(means, sizes)


@functools.lru_cache(maxsize=256)
def _chain_order(P: Poset):
    """Permutation listing a total order, or None if P is not a chain."""
    if not (P.leq | P.leq.T).all():
        return None
    return tuple(np.argsort(P.leq.sum(axis=1))[::-1].tolist())


@functools.lru_cache(maxsize=256)
def _halfspace_rows(P: Poset) -> np.ndarray:
    """H-representation rows of C(P): e_m for minimal m, e_b - e_a for covers."""
    rows = []
    for m in P.minimal_elements():
        r = np.zeros(P.p)
        r[m] = 1.0
        rows.append(r)
    for a, b in P.covers:
        r = np.zeros(P.p)
        r[a], r[b] = -1.0, 1.0
        rows.append(r)
    return np.asarray(rows)


@functools.lru_cache(maxsize=256)
def _projection_plan(P: Poset):
    """What project_order_cone needs of a poset with covers, in one lookup.

    A chain gives its permutation as an index array; any other poset gives
    its H-representation rows A, E = A^T stored C-contiguous (scipy's nnls
    would copy a transposed view on every call) and the Gram matrix A A^T
    for the fallback solver.
    """
    order = _chain_order(P)
    if order is not None:
        return np.asarray(order), None, None, None
    A = _halfspace_rows(P)
    return None, A, np.ascontiguousarray(A.T), A @ A.T


def _kkt_holds(E, x, r, tol: float, scale: float) -> bool:
    g = r.dot(E)  # the gradient E^T (E x - f)
    # this runs on every general projection: on vectors this short, min of
    # a list and ndarray.dot beat numpy reductions and the @ operator
    gmin = min(g.tolist())
    # max |E| only matters when g dips below -tol; skip it on the fast path
    return (min(x.tolist()) >= 0.0
            and (gmin >= -tol or gmin >= -tol * float(np.abs(E).max()))
            and abs(x.dot(g)) <= tol * scale)


def _lawson_hanson(G: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Lawson-Hanson active set for min_{x >= 0} x^T G x / 2 - b^T x.

    Lawson & Hanson (1974), *Solving Least Squares Problems*, ch. 23, in the
    Gram form: only G = E^T E and b = E^T f enter.  A variable joins the
    passive set only when its negative gradient exceeds ``tol``, which keeps
    rounding noise from adding a column dependent on the passive ones.
    """
    n = b.size
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    neg_grad = b.copy()
    for _ in range(3 * n + 3):
        cand = np.where(passive, -np.inf, neg_grad)
        j = int(np.argmax(cand))
        if cand[j] <= tol:
            break
        passive[j] = True
        for _ in range(n + 1):
            idx = np.flatnonzero(passive)
            z = np.zeros(n)
            z[idx] = np.linalg.lstsq(G[np.ix_(idx, idx)], b[idx], rcond=None)[0]
            out = passive & (z <= 0.0)
            if not out.any():
                break
            # step from x towards z until the first passive variable hits zero
            alpha = float(np.min(x[out] / (x[out] - z[out])))
            x = x + alpha * (z - x)
            passive &= x > 0.0
            x[~passive] = 0.0
        else:
            break
        if not passive[j]:  # the entering variable left at once: noise, stop
            break
        x = z
        neg_grad = b - G.dot(x)
    return x


def _nnls_certified(E, f, gram: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative least squares min_{x >= 0} ||E x - f||, with a certificate.

    Returns ``(x, r)`` with ``r = E x - f``.  The answer of
    ``scipy.optimize.nnls`` is kept only if it meets the KKT conditions of
    the problem, with the gradient g = E^T r and one tolerance scaled to f,
    tau = 1e-9 * s where s = 1 + ||f||_1:

    - dual sign: x >= 0;
    - feasibility of the gradient: g >= -tau * max(1, max |E|);
    - complementarity: |x . g| <= tau * s.

    For the polar-cone problem of a projection, E = A^T and f = -y, so r is
    the projection v = y + A^T x and g = A v: the conditions are primal
    feasibility A v >= -tau, the dual sign, and |x . A v| <= tau * s.

    If the certificate fails, or scipy stops at its iteration cap, the
    problem is solved again by :func:`_lawson_hanson` on the Gram matrix
    (``gram`` = E^T E, computed here if not given) and certified
    the same way.  Raises :class:`UncertifiedSolution` if that fails too.
    """
    scale = 1.0 + sum(map(abs, f.tolist()))
    tol = 1e-9 * scale
    try:
        x = nnls(E, f)[0]
    except RuntimeError:  # scipy's "Maximum number of iterations reached"
        pass
    else:
        r = E.dot(x) - f
        if _kkt_holds(E, x, r, tol, scale):
            return x, r
    G = E.T @ E if gram is None else gram
    x = _lawson_hanson(G, f.dot(E), 1e-3 * tol * max(1.0, float(np.abs(E).max())))
    r = E.dot(x) - f
    if _kkt_holds(E, x, r, tol, scale):
        return x, r
    raise UncertifiedSolution(
        "nonnegative least squares: neither scipy nor the Lawson-Hanson "
        "fallback met the KKT conditions")


def _project_general(y: np.ndarray, A, E, G, w: np.ndarray | None) -> np.ndarray:
    # Moreau: v* = y + A^T mu* in the unit-weight metric, where mu* solves
    # the polar-cone NNLS min_{mu >= 0} ||A^T mu + y||; weights rescale axes.
    worst = min(A.dot(y).tolist())
    if worst >= 0.0 or worst >= -_ROUNDING * sum(map(abs, y.tolist())):
        # y is in the cone, or within rounding of it, so it is its own
        # projection in every weighted metric (mu = 0 meets the certificate).
        # About half of the HALS targets on the survey fixture take this
        # exit, and so do the tied targets a few ulps outside the cone on
        # which scipy's nnls was seen to return wrong points.
        return np.maximum(y, 0.0)
    if w is None:
        _, v = _nnls_certified(E, -y, G)
    else:
        s = np.sqrt(w)
        _, v = _nnls_certified((A / s).T, -s * y)
        v = v / s
    # the exact projection is nonnegative; clear float crumbs below zero
    return np.maximum(v, 0.0)


def project_order_cone(prob: ProjectionProblem) -> np.ndarray:
    """Exact projection of the target onto the order cone of the poset."""
    y, P, w = prob.y, prob.poset, prob.w
    if not P.covers:  # no order constraints: clamp is the exact projection
        v = np.maximum(y, 0.0)
        return v
    idx, A, E, G = _projection_plan(P)
    if idx is not None:
        v = np.empty_like(y)
        v[idx] = np.maximum(_pava(y[idx], None if w is None else w[idx]), 0.0)
        return v
    return _project_general(y, A, E, G, w)


def project(y, P: Poset, w=None) -> np.ndarray:
    """Convenience wrapper around :func:`project_order_cone`."""
    return project_order_cone(ProjectionProblem(np.asarray(y, dtype=float), P, w))
