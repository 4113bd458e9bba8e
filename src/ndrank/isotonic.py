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

:func:`project` is the one public, validated entry point; the HALS sweep
projects its whole stack of restarts at once through the same dispatch.
The sweep also passes each row's support, the halfspace rows whose
multipliers were positive at that vector's previous projection.  A row
outside the cone is then first projected onto that face by one cached
linear solve, its multiplier clipped at zero, and the point is kept only
if it passes the solver's KKT check with a tolerance 1000 times tighter
(1e-12 instead of 1e-9, relative to the same scale); a row that fails it, or whose support is empty or has dependent
rows, is solved and certified as above.  Every row returned is therefore
certified, whichever path it took.

Chains call the compiled PAVA kernel behind
``scipy.optimize.isotonic_regression`` directly, one call per row
(:func:`_pool_rows`): the public wrapper's validation and allocations cost
several times the kernel on the short rows of a HALS sweep.  Its answer is
bitwise the wrapper's.  :func:`_pava_rows` gathers a stack's rows into a
copy once and pools that; the sweep pools its own targets in place when
the chain is listed in order.

Both compiled kernels, PAVA in ``scipy.optimize._pava_pybind`` and NNLS in
``scipy.optimize._slsqplib``, are loaded at import straight from scipy's
``optimize`` directory (:func:`_resolve_kernels`), without running
``scipy/optimize/__init__.py``: that package pulls in ``scipy.linalg``,
``scipy.fft`` and ``scipy.special``, about 0.5 s of import on a 2-vCPU x86
VM and most of a short ``ndrank`` process.  The two modules are registered in
``sys.modules`` under their own names, so a later ``import scipy.optimize``
uses the same objects, and a module ``scipy.optimize`` has loaded already is
used as it is.  NNLS is called as scipy's public ``nnls`` calls it, minus
the input checks its callers here make already, and both kernels are
checked once on a problem with a known answer.  When a kernel module is
blocked or missing, or when loading or that check fails, the kernels are
reached through ``scipy.optimize``'s public functions instead, as on
scipy builds whose files or kernel contract differ.  Every NNLS answer is
certified either way.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np
import scipy

from .errors import UncertifiedSolution
from .poset import Poset
from .tensor import require_finite


def _public_kernels():
    """``(pava, nnls)`` through ``scipy.optimize``, which this imports."""
    from scipy.optimize import isotonic_regression, nnls

    try:  # the compiled kernel of isotonic_regression, which pools in place
        from scipy.optimize._pava_pybind import pava
    except ImportError:  # a private module: reach the same kernel publicly
        def pava(x, w, r):
            x[:] = isotonic_regression(x, weights=w).x
    return pava, nnls


def _kernel_nnls(kernel):
    """scipy 1.17.1's public ``nnls(A, b)`` over its compiled ``kernel``,
    without the checks for finite input and matching shapes."""
    def nnls(A, b):
        # the weighted path passes a transposed, Fortran-ordered A
        A = np.asarray(A, dtype=np.float64, order="C")
        x, rnorm, info = kernel(A, np.asarray(b, dtype=np.float64), 3 * A.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return x, rnorm
    return nnls


def _load_kernels(path) -> tuple:
    """``(pava, nnls)`` from the kernel modules in the directories ``path``,
    without importing ``scipy.optimize``.

    A module already in ``sys.modules`` is used as it is; one blocked there
    by a None entry, or not found, raises ImportError.  Each module loaded
    is registered under its own name.  Both kernels must then solve a probe
    with a known answer, or this raises RuntimeError.
    """
    modules = []
    for name in ("scipy.optimize._pava_pybind", "scipy.optimize._slsqplib"):
        if name in sys.modules:
            module = sys.modules[name]
            if module is None:
                raise ImportError(f"{name} is blocked in sys.modules")
        else:
            spec = PathFinder.find_spec(name, path)
            if spec is None:
                raise ImportError(f"no {name} in {path}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        modules.append(module)
    pava, nnls = modules[0].pava, _kernel_nnls(modules[1].nnls)
    x = np.array([3.0, 1.0, 2.0])
    pava(x, np.ones(3), np.full(4, -1, dtype=np.intp))
    # the second column's unconstrained optimum, -1, is clipped to 0
    z, _ = nnls(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0, -1.0]))
    if not (np.array_equal(x, [2.0, 2.0, 2.0]) and np.allclose(z, [1.5, 0.0], rtol=0, atol=1e-12)):
        raise RuntimeError("scipy's compiled kernels failed their probe")
    return pava, nnls


def _resolve_kernels(path) -> tuple:
    """``(pava, nnls)``: :func:`_load_kernels` from ``path`` or, if that
    fails, :func:`_public_kernels`."""
    try:
        return _load_kernels(path)
    # a missing or blocked module, or a kernel whose contract changed
    except (ImportError, AttributeError, TypeError, ValueError, RuntimeError):
        return _public_kernels()


_pava, nnls = _resolve_kernels([os.path.join(d, "optimize") for d in scipy.__path__])


# a target whose every halfspace row is violated by at most this much,
# relative to ||y||_1, lies within rounding of the order cone
_ROUNDING = 16 * np.finfo(float).eps

# the paths a row can take through _project_rows, as keys of its ``counts``
_ROW_PATHS = ("clamp", "chain", "in_cone", "warm", "solved")


def _check_weights(w, y: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != y.shape:
        raise ValueError("weights must match the target length")
    require_finite("weights", w)
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    return w


def pava_chain(y, w=None) -> np.ndarray:
    """Weighted isotonic regression on a chain (pool adjacent violators).

    Returns the unique minimizer of sum_l w_l (y_l - v_l)^2 over
    nondecreasing v.  The result is piecewise constant on pooled blocks and
    the operation is idempotent.
    """
    y = np.asarray(y, dtype=float)
    require_finite("target", y)
    if w is not None:
        w = np.atleast_1d(_check_weights(w, y))
    y = np.atleast_1d(y)
    if y.ndim != 1:
        raise ValueError(f"target must be one-dimensional, got shape {y.shape}")
    return _pava_rows(y[None], slice(None), w)[0]


def _pava_rows(Y: np.ndarray, idx, w: np.ndarray | None = None) -> np.ndarray:
    """Isotonic regression of every row of Y along the order ``idx``.

    ``idx`` lists the columns in chain order (an index array, or a full
    slice); the weights ``w``, if given, are indexed like a row of Y.  The
    stack is gathered once, each row is pooled in place by
    :func:`_pool_rows`, and the rows are scattered back only when ``idx``
    permutes them.  Validates nothing; bitwise ``isotonic_regression(y[idx],
    weights=w[idx]).x`` put back at ``idx``, row by row.
    """
    X = np.array(Y[:, idx], order="C")
    p = X.shape[1]
    if p > 1:  # one element is its own regression
        _pool_rows(X, 1.0 if w is None else w[idx], np.empty(p), np.empty(p + 1, dtype=np.intp))
    if isinstance(idx, slice):
        return X
    V = np.empty_like(X)
    V[:, idx] = X
    return V


def _pool_rows(X: np.ndarray, w, wrow: np.ndarray, r: np.ndarray) -> None:
    """Pool every row of X, listed in chain order, in place by the compiled
    PAVA kernel, with weights ``w`` (a scalar or a row).

    The kernel pools its weights in place too, so ``wrow`` is refilled
    from ``w`` before each row; ``r``, p + 1 intp entries, is the kernel's
    scratch, whose contents it never reads.  Both may be reused from call
    to call.  The rows of X must be C-contiguous.
    """
    for x in X:
        wrow[:] = w
        _pava(x, wrow, r)


@functools.lru_cache(maxsize=256)
def _chain_order(P: Poset):
    """Permutation listing a total order, or None if P is not a chain."""
    if not (P.leq | P.leq.T).all():
        return None
    return tuple(np.argsort(P.leq.sum(axis=1))[::-1].tolist())


@functools.lru_cache(maxsize=256)
def _halfspace_rows(P: Poset) -> np.ndarray:
    """H-representation rows of C(P): e_m for minimal m, then e_b - e_a for
    covers (a, b) in sorted order.  The one H-rep in the package; read-only,
    as the cached array is shared."""
    mins, covers = P.minimal_elements(), sorted(P.covers)
    A = np.zeros((len(mins) + len(covers), P.p))
    A[range(len(mins)), mins] = 1.0
    for r, (a, b) in enumerate(covers, start=len(mins)):
        A[r, a], A[r, b] = -1.0, 1.0
    A.setflags(write=False)
    return A


@functools.lru_cache(maxsize=256)
def _projection_plan(P: Poset):
    """How the order cone of P is projected onto, in one lookup.

    Returns ``(kind, idx, A, E, G)``.  A poset without covers is "clamp".
    A chain is "chain", with its permutation in ``idx`` (an index array, or
    a full slice when the elements are listed in chain order).
    Any other poset is "general", with its H-representation rows A, E = A^T
    stored C-contiguous (scipy's nnls would copy a transposed view on every
    call) and the Gram matrix G = A A^T for the fallback solver.
    """
    if not P.covers:
        return "clamp", None, None, None, None
    order = _chain_order(P)
    if order is not None:
        # a chain listed in its own order needs no gather and scatter
        idx = slice(None) if order == tuple(range(P.p)) else np.asarray(order)
        return "chain", idx, None, None, None
    A = _halfspace_rows(P)
    return "general", None, A, np.ascontiguousarray(A.T), A @ A.T


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


@functools.lru_cache(maxsize=256)
def _face_solver(P: Poset, support: bytes):
    """``(S, K)`` with K = -(A_S A_S^T)^-1 A_S for the rows S of A, or None.

    For the halfspace rows named by ``support`` (a bool mask as bytes), S
    holds their indices and mu_S = K y is the multiplier of the projection
    of y onto the face A_S v = 0, so v = y + A_S^T mu_S.  K has |S| <= P.p
    rows, so an entry holds at most P.p^2 floats.  Returns None for an
    empty support and for dependent rows, where A_S A_S^T is singular (on a
    collider e_a + (e_c - e_a) = e_b + (e_c - e_b); on a diamond the cover
    rows of its two paths sum alike): those rows are left to the NNLS
    solver.
    """
    _, _, A, _, _ = _projection_plan(P)
    S = np.flatnonzero(np.frombuffer(support, dtype=bool))
    A_S = A[S]
    if not S.size or np.linalg.matrix_rank(A_S) < S.size:
        return None
    return S, -np.linalg.solve(A_S @ A_S.T, A_S)


def _project_faces(Y: np.ndarray, P: Poset, rows: list, support: np.ndarray,
                   V: np.ndarray) -> list:
    """Project the given rows of Y onto the faces their supports name.

    The face multiplier is clipped at zero, mu = max(K y, 0), and
    v = y + A^T mu.  Row i of V and of ``support`` is written only where
    v meets the KKT conditions at tau' = 1e-12 * s, s = 1 + ||y||_1:
    A v >= -tau' and |mu . A v| <= tau' * s, with mu >= 0 exactly; its
    support then becomes mu > 0.  These are :func:`_nnls_certified`'s
    conditions with a tolerance 1000 times tighter.  Returns the rows that
    still need solving: those that fail the check, and those whose support
    is empty or dependent.
    """
    _, _, A, E, _ = _projection_plan(P)
    faces = [_face_solver(P, support[i].tobytes()) for i in rows]
    rows = np.asarray(rows)
    Yr = Y[rows]
    mu = np.zeros((len(rows), len(A)))
    for face, y, mu_y in zip(faces, Yr, mu):
        if face is not None:
            S, K = face
            mu_y[S] = K.dot(y)
    np.maximum(mu, 0.0, out=mu)
    warm = np.array([face is not None for face in faces])
    Vr = Yr + mu.dot(A)
    AV = Vr.dot(E)
    scale = 1.0 + np.abs(Yr).sum(axis=1)
    tol = 1e-12 * scale
    ok = warm & (AV.min(axis=1) >= -tol) & (np.abs((mu * AV).sum(axis=1)) <= tol * scale)
    V[rows[ok]] = np.maximum(Vr[ok], 0.0)
    support[rows[ok]] = mu[ok] > 0.0
    return rows[~ok].tolist()


def _project_rows(Y: np.ndarray, P: Poset, w: np.ndarray | None = None,
                  support: np.ndarray | None = None, counts: dict | None = None) -> np.ndarray:
    """Exact projection of every row of Y, shape (n, P.p), onto C(P).

    The one dispatch behind :func:`project`.  The HALS sweep calls it
    directly on its stack of restarts, so it validates nothing.  The weights
    ``w``, if given, apply to every row.

    ``support``, an (n, m) bool array over the m halfspace rows of a general
    poset, is the sweep's guess at each row's active set; it is read and
    written in place, and only the unweighted general path uses it.  A row
    outside the cone is first projected onto the face its support names,
    and that point is kept only if it passes a KKT check stricter than the
    solver's (:func:`_project_faces`); every other row outside the cone goes
    to :func:`_nnls_certified`.  Each row's support is then the positive
    set of the multiplier that certified it, empty for rows in the cone.
    ``counts``, if given, adds the rows taken by each path under the keys
    of ``_ROW_PATHS``.
    """
    kind, idx, A, E, G = _projection_plan(P)
    if kind == "clamp":  # no order constraints: clamp is the exact projection
        if counts is not None:
            counts["clamp"] += len(Y)
        return np.maximum(Y, 0.0)
    if kind == "chain":
        if counts is not None:
            counts["chain"] += len(Y)
        V = _pava_rows(Y, idx, w)
        return np.maximum(V, 0.0, out=V)
    # Moreau: v* = y + A^T mu* in the unit-weight metric, where mu* solves
    # the polar-cone NNLS min_{mu >= 0} ||A^T mu + y||; weights rescale axes.
    # A row in the cone, or within rounding of it, is its own projection in
    # every weighted metric (mu = 0 meets the certificate): about half of
    # the HALS targets on the survey fixture take this exit, and so do the
    # tied targets a few ulps outside the cone on which scipy's nnls was
    # seen to return wrong points.
    V = np.maximum(Y, 0.0)
    if w is not None:
        support = None  # supports hold unit-weight multipliers
    # on rows this short, min of a list beats numpy's reductions
    out = cold = [i for i, row in enumerate(Y.dot(E).tolist())
                  if (worst := min(row)) < 0.0
                  and worst < -_ROUNDING * sum(map(abs, Y[i].tolist()))]
    if support is not None:
        inside = np.ones(len(Y), dtype=bool)
        inside[out] = False
        support[inside] = False
        if out:
            cold = _project_faces(Y, P, out, support, V)
    if counts is not None:
        counts["in_cone"] += len(Y) - len(out)
        counts["warm"] += len(out) - len(cold)
        counts["solved"] += len(cold)
    for i in cold:
        y = Y[i]
        if w is None:
            x, v = _nnls_certified(E, -y, G)
        else:
            s = np.sqrt(w)
            x, v = _nnls_certified((A / s).T, -s * y)
            v /= s
        # the exact projection is nonnegative; clear float crumbs below zero
        V[i] = np.maximum(v, 0.0)
        if support is not None:
            support[i] = x > 0.0
    return V


def project(y, P: Poset, w=None) -> np.ndarray:
    """Exact projection of y onto the order cone of P.

    Returns the minimizer of sum_l w_l (y_l - v_l)^2 over C(P), with unit
    weights when ``w`` is None.  Raises ValueError if y does not have P.p
    entries or the weights do not match it or are not strictly positive,
    and :class:`~ndrank.errors.NonFiniteInput` if either holds NaN or inf.
    """
    y = np.asarray(y, dtype=float)
    require_finite("target", y)
    if y.shape != (P.p,):
        raise ValueError(f"target length {y.shape} != poset size {P.p}")
    if w is not None:
        w = _check_weights(w, y)
    return _project_rows(y[None, :], P, w)[0]
