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
Lawson-Hanson active set, whose passive subproblems are least-squares
solves on E's columns (never on the Gram matrix E^T E, which would square
E's condition number), and whose answer must pass the same check.  A
point that fails both raises :class:`~ndrank.errors.UncertifiedSolution`;
none is ever returned.

Clamping after the monotone projection is exact for any poset: projecting
onto the cone intersected with the nonnegative orthant equals the monotone
projection followed by an elementwise max with zero.

:func:`project` is the one public, validated entry point.  Every
projection runs through :func:`_row_projector`, which resolves a poset's
kind once, cached, and returns a stateless function that projects a stack
of rows in place, shared by every caller.  On a general poset,
:func:`project` takes the in-cone exit above or the certified NNLS.  The
fits' projector reads the rows outside the cone off a face table instead
(:func:`_face_table`, which alone holds tables, at most 32 of them), when
the poset's table is at most ``_TABLE_COLUMNS`` wide: one product per row
picks the active set whose KKT conditions the row violates least, and the
point it gives is kept only if it passes the same certificate as an NNLS
answer, else the row goes to the NNLS.  On the CCHS age order (62 sets,
372 columns) a stack of 10 rows outside the cone projects in 22 us against
62 us by NNLS (one row: 17 us against 7 us), and ten CCHS fits (rank 2,
10 restarts) take 0.220 s against 0.254 s (2-vCPU x86 VM, BLAS at one
thread).  Rows are projected one at a time on every path, so a stack
gives bitwise what its rows give alone.

Chains call the compiled PAVA kernel behind
``scipy.optimize.isotonic_regression`` directly, one call per row
(:func:`_pool_rows`): the public wrapper's validation and allocations cost
several times the kernel on the short rows of a HALS sweep.  Its answer is
bitwise the wrapper's.

Both compiled kernels, PAVA in ``scipy.optimize._pava_pybind`` and NNLS in
``scipy.optimize._slsqplib``, are loaded at import straight from scipy's
``optimize`` directory, found by ``importlib.util.find_spec("scipy")``
(:func:`_resolve_kernels`), so neither ``scipy/__init__.py`` (13 ms) nor
``scipy/optimize/__init__.py`` runs: that pulls in ``scipy.linalg``,
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

from .errors import UncertifiedSolution
from .poset import Poset
from .tensor import _halfspace_rows, _rowdot, require_finite


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


_SCIPY_DIRS = importlib.util.find_spec("scipy").submodule_search_locations  # scipy not run
_pava, nnls = _resolve_kernels([os.path.join(d, "optimize") for d in _SCIPY_DIRS])


# a target whose every halfspace row is violated by at most this much,
# relative to ||y||_1, lies within rounding of the order cone
_ROUNDING = 16 * np.finfo(float).eps

# the paths a row can take through a row projector, as keys of its ``counts``
_ROW_PATHS = ("clamp", "chain", "in_cone", "solved")

# the widest face table, in columns, that a general poset gets.  Measured on
# a 2-vCPU x86 VM with BLAS at one thread, on random posets and rows outside
# the cone: a table costs about 17-20 us a call plus 0.5-2 us a row at up to
# 2 000 columns, against about 7 us a row by NNLS, and a 5-row stack breaks
# even at about 3 500-4 000 columns.  At 2 048 a 5-row stack projects 1.3x
# faster by the table (10 rows, 1.8x); the CCHS year order (7 560 columns,
# its rows mostly in the cone) made whole fits 1.7x slower with a table.
_TABLE_COLUMNS = 2048


def _check_weights(w, y: np.ndarray) -> np.ndarray:
    """w, checked against y, and past max w = 2^400 scaled by a power of two
    to max w in [1/2, 1), which leaves the minimizer where it is: PAVA's
    pooled weight sums overflowed near the top of the float range."""
    w = np.asarray(w, dtype=float)
    if w.shape != y.shape:
        raise ValueError("weights must match the target length")
    require_finite("weights", w)
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    top = w.max(initial=0.0)
    return np.ldexp(w, -int(np.frexp(top)[1])) if top > 2.0 ** 400 else w


def _target_exponent(y: np.ndarray) -> int:
    """The binary exponent e at which :func:`project` and :func:`pava_chain`
    project y, as y 2^-e, with y's finiteness check in the same pass: 0
    while max |y| <= 2^400, else the e that puts max |y| 2^-e in [1/2, 1).
    Nearer the top of the float range PAVA's pooled sums, the certificate's
    slack 1e-9 ||y||_1^2 and its x . g overflow.  Powers of two scale
    exactly, and each entry of a projection is a pooled mean of entries of
    y, or 0, so scaling it back by 2^e cannot overflow."""
    top = np.abs(y).max(initial=0.0)
    if top <= 2.0 ** 400:
        return 0
    require_finite("target", y)
    return int(np.frexp(top)[1])


def pava_chain(y, w=None) -> np.ndarray:
    """Weighted isotonic regression on a chain (pool adjacent violators).

    Returns the unique minimizer of sum_l w_l (y_l - v_l)^2 over
    nondecreasing v.  The result is piecewise constant on pooled blocks and
    the operation is idempotent.
    """
    y = np.array(y, dtype=float)  # a copy: the kernel pools it in place
    e = _target_exponent(y)
    if w is not None:
        w = np.atleast_1d(_check_weights(w, y))
    y = np.atleast_1d(np.ldexp(y, -e) if e else y)
    if y.ndim != 1:
        raise ValueError(f"target must be one-dimensional, got shape {y.shape}")
    _pool_rows(y[None], slice(None), w)
    return np.ldexp(y, e) if e else y


def _pool_rows(Y: np.ndarray, idx, w) -> None:
    """Isotonic regression of every row of Y along the order ``idx``, in place.

    ``idx`` lists the columns in chain order (an index array, or a full
    slice) and indexes the weights ``w`` too, if given.  The compiled PAVA
    kernel pools its weights in place as well, so a weight row, allocated
    per call with the p + 1 intp entries of scratch the kernel never reads,
    is refilled before each row.  The kernel would pool a copy of a row
    that is not contiguous, so Y is pooled where it lies only when it is
    C-contiguous and ``idx`` a full slice, and is otherwise gathered into
    chain order and scattered back.  Bitwise ``isotonic_regression(y[idx],
    weights=w[idx]).x`` put back at ``idx``, row by row.
    """
    X = Y if isinstance(idx, slice) and Y.flags.c_contiguous else np.ascontiguousarray(Y[:, idx])
    w = 1.0 if w is None else w[idx]
    wrow, r = np.empty(Y.shape[1]), np.empty(Y.shape[1] + 1, dtype=np.intp)
    for x in X:
        wrow[:] = w
        _pava(x, wrow, r)
    if X is not Y:
        Y[:, idx] = X


def _kkt_holds(E, x, r, tol: float, scale: float) -> bool:
    g = r.dot(E)  # the gradient E^T (E x - f)
    # this runs on every general projection: on vectors this short, min of
    # a list and ndarray.dot beat numpy reductions and the @ operator
    gmin = min(g.tolist())
    # max |E| only matters when g dips below -tol; skip it on the fast path
    return (min(x.tolist()) >= 0.0
            and (gmin >= -tol or gmin >= -tol * float(np.abs(E).max()))
            and abs(x.dot(g)) <= tol * scale)


def _lawson_hanson(E: np.ndarray, f: np.ndarray, tol: float) -> np.ndarray:
    """Lawson-Hanson active set for min_{x >= 0} ||E x - f||.

    Lawson & Hanson (1974), *Solving Least Squares Problems*, ch. 23.  Each
    passive subproblem is a least-squares solve on E's passive columns, not
    on the Gram matrix E^T E, whose condition number is E's squared.  A
    variable joins the passive set only when its negative gradient exceeds
    ``tol``, which keeps rounding noise from adding a column dependent on
    the passive ones.
    """
    n = E.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    neg_grad = f.dot(E)
    for _ in range(3 * n + 3):
        cand = np.where(passive, -np.inf, neg_grad)
        j = int(np.argmax(cand))
        if cand[j] <= tol:
            break
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            z = np.zeros(n)
            z[idx] = np.linalg.lstsq(E[:, idx], f, rcond=None)[0]
            out = passive & (z <= 0.0)
            if not out.any():
                break
            # step from x towards z until the first passive variable hits
            # zero; it leaves even where the step's rounding leaves a crumb
            # above zero, so every step drops one and the loop ends
            ratio = x[out] / (x[out] - z[out])
            first = np.flatnonzero(out)[np.argmin(ratio)]
            x = x + float(ratio.min()) * (z - x)
            x[first] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
        x = z
        neg_grad = (f - E.dot(x)).dot(E)
    return x


def _nnls_certified(E, f) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative least squares min_{x >= 0} ||E x - f||, with a certificate.

    Returns ``(x, r)`` with ``r = E x - f``.  The answer of
    ``scipy.optimize.nnls`` is kept only if it meets the KKT conditions of
    the problem, with the gradient g = E^T r and one tolerance relative to
    f, tau = 1e-9 * s where s = ||f||_1 (so c * f is certified as f is, and
    a zero target only by the exact answer):

    - dual sign: x >= 0;
    - feasibility of the gradient: g >= -tau * max(1, max |E|);
    - complementarity: |x . g| <= tau * s.

    For the polar-cone problem of a projection, E = A^T and f = -y, so r is
    the projection v = y + A^T x and g = A v: the conditions are primal
    feasibility A v >= -tau, the dual sign, and |x . A v| <= tau * s.

    If the certificate fails, or scipy stops at its iteration cap, the
    problem is solved again by :func:`_lawson_hanson`, which solves on E's
    columns, and certified the same way.  Raises
    :class:`UncertifiedSolution` if that fails too.
    """
    scale = sum(map(abs, f.tolist()))
    tol = 1e-9 * scale
    try:
        x = nnls(E, f)[0]
    except RuntimeError:  # scipy's "Maximum number of iterations reached"
        pass
    else:
        r = E.dot(x) - f
        if _kkt_holds(E, x, r, tol, scale):
            return x, r
    x = _lawson_hanson(E, f, 1e-3 * tol * max(1.0, float(np.abs(E).max())))
    r = E.dot(x) - f
    if _kkt_holds(E, x, r, tol, scale):
        return x, r
    raise UncertifiedSolution(
        "nonnegative least squares: neither scipy nor the Lawson-Hanson "
        "fallback met the KKT conditions")


def _clamp(Y, w=None, counts=None) -> np.ndarray:
    # with no order constraints, clamping is the exact projection in any metric
    if counts is not None:
        counts["clamp"] += len(Y)
    return np.maximum(Y, 0.0, out=Y)


def _project_chain(idx, Y, w=None, counts=None) -> np.ndarray:
    """The row projector of a chain whose columns run in the order ``idx``:
    :func:`_pool_rows`, then a clamp."""
    if counts is not None:
        counts["chain"] += len(Y)
    _pool_rows(Y, idx, w)
    return np.maximum(Y, 0.0, out=Y)


def _project_general(A, E, Y, w=None, counts=None) -> np.ndarray:
    """The row projector of a poset that is neither a clamp nor a chain,
    with H-rep rows A and E = A^T: each row outside the cone is certified
    by :func:`_nnls_certified`."""
    # Moreau: v* = y + A^T mu* in the unit-weight metric, where mu* solves
    # the polar-cone NNLS min_{mu >= 0} ||A^T mu + y||; weights rescale axes.
    # A row in the cone, or within rounding of it, is its own projection in
    # every weighted metric (mu = 0 meets the certificate): about half of
    # the HALS targets on the survey fixture take this exit, and so do the
    # tied targets a few ulps outside the cone on which scipy's nnls was
    # seen to return wrong points.
    # on rows this short, min of a list beats numpy's reductions
    out = [i for i, row in enumerate(Y.dot(E).tolist())
           if (worst := min(row)) < 0.0
           and worst < -_ROUNDING * sum(map(abs, Y[i].tolist()))]
    if counts is not None:
        counts["in_cone"] += len(Y) - len(out)
        counts["solved"] += len(out)
    for i in out:
        y = Y[i]
        if w is None:
            Y[i] = _nnls_certified(E, -y)[1]
        else:
            s = np.sqrt(w)
            Y[i] = _nnls_certified((A / s).T, -s * y)[1] / s
    # clamp the rows in the cone, and clear float crumbs below zero
    return np.maximum(Y, 0.0, out=Y)


@functools.lru_cache(maxsize=32)  # a table holds up to p * _TABLE_COLUMNS floats
def _face_table(P: Poset):
    """The explicit solution of a general poset's polar problem, or None
    when its table would be wider than ``_TABLE_COLUMNS``.

    The projection onto C(P) = {v : A v >= 0} is v = y + A_S^T mu_S for
    the optimal active set S of H-rep rows, where mu_S = K_S y with
    K_S = -(A_S A_S^T)^{-1} A_S, so it is linear on each set's region
    (Bemporad, Morari, Dua & Pistikopoulos 2002, "The explicit linear
    quadratic regulator for constrained systems", Automatica 38).  An
    active set need only be independent.  Row e_m is the edge from a ground
    vertex to the minimal element m, and row e_b - e_a the Hasse edge
    (a, b), so a set of rows is independent exactly when its edges form a
    forest; the sets are listed by growing forests edge by edge, with a
    component label per vertex, and no rank is computed.

    Returns ``(W, upper)``.  For F sets, the empty set first, W has shape
    (p, m F), and ``(y @ W).reshape(m, F)[:, f]`` is z with z_i = (mu_S)_i
    for i in set f's rows S and z_i = (A v_S)_i, v_S = y + A_S^T mu_S,
    otherwise: S is optimal for y exactly when min z >= 0 (the KKT
    conditions of the face), and the empty set's column of every row is
    E = A^T itself.  ``upper`` (F, m) is inf on each set's rows and 0
    elsewhere, so clipping z into [0, upper] gives the multipliers.
    """
    A = _halfspace_rows(P)
    E = np.ascontiguousarray(A.T)
    m, p = A.shape
    # each row's two ends, the ground vertex p standing in for a minimal row's
    ends = [(list(np.flatnonzero(a)) + [p])[:2] for a in A]
    faces, stack = [], [((), tuple(range(p + 1)), 0)]
    while stack:
        S, label, start = stack.pop()
        faces.append(S)
        if len(faces) * m > _TABLE_COLUMNS:
            return None
        for e in range(start, m):
            a, b = label[ends[e][0]], label[ends[e][1]]
            if a != b:  # joins two trees: merge b's component into a's
                stack.append((S + (e,), tuple(a if c == b else c for c in label), e + 1))
    W = np.empty((len(faces), p, m))
    upper = np.zeros((len(faces), m))
    W[0] = E
    # the sets of each size as one batch: rows (n, k), A_S (n, k, p)
    for k in range(1, max(map(len, faces)) + 1):
        at = np.array([f for f, S in enumerate(faces) if len(S) == k])
        rows = np.array([faces[f] for f in at])
        A_S = A[rows]
        A_St = A_S.transpose(0, 2, 1)
        K = -np.linalg.solve(A_S @ A_St, A_S)
        block = (np.eye(p) + A_St @ K).transpose(0, 2, 1) @ E
        np.put_along_axis(block, rows[:, None, :], K.transpose(0, 2, 1), axis=2)
        W[at] = block
        upper[at[:, None], rows] = np.inf
    W = np.ascontiguousarray(W.transpose(1, 2, 0)).reshape(p, -1)
    W.setflags(write=False)
    upper.setflags(write=False)
    return W, upper


def _project_table(P, A, E, Y, w=None, counts=None) -> np.ndarray:
    """The row projector of a general poset P that has a face table: each
    row outside the cone takes the set of :func:`_face_table` with the
    largest slack, is kept if it meets :func:`_nnls_certified`'s
    certificate, and is solved by that function otherwise.  Weighted rows
    are projected by :func:`_project_general`."""
    if w is not None:
        return _project_general(A, E, Y, w, counts)
    W, upper = _face_table(P)
    n, m = Y.shape[0], A.shape[0]
    # one product per row: a product of the whole stack rounds a row
    # differently with the stack's height
    Z = np.matmul(Y[:, None, :], W).reshape(n, m, len(upper))
    slack = Z.min(axis=1)
    # ||y||_1 summed left to right, as _nnls_certified sums it
    scale = np.add.accumulate(np.abs(Y), axis=1)[:, -1]
    # the in-cone exit of _project_general, bitwise: Z[:, :, 0] is Y E
    inside = slack[:, 0] >= -_ROUNDING * scale
    n_in = int(np.count_nonzero(inside))
    if counts is not None:
        counts["in_cone"] += n_in
        counts["solved"] += n - n_in
    if n_in < n:
        slack[:, 0] = -np.inf  # a row outside the cone takes a nonempty set
        face = slack.argmax(axis=1)
        mu = np.minimum(np.maximum(Z[np.arange(n), :, face], 0.0), upper[face])
        V = np.matmul(mu[:, None, :], A)[:, 0]
        V += Y
        # _nnls_certified's conditions with x = mu, g = A v and max |E| = 1:
        # mu >= 0 holds by the clip; each column of E holds one or two
        # entries +-1, so each entry of g rounds once, whatever the stack
        G = V @ E
        tol = 1e-9 * scale
        ok = inside | ((G.min(axis=1) >= -tol) & (np.abs(_rowdot(mu, G)) <= tol * scale))
        if not ok.all():
            for i in np.flatnonzero(~ok):
                V[i] = _nnls_certified(E, -Y[i])[1]
        np.copyto(Y, V, where=~inside[:, None])
    # clamp the rows in the cone, and clear float crumbs below zero
    return np.maximum(Y, 0.0, out=Y)


@functools.lru_cache(maxsize=256)
def _row_projector(P: Poset, table: bool = True):
    """The exact projection onto C(P) of every row of a stack, in place.

    Returns a function ``(Y, w=None, counts=None)`` that projects each row
    of Y, shape (n, P.p), with the weights ``w`` if given, and returns Y;
    it validates nothing.  This is the one resolution of P, cached and
    shared by every caller: :func:`_clamp`, :func:`_project_chain`, or for
    any other poset :func:`_project_table` when ``table`` is true and P has
    a face table, and :func:`_project_general` otherwise, bound to
    read-only arrays alone, so it holds no state.  Callers pass ``table``
    by keyword or not at all, as the cache keys the spellings apart.  Rows
    are projected one at a time on every path, so a row of a stack comes
    back bitwise as it would alone.  ``counts``, if given, adds the rows
    taken by each path under the keys of ``_ROW_PATHS``.  The caller picks
    ``table``, never the stack's height: the table and NNLS round a row
    differently (sending stacks of one or two rows to NNLS moved CCHS fits'
    final objectives by up to 6e-16 relative), so a restart left alone in
    its stack would switch paths mid-fit and round as the number of
    restarts sharing its stack decides.
    """
    if not P.covers:
        return _clamp
    if (P.leq | P.leq.T).all():
        # a chain lists its elements by falling upset size; one listed in
        # its own order needs no gather and scatter
        order = np.argsort(-P.leq.sum(axis=1))
        order.setflags(write=False)
        in_order = np.array_equal(order, np.arange(P.p))
        return functools.partial(_project_chain, slice(None) if in_order else order)
    A = _halfspace_rows(P)
    E = np.ascontiguousarray(A.T)  # scipy's nnls would copy a transposed view
    E.setflags(write=False)
    if table and _face_table(P) is not None:
        return functools.partial(_project_table, P, A, E)
    return functools.partial(_project_general, A, E)


def project(y, P: Poset, w=None) -> np.ndarray:
    """Exact projection of y onto the order cone of P.

    Returns the minimizer of sum_l w_l (y_l - v_l)^2 over C(P), with unit
    weights when ``w`` is None.  Raises ValueError if y does not have P.p
    entries or the weights do not match it or are not strictly positive,
    and :class:`~ndrank.errors.NonFiniteInput` if either holds NaN or inf.
    """
    y = np.array(y, dtype=float)  # a copy: the projector works in place
    e = _target_exponent(y)
    if y.shape != (P.p,):
        raise ValueError(f"target length {y.shape} != poset size {P.p}")
    if w is not None:
        w = _check_weights(w, y)
    v = _row_projector(P, table=False)(np.ldexp(y, -e)[None] if e else y[None], w)[0]
    return np.ldexp(v, e) if e else v
