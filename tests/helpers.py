"""Shared test utilities: random poset generators, the posets of the
metamorphic rules and their relabelling, an independent
projected-gradient oracle for order-cone projection, a pure-Python
pool-adjacent-violators reference, the product-order covers, the
product-poset monotonicity check and
the explicit-normals membership check, the cover-loop Moebius inverse, a
double description with its own Gauss-Jordan inverse, a brute-force
connected-upset enumeration, the
Moebius-transform rank-two factorization, the
term-by-term ALS init, the
row-by-row random-cone init, the full-tensor ND-HALS sweep and the
one-scatter order-polytope sampler that the package's vectorized versions
are checked against."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from types import SimpleNamespace

import numpy as np

from ndrank import cone, factor, isotonic, poset, tensor
from ndrank.errors import DegenerateCone
from ndrank.isotonic import project
from ndrank.tensor import outer

_LETTERS = "abcdefghijkl"


def random_chain(p, rng):
    return poset.chain(p)


def random_forest(p, rng):
    # collider-free: every element has at most one lower cover
    edges = []
    for i in range(1, p):
        parent = int(rng.integers(-1, i))
        if parent >= 0:
            edges.append((parent, i))
    return poset.from_relation(list(range(p)), edges)


def random_collider(p, rng):
    if p < 3:
        return poset.trivial(p)
    return poset.collider_to_top(p)


def random_dag(p, rng, density=0.35):
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < density]
    return poset.from_relation(list(range(p)), edges)


KINDS = (random_chain, random_forest, random_collider, random_dag,
         lambda p, rng: poset.trivial(p))


def random_poset(p, rng):
    return KINDS[int(rng.integers(0, len(KINDS)))](p, rng)


def reference_mobius_inverse(P):
    """Inverse of the upset-indicator map of a collider-free poset, by its
    cover loop: the identity with -1 at (b, a) for each cover (a, b)."""
    M = np.eye(P.p)
    for a, b in P.covers:
        M[b, a] = -1.0
    return M


# the poset kinds the metamorphic rules are checked on
METAMORPHIC_KINDS = ("chain", "forest", "collider", "product")


def metamorphic_poset(kind, rng):
    """A small poset of ``kind``: a chain or a forest of 1 to 6 elements,
    ``collider_to_top`` of 3 or 4 (one collider), or the grid of a 2-chain
    and a 2- or 3-chain."""
    if kind == "chain":
        return poset.chain(int(rng.integers(1, 7)))
    if kind == "forest":
        return random_forest(int(rng.integers(1, 7)), rng)
    if kind == "collider":
        return poset.collider_to_top(int(rng.integers(3, 5)))
    return poset.product([poset.chain(2), poset.chain(int(rng.integers(2, 4)))])


def relabel(P, perm):
    """P with element x moved to index ``perm[x]``: the same labels and
    order, declared in another order."""
    inv = np.argsort(perm)
    return poset.from_relation([P.labels[x] for x in inv],
                               [(P.labels[a], P.labels[b]) for a, b in P.covers])


def cone_halfspaces(P):
    """Rows a with C(P) = {x : a @ x >= 0}."""
    rows = []
    for m in P.minimal_elements():
        a = np.zeros(P.p)
        a[m] = 1.0
        rows.append(a)
    for u, v in P.covers:
        a = np.zeros(P.p)
        a[u], a[v] = -1.0, 1.0
        rows.append(a)
    return np.asarray(rows)


@dataclass
class DenseViolation:
    """A violation with its label and dense normal built up front, as the
    package built them before it kept violations sparse: the references
    render both on their own, not through ``cone.Violation``."""

    label: str
    normal: np.ndarray
    value: float


def reference_product_covers(factors):
    """The covers of the product order on flat indices, sorted: the pairs
    that step one coordinate along a cover of its factor."""
    sizes = [f.p for f in factors]
    strides = [prod(sizes[j + 1:]) for j in range(len(sizes))]
    return sorted((flat, flat + (b - tup[j]) * strides[j])
                  for flat, tup in enumerate(itertools.product(*(range(s) for s in sizes)))
                  for j, f in enumerate(factors) for b in f.upper_covers(tup[j]))


def _certificate(violated, method, tol, min_value):
    """A plain record with a certificate's five attributes."""
    return SimpleNamespace(member=not violated, violated=violated, method=method, tol=tol,
                           min_value=float(min_value))


def reference_is_monotone(T, posets, tol=None):
    """Monotonicity over the product poset, built in full: one loop over its
    entries, then one over its covers (a flat poset's in its own order)."""
    T = np.asarray(T, dtype=float)
    if isinstance(posets, poset.Poset):
        covers = posets.covers
    else:
        T, posets = tensor.check_tensor(T, posets)
        covers = reference_product_covers(posets)
    if tol is None:
        tol = cone.default_tol(T)
    flat = T.ravel()
    violated = []
    min_value = np.inf
    for x in range(flat.size):
        min_value = min(min_value, flat[x])
        if flat[x] < -tol:
            normal = np.zeros(flat.size)
            normal[x] = 1.0
            violated.append(DenseViolation(f"{cone._entry_name(T.shape, x)} >= 0",
                                           normal, float(flat[x])))
    for a, b in covers:
        val = flat[b] - flat[a]
        min_value = min(min_value, val)
        if val < -tol:
            normal = np.zeros(flat.size)
            normal[a], normal[b] = -1.0, 1.0
            violated.append(DenseViolation(
                f"{cone._entry_name(T.shape, a)} <= {cone._entry_name(T.shape, b)}",
                normal, float(val)))
    return _certificate(violated, "monotonicity", tol, min_value)


def reference_finite_rank_normals(posets):
    """Every outer product of one augmented cover vector per mode: e_m for a
    minimal m (a cover of an adjoined bottom) or e_b - e_a for a cover."""
    per_mode = []
    for P in posets:
        vecs = []
        for x, y in ([(-1, m) for m in sorted(P.minimal_elements())] + sorted(P.covers)):
            h = np.zeros(P.p)
            h[y] = 1.0
            if x >= 0:
                h[x] = -1.0
            vecs.append(h)
        per_mode.append(vecs)
    return np.asarray([outer(c).ravel() for c in itertools.product(*per_mode)], dtype=int)


def reference_membership(T, posets, tol=None):
    """Finite-ND-rank membership by the written-out maps: the Kronecker
    product of Moebius inverses for collider-free posets, every explicit
    facet normal with one collider, double description otherwise."""
    T, posets = tensor.check_tensor(T, posets)
    if tol is None:
        tol = cone.default_tol(T)
    n_colliders = sum(poset.has_collider(P) for P in posets)
    if n_colliders == 0:
        invs = [tensor.mobius_inverse_matrix(P) for P in posets]
        values = tensor.apply_kronecker(invs, T).ravel()
        normals = [outer([invs[j][i] for j, i in enumerate(np.unravel_index(f, T.shape))]).ravel()
                   for f in range(T.size)]
        method = "tree-differencing"
    else:
        if n_colliders == 1:
            normals = reference_finite_rank_normals(posets)
            method = "halfspace"
        else:
            normals = cone.double_description(cone.finite_rank_vrep(posets))
            method = "double-description"
        values = normals @ T.ravel()
    violated = [DenseViolation(cone.format_normal(normals[i], T.shape),
                               np.asarray(normals[i], dtype=float), float(values[i]))
                for i in np.flatnonzero(values < -tol)]
    return _certificate(violated, method, tol, values.min())


def _reference_primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _reference_integer(vec):
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    return _reference_primitive([int(v * den) for v in vec])


def _reference_rref(rows, width):
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
        row = [a / row[lead] for a in row]
        for k, pr in enumerate(reduced):
            if pr[lead]:
                reduced[k] = [a - pr[lead] * b for a, b in zip(pr, row)]
        pivots.append(lead)
        reduced.append(row)
        used.append(ri)
    return pivots, reduced, used


def _reference_inverse_columns(rows):
    """Columns of the inverse of a square integer matrix, by Gauss-Jordan on
    [B | I] with row swaps, each scaled to a primitive integer vector."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [a / aug[col][col] for a in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                fr = aug[r][col]
                aug[r] = [a - fr * b for a, b in zip(aug[r], aug[col])]
    return [_reference_integer([aug[i][d + j] for i in range(d)]) for j in range(d)]


def reference_double_description(generators):
    """Facet normals of the cone of integer generators, as the package's
    double description computed them before its simplicial start was read
    off its own row reduction: the start inverts the base rows with a
    separate Gauss-Jordan, and every tight mask comes from dot products.
    Raises ``DegenerateCone`` with the same ``equality_normals``."""
    d = np.asarray(generators[0]).size
    G, seen = [], set()
    for g in generators:
        t = _reference_primitive([int(round(float(x))) for x in np.ravel(g)])
        if any(t) and t not in seen:
            seen.add(t)
            G.append(t)
    pivots, reduced, used = _reference_rref(G, d)
    if len(pivots) < d:
        null = []
        for fj in (j for j in range(d) if j not in pivots):
            vec = [Fraction(0)] * d
            vec[fj] = Fraction(1)
            for pc, pr in zip(pivots, reduced):
                vec[pc] = -pr[fj]
            null.append(_reference_integer(vec))
        raise DegenerateCone("degenerate", equality_normals=np.asarray(null, dtype=int))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def mask_of(r, rows):
        return sum(1 << pos for pos, ci in enumerate(rows) if dot(G[ci], r) == 0)

    processed = list(used[:d])
    rays = _reference_inverse_columns([G[i] for i in processed])
    tight = [mask_of(r, processed) for r in rays]
    for ci in [i for i in range(len(G)) if i not in processed]:
        s = [dot(G[ci], r) for r in rays]
        pos = len(processed)
        processed.append(ci)
        new_rays = []
        for kp in (k for k, v in enumerate(s) if v > 0):
            for km in (k for k, v in enumerate(s) if v < 0):
                t = tight[kp] & tight[km]
                if t.bit_count() < d - 2:
                    continue
                if any(t & tight[k] == t for k in range(len(rays)) if k not in (kp, km)):
                    continue
                new_rays.append(_reference_primitive(
                    [s[kp] * a - s[km] * b for a, b in zip(rays[km], rays[kp])]))
        keep = [k for k, v in enumerate(s) if v >= 0]
        rays2 = [rays[k] for k in keep]
        tight2 = [tight[k] | ((1 << pos) if s[k] == 0 else 0) for k in keep]
        for r in new_rays:
            if r not in rays2:
                rays2.append(r)
                tight2.append(mask_of(r, processed))
        rays, tight = rays2, tight2
    return np.asarray(sorted(rays), dtype=int)


def reference_linear_extensions(P):
    """Every order of P's elements that puts each cover's lower end first,
    by filtering all p! permutations, which come in lexicographic order."""
    return [order for order in itertools.permutations(range(P.p))
            if all(order.index(a) < order.index(b) for a, b in P.covers)]


def reference_first_cycle_edge(labels, edges):
    """Index of the edge that closes the first cycle when the edges of a
    cyclic relation (without self-loops) are added in order, by keeping the
    strict upper sets of the edges so far as bit rows."""
    lut = {lab: i for i, lab in enumerate(labels)}
    upper = [0] * len(labels)
    for k, (a, b) in enumerate(edges):
        a, b = lut[a], lut[b]
        if upper[b] >> a & 1:
            return k
        gained = 1 << b | upper[b]
        for x, up in enumerate(upper):
            if x == a or up >> a & 1:
                upper[x] = up | gained


def reference_connected_upsets(P):
    """Every nonempty subset of P that is an upset and whose Hasse subgraph
    is connected, found by checking all 2^p subsets; ordered by size, then
    by sorted elements."""
    found = []
    for size in range(1, P.p + 1):
        for S in itertools.combinations(range(P.p), size):
            U = set(S)
            if any(a in U and b not in U for a, b in P.covers):
                continue
            reached, stack = {S[0]}, [S[0]]
            while stack:
                x = stack.pop()
                for a, b in P.covers:
                    for u, v in ((a, b), (b, a)):
                        if u == x and v in U and v not in reached:
                            reached.add(v)
                            stack.append(v)
            if reached == U:
                found.append(frozenset(S))
    return found


def projection_oracle(y, P, w=None, max_iter=200_000, kkt_tol=1e-13):
    """Accelerated projected gradient on the dual quadratic program.

    Solves min_{mu >= 0} 0.5 || B' mu + c ||^2 with B the weighted cone
    halfspaces, recovering the projection v = W^{-1/2}(c + B' mu).  Entirely
    independent of the library's active-set path.
    """
    y = np.asarray(y, dtype=float)
    A = cone_halfspaces(P)
    if w is None:
        w = np.ones_like(y)
    s = np.sqrt(np.asarray(w, dtype=float))
    B = A / s
    c = s * y
    M = B @ B.T
    L = float(np.linalg.eigvalsh(M).max()) if M.size else 1.0
    L = max(L, 1e-12)
    mu = np.zeros(B.shape[0])
    z = mu.copy()
    t_acc = 1.0
    for it in range(max_iter):
        grad = M @ z + B @ c
        mu_new = np.maximum(z - grad / L, 0.0)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2)) / 2.0
        z = mu_new + ((t_acc - 1.0) / t_new) * (mu_new - mu)
        mu, t_acc = mu_new, t_new
        if it % 100 == 99:
            grad = M @ mu + B @ c
            kkt = float(np.max(np.abs(np.minimum(mu, grad)))) if mu.size else 0.0
            if kkt < kkt_tol:
                break
    v = (c + B.T @ mu) / s
    obj = float(np.sum(np.asarray(w) * (y - v) ** 2))
    return v, obj


def reference_pava(y, w=None):
    """Weighted isotonic regression on a chain by pool adjacent violators."""
    means, weights, sizes = [], [], []
    ws = itertools.repeat(1.0) if w is None else np.asarray(w, dtype=float).tolist()
    for m, ww in zip(np.asarray(y, dtype=float).tolist(), ws):
        n = 1
        while means and means[-1] > m:
            m = (ww * m + weights[-1] * means[-1]) / (ww + weights[-1])
            ww += weights[-1]
            n += sizes[-1]
            means.pop(), weights.pop(), sizes.pop()
        means.append(m), weights.append(ww), sizes.append(n)
    return np.repeat(means, sizes)


def reference_rank2_mobius(T2, posets, tol=1e-10):
    """An exact ND rank-two factorization of a rank-two matrix over
    collider-free posets, through its Moebius transform M = D1 T2 D2': the
    two columns of M at the extreme angles in its column space span every
    other column with nonnegative coefficients, and D^-1 maps the
    nonnegative orthant onto the order cone.  Returns (A, B) with
    T2 = A @ B.T, or None when M has an entry below -tol * max |M|."""
    D1, D2 = (tensor.mobius_inverse_matrix(P) for P in posets)
    M = D1 @ T2 @ D2.T
    if M.min() < -tol * np.abs(M).max():
        return None
    C = np.linalg.svd(M)[0][:, :2].T @ M
    norms = np.linalg.norm(C, axis=0)
    live = np.flatnonzero(norms > 1e-12 * norms.max())
    mid = C[:, live].sum(axis=1)
    angle = np.arctan2(mid[0] * C[1, live] - mid[1] * C[0, live], mid @ C[:, live])
    W = M[:, live[[angle.argmin(), angle.argmax()]]]
    H = np.linalg.lstsq(W, M, rcond=None)[0]
    return np.linalg.solve(D1, W), np.linalg.solve(D2, H.T)


def reference_pack_rank2(a_cols, b_rows):
    """The rank-two fit's own packing before it shared ``rank._unit_terms``:
    term i is column i of ``a_cols`` and row i of ``b_rows``, each at unit
    norm (uniform where zero), with lambda_i the product of their norms."""
    lambdas = np.zeros(2)
    F1 = np.zeros((2, a_cols.shape[0]))
    F2 = np.zeros((2, b_rows.shape[1]))
    for i in range(2):
        na, nb = np.linalg.norm(a_cols[:, i]), np.linalg.norm(b_rows[i])
        lambdas[i] = na * nb
        F1[i] = a_cols[:, i] / na if na > 0 else factor._uniform_unit(a_cols.shape[0])
        F2[i] = b_rows[i] / nb if nb > 0 else factor._uniform_unit(b_rows.shape[1])
    return factor.NDFactorization(lambdas, [F1, F2])


def trace_nonincreasing(trace, slack=1e-12):
    return all(trace[i + 1] <= trace[i] + slack * max(1.0, trace[i])
               for i in range(len(trace) - 1))


def rising_hals_restarts(plain):
    """Wrap ``factor._hals_restarts`` so that restart 0 reports the trace
    [0.5, 0.4, 0.4 (1 + 1e-13), 0.45, 0.3] in units of ||T||^2: sweep 3
    rises within the 1e-12 slack and sweep 4 beyond it, so the first rise
    is sweep 4."""
    def wrapped(*args, **kwargs):
        runs, stats = plain(*args, **kwargs)
        runs[0][1][:] = [0.5, 0.4, 0.4 * (1 + 1e-13), 0.45, 0.3]
        return runs, stats

    return wrapped


def reference_grid_members(X, tol):
    """Points X[i] of shape (m, m) whose mode differences, the first row
    and column differenced against 0, are all at least -tol."""
    D = np.diff(np.diff(X, axis=1, prepend=0.0), axis=2, prepend=0.0)
    return int((D >= -tol).all(axis=(1, 2)).sum())


def reference_sample_members(m, n_samples, seed):
    """``members`` of the order-polytope sampler with every chunk's points
    built by one scatter of its sorted values along its extensions."""
    P = poset.product([poset.chain(m), poset.chain(m)])
    rng = np.random.default_rng(seed)
    table = np.asarray(poset.linear_extensions(P), dtype=int)
    members, done, chunk = 0, 0, 200_000
    while done < n_samples:
        n = min(chunk, n_samples - done)
        exts = table[rng.integers(0, table.shape[0], size=n)]
        vals = np.sort(rng.random((n, P.p)), axis=1)
        X = np.empty((n, P.p))
        X[np.arange(n)[:, None], exts] = vals
        members += reference_grid_members(X.reshape(n, m, m), 2e-9)
        done += n
    return members


def _einsum_contract(X, vecs, t):
    subs = [_LETTERS[:X.ndim]] + [_LETTERS[j] for j in range(X.ndim) if j != t]
    ops = [X] + [vecs[j] for j in range(X.ndim) if j != t]
    return np.einsum(",".join(subs) + "->" + _LETTERS[t], *ops)


def _einsum_reconstruct(lambdas, factors):
    k = len(factors)
    subs = ",".join(["i"] + ["i" + _LETTERS[j] for j in range(k)])
    return np.einsum(subs + "->" + _LETTERS[:k], lambdas, *factors)


def reference_init_als_project(T, r, posets, seed):
    """The ALS-then-project init written out term by term: einsum right-hand
    sides (so orders up to 12 only), a least-squares solve per mode, and
    every projection of every even sign pattern of every term.  A vector
    whose projection fails the sweep's liveness test becomes the uniform
    unit vector and its term's scale 0.  It runs on T / ||T|| and multiplies
    the scales back by ||T||."""
    T = np.asarray(T, dtype=float)
    norm = float(np.linalg.norm(T)) or 1.0
    T = T / norm
    posets = list(posets)
    k = T.ndim
    rng = np.random.default_rng(seed)
    F = [rng.standard_normal((r, P.p)) for P in posets]
    uniform = [np.full(P.p, 1.0 / np.sqrt(P.p)) for P in posets]
    if not np.any(T):
        return np.zeros(r), [np.tile(u, (r, 1)) for u in uniform]
    scale = (float(np.abs(T).mean()) or 1.0) ** (1.0 / k)
    F = [scale * f for f in F]
    for _ in range(25):
        for t in range(k):
            gram = np.ones((r, r))
            for j in range(k):
                if j != t:
                    gram *= F[j] @ F[j].T
            if k == 1:
                W = np.repeat(T[:, None], r, axis=1)
            else:
                ops, subs = [T], [_LETTERS[:k]]
                for j in range(k):
                    if j != t:
                        ops.append(F[j])
                        subs.append("i" + _LETTERS[j])
                W = np.einsum(",".join(subs) + "->" + _LETTERS[t] + "i", *ops)
            ridge = 1e-10 * (1.0 + float(np.trace(gram)) / r)
            F[t] = np.linalg.lstsq(gram + ridge * np.eye(r), W.T, rcond=None)[0]
    lambdas = np.zeros(r)
    out = [np.zeros((r, P.p)) for P in posets]
    sign_patterns = [s for s in itertools.product((1.0, -1.0), repeat=k) if np.prod(s) > 0]
    for i in range(r):
        raw = [F[j][i] for j in range(k)]
        best = None
        for signs in sign_patterns:
            proj = [project(signs[j] * raw[j], posets[j]) for j in range(k)]
            pp = np.prod([v @ v for v in proj])
            rr = np.prod([v @ v for v in raw])
            pr = np.prod([p_ @ (signs[j] * r_) for j, (p_, r_) in enumerate(zip(proj, raw))])
            score = pp + rr - 2 * pr
            if best is None or score < best[0]:
                best = (score, proj)
        lam = 1.0
        for j, v in enumerate(best[1]):
            n = float(np.linalg.norm(v))
            if n > 1e-13 * (1.0 + float(np.linalg.norm(raw[j]))):
                out[j][i] = v / n
                lam *= n
            else:
                out[j][i] = uniform[j]
                lam = 0.0
        lambdas[i] = lam
    return lambdas * norm, out


def reference_init_random_cone(T, r, posets, seed):
    """The random-cone init one vector at a time: r draws per mode, each
    projected alone by the mode's row projector, as a stack of one row, and
    normalized, the uniform unit vector where the projection is zero."""
    rng = np.random.default_rng(seed)
    factors = []
    for P in posets:
        rows = []
        for _ in range(r):
            v = isotonic._row_projector(P)(rng.random((1, P.p)))[0]
            n = float(np.linalg.norm(v))
            rows.append(v / n if n > 0 else np.full(P.p, 1.0 / np.sqrt(P.p)))
        factors.append(np.asarray(rows))
    return np.full(r, float(np.linalg.norm(T)) / max(r, 1)), factors


def reference_hals(T, posets, cfg):
    """The ND-HALS sweep written out over full tensors, restarts included.

    Every (term, mode) update forms the residual T - recon + term and
    contracts it with the other modes' vectors; ``recon`` is patched after
    each update and rebuilt after each sweep, and each restart runs on its
    own.  Returns one ``(trace, stationary, sweeps)`` per restart.
    """
    T = np.asarray(T, dtype=float)
    r, k = cfg.rank, T.ndim
    runs = []
    for seed in range(cfg.seed, cfg.seed + max(cfg.restarts, 1)):
        if cfg.init == "als-project":
            start = factor.init_als_project(T, r, posets, seed)
        else:
            start = factor._init_random_cone(T, r, posets, seed)
        lambdas = start.lambdas.copy()
        factors = [F.copy() for F in start.factors]
        recon = _einsum_reconstruct(lambdas, factors)
        prev = recon.copy()
        trace, stationary, sweeps = [], False, cfg.max_sweeps
        for sweep in range(cfg.max_sweeps):
            for s in range(r):
                vecs = [factors[j][s] for j in range(k)]
                for t in range(k):
                    term = lambdas[s] * outer(vecs)
                    target = _einsum_contract(T - recon + term, vecs, t)
                    v = project(target, posets[t])
                    n = float(np.linalg.norm(v))
                    if n > 1e-13 * (1.0 + float(np.linalg.norm(target))):
                        vecs[t] = v / n
                        lambdas[s] = n
                    else:
                        lambdas[s] = 0.0
                    factors[t][s] = vecs[t]
                    recon = recon - term + lambdas[s] * outer(vecs)
            for s in range(r):
                if lambdas[s] == 0.0:
                    E = T - recon
                    lam, vnew = factor._rank1_nd_fit(E, posets)
                    if lam > 0.0:
                        cand = lam * outer(vnew)
                        if np.linalg.norm(E - cand) <= np.linalg.norm(E):
                            lambdas[s] = lam
                            for j in range(k):
                                factors[j][s] = vnew[j]
                            recon = recon + cand
            recon = _einsum_reconstruct(lambdas, factors)
            trace.append(float(np.sum((T - recon) ** 2)))
            if np.linalg.norm(recon - prev) <= cfg.rel_tol * (np.linalg.norm(prev) + 1e-30):
                stationary, sweeps = True, sweep + 1
                break
            prev = recon.copy()
        runs.append((trace, stationary, sweeps))
    return runs
