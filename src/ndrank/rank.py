"""Closed-form rank results for the nondecreasing rank.

Closed-form or fixed-point rank-one solvers cover the multinomial, Poisson
and exponential likelihoods; only the exponential loop stops at fixed
limits (``_RANK1_TOL``, ``_RANK1_MAX_ITER``).  The Gaussian rank-one fit is
the ND-HALS engine of :mod:`ndrank.factor` at rank one.  A truncated-SVD
shortcut factorizes the rank-two truncation T2 of a matrix exactly whenever
T2 has ND rank at most two, from the extreme rays of rowspace(T2) ∩ C(P2);
for collider-free posets that is whenever T2 lies in the finite-rank cone.
:func:`rank_bounds` gives the maximum and typical ND ranks where they are
known, and :func:`tri_factorization_verify` checks the reduction to
nonnegative rank, T = V1 H V2' over the cones' extremal rays.

The exponential and rank-two fits check their input by
:func:`ndrank.tensor.check_fit_input` alone, :func:`rank2_matrix_exact`
after its matrix test, and work at the unit scale that
:func:`ndrank.factor._unit_scale` gives, as ND-HALS does; the marginal fits
check theirs by :func:`ndrank.tensor.check_tensor`, so they answer order 0,
and refuse an empty mode themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from . import cone as cone_mod
from .cone import default_tol, is_monotone, membership_finite_rank, order_cone_vrep
from .errors import HypothesisViolated, NonNegativityViolated, NonPositiveEntry, ShapeMismatch
from .factor import (
    FitConfig,
    NDFactorization,
    _khatri_rao_rows,
    _uniform_unit,
    _unit_scale,
    _unfoldings,
    hals,
)
from .isotonic import _nnls_certified, project
from .poset import Poset, count_connected_upsets, is_simplicial
from .tensor import _halfspace_rows, check_fit_input, check_tensor, poset_list, require_finite


# ---------------------------------------------------------------------------
# rank-one likelihood solvers

# the exponential loop stops at the first cycle that moves its vectors by
# less than _RANK1_TOL, or after _RANK1_MAX_ITER cycles
_RANK1_TOL = 1e-10
_RANK1_MAX_ITER = 10_000


def rank1_gaussian(T, posets) -> NDFactorization:
    """Best rank-one fit under squared error: :func:`ndrank.factor.hals` at
    ``FitConfig(rank=1)``, the fit ``ndrank factorize --rank 1`` writes.

    When every fibre lies in its mode's order cone, the unconstrained
    rank-one stationary point is automatically monotone, so the fit reaches
    the leading rank-one term of T; for matrices, the leading singular
    pair.  :func:`ndrank.factor.hals` checks the input, runs on
    T / ||T|| and refuses a T whose ||T||^2 overflows or underflows a
    float (||T|| outside about [1.5e-154, 1.3e154]) with NonFiniteInput;
    a zero tensor gets scale 0.
    """
    return hals(T, posets, FitConfig(rank=1))[0]


def _count_marginals(T, model: str, posets):
    """Per-mode marginals and grand total of finite, nonnegative count data,
    with ``posets`` as a list after :func:`check_tensor`."""
    T, posets = check_tensor(T, posets)
    if 0 in T.shape:
        raise ShapeMismatch(f"mode {T.shape.index(0) + 1} is empty; a fit needs entries")
    if (T < 0).any():
        raise NonNegativityViolated(f"{model} data must be nonnegative")
    return [np.apply_over_axes(np.sum, T, [a for a in range(T.ndim) if a != j]).ravel()
            for j in range(T.ndim)], float(T.sum()), posets


def _proportions(marg, total: float, posets) -> list:
    """Each marginal's proportions m / N projected onto its order cone, as a
    one-row factor: the order-restricted multinomial MLE is the unit-weight
    isotonic regression of m / N, which keeps the sum at 1 (Robertson, Wright
    & Dykstra 1988, Thm 1.5.1, Phi(x) = x log x - x)."""
    return [project(m / total, P)[None, :] for m, P in zip(marg, posets)]


def rank1_multinomial(T, posets) -> NDFactorization:
    """Rank-one multinomial MLE: product of per-mode marginal distributions,
    each nondecreasing over its poset."""
    marg, total, posets = _count_marginals(T, "multinomial", posets)
    if total == 0:
        raise NonNegativityViolated("multinomial data must not be all zero")
    return NDFactorization(np.array([1.0]), _proportions(marg, total, posets))


def rank1_poisson(T, posets) -> NDFactorization:
    """Rank-one Poisson MLE: marginal distributions scaled by the grand total,
    each nondecreasing over its poset."""
    marg, total, posets = _count_marginals(T, "Poisson", posets)
    if total == 0:
        return NDFactorization(np.zeros(1), [np.full(m.shape, 1.0 / m.size)[None, :] for m in marg])
    return NDFactorization(np.array([total]), _proportions(marg, total, posets))


def rank1_exponential(T, posets) -> NDFactorization:
    """Rank-one exponential-likelihood fit by cyclic fixed-point iteration.

    Each cycle replaces the mode-j vector with the exact coordinatewise
    minimizer of sum(log theta + T/theta) holding the others fixed; entries
    stay strictly positive throughout.  The iteration runs on T / ||T||
    (:func:`ndrank.factor._unit_scale`) and multiplies its scale back; a T
    whose ||T||^2 overflows or underflows a float (||T|| outside about
    [1.5e-154, 1.3e154]) raises NonFiniteInput.
    """
    T, posets = check_fit_input(T, posets)
    if (T <= 0).any():
        raise NonPositiveEntry("exponential data must be strictly positive")
    if not is_monotone(T, posets).member:
        raise HypothesisViolated("every fibre must lie in its order cone")
    T, norm = _unit_scale(T)
    unfold = _unfoldings(T)
    vecs = [np.ones(P.p) for P in posets]
    n_other = [T.size // P.p for P in posets]
    for _ in range(_RANK1_MAX_ITER):
        moved = 0.0
        for t in range(T.ndim):
            inv = [1.0 / v for v in vecs[:t] + vecs[t + 1:]]
            new = (_khatri_rao_rows(inv, ()) @ unfold[t]) / n_other[t]
            moved = max(moved, float(np.max(np.abs(new - vecs[t]) / np.maximum(vecs[t], 1e-300))))
            vecs[t] = new
        if moved < _RANK1_TOL:
            break
    return _unit_terms([v[None, :] for v in vecs], scale=norm)


# ---------------------------------------------------------------------------
# exact rank-two matrices via the truncated SVD

class Rank2Result(NamedTuple):
    factorization: NDFactorization | None
    certificate: cone_mod.MembershipCertificate
    reason: str | None

    @property
    def needs_hals(self) -> bool:
        return self.factorization is None


def _nnls_coefficients(T2: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.zeros((T2.shape[0], B.shape[0]))
    for i, row in enumerate(T2):
        A[i], _ = _nnls_certified(B.T, row)
    return A


def _unit_terms(vectors, scale: float = 1.0) -> NDFactorization:
    """The factorization whose term i has mode-j vector ``vectors[j][i]``
    (row i of an (r, p_j) array) at unit norm, or uniform where it is zero,
    and the scale ``scale`` times those vectors' norms, in mode order."""
    lambdas = np.full(len(vectors[0]), scale)
    factors = [np.empty(V.shape) for V in vectors]
    for F, V in zip(factors, vectors):
        for i, v in enumerate(V):
            n = np.linalg.norm(v)
            lambdas[i] *= n
            F[i] = v / n if n > 0 else _uniform_unit(v.size)
    return NDFactorization(lambdas, factors)


def rank2_matrix_exact(T, posets) -> Rank2Result:
    """Exact ND rank-two factorization of a matrix via its truncated SVD.

    The best unconstrained rank-two approximation T2 is optimal over the ND
    rank-two set whenever it has ND rank at most two.  Its column-mode
    vectors are the two extreme rays of rowspace(T2) ∩ C(P2), and the
    row-mode coefficients of T2's rows on them come from a two-column NNLS.
    Any ND rank-two factorization of T2 has its column vectors in that
    wedge, so these coefficients are nonnegative combinations of its own:
    the extraction succeeds whenever T2 has ND rank at most two, which for
    collider-free posets is whenever T2 is in the finite-rank cone (Cohen &
    Rothblum, 1993).  Otherwise factorization=None directs callers to HALS.

    The certificate is that of T2, in T's units.  The extraction and its
    checks run on T2 / ||T2|| (:func:`ndrank.factor._unit_scale`), and the
    scales are multiplied back; a member T2 whose ||T2||^2 overflows or
    underflows a float (||T2|| outside about [1.5e-154, 1.3e154]) raises
    NonFiniteInput.
    """
    if np.ndim(T) != 2:
        raise ShapeMismatch("rank2_matrix_exact expects a matrix")
    T, posets = check_fit_input(T, posets)
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    T2 = (U[:, :2] * s[:2]) @ Vt[:2]
    cert = membership_finite_rank(T2, posets)
    if not cert.member:
        return Rank2Result(None, cert, "truncated SVD is outside the finite-rank cone")
    T2, norm = _unit_scale(T2)
    tol = default_tol(T2)

    if s.size < 2 or s[1] <= 1e-12 * max(s[0], 1e-300):
        i = int(np.argmax(np.linalg.norm(T2, axis=1)))
        B = T2[None, i]
        A = _nnls_coefficients(T2, B)
        a_cols = np.column_stack([A[:, 0], np.zeros(T.shape[0])])
        b_rows = np.vstack([B[0], np.zeros(T.shape[1])])
    else:
        b_rows = _wedge_rays(T2, Vt[:2], posets[1])
        if b_rows is None:
            return Rank2Result(None, cert, "no halfspace bounds the row space's wedge")
        a_cols = _nnls_coefficients(T2, b_rows)

    recon = a_cols @ b_rows
    if np.linalg.norm(recon - T2) > 1e-8 * (1.0 + np.linalg.norm(T2)):
        return Rank2Result(None, cert, "extraction failed to reproduce the rank-two truncation")
    for i in range(2):
        if b_rows[i].any() and not is_monotone(b_rows[i], posets[1], tol).member:
            return Rank2Result(None, cert, "extracted column-mode vector is infeasible")
        if a_cols[:, i].any() and not is_monotone(a_cols[:, i], posets[0], tol).member:
            return Rank2Result(None, cert, "extracted row-mode coefficients are infeasible")
    fact = _unit_terms([a_cols.T, b_rows])
    fact.lambdas *= norm
    return Rank2Result(fact, cert, None)


def _wedge_rays(T2: np.ndarray, basis: np.ndarray, col_poset: Poset) -> np.ndarray | None:
    """The two extreme rays of rowspace(T2) ∩ C(col_poset), as rows.

    In the plane of the orthonormal ``basis`` each halfspace row h of the
    cone is a half-plane through 0, which bounds t on the line d + t d'
    through the interior direction d (the normalized sum of T2's unit rows):
    no angles, so no wrap at ±180°.  The cone lies in the nonnegative
    orthant, so the wedge is at most 90° wide and both bounds are finite.
    An h with T2 @ h at rounding level (a cover between tied columns) is
    orthogonal to the plane, and is dropped lest its noise bound t.
    Returns None if no finite wedge is left.
    """
    H = _halfspace_rows(col_poset)
    noise = 1e-12 * np.linalg.norm(T2) * np.linalg.norm(H, axis=1)
    normals = H[np.linalg.norm(T2 @ H.T, axis=0) > noise] @ basis.T
    coords = T2 @ basis.T
    norms = np.linalg.norm(coords, axis=1)
    live = norms > 1e-12 * norms.max()
    d = (coords[live] / norms[live, None]).sum(axis=0)
    d /= np.linalg.norm(d)
    perp = np.array([-d[1], d[0]])
    along, across = normals @ d, normals @ perp
    up, down = across > 0, across < 0
    lo = np.max(-along[up] / across[up], initial=-np.inf)
    hi = np.min(-along[down] / across[down], initial=np.inf)
    if not np.isfinite([lo, hi]).all():
        return None
    return (d + np.outer([lo, hi], perp)) @ basis


# ---------------------------------------------------------------------------
# rank bounds and tri-factorization

@dataclass
class RankBounds:
    upper: int
    exact_max: int | None
    typical_min: int | None
    typical_range: tuple | None
    extremal_ray_counts: list


def _is_collider_to_top(P: Poset) -> bool:
    maxima = P.maximal_elements()
    if len(maxima) != 1:
        return False
    top = maxima[0]
    return set(P.covers) == {(x, top) for x in range(P.p) if x != top}


def rank_bounds(posets) -> RankBounds:
    """Maximum-rank bounds and typical ranks where they are known.

    The product of all but the largest extremal-ray count always bounds the
    maximum ND rank.  It is attained for matrices when one cone is
    simplicial (min of the two counts) and when both posets are the
    "everything below one top" order of equal size (2^(p-1)).
    """
    posets = poset_list(posets)
    q = [count_connected_upsets(P) for P in posets]
    upper = prod(sorted(q)[:-1])  # 1 for one poset
    exact_max = typical_min = typical_range = None
    if len(posets) == 2:
        typical_min = min(P.p for P in posets)
        if any(is_simplicial(P) for P in posets):
            exact_max = min(q)
        elif (_is_collider_to_top(posets[0]) and _is_collider_to_top(posets[1])
              and posets[0].p == posets[1].p):
            exact_max = 2 ** (posets[0].p - 1)
        if exact_max is not None:
            typical_range = (typical_min, exact_max)
    return RankBounds(upper=upper, exact_max=exact_max, typical_min=typical_min,
                      typical_range=typical_range, extremal_ray_counts=q)


class TriFactorCheck(NamedTuple):
    ok: bool
    residual: float


def tri_factorization_verify(T, H, posets, tol: float | None = None) -> TriFactorCheck:
    """Check T = V1 H V2' where V_j stacks the extremal rays of each cone.

    H must be nonnegative with shape (q1, q2); the ND rank of T equals the
    smallest nonnegative rank among all feasible H.
    """
    if np.ndim(T) != 2:
        raise ShapeMismatch("tri-factorization applies to matrices")
    T, posets = check_tensor(T, posets)
    H = np.asarray(H, dtype=float)
    require_finite("H", H)
    V = [order_cone_vrep(P).T for P in posets]  # (p_j, q_j)
    if H.shape != (V[0].shape[1], V[1].shape[1]):
        raise ShapeMismatch(f"H has shape {H.shape}, expected {(V[0].shape[1], V[1].shape[1])}")
    if (H < 0).any():
        raise NonNegativityViolated("H must be nonnegative")
    tol = cone_mod._resolve_tol(T, tol)
    residual = float(np.linalg.norm(T - V[0] @ H @ V[1].T))
    return TriFactorCheck(ok=residual <= tol, residual=residual)
