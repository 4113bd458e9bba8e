"""Factorization solvers and rank analysis for the nondecreasing rank.

The workhorse is a hierarchical alternating least squares loop: cycling over
terms and modes, each factor vector is replaced by the exact projection of
its unconstrained least-squares update onto the mode's order cone, so the
squared Frobenius objective never increases.  The update never forms a
residual tensor (the Gram-matrix form of Cichocki & Phan, 2009): the target
for term s in mode t is T contracted with the term's other vectors (an
MTTKRP), minus sum over s' != s of lambda_s' * prod_{j != t} G_j[s, s'] *
F_t[s'], where G_j = F_j F_j' is kept per mode and refreshed after every
vector update.  All restarts run as one batch: factors, scales and Grams
carry a leading restart axis, so each (term, mode) update is a few array
operations for every restart at once, and a restart leaves the batch when
it meets the stopping test.  An update takes its MTTKRP from the term's
suffix contractions (below) and its Gram coefficients from views of the
stack, and projects: each mode's projection is resolved once per fit; a
chain listed in order pools its rows in place by the compiled PAVA kernel,
and every other mode's rows go through the projection dispatch of
:mod:`ndrank.isotonic`.  What is left per restart, a handful
of scalars (the liveness test of each update, and the SQUAREM step, cap
and verdict), runs on Python floats, which round as numpy's do, so the
sweep's time goes to arithmetic rather than to numpy calls on short
vectors.  The reconstruction is built once per sweep, for the objective
trace and the stopping test, and the residual only when a dead term is
revived.  On general posets each vector's projection starts
from the active set of its previous one: the projection onto that face is
kept only when it passes a KKT check, and otherwise the certified solver
runs, so every projection stays exact and certified (see
:mod:`ndrank.isotonic`); the report counts the rows each path took.

The plain sweep converges linearly, and slowly on the survey fixture (the
gap to the optimum shrinks by about 4 % a sweep), so the sweeps run in
cycles of three with the squared extrapolation SQUAREM of Varadhan &
Roland (2008): two plain sweeps, then one sweep started from a point
extrapolated from the cycle's three iterates.  That sweep projects every
vector again, so its result is as certified as any other; it is kept only
if it lowers the objective, and otherwise the cycle's last iterate comes
back and the trace repeats its objective (a flat step).  The fit runs on
T / ||T|| and is scaled back, so its course does not depend on the scale
of T.

The sweep reads T twice per term, at any order, instead of once per mode.
When term s's pass starts, T is contracted with the term's vectors from the
last mode back, Q_{k-1} = T and Q_t = Q_{t+1} x_{t+1} v_{t+1}, one stack
per restart (p_0 ... p_t entries for Q_t).  Mode t's MTTKRP is Q_t
contracted with the vectors the pass has already updated, those of modes
0 ... t-1: the modes after t keep the vectors Q_t was built from until
their own update.  Only building Q_{k-2} and the last mode's contraction
read all of T (the dimension-tree idea of Phan, Tichavsky & Cichocki, 2013,
for sequential mode updates).  Every other solver contracts T with one
vector per mode other than t as the Khatri-Rao product of those vectors
times T's mode-t unfolding (Kolda & Bader, 2009): the right-hand sides of
the ALS init, the alternating rank-one loop that revives dead terms and
fits the Gaussian rank-one model, and the exponential solver's fixed-point
update.

The starts of every restart are built as one stack as well: the inits take
an int seed, for one start, or a sequence of seeds, for a list of starts,
and the ALS init runs each of its iterations as one batched solve per mode
for every restart.  Each restart keeps its own random generator and every
product is formed per restart, so a stacked start is bitwise the one its
seed gives alone.

Closed-form or fixed-point rank-one solvers cover the multinomial, Poisson,
and exponential likelihoods, and a truncated-SVD shortcut recovers exact
rank-two matrix factorizations whenever the truncation already has finite
ND rank.

Every fit that takes posets checks its input by
:func:`ndrank.tensor.check_fit_input` alone, :func:`rank2_matrix_exact`
after its matrix test; the marginal fits take no posets, answer order 0
and refuse an empty mode.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cone as cone_mod
from .cone import default_tol, is_monotone, membership_finite_rank, order_cone_vrep
from .errors import (
    NonFiniteInput,
    NonNegativityViolated,
    NonPositiveEntry,
    HypothesisViolated,
    ShapeMismatch,
)
from .isotonic import (_ROW_PATHS, _chain_order, _halfspace_rows, _nnls_certified,
                       _pool_rows, _project_rows, _projection_plan, project)
from .poset import Poset, connected_upsets, is_simplicial
from .tensor import check_fit_input, check_tensor, outer, require_finite

@dataclass
class NDFactorization:
    """Sum of rank-one terms with per-mode vectors constrained to order cones.

    ``factors[j]`` has shape (rank, p_j); row i is the mode-j vector of term
    i.  ``lambdas[i]`` is the nonnegative scale of term i (vectors are kept
    at unit Euclidean norm by the solvers).
    """

    lambdas: np.ndarray
    factors: list
    posets: list | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.factors = [np.asarray(F, dtype=float) for F in self.factors]

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]

    @property
    def order(self) -> int:
        return len(self.factors)

    def term(self, i: int) -> np.ndarray:
        return self.lambdas[i] * outer([F[i] for F in self.factors])

    def reconstruct(self) -> np.ndarray:
        shape = tuple(F.shape[1] for F in self.factors)
        return _reconstruct_rows(self.lambdas[None], [F[None] for F in self.factors]).reshape(shape)

    def rescaled(self, mode_l1: dict, absorb: int) -> "NDFactorization":
        """Copy with chosen modes scaled to target l1 norms, scales folded
        into ``absorb`` (lambdas become 1)."""
        factors = [F.copy() for F in self.factors]
        lambdas = self.lambdas.copy()
        for i in range(self.rank):
            for mode, target in mode_l1.items():
                norm = np.abs(factors[mode][i]).sum()
                if norm > 0:
                    factors[mode][i] *= target / norm
                    lambdas[i] *= norm / target
            factors[absorb][i] *= lambdas[i]
            lambdas[i] = 1.0
        return NDFactorization(lambdas, factors, self.posets, dict(self.diagnostics))

    def to_json(self) -> str:
        obj = {
            "rank": self.rank,
            "lambdas": self.lambdas.tolist(),
            "factors": [[self.factors[j][i].tolist() for j in range(self.order)]
                        for i in range(self.rank)],
            "posets": self.diagnostics.get("poset_refs"),
            "diagnostics": {k: v for k, v in self.diagnostics.items()
                            if k != "poset_refs"},
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NDFactorization":
        obj = json.loads(text)
        r = obj["rank"]
        k = len(obj["factors"][0]) if r else 0
        factors = [np.asarray([obj["factors"][i][j] for i in range(r)], dtype=float)
                   for j in range(k)]
        return cls(np.asarray(obj["lambdas"], dtype=float), factors,
                   diagnostics=obj.get("diagnostics") or {})


@dataclass
class FitConfig:
    rank: int
    max_sweeps: int = 500
    rel_tol: float = 1e-9
    restarts: int = 5
    seed: int = 0
    init: str = "als-project"  # or "random-cone"

    def __post_init__(self):
        for name in ("rank", "max_sweeps", "restarts", "seed"):
            value = getattr(self, name)
            # bool is an Integral, but True is no count and no seed
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be at least 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be positive and finite (got {self.rel_tol!r})")
        if self.init not in ("als-project", "random-cone"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class FitReport:
    """Per-run diagnostics of the best restart.

    ``objective_trace`` holds the squared Frobenius residual after each
    sweep; ``final_residual`` is the (unsquared) Frobenius norm.
    ``projection_rows`` counts the sweep's factor-vector projections, summed
    over every restart, by the path each took: ``clamp`` (no order),
    ``chain`` (PAVA), and for general posets ``in_cone`` (already in the
    cone), ``warm`` (certified on the previous sweep's active set) and
    ``solved`` (certified nonnegative least squares).  ``stop_reason`` is
    ``"dead"`` when every term of the best restart has scale 0 (the fit of
    the zero tensor, say), and otherwise ``"tolerance"`` when the best
    restart met ``rel_tol`` and ``"max_sweeps"`` when it reached the cap;
    ``extrapolation`` counts the extrapolated sweeps kept (``accepted``) and
    undone (``rejected``), summed over every restart.  ``timings`` holds the
    seconds the whole batch of restarts spent in the init (``init_s``) and
    in the sweeps (``sweeps_s``).  ``first_rise`` is the first (1-based)
    sweep whose objective exceeds the previous one by more than
    ``1e-12 * max(1, previous)``, or None when the trace never rises.
    """

    objective_trace: list
    final_residual: float
    sweeps: int
    best_restart: int
    stationary: bool
    restart_objectives: list = field(default_factory=list)
    projection_rows: dict = field(default_factory=dict)
    stop_reason: str = ""
    extrapolation: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    first_rise: int | None = None


def _uniform_unit(p: int) -> np.ndarray:
    return np.full(p, 1.0 / np.sqrt(p))


def _squared_norm(T: np.ndarray) -> float:
    """||T||^2 of a finite tensor.  Raises NonFiniteInput when it overflows:
    the objective trace is in squared units and cannot hold such a fit."""
    flat = T.reshape(-1)
    with np.errstate(over="ignore"):
        norm2 = float(flat @ flat)
    if not math.isfinite(norm2):
        raise NonFiniteInput("the tensor's squared Frobenius norm overflows a float; "
                             "rescale the tensor before fitting it")
    return norm2


def _unfoldings(T: np.ndarray) -> list:
    """Mode-t unfoldings of T, shape (T.size // p_t, p_t), with rows in the
    Khatri-Rao order of the other modes: ``_khatri_rao_rows(vecs, lead) @
    unfold[t]`` contracts T with one vector per mode other than t.  The
    first and last modes' are views of T, the others one copy each."""
    return [T.reshape(T.shape[0], -1).T if t == 0 else
            np.moveaxis(T, t, -1).reshape(-1, T.shape[t]) for t in range(T.ndim)]


def _rank1_nd_fit(E: np.ndarray, posets, sweeps: int = 30, tol: float = 1e-12):
    """Rank-one ND fit of a (possibly signed) tensor by alternating projections.

    Returns ``(lam, vecs)``; ``lam`` is 0 when a projection dies.  Stops when
    no unit vector moves by ``tol`` in a sweep, or after ``sweeps`` sweeps.
    """
    unfold = _unfoldings(E)
    vecs = [_uniform_unit(P.p) for P in posets]
    lam = 0.0
    for _ in range(sweeps):
        moved = 0.0
        for t in range(E.ndim):
            target = _khatri_rao_rows(vecs[:t] + vecs[t + 1:], ()) @ unfold[t]
            v = project(target, posets[t])
            n = float(np.linalg.norm(v))
            if n <= 1e-13 * (1.0 + float(np.linalg.norm(target))):
                return 0.0, vecs
            moved = max(moved, float(np.linalg.norm(v / n - vecs[t])))
            vecs[t] = v / n
            lam = n
        if moved < tol:
            break
    return lam, vecs


def init_als_project(T, r: int, posets, seed) -> NDFactorization | list:
    """Unconstrained alternating-least-squares fit, then per-vector projection.

    A short ALS run gives a good unconstrained rank-r approximation; each
    vector is then projected onto its order cone, after first choosing the
    sign orientation of the term that survives projection best (ALS factors
    are sign-ambiguous and projecting a negatively oriented pair is
    catastrophic).  Both orientations of every vector are projected once,
    and each even sign pattern is scored from per-mode scalars.  A
    numerically zero projection is replaced by the uniform cone direction
    and its term's scale set to 0.

    ``seed`` is an int, which gives one start, or a sequence of seeds, which
    gives a list of starts in seed order.  The starts run as one stack of
    factors (R, r, p_j): each ALS step is one batched solve per mode for
    every restart, and the sign choice one projection call per mode.  Each
    restart draws from its own generator and every product is formed per
    restart, so a start is bitwise the one its seed gives alone.
    """
    T, posets = check_fit_input(T, posets)
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    R, k = len(seeds), T.ndim
    rngs = [np.random.default_rng(s) for s in seeds]
    F = [np.array([rng.standard_normal((r, P.p)) for rng in rngs]).reshape(R, r, P.p)
         for P in posets]
    lambdas = np.zeros((R, r))
    out = [np.tile(_uniform_unit(P.p), (R, r, 1)) for P in posets]
    if np.any(T):
        scale = (float(np.abs(T).mean()) or 1.0) ** (1.0 / k)
        F = [scale * f for f in F]
        unfold = _unfoldings(T)
        for _ in range(25):
            for t in range(k):
                others = F[:t] + F[t + 1:]
                gram = np.ones((R, r, r))
                for f in others:
                    gram *= f @ f.transpose(0, 2, 1)
                ridge = 1e-10 * (1.0 + np.trace(gram, axis1=1, axis2=2) / r)
                # the ridged Gram is symmetric positive definite; the
                # right-hand side is one (r, P) @ (P, p_t) product per
                # restart, as one (R r, P) product would round each row
                # differently with R
                F[t] = np.linalg.solve(gram + ridge[:, None, None] * np.eye(r),
                                       _khatri_rao_rows(others, (R, r)) @ unfold[t])

        # the sign choice: both orientations of every vector are projected
        # once, and by the rank-one Gram identity a term's squared distance
        # to its projection, pp + rr - 2 pr, is a product of per-mode
        # scalars for each sign pattern
        proj, pp, pr = [], [], []
        for f, P in zip(F, posets):
            Y = np.concatenate([f, -f]).reshape(-1, P.p)
            V = _project_rows(Y, P)
            proj.append(V.reshape(2, R, r, P.p))
            pp.append(_rowdot(V, V).reshape(2, R, r))
            pr.append(_rowdot(V, Y).reshape(2, R, r))
        rr = np.prod([_rowdot(f, f) for f in F], axis=0)
        # the even patterns as orientations per mode (1 flips the sign), in
        # itertools.product order: argmin hands a tie to the first pattern
        flips = np.array([s for s in itertools.product((0, 1), repeat=k) if sum(s) % 2 == 0])
        modes = np.arange(k)
        score = (np.prod(np.array(pp)[modes, flips], axis=1) + rr
                 - 2 * np.prod(np.array(pr)[modes, flips], axis=1))
        best = flips[np.argmin(score, axis=0)]  # (R, r, k)
        at = np.arange(R)[:, None], np.arange(r)
        lambdas = np.ones((R, r))
        for j, f in enumerate(F):
            V = proj[j][(best[..., j],) + at]
            n = np.sqrt(pp[j][(best[..., j],) + at])
            # the sweep's liveness test: float crumbs divided by their norm
            # would make an arbitrary, possibly infeasible, unit vector
            live = n > 1e-13 * (1.0 + np.sqrt(_rowdot(f, f)))
            lambdas = np.where(live, lambdas * n, 0.0)
            np.divide(V, n[..., None], out=out[j], where=live[..., None])
    starts = [NDFactorization(lambdas[b], [U[b] for U in out], posets=posets) for b in range(R)]
    return starts[0] if np.ndim(seed) == 0 else starts


def _init_random_cone(T, r: int, posets, seed) -> NDFactorization | list:
    """Random-cone init: r uniform draws per mode, projected and normalized
    (the uniform unit vector where a projection is zero), every term at
    scale ||T|| / r.  ``seed`` is an int or a sequence, as for
    :func:`init_als_project`; the draws of every restart are projected in
    one call per mode."""
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    R = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    factors = []
    for P in posets:
        V = _project_rows(np.array([rng.random((r, P.p)) for rng in rngs]).reshape(-1, P.p), P)
        n = np.sqrt(_rowdot(V, V))
        U = np.tile(_uniform_unit(P.p), (R * r, 1))
        factors.append(np.divide(V, n[:, None], out=U, where=n[:, None] > 0).reshape(R, r, P.p))
    lam = np.full(r, float(np.linalg.norm(T)) / max(r, 1))
    starts = [NDFactorization(lam.copy(), [F[b] for F in factors], posets=list(posets))
              for b in range(R)]
    return starts[0] if np.ndim(seed) == 0 else starts


def _khatri_rao_rows(vecs: list, lead: tuple) -> np.ndarray:
    """Khatri-Rao product along the last axis: entry [..., :] is
    kron(vecs[0][...], vecs[1][...], ...), for vectors stacked over the
    leading axes ``lead``; with no vectors it is a column of ones."""
    if not vecs:
        return np.ones(lead + (1,))
    kr = vecs[0]
    for v in vecs[1:]:
        kr = (kr[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], -1)
    return kr


def _reconstruct_rows(lambdas: np.ndarray, factors: list) -> np.ndarray:
    """Flattened reconstructions of a stack: (R, r) scales, (R, r, p_j) factors.

    One batched product of the scaled mode-1 factors against the Khatri-Rao
    product of the other modes' factors; row b is restart b's tensor in
    row-major order.
    """
    R = lambdas.shape[0]
    kr = _khatri_rao_rows(factors[1:], lambdas.shape)
    return ((factors[0].transpose(0, 2, 1) * lambdas[:, None, :]) @ kr).reshape(R, -1)


def _rowdot_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, over any
    leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# numpy >= 2.0 has the same dot as one call, bitwise equal and twice as fast
_rowdot = getattr(np, "vecdot", _rowdot_matmul)


def _mode_target(Q: np.ndarray, vec: list, t: int, coef: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The HALS target of a term in mode t, for every restart of the stack.

    ``Q`` is T contracted with the term's vectors of the modes after t: a
    stack (n, p_0 ... p_t), or T itself, flat, for the last mode.  It is
    contracted further with the term's vectors ``vec[j]`` (n, p_j) of the
    modes j < t, first mode first, one product per restart, and ``coef``
    (n, r) @ ``F`` (n, r, p_t), the other terms through the Gram rows, is
    taken off.  The target of mode 0 is written over Q when Q is a stack.
    """
    for v in vec[:t]:
        Q = (v[:, None, :] @ Q.reshape(Q.shape[:-1] + (v.shape[1], -1)))[:, 0]
    if Q.ndim == 1:  # order 1: T is every restart's target
        Q = np.tile(Q, (len(coef), 1))
    Q -= (coef[:, None, :] @ F)[:, 0]
    return Q


def _squarem_point(snaps: np.ndarray, step_max: list, tainted: list, segments: np.ndarray,
                   widths: np.ndarray, r: int, k: int):
    """SQUAREM's S3 point of every restart (Varadhan & Roland, 2008).

    ``snaps`` (3, R, n) holds the cycle's states x0, x1, x2, one row per
    restart ([lambda, every mode's vectors], the vectors being the segments
    of a row that start at ``segments`` and have ``widths``).  Returns
    ``(y, alpha, trial)``: y = x0 + 2a q1 + a^2 q2 with q1 = x1 - x0,
    q2 = x2 - x1 - q1 and a = ||q1|| / ||q2|| clipped to [1, step_max],
    its vectors renormalized into lambda (clamped at zero); ``alpha``, the
    step of each restart as a Python float (nan where the ratio is); and
    ``trial``, whether a restart tries y: its cycle is untainted and y is
    finite.  The step logic runs on Python floats, which round as numpy's
    do, and y takes two full-size temporaries.
    """
    q = np.diff(snaps, axis=0)  # q1 and x2 - x1
    q[1] -= q[0]
    alpha = []
    for a, b, cap in zip(*_rowdot(q, q).tolist(), step_max):
        # numpy's a / b, which gives inf or nan where b is 0
        ratio = math.sqrt(a / b) if b else (math.inf if a > 0.0 else math.nan)
        alpha.append(min(max(ratio, 1.0), cap) if ratio == ratio else ratio)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q *= np.array([[2.0 * a for a in alpha], [a * a for a in alpha]])[:, :, None]
        y = np.add(snaps[0], q[0])
        y += q[1]
        n = np.sqrt(np.add.reduceat(np.multiply(y, y, out=q[0]), segments, axis=1))
        y[:, r:] /= n.repeat(widths, axis=1)
        lam = y[:, :r]
        np.maximum(lam, 0.0, out=lam)
        lam *= n.reshape(len(y), k, r).prod(axis=1)
    trial = [not bad and ok for bad, ok in zip(tainted, np.isfinite(y).all(axis=1).tolist())]
    return y, alpha, trial


def _squarem_verdict(trial: list, dead: list, obj: list, last: list, alpha: list,
                     step_max: list):
    """Which SQUAREM trials are rejected, and the step caps after them.

    Per restart, as Python lists: a trial is kept only if its sweep's
    objective ``obj`` is at most x2's, ``last``, with every term alive
    (``dead`` false).  A step that reached its cap grows the cap four-fold
    if kept, and shrinks it four-fold, to no less than 1, if rejected.
    Returns ``(rejected, step_max)``.
    """
    rejected = [tr and (d or not o <= la) for tr, d, o, la in zip(trial, dead, obj, last)]
    caps = [(max(cap / 4.0, 1.0) if rej else cap * 4.0) if tr and a == cap else cap
            for tr, rej, a, cap in zip(trial, rejected, alpha, step_max)]
    return rejected, caps


def _hals_restarts(T, posets, cfg: FitConfig, counts: dict | None = None,
                   trials: dict | None = None, timings: dict | None = None,
                   extrapolate: bool = True) -> list:
    """Every restart of :func:`hals`, run as one batch.

    Restart i starts from its own initialization (seed ``cfg.seed + i``),
    and one call of the init makes them all; the stack holds scales (R, r),
    factors (R, r, p_j) and Grams G_j = F_j F_j' of shape (R, r, r), and
    every (term, mode) update is a handful of batched products over it.  For each general-poset mode the
    stack also keeps every vector's support (R, r, m_t), the halfspace rows
    active at its last projection, from which the next projection starts.
    With ``extrapolate``, every third sweep starts from a SQUAREM point (see
    :func:`hals`); all of its state is per restart, and its step length
    weighs the scales and the unit vectors alike, which :func:`hals` makes
    scale-free by passing T / ||T||.  A restart that meets ``rel_tol``
    leaves the stack.  Returns ``(NDFactorization, trace, stationary,
    sweeps)`` per restart, in seed order; ``counts``, if given, adds the
    sweep's projection rows by path, ``trials`` the accepted and rejected
    extrapolated sweeps, and ``timings`` the seconds spent in the init
    (``init_s``) and in the sweeps (``sweeps_s``) of the whole batch.
    """
    r, k = cfg.rank, T.ndim
    seeds = [cfg.seed + i for i in range(cfg.restarts)]
    init = init_als_project if cfg.init == "als-project" else _init_random_cone
    t0 = time.perf_counter()
    starts = init(T, r, posets, seeds)
    t1 = time.perf_counter()
    # the state x of every restart, one row each: [lambda, every mode's
    # vectors]; ``lambdas`` (R, r) and ``factors`` (R, r, p_j) are views of it
    offs = np.cumsum([0, r] + [r * P.p for P in posets])
    X = np.concatenate([np.array([f.lambdas for f in starts])]
                       + [np.array([f.factors[j] for f in starts]).reshape(len(seeds), -1)
                          for j in range(k)], axis=1)

    def views(x):
        return x[:, :r], [x[:, offs[j + 1]:offs[j + 2]].reshape(len(x), r, P.p)
                          for j, P in enumerate(posets)]

    lambdas, factors = views(X)
    flat = T.reshape(-1)
    # each mode's projection, resolved once: a chain listed in order pools
    # its rows in place, with one weight row and one kernel scratch per
    # mode, and every other mode goes through _project_rows; each general
    # mode keeps every vector's support, the halfspace rows active at its
    # last projection (clamps and chains get no rows); a stale one, after a
    # revival or a rejected trial say, only fails the face check
    plans = [_projection_plan(P) for P in posets]
    pools = [(np.empty(P.p), np.empty(P.p + 1, dtype=np.intp))
             if kind == "chain" and isinstance(idx, slice) else None
             for P, (kind, idx, _, _, _) in zip(posets, plans)]
    others = [[j for j in range(k) if j != t] for t in range(k)]
    supports = [np.zeros((len(seeds), r, 0 if A is None else A.shape[0]), dtype=bool)
                for _, _, A, _, _ in plans]
    active = np.arange(len(seeds))  # restart behind each row of the stack
    traces = [[] for _ in seeds]
    runs = [None] * len(seeds)
    # the SQUAREM cycle: snapshots x0, x1, x2 of the state, and per restart
    # (Python lists) the step cap and whether a term died or was revived in
    # the cycle; a state's vectors are the segments of its row that start
    # at ``segments``
    snaps = np.empty((3,) + X.shape)
    segments = np.concatenate([offs[j + 1] + P.p * np.arange(r) for j, P in enumerate(posets)])
    widths = np.repeat([P.p for P in posets], r)
    step_max = [1.0] * len(seeds)
    tainted = [False] * len(seeds)

    def finish(rows, stationary: bool, sweeps: int) -> None:
        for b in rows:
            i = active[b]
            fact = NDFactorization(lambdas[b].copy(), [F[b].copy() for F in factors],
                                   posets=list(posets))
            runs[i] = (fact, traces[i], stationary, sweeps)

    prev = _reconstruct_rows(lambdas, factors)
    last = [math.inf] * len(seeds)  # each restart's latest objective
    scratch = np.empty_like(prev)
    for sweep in range(cfg.max_sweeps):
        phase = sweep % 3 if extrapolate else None
        n_act = len(active)
        if phase == 0:
            snaps[0] = X
            tainted = (lambdas == 0.0).any(axis=1).tolist()
        elif phase == 2:
            # SQUAREM's S3 point; the sweep replaces every one of its vectors
            x2 = snaps[2]
            y, alpha, trial = _squarem_point(snaps, step_max, tainted, segments, widths, r, k)
            # a restart without a trial runs a plain sweep from x2
            if all(trial):
                X[:] = y
            elif any(trial):
                np.copyto(X, y, where=np.array(trial)[:, None])
        grams = [F @ F.transpose(0, 2, 1) for F in factors]
        for s in range(r):
            # term s's vectors and Gram rows, as views that see every update
            vec = [F[:, s] for F in factors]
            grow = [G[:, s] for G in grams]
            # T contracted with the term's vectors of every mode after t,
            # Q_{k-1} = T and Q_t = Q_{t+1} x_{t+1} v_{t+1}, from the last mode
            # back: the pass updates mode t before any mode after it, so
            # Q_t still holds the vectors mode t's update needs
            Q = [flat] * k
            for t in range(k - 2, -1, -1):
                q = Q[t + 1].reshape(Q[t + 1].shape[:-1] + (-1, T.shape[t + 1]))
                Q[t] = (q @ vec[t + 1][:, :, None])[:, :, 0]
            for t in range(k):
                # the contraction of T - recon + term_s with the term's other
                # vectors: Q_t contracted with the vectors this pass updated
                # already, minus the other terms through the Gram rows,
                # coef_s' = lambda_s' prod_{j != t} G_j[s, s']; one product
                # per restart, as a single matrix product rounds a row
                # differently with the batch's size
                oth = others[t]
                coef = lambdas * grow[oth[0]] if oth else lambdas.copy()
                for j in oth[1:]:
                    coef *= grow[j]
                coef[:, s] = 0.0
                target = _mode_target(Q[t], vec, t, coef, factors[t])
                # the liveness test reads the target before it is pooled
                norms = _rowdot(target, target).tolist()
                if pools[t] is None:
                    V = _project_rows(target, posets[t], support=supports[t][:, s],
                                      counts=counts)
                else:  # a chain listed in order: its rows pool in place
                    V = target
                    _pool_rows(V, 1.0, *pools[t])
                    np.maximum(V, 0.0, out=V)
                    if counts is not None:
                        counts["chain"] += n_act
                n = np.sqrt(_rowdot(V, V))
                # a numerically-zero projection must not be renormalized:
                # dividing float crumbs by their norm fabricates an arbitrary
                # (possibly infeasible) unit vector; the old vector stays.
                # The test runs on Python floats, which round as numpy does
                live = [nv > 1e-13 * (1.0 + math.sqrt(tt)) for nv, tt in zip(n.tolist(), norms)]
                if all(live):
                    lambdas[:, s] = n
                    np.divide(V, n[:, None], out=vec[t])
                else:
                    live = np.array(live)
                    lambdas[:, s] = np.where(live, n, 0.0)
                    np.divide(V, n[:, None], out=vec[t], where=live[:, None])
                g = (factors[t] @ vec[t][:, :, None])[:, :, 0]
                grow[t][:] = g
                grams[t][:, :, s] = g
        recon = _reconstruct_rows(lambdas, factors)
        dead = (lambdas == 0.0).any(axis=1).tolist()
        # revive dead terms from the residual, keeping the objective monotone
        for b in itertools.compress(range(n_act), dead):
            rec = recon[b].reshape(T.shape)
            for s in np.flatnonzero(lambdas[b] == 0.0):
                E = T - rec
                lam, vnew = _rank1_nd_fit(E, posets)
                if lam > 0.0:
                    cand = lam * outer(vnew)
                    if np.linalg.norm(E - cand) <= np.linalg.norm(E):
                        lambdas[b, s] = lam
                        for j in range(k):
                            factors[j][b, s] = vnew[j]
                        rec = rec + cand
            recon[b] = _reconstruct_rows(lambdas[b:b + 1], [F[b:b + 1] for F in factors])[0]
        # the residual, then the step, in one scratch buffer
        diff = np.subtract(flat, recon, out=scratch[:n_act])
        obj = _rowdot(diff, diff).tolist()
        rejected = [False] * n_act
        if phase == 2:
            # a rejected trial gives x2 back, and the trace repeats its objective
            rejected, step_max = _squarem_verdict(trial, dead, obj, last, alpha, step_max)
            for b in itertools.compress(range(n_act), rejected):
                X[b] = x2[b]
                recon[b] = prev[b]
                obj[b] = last[b]
            if trials is not None:
                n_rej = sum(rejected)
                trials["accepted"] += sum(trial) - n_rej
                trials["rejected"] += n_rej
        elif phase is not None:
            tainted = [was or now for was, now in zip(tainted, dead)]
            snaps[phase + 1] = X
        for b, val in enumerate(obj):
            traces[active[b]].append(val)
        last = obj
        # the stopping test compares two accepted iterates: it skips a
        # rejected trial, which is x2 again
        np.subtract(recon, prev, out=diff)
        done = [not rej and math.sqrt(d) <= cfg.rel_tol * (math.sqrt(p) + 1e-30)
                for rej, d, p in zip(rejected, _rowdot(diff, diff).tolist(),
                                     _rowdot(prev, prev).tolist())]
        if any(done):
            finish(itertools.compress(range(n_act), done), True, sweep + 1)
            if all(done):
                break
            keep = np.logical_not(done)
            active, X, recon = active[keep], X[keep], recon[keep]
            lambdas, factors = views(X)
            supports = [S[keep] for S in supports]
            snaps = snaps[:, keep]
            last, step_max, tainted = (list(itertools.compress(v, keep.tolist()))
                                       for v in (last, step_max, tainted))
        prev = recon
    else:
        finish(range(len(active)), False, cfg.max_sweeps)
    if timings is not None:
        timings["init_s"] = t1 - t0
        timings["sweeps_s"] = time.perf_counter() - t1
    return runs


def hals(T, posets, cfg: FitConfig):
    """ND hierarchical alternating least squares (best of several restarts).

    Cycles through every term and mode, replacing each factor vector with
    the exact order-cone projection of its unconstrained update; stops when
    the reconstruction stabilizes in relative Frobenius norm or after
    ``max_sweeps``.  Restart i uses seed ``cfg.seed + i``, and the restarts
    run as one batch (one set of array operations per update for all of
    them).  The run with the lowest final objective wins; restarts whose
    finals lie within ``1e-10 * min + 1e-20 * ||T||^2`` of the lowest count
    as tied, and the lowest seed among them wins, so rounding alone never
    decides the choice.

    The sweeps run in cycles of three, the squared extrapolation (SQUAREM)
    of Varadhan & Roland (2008): two plain sweeps take x0 to x1 and x2,
    where x holds a restart's scales and unit vectors, and the third sweep
    starts from y = x0 + 2a q1 + a^2 q2 with q1 = x1 - x0,
    q2 = x2 - 2 x1 + x0 and a = ||q1|| / ||q2|| clipped to [1, a_max].
    Its result is kept only if its objective is at most x2's and none of
    its terms died; otherwise x2 is restored and the trace repeats x2's
    objective (a flat step), and the stopping test skips that sweep.  a_max
    starts at 1 and grows or shrinks four-fold when a kept or rejected step
    hits it.  A cycle with a dead or revived term, or a non-finite y, runs a
    plain third sweep.  y itself is never returned: the sweep replaces each
    of its vectors with a certified projection.

    The fit runs on T / ||T|| and is scaled back, so it does not depend on
    the scale of T.  Input that fails :func:`ndrank.tensor.check_fit_input`,
    or whose ||T||^2 overflows a float, raises ShapeMismatch or NonFiniteInput.

    Returns ``(NDFactorization, FitReport)``.
    """
    T, posets = check_fit_input(T, posets)
    norm2 = _squared_norm(T)
    # the solvers' liveness floors and the init's ridge hold an absolute 1,
    # so they see the unit-norm tensor
    scale = float(np.sqrt(norm2)) or 1.0
    counts = dict.fromkeys(_ROW_PATHS, 0)
    trials = {"accepted": 0, "rejected": 0}
    timings = {}
    runs = _hals_restarts(T / scale, posets, cfg, counts, trials, timings)
    for fact, trace, _, _ in runs:
        fact.lambdas *= scale
        trace[:] = [val * scale ** 2 for val in trace]
    finals = [trace[-1] for _, trace, _, _ in runs]
    lowest = min(finals)
    best = next(i for i, f in enumerate(finals) if f <= lowest + 1e-10 * lowest + 1e-20 * norm2)
    fact, trace, stationary, sweeps_used = runs[best]
    fact.diagnostics["seed"] = int(cfg.seed) + best  # a numpy seed is no JSON number
    if not fact.lambdas.any():
        stop_reason = "dead"
    else:
        stop_reason = "tolerance" if stationary else "max_sweeps"
    first_rise = next((i + 1 for i in range(1, len(trace))
                       if trace[i] > trace[i - 1] + 1e-12 * max(1.0, trace[i - 1])), None)
    report = FitReport(
        objective_trace=trace,
        final_residual=float(np.sqrt(max(trace[-1], 0.0))),
        sweeps=sweeps_used,
        best_restart=best,
        stationary=stationary,
        restart_objectives=finals,
        projection_rows=counts,
        stop_reason=stop_reason,
        extrapolation=trials,
        timings=timings,
        first_rise=first_rise,
    )
    return fact, report


# ---------------------------------------------------------------------------
# rank-one likelihood solvers

def rank1_gaussian(T, posets, tol: float = 1e-10, max_iter: int = 10_000) -> NDFactorization:
    """Best rank-one fit under squared error, for fibre-monotone tensors.

    When every fibre lies in its mode's order cone, the unconstrained
    rank-one stationary point is automatically monotone: every target of the
    alternating rank-one loop that revives dead HALS terms is then already
    in its cone, so each projection returns it unchanged and the loop is the
    plain power iteration; for matrices it converges to the leading singular
    pair.  If a fibre fails monotonicity the solver falls back to a rank-one
    HALS run and flags it in the diagnostics.
    """
    T, posets = check_fit_input(T, posets)
    norm = math.sqrt(_squared_norm(T))
    if not np.any(T):
        fact = NDFactorization(np.zeros(1), [_uniform_unit(P.p)[None, :] for P in posets],
                               posets=posets)
        return fact
    if (cone_mod._monotone_values(T, posets)[0] < -default_tol(T)).any():
        fact, report = hals(T, posets, FitConfig(rank=1, restarts=3, seed=0))
        fact.diagnostics["fallback"] = "fibres not monotone; used rank-one HALS"
        return fact
    # at unit scale, so the loop's absolute liveness floor spares tiny tensors
    lam, vecs = _rank1_nd_fit(T / norm, posets, sweeps=max_iter, tol=tol)
    return NDFactorization(np.array([lam * norm]), [v[None, :] for v in vecs], posets=posets)


def _count_marginals(T, model: str):
    """Per-mode marginals and grand total of finite, nonnegative count data."""
    T = np.asarray(T, dtype=float)
    if 0 in T.shape:
        raise ShapeMismatch(f"mode {T.shape.index(0) + 1} is empty; a fit needs entries")
    require_finite("tensor", T)
    if (T < 0).any():
        raise NonNegativityViolated(f"{model} data must be nonnegative")
    return [np.apply_over_axes(np.sum, T, [a for a in range(T.ndim) if a != j]).ravel()
            for j in range(T.ndim)], float(T.sum())


def rank1_multinomial(T) -> NDFactorization:
    """Rank-one multinomial MLE: product of per-mode marginal distributions."""
    marg, total = _count_marginals(T, "multinomial")
    if total == 0:
        raise NonNegativityViolated("multinomial data must not be all zero")
    return NDFactorization(np.array([1.0]), [(m / total)[None, :] for m in marg])


def rank1_poisson(T) -> NDFactorization:
    """Rank-one Poisson MLE: marginal distributions scaled by the grand total."""
    marg, total = _count_marginals(T, "Poisson")
    if total == 0:
        return NDFactorization(np.zeros(1), [np.full(m.shape, 1.0 / m.size)[None, :] for m in marg])
    return NDFactorization(np.array([total]), [(m / total)[None, :] for m in marg])


def rank1_exponential(T, posets, tol: float = 1e-10, max_iter: int = 10_000) -> NDFactorization:
    """Rank-one exponential-likelihood fit by cyclic fixed-point iteration.

    Each cycle replaces the mode-j vector with the exact coordinatewise
    minimizer of sum(log theta + T/theta) holding the others fixed; entries
    stay strictly positive throughout.
    """
    T, posets = check_fit_input(T, posets)
    if (T <= 0).any():
        raise NonPositiveEntry("exponential data must be strictly positive")
    if (cone_mod._monotone_values(T, posets)[0] < -default_tol(T)).any():
        raise HypothesisViolated("every fibre must lie in its order cone")
    unfold = _unfoldings(T)
    vecs = [np.ones(P.p) for P in posets]
    n_other = [T.size // P.p for P in posets]
    for _ in range(max_iter):
        moved = 0.0
        for t in range(T.ndim):
            inv = [1.0 / v for v in vecs[:t] + vecs[t + 1:]]
            new = (_khatri_rao_rows(inv, ()) @ unfold[t]) / n_other[t]
            moved = max(moved, float(np.max(np.abs(new - vecs[t]) / np.maximum(vecs[t], 1e-300))))
            vecs[t] = new
        if moved < tol:
            break
    lam = 1.0
    unit = []
    for v in vecs:
        n = float(np.linalg.norm(v))
        unit.append(v / n)
        lam *= n
    return NDFactorization(np.array([lam]), [v[None, :] for v in unit], posets=posets)


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


def _pack_rank2(a_cols, b_rows, posets) -> NDFactorization:
    lambdas = np.zeros(2)
    F1 = np.zeros((2, a_cols.shape[0]))
    F2 = np.zeros((2, b_rows.shape[1]))
    for i in range(2):
        na, nb = np.linalg.norm(a_cols[:, i]), np.linalg.norm(b_rows[i])
        lambdas[i] = na * nb
        F1[i] = a_cols[:, i] / na if na > 0 else _uniform_unit(a_cols.shape[0])
        F2[i] = b_rows[i] / nb if nb > 0 else _uniform_unit(b_rows.shape[1])
    return NDFactorization(lambdas, [F1, F2], posets=list(posets))


def rank2_matrix_exact(T, posets, mode: str = "min-volume") -> Rank2Result:
    """Exact ND rank-two factorization of a matrix via its truncated SVD.

    The best unconstrained rank-two approximation T2 is optimal over the
    ND rank-two set whenever it has finite ND rank, so membership of T2 is
    checked first.  On success the two rows of T2 with the largest mutual
    angle serve as column-mode vectors ("min-volume"); row-mode coefficients
    come from a two-column nonnegative least squares and reproduce T2
    exactly.  ``mode="max-volume"`` instead takes the extremal rays of the
    order cone intersected with the row space (chain column posets only).
    Returns a fallback (factorization=None) directing callers to HALS when
    T2 lies outside the cone or the extracted factors are infeasible.
    """
    if np.ndim(T) != 2:
        raise ShapeMismatch("rank2_matrix_exact expects a matrix")
    T, posets = check_fit_input(T, posets)
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    T2 = (U[:, :2] * s[:2]) @ Vt[:2]
    cert = membership_finite_rank(T2, posets)
    if not cert.member:
        return Rank2Result(None, cert, "truncated SVD is outside the finite-rank cone")
    tol = default_tol(T2)

    if s.size < 2 or s[1] <= 1e-12 * max(s[0], 1e-300):
        i = int(np.argmax(np.linalg.norm(T2, axis=1)))
        B = T2[None, i]
        A = _nnls_coefficients(T2, B)
        a_cols = np.column_stack([A[:, 0], np.zeros(T.shape[0])])
        b_rows = np.vstack([B[0], np.zeros(T.shape[1])])
    elif mode == "min-volume":
        norms = np.linalg.norm(T2, axis=1)
        live = np.flatnonzero(norms > tol)
        unit = T2[live] / norms[live, None]
        dots = unit @ unit.T
        np.fill_diagonal(dots, np.inf)
        i1, i2 = np.unravel_index(np.argmin(dots), dots.shape)
        b_rows = np.vstack([T2[live[i1]], T2[live[i2]]])
        a_cols = _nnls_coefficients(T2, b_rows)
    elif mode == "max-volume":
        if _chain_order(posets[1]) is None:
            raise ValueError("max-volume extraction is only implemented for chain column posets")
        b_rows = _max_volume_rows(T2, Vt[:2], posets[1])
        a_cols = _nnls_coefficients(T2, b_rows)
    else:
        raise ValueError(f"unknown extraction mode {mode!r}")

    recon = a_cols @ b_rows
    if np.linalg.norm(recon - T2) > 1e-8 * (1.0 + np.linalg.norm(T2)):
        return Rank2Result(None, cert, "extraction failed to reproduce the rank-two truncation")
    for i in range(2):
        if b_rows[i].any() and not is_monotone(b_rows[i], posets[1], tol).member:
            return Rank2Result(None, cert, "extracted column-mode vector is infeasible")
        if a_cols[:, i].any() and not is_monotone(a_cols[:, i], posets[0], tol).member:
            return Rank2Result(None, cert, "extracted row-mode coefficients are infeasible")
    return Rank2Result(_pack_rank2(a_cols, b_rows, posets), cert, None)


def _max_volume_rows(T2: np.ndarray, basis: np.ndarray, col_poset: Poset) -> np.ndarray:
    """Extremal rays of the order cone intersected with the row space.

    The two-dimensional intersection is swept in the plane spanned by the
    leading right singular vectors; each cone halfspace allows a half-circle
    of directions, and the feasible arc's endpoints are the extreme rays.
    """
    H = _halfspace_rows(col_poset)
    in_plane = H @ basis.T  # (m, 2): constraint i allows A cos + B sin >= 0
    center = T2.sum(axis=0) @ basis.T
    theta0 = float(np.arctan2(center[1], center[0]))
    lo, hi = -np.pi / 2, np.pi / 2
    for A, B in in_plane:
        if abs(A) < 1e-15 and abs(B) < 1e-15:
            continue
        alpha = float(np.arctan2(B, A))
        delta = (alpha - theta0 + np.pi) % (2 * np.pi) - np.pi
        lo = max(lo, delta - np.pi / 2)
        hi = min(hi, delta + np.pi / 2)
    rows = []
    for ang in (lo, hi):
        direction = np.cos(theta0 + ang) * basis[0] + np.sin(theta0 + ang) * basis[1]
        direction *= np.linalg.norm(T2) / max(np.linalg.norm(direction), 1e-300)
        rows.append(direction)
    return np.vstack(rows)


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
    posets = list(posets)
    q = [len(connected_upsets(P)) for P in posets]
    upper = 1
    for val in sorted(q)[:-1]:
        upper *= val
    exact_max = None
    typical_min = None
    typical_range = None
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
    V = [order_cone_vrep(P).generators.T for P in posets]  # (p_j, q_j)
    if H.shape != (V[0].shape[1], V[1].shape[1]):
        raise ShapeMismatch(f"H has shape {H.shape}, expected {(V[0].shape[1], V[1].shape[1])}")
    if (H < 0).any():
        raise NonNegativityViolated("H must be nonnegative")
    tol = cone_mod._resolve_tol(T, tol)
    residual = float(np.linalg.norm(T - V[0] @ H @ V[1].T))
    return TriFactorCheck(ok=residual <= tol, residual=residual)
