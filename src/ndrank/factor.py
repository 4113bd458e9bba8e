"""The ND-HALS engine: low ND-rank fits of data by alternating projections.

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
stack, and projects the stack of targets in place by the mode's row
projector, which :mod:`ndrank.isotonic` resolves once per fit and mode (a
chain's pools its rows by the compiled PAVA kernel).  What is left per
restart, a handful of scalars (the liveness test of each update, and the
SQUAREM step, cap and verdict), runs on Python floats, which round as
numpy's do, so the sweep's time goes to arithmetic rather than to numpy
calls on short vectors.  The reconstruction is built once per sweep, for
the objective trace, and the residual only when a dead term is revived.
The stopping test, ||R - P|| <= rel_tol ||P|| for the new and previous
reconstructions, takes two more full-length passes; they run only for the
restarts that the reverse triangle inequality on the two objectives, with
Higham's forward error bound for the rounding, leaves open
(:func:`_cannot_converge`), so every stop is the exact test's.  Every
projection is exact, and on general posets certified (see
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
of T; :func:`_unit_scale` takes that step for every fit, here and in
:mod:`ndrank.rank`.

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
the ALS init, the alternating rank-one loop that revives dead terms, and
the fixed-point update of :mod:`ndrank.rank`'s exponential solver.

The starts of every restart are built as one stack as well: the inits take
an int seed, for one start, or a sequence of seeds, for a list of starts,
and the ALS init runs each of its iterations as one batched solve per mode
for every restart.  Each restart keeps its own random generator and every
product is formed per restart, so a stacked start is bitwise the one its
seed gives alone.

The closed-form rank results, which fall back on this engine, are in
:mod:`ndrank.rank`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, ParseError, ShapeMismatch
from .isotonic import _ROW_PATHS, _row_projector
from .tensor import _is_number, _json_fields, _rowdot, check_fit_input, outer

@dataclass
class NDFactorization:
    """Sum of rank-one terms with per-mode vectors constrained to order cones.

    Three fields: ``lambdas[i]``, the nonnegative scale of term i;
    ``factors[j]``, (rank, p_j), row i the mode-j vector of term i at unit l2
    norm (a proportion for ``rank1_poisson`` and ``rank1_multinomial``); and
    ``diagnostics``.  Its file holds ``rank``, ``shape`` (the p_j) and these
    three, each ``factors[j]`` a list of rows as in memory.  The shapes are
    checked at construction: a ShapeMismatch, naming the field, unless
    ``lambdas`` is 1-D and each ``factors[j]`` a 2-D table of rank rows.
    """

    lambdas: np.ndarray
    factors: list
    diagnostics: dict = field(default_factory=dict, kw_only=True)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.factors = [np.asarray(F, dtype=float) for F in self.factors]
        if self.lambdas.ndim != 1:
            raise ShapeMismatch(f"'lambdas' must be 1-D, got shape {self.lambdas.shape}")
        for j, F in enumerate(self.factors):
            if F.ndim != 2 or F.shape[0] != self.rank:
                raise ShapeMismatch(f"'factors'[{j}] has shape {F.shape}, not (rank, p) with rank {self.rank}")

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]

    @property
    def order(self) -> int:
        return len(self.factors)

    def reconstruct(self) -> np.ndarray:
        shape = tuple(F.shape[1] for F in self.factors)
        return _reconstruct_rows(self.lambdas[None], [F[None] for F in self.factors]).reshape(shape)

    def rescaled(self, mode_l1: dict, absorb: int) -> "NDFactorization":
        """Copy with chosen modes scaled to target l1 norms, scales folded
        into ``absorb`` (lambdas become 1); each target must be positive and
        finite, and ``absorb`` and each key of ``mode_l1`` a mode number, the
        two apart, or a ValueError names the argument."""
        for name, m in [("absorb", absorb), *(("each key of mode_l1", k) for k in mode_l1)]:
            # bool is an Integral, but True is no mode
            if isinstance(m, bool) or not isinstance(m, numbers.Integral) or not 0 <= m < self.order:
                raise ValueError(f"{name} must be a mode in range({self.order}) (got {m!r})")
        if absorb in mode_l1:
            raise ValueError(f"absorb={absorb} is also a key of mode_l1, whose l1 norm the scales would change")
        if not all(math.isfinite(t) and t > 0 for t in mode_l1.values()):
            raise ValueError(f"l1 targets must be positive and finite (got {mode_l1!r})")
        factors = [F.copy() for F in self.factors]
        lambdas = self.lambdas.copy()
        for i in range(self.rank):
            for mode, target in mode_l1.items():
                norm = np.abs(factors[mode][i]).sum()
                if norm > 0:
                    factors[mode][i] *= target / norm
                    lambdas[i] *= norm / target
            factors[absorb][i] *= lambdas[i]
        return NDFactorization(np.ones(self.rank), factors, diagnostics=dict(self.diagnostics))

    def to_json(self) -> str:
        obj = {
            "rank": self.rank,
            "shape": [F.shape[1] for F in self.factors],
            "lambdas": self.lambdas.tolist(),
            "factors": [F.tolist() for F in self.factors],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(obj, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "NDFactorization":
        """Read :meth:`to_json`'s text back; a malformed file is a ParseError naming its field."""
        r, shape, lambdas, tables, diagnostics = _json_fields(
            text, ("rank", "shape", "lambdas", "factors", "diagnostics"), "factor")
        # bool is a subclass of int, so the types are compared exactly
        if type(r) is not int or r < 0:
            raise ParseError(f"'rank' must be a non-negative integer, got {json.dumps(r)}")
        if not (type(lambdas) is list and len(lambdas) == r and all(map(_is_number, lambdas))):
            raise ParseError(f"'lambdas' is not {r} finite numbers, one scale per term")
        if type(tables) is not list or len(tables) != len(shape):
            raise ParseError(f"'factors' is not {len(shape)} tables, one per mode of 'shape' {shape}")
        for j, (F, p) in enumerate(zip(tables, shape)):
            if not (type(F) is list and len(F) == r
                    and all(type(row) is list and len(row) == p and all(map(_is_number, row)) for row in F)):
                raise ParseError(f"'factors'[{j}] is not {r} rows of {p} finite numbers")
        if type(diagnostics) is not dict:
            raise ParseError("'diagnostics' must be an object")
        try:  # json.loads reads NaN, Infinity and 1e400, which to_json cannot write
            json.dumps(diagnostics, allow_nan=False)
        except ValueError:
            raise ParseError("'diagnostics' holds NaN or an infinity, which is not JSON") from None
        return cls(lambdas, [np.reshape(F, (r, p)) for F, p in zip(tables, shape)], diagnostics=diagnostics)


# the names of FitConfig.init, its default first
INITS = ("als-project", "random-cone")


@dataclass
class FitConfig:
    """Settings of a :func:`hals` fit; ``ndrank factorize`` takes each
    field's default and writes the config it used to the manifest."""

    rank: int
    max_sweeps: int = 500
    rel_tol: float = 1e-9
    restarts: int = 5
    seed: int = 0
    init: str = INITS[0]

    def __post_init__(self):
        for name, least in (("rank", 1), ("max_sweeps", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an Integral, but True is no count and no seed
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        if isinstance(self.rel_tol, bool) or not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be positive and finite (got {self.rel_tol!r})")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class FitReport:
    """Per-run diagnostics of the best restart.

    ``objective_trace`` holds the squared Frobenius residual after each
    sweep; ``final_residual`` is the (unsquared) Frobenius norm.
    ``projection_rows`` counts the sweep's factor-vector projections, summed
    over every restart, by the path each took: ``clamp`` (no order),
    ``chain`` (PAVA), and for general posets ``in_cone`` (in the cone, or
    within rounding of it) and ``solved`` (certified by the KKT test, from
    the poset's face table or by nonnegative least squares).
    ``stop_reason`` is ``"dead"`` when every term of the best restart has
    scale 0 (the fit of the zero tensor, say), and otherwise
    ``"tolerance"`` when the best restart met ``rel_tol`` and
    ``"max_sweeps"`` when it reached the cap; ``extrapolation`` counts the
    extrapolated sweeps kept (``accepted``) and undone (``rejected``),
    summed over every restart.  ``timings`` holds the seconds the whole
    batch of restarts spent in the init (``init_s``) and in the sweeps
    (``sweeps_s``).  ``first_rise`` is the first (1-based) sweep whose
    objective exceeds the previous one by more than ``1e-12 * max(||T||^2,
    previous)``, the objective's own rounding, so the answer does not move
    with the scale of T; None when the trace never rises.
    ``stopping_tests`` counts the sweeps, summed over every restart, whose
    stopping test the objectives alone decided (``certified``) and those
    that ran its two full-length passes (``exact``); with the rejected
    trials, which skip the test, they add up to every restart's sweeps.
    :func:`hals`, its one constructor, sets every field, and
    ``ndrank factorize --out`` writes each one to its manifest under the
    field's own name, all but ``objective_trace``, which is the
    ``_trace.csv``.
    """

    objective_trace: list
    final_residual: float
    sweeps: int
    best_restart: int
    stationary: bool
    restart_objectives: list
    projection_rows: dict
    stop_reason: str
    extrapolation: dict
    timings: dict
    first_rise: int | None
    stopping_tests: dict


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _uniform_unit(p: int) -> np.ndarray:
    return np.full(p, 1.0 / np.sqrt(p))


def _unit_scale(T: np.ndarray) -> tuple:
    """``(T / s, s)`` with s = ||T||: the scale every fit works at, and the
    factor it multiplies its result by, since the fits' liveness floors and
    the init's ridge hold an absolute 1.  A zero tensor, and one whose norm
    lies within γ = 4 (n + 4) eps of 1 (the bound of
    :func:`_cannot_converge`), come back unchanged with s = 1, so T / ||T||
    passes through as it is.  Raises NonFiniteInput when ||T||^2 overflows
    a float, or falls below the least normal float for a nonzero T: the
    objective trace is in squared units and cannot hold such a fit."""
    flat = T.reshape(-1)
    with np.errstate(over="ignore", under="ignore"):
        norm2 = float(flat @ flat)
    if not math.isfinite(norm2):
        raise NonFiniteInput("the tensor's squared Frobenius norm overflows a float; "
                             "rescale the tensor before fitting it")
    if norm2 < _TINY and flat.any():
        raise NonFiniteInput("the tensor's squared Frobenius norm underflows a float; "
                             "rescale the tensor before fitting it")
    s = math.sqrt(norm2)
    if s == 0.0 or abs(s - 1.0) <= 4.0 * (flat.size + 4) * _EPS:
        return T, 1.0
    return T / s, s


def _unfoldings(T: np.ndarray) -> list:
    """Mode-t unfoldings of T, shape (T.size // p_t, p_t), with rows in the
    Khatri-Rao order of the other modes: ``_khatri_rao_rows(vecs, lead) @
    unfold[t]`` contracts T with one vector per mode other than t.  The
    first and last modes' are views of T, the others one copy each."""
    return [T.reshape(T.shape[0], -1).T if t == 0 else
            np.moveaxis(T, t, -1).reshape(-1, T.shape[t]) for t in range(T.ndim)]


def _rank1_nd_fit(E: np.ndarray, posets):
    """The revival's rank-one ND fit of a (possibly signed) residual E by
    alternating projections.

    Returns ``(lam, vecs)``; ``lam`` is 0 when a projection dies.  Stops when
    no unit vector moves by 1e-12 in a sweep, or after 30 sweeps.
    """
    unfold = _unfoldings(E)
    # each projection is of one row, where a face table costs more than NNLS
    projectors = [_row_projector(P, table=False) for P in posets]
    vecs = [_uniform_unit(P.p) for P in posets]
    lam = 0.0
    for _ in range(30):
        moved = 0.0
        for t in range(E.ndim):
            target = _khatri_rao_rows(vecs[:t] + vecs[t + 1:], ()) @ unfold[t]
            # the liveness test reads the target before it is projected in place
            floor = 1e-13 * (1.0 + float(np.linalg.norm(target)))
            v = projectors[t](target[None])[0]
            n = float(np.linalg.norm(v))
            if n <= floor:
                return 0.0, vecs
            moved = max(moved, float(np.linalg.norm(v / n - vecs[t])))
            vecs[t] = v / n
            lam = n
        if moved < 1e-12:
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

    The init runs on T / ||T|| (:func:`_unit_scale`) and multiplies its
    scales back, so the start of c T is c times that of T.  Input that
    fails :func:`ndrank.tensor.check_fit_input`, or whose ||T||^2
    overflows or underflows a float (||T|| outside about [1.5e-154,
    1.3e154]), raises ShapeMismatch or NonFiniteInput.
    """
    T, posets = check_fit_input(T, posets)
    T, norm = _unit_scale(T)
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
        # once; a term's squared distance to its projection is
        # rr + pp - 2 pr by the rank-one Gram identity, and pr = pp for an
        # exact projection onto a cone (<y - v, v> = 0), so the best even
        # sign pattern is the one with the largest product of per-mode pp
        proj, pp = [], []
        for f, P in zip(F, posets):
            V = _row_projector(P)(np.concatenate([f, -f]).reshape(-1, P.p))
            proj.append(V.reshape(2, R, r, P.p))
            pp.append(_rowdot(V, V).reshape(2, R, r))
        # the even patterns as orientations per mode (1 flips the sign), in
        # itertools.product order: argmax hands a tie to the first pattern
        flips = np.array([s for s in itertools.product((0, 1), repeat=k) if sum(s) % 2 == 0])
        score = np.prod(np.array(pp)[np.arange(k), flips], axis=1)  # (patterns, R, r)
        best = flips[np.argmax(score, axis=0)]  # (R, r, k)
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
        lambdas *= norm
    starts = [NDFactorization(lambdas[b], [U[b] for U in out]) for b in range(R)]
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
        V = _row_projector(P)(np.array([rng.random((r, P.p)) for rng in rngs]).reshape(-1, P.p))
        n = np.sqrt(_rowdot(V, V))
        U = np.tile(_uniform_unit(P.p), (R * r, 1))
        factors.append(np.divide(V, n[:, None], out=U, where=n[:, None] > 0).reshape(R, r, P.p))
    lam = np.full(r, float(np.linalg.norm(T)) / max(r, 1))
    starts = [NDFactorization(lam.copy(), [F[b] for F in factors]) for b in range(R)]
    return starts[0] if np.ndim(seed) == 0 else starts


def _khatri_rao_rows(vecs: list, lead: tuple) -> np.ndarray:
    """Khatri-Rao product along the last axis: entry [..., :] is
    kron(vecs[0][...], vecs[1][...], ...), for vectors stacked over the
    leading axes ``lead`` (of size 0 at rank 0); with no vectors, a column of ones."""
    if not vecs:
        return np.ones(lead + (1,))
    kr = vecs[0]
    for v in vecs[1:]:
        kr = (kr[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], kr.shape[-1] * v.shape[-1])
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


def _cannot_converge(obj: list, last: list, tnorm: float, n: int, rel_tol: float) -> list:
    """Which restarts surely fail the stopping test, from their objectives.

    Per restart, as Python lists: ``obj`` = ||T - R||^2 and ``last`` =
    ||T - P||^2, both computed in floats, for the new and the previous
    reconstruction R and P of an n-entry tensor T, and ``tnorm`` = ||T||.
    The reverse triangle inequality gives | ||T - R|| - ||T - P|| | <=
    ||R - P||, and ||P|| <= ||T|| + ||T - P||, so the test ||R - P|| <=
    rel_tol (||P|| + 1e-30) fails whenever

        |√obj - √last| - γ (√obj + √last) > 2 rel_tol (tnorm + √last + 1e-30)

    with γ = 4 (n + 4) eps, which covers Higham's (2002) forward error
    bound γ_n of every dot product involved, and the factor 2 covers the
    (1 + γ)^3 / (1 - γ) rounding of obj, last and the test's own two
    passes while γ <= 0.1.  Beyond that, and for a rel_tol so small that
    the 1e-30 floor no longer covers underflow, every restart stays open;
    so does one whose objective is NaN or infinite.
    """
    gamma = 4.0 * (n + 4) * _EPS
    if gamma > 0.1 or rel_tol < 1e-100:
        return [False] * len(obj)
    shut = []
    for o, la in zip(obj, last):
        if not (math.isfinite(o) and math.isfinite(la)):
            shut.append(False)
            continue
        a, b = math.sqrt(o), math.sqrt(la)
        shut.append(abs(a - b) - gamma * (a + b) > 2.0 * rel_tol * (tnorm + b + 1e-30))
    return shut


def _hals_restarts(T, posets, cfg: FitConfig, extrapolate: bool = True) -> tuple:
    """Every restart of :func:`hals`, run as one batch.

    Restart i starts from its own initialization (seed ``cfg.seed + i``),
    and one call of the init makes them all; the stack holds scales (R, r),
    factors (R, r, p_j) and Grams G_j = F_j F_j' of shape (R, r, r), and
    every (term, mode) update is a handful of batched products over it.
    With ``extrapolate``, every third sweep starts from a SQUAREM point (see
    :func:`hals`); all of its state is per restart, and its step length
    weighs the scales and the unit vectors alike, which :func:`hals` makes
    scale-free by passing T / ||T||.  A restart that meets ``rel_tol``
    leaves the stack.  Each sweep builds the reconstruction for the
    objective trace; the stopping test's two further passes over it, the
    step from the previous reconstruction and that one's norm, run only for
    the restarts :func:`_cannot_converge` leaves open, so every decision is
    the exact test's.  Returns ``(runs, stats)``: ``runs`` holds
    ``(NDFactorization, trace, stationary, sweeps)`` per restart, in seed
    order, and ``stats`` the counters of the whole batch under their
    :class:`FitReport` field names: ``projection_rows`` (the sweep's
    projection rows by path), ``extrapolation`` (the accepted and rejected
    extrapolated sweeps), ``timings`` (the seconds spent in the init,
    ``init_s``, and in the sweeps, ``sweeps_s``) and ``stopping_tests``
    (the restart-sweeps whose stopping test was certified from the
    objectives, ``certified``, or run in full, ``exact``).
    """
    r, k = cfg.rank, T.ndim
    counts = dict.fromkeys(_ROW_PATHS, 0)
    trials = {"accepted": 0, "rejected": 0}
    stopping = {"certified": 0, "exact": 0}
    seeds = [cfg.seed + i for i in range(cfg.restarts)]
    init = init_als_project if cfg.init == INITS[0] else _init_random_cone
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
    tnorm = math.sqrt(float(flat @ flat))  # the stopping certificate's ||T||
    projectors = [_row_projector(P) for P in posets]
    others = [[j for j in range(k) if j != t] for t in range(k)]
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
            fact = NDFactorization(lambdas[b].copy(), [F[b].copy() for F in factors])
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
                # the liveness test reads the target before it is projected
                norms = _rowdot(target, target).tolist()
                V = projectors[t](target, counts=counts)
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
            n_rej = sum(rejected)
            trials["accepted"] += sum(trial) - n_rej
            trials["rejected"] += n_rej
        elif phase is not None:
            tainted = [was or now for was, now in zip(tainted, dead)]
            snaps[phase + 1] = X
        for b, val in enumerate(obj):
            traces[active[b]].append(val)
        # the stopping test compares two accepted iterates: it skips a
        # rejected trial, which is x2 again, and a restart whose objectives
        # already rule it out; its two full-length passes run only for the
        # restarts left open
        shut = _cannot_converge(obj, last, tnorm, flat.size, cfg.rel_tol)
        tested = [not (rej or sh) for rej, sh in zip(rejected, shut)]
        done = tested
        if any(tested):
            np.subtract(recon, prev, out=diff)
            done = [te and math.sqrt(d) <= cfg.rel_tol * (math.sqrt(p) + 1e-30)
                    for te, d, p in zip(tested, _rowdot(diff, diff).tolist(),
                                        _rowdot(prev, prev).tolist())]
        n_tested = sum(tested)
        stopping["exact"] += n_tested
        stopping["certified"] += n_act - n_tested - sum(rejected)
        last = obj
        if any(done):
            finish(itertools.compress(range(n_act), done), True, sweep + 1)
            if all(done):
                break
            keep = np.logical_not(done)
            active, X, recon = active[keep], X[keep], recon[keep]
            lambdas, factors = views(X)
            snaps = snaps[:, keep]
            last, step_max, tainted = (list(itertools.compress(v, keep.tolist()))
                                       for v in (last, step_max, tainted))
        prev = recon
    else:
        finish(range(len(active)), False, cfg.max_sweeps)
    timings = {"init_s": t1 - t0, "sweeps_s": time.perf_counter() - t1}
    return runs, {"projection_rows": counts, "extrapolation": trials, "timings": timings,
                  "stopping_tests": stopping}


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

    The fit runs on T / ||T|| (:func:`_unit_scale`) and is scaled back, so
    it does not depend on the scale of T.  Input that fails
    :func:`ndrank.tensor.check_fit_input`, or whose ||T||^2 overflows or
    underflows a float (||T|| outside about [1.5e-154, 1.3e154]), raises
    ShapeMismatch or NonFiniteInput.

    Returns ``(NDFactorization, FitReport)``.
    """
    T, posets = check_fit_input(T, posets)
    T, scale = _unit_scale(T)
    runs, stats = _hals_restarts(T, posets, cfg)
    for fact, trace, _, _ in runs:
        fact.lambdas *= scale
        trace[:] = [val * scale ** 2 for val in trace]
    finals = [trace[-1] for _, trace, _, _ in runs]
    lowest = min(finals)
    best = next(i for i, f in enumerate(finals)
                if f <= lowest + 1e-10 * lowest + 1e-20 * scale ** 2)
    fact, trace, stationary, sweeps_used = runs[best]
    fact.diagnostics["seed"] = int(cfg.seed) + best  # a numpy seed is no JSON number
    if not fact.lambdas.any():
        stop_reason = "dead"
    else:
        stop_reason = "tolerance" if stationary else "max_sweeps"
    first_rise = next((i + 1 for i in range(1, len(trace))
                       if trace[i] > trace[i - 1] + 1e-12 * max(scale ** 2, trace[i - 1])), None)
    report = FitReport(
        objective_trace=trace,
        final_residual=float(np.sqrt(max(trace[-1], 0.0))),
        sweeps=sweeps_used,
        best_restart=best,
        stationary=stationary,
        restart_objectives=finals,
        stop_reason=stop_reason,
        first_rise=first_rise,
        **stats,
    )
    return fact, report
