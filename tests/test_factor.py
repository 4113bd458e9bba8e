import itertools
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndrank import cone, datasets, factor, isotonic, poset, rank, tensor
from ndrank.errors import (
    HypothesisViolated,
    NonFiniteInput,
    NonNegativityViolated,
    NonPositiveEntry,
    ParseError,
    ShapeMismatch,
)
from ndrank.factor import FitConfig
from ndrank.tensor import outer

from helpers import (KINDS, random_chain, random_collider, random_dag, random_forest,
                     random_poset, reference_hals, reference_init_als_project,
                     reference_init_random_cone, reference_pack_rank2, reference_rank2_mobius,
                     rising_hals_restarts, trace_nonincreasing)

COLLIDER = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
COLLIDER_MATRIX = np.array([[2.0, 1.0, 2.0], [1.0, 2.0, 2.0], [2.0, 2.0, 4.0]])


def test_hals_rank_one_exact():
    u = np.array([0.5, 1.0, 2.0])
    v = np.array([1.0, 1.0, 3.0, 4.0])
    T = np.outer(u, v)
    fact, report = factor.hals(T, [poset.chain(3), poset.chain(4)], FitConfig(rank=1, seed=0))
    assert report.final_residual < 1e-8 * np.linalg.norm(T)


def test_hals_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        factor.hals(np.ones((2, 2)), [poset.chain(2), poset.chain(3)], FitConfig(rank=1))


def test_hals_collider_matrix_rank4():
    fact, report = factor.hals(COLLIDER_MATRIX, [COLLIDER, COLLIDER],
                               FitConfig(rank=4, restarts=5, seed=0))
    assert report.final_residual < 1e-6
    assert trace_nonincreasing(report.objective_trace)


def test_hals_factors_feasible():
    rng = np.random.default_rng(0)
    T = rng.random((3, 4, 2)) * 3
    posets = [COLLIDER, poset.chain(4), poset.trivial(2)]
    fact, _ = factor.hals(T, posets, FitConfig(rank=2, restarts=2, seed=1))
    for j, P in enumerate(posets):
        for i in range(fact.rank):
            assert cone.is_monotone(fact.factors[j][i], [P]).member
    recon = fact.reconstruct()
    assert cone.is_monotone(recon, posets).member


def test_hals_descent_random():
    rng = np.random.default_rng(5)
    for trial in range(10):
        shape = tuple(int(x) for x in rng.integers(2, 5, size=2))
        T = rng.standard_normal(shape)
        posets = [random_poset(p, rng) for p in shape]
        _, report = factor.hals(T, posets, FitConfig(rank=2, restarts=2, seed=trial,
                                                     max_sweeps=120))
        assert trace_nonincreasing(report.objective_trace)


def assert_matches_reference(T, posets, cfg, monkeypatch):
    """Every restart of the batched plain sweep against its own reference
    run, and the winner against the documented tie-break."""
    runs = reference_hals(T, posets, cfg)
    plain = factor._hals_restarts
    got, _ = plain(T, posets, cfg, extrapolate=False)
    assert len(got) == len(runs)
    # an exact fit ends at rounding noise, compared at the scale of ||T||^2
    noise = 1e-20 * np.sum(T ** 2)
    for (trace, stationary, sweeps), (_, got_trace, got_stationary, got_sweeps) in zip(runs, got):
        assert (got_sweeps, got_stationary, len(got_trace)) == (sweeps, stationary, len(trace))
        assert np.allclose(got_trace, trace, rtol=1e-10, atol=noise)
    # hals on the plain sweep: it fits T / ||T|| and scales the finals back
    with monkeypatch.context() as m:
        m.setattr(factor, "_hals_restarts",
                  lambda *args, **kwargs: plain(*args, **kwargs, extrapolate=False))
        _, report = factor.hals(T, posets, cfg)
    finals = np.array(report.restart_objectives)
    assert np.allclose(finals, [run[0][-1] for run in runs], rtol=1e-10, atol=noise)
    # the lowest seed among the restarts tied with the lowest final to rounding
    tied = np.flatnonzero(finals <= finals.min() * (1 + 1e-10) + noise)
    assert report.best_restart == tied[0]
    _, stationary, sweeps = runs[report.best_restart]
    assert (report.sweeps, report.stationary) == (sweeps, stationary)
    return got


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_hals_matches_full_tensor_reference(order, rank, monkeypatch):
    rng = np.random.default_rng(10 * order + rank)
    for trial in range(2):
        shape = tuple(int(x) for x in rng.integers(3, 5 if order < 4 else 4, size=order))
        # cycle through chains, forests, colliders, random DAGs and trivial posets
        posets = [KINDS[(trial + order + j) % len(KINDS)](p, rng) for j, p in enumerate(shape)]
        T = rng.standard_normal(shape) if trial == 0 else rng.random(shape) * 3
        cfg = FitConfig(rank=rank, restarts=2, seed=trial, max_sweeps=150,
                        init=("als-project", "random-cone")[(order + rank + trial) % 2])
        assert_matches_reference(T, posets, cfg, monkeypatch)


@pytest.mark.parametrize("case", ["stops-apart", "revival"])
def test_hals_batch_matches_reference_as_restarts_diverge(case, monkeypatch):
    # restarts leaving the batch at different sweeps (stationary early or
    # capped), and a dead term revived while other restarts are in the batch
    seed = {"stops-apart": 21, "revival": 1}[case]
    T = np.random.default_rng(seed).standard_normal((3, 4, 3))
    posets = [poset.chain(3), poset.from_relation([0, 1, 2, 3], [(0, 1), (2, 3)]),
              poset.collider_to_top(3)]
    cfg = FitConfig(rank=3, restarts=3, seed=seed, max_sweeps=60)
    got = assert_matches_reference(T, posets, cfg, monkeypatch)
    sweeps = [run[3] for run in got]
    assert len(set(sweeps)) == 3
    if case == "stops-apart":
        assert [run[2] for run in got] == [False, True, True]
    else:
        revivals = []
        rank1_fit = factor._rank1_nd_fit
        monkeypatch.setattr(factor, "_rank1_nd_fit",
                            lambda E, posets: revivals.append(1) or rank1_fit(E, posets))
        factor._hals_restarts(T, posets, cfg)
        assert revivals


@pytest.mark.parametrize("shape", [(1, 2), (7, 3), (24, 30), (2, 4, 20), (3, 4, 1),
                                   (2, 3, 97), (2, 15000), (2, 2, 15000)])
def test_rowdot_is_bitwise_the_matmul_form(shape):
    # the shapes the package passes: projected rows, factor stacks, SQUAREM
    # differences and the residual rows of a 30x25x20 fit
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape) * 1e3
        for x, y in ((a, a), (a, b), (b, b)):
            assert tensor._rowdot(x, y).tobytes() == tensor._rowdot_matmul(x, y).tobytes()


# a chain in order, a clamp, a collider, and a chain listed out of order
SWEEP_MODES = {
    "chain": poset.chain,
    "clamp": poset.trivial,
    "general": poset.collider_to_top,
    "permuted": lambda p: poset.from_relation(list(range(p)),
                                              [(i + 1, i) for i in range(p - 1)]),
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("first", sorted(SWEEP_MODES))
def test_sweep_targets_match_khatri_rao_reference(order, first, monkeypatch):
    # the sweep contracts T through each term's suffix stack; every target it
    # forms is T contracted with the term's other current vectors, the
    # Khatri-Rao row times the mode unfolding, minus the Gram terms
    kinds = sorted(SWEEP_MODES)
    kinds = kinds[kinds.index(first):] + kinds[:kinds.index(first)]
    rng = np.random.default_rng(order)
    shape = (4, 3, 3, 2)[:order]
    posets = [SWEEP_MODES[kinds[j % len(kinds)]](p) for j, p in enumerate(shape)]
    T = rng.random(shape) * 3 + rng.standard_normal(shape)
    unfold = factor._unfoldings(T)
    rows, real = [], factor._mode_target

    def checked(Q, vec, t, coef, F):
        n = len(coef)
        mttkrp = (factor._khatri_rao_rows(vec[:t] + vec[t + 1:], (n,))[:, None] @ unfold[t])[:, 0]
        gram = (coef[:, None, :] @ F)[:, 0]
        got = real(Q, vec, t, coef, F)
        scale = np.linalg.norm(mttkrp, axis=1) + np.linalg.norm(gram, axis=1)
        assert (np.linalg.norm(got - (mttkrp - gram), axis=1) <= 1e-12 * scale).all()
        rows.append(n)
        return got

    monkeypatch.setattr(factor, "_mode_target", checked)
    cfg = FitConfig(rank=3, restarts=4, seed=order, max_sweeps=200, rel_tol=1e-7)
    factor._hals_restarts(T, posets, cfg)
    assert max(rows) == cfg.restarts
    if order > 1:  # at order 1 every restart is solved by its first sweep
        # restarts that stopped early left the batch while others ran on
        assert min(rows) < cfg.restarts


def test_fit_report_counts_projection_rows():
    # a chain, a general poset and a clamp: every sweep row is counted once,
    # under the path it took, summed over the restarts
    rng = np.random.default_rng(3)
    T = rng.random((3, 4, 2)) * 3
    posets = [poset.chain(3), poset.collider_to_top(4), poset.trivial(2)]
    cfg = FitConfig(rank=2, restarts=3, seed=4, max_sweeps=40)
    # hals fits T / ||T||
    runs, stats = factor._hals_restarts(T / np.linalg.norm(T), posets, cfg)
    counts = stats["projection_rows"]
    assert set(counts) == set(isotonic._ROW_PATHS)
    rows = sum(sweeps for *_, sweeps in runs) * cfg.rank
    assert counts["chain"] == counts["clamp"] == rows
    assert counts["in_cone"] + counts["solved"] == rows
    assert counts["in_cone"] > 0 and counts["solved"] > 0
    _, report = factor.hals(T, posets, cfg)
    assert report.projection_rows == counts


def assert_extrapolation_invariants(T, posets, cfg):
    """The extrapolated sweep's promises, restart by restart: the trace never
    rises; a flat step is a rejected trial (every third sweep) unless the
    fit has already converged to rounding; the trace ends at the returned
    factorization's objective; every vector is a unit cone member or its
    term's scale is 0."""
    runs, stats = factor._hals_restarts(T, posets, cfg)
    trials = stats["extrapolation"]
    noise = 1e-20 * np.sum(T ** 2)
    flat_trials = 0
    for fact, trace, _, sweeps in runs:
        assert len(trace) == sweeps
        assert trace_nonincreasing(trace)
        for i in range(1, len(trace)):
            if trace[i] == trace[i - 1]:
                if i % 3 == 2:
                    flat_trials += 1
                else:
                    assert trace[i] <= trace[-1] * (1 + 1e-12) + noise
        assert np.isclose(np.sum((T - fact.reconstruct()) ** 2), trace[-1], rtol=1e-9, atol=noise)
        assert (fact.lambdas >= 0).all()
        for F, P in zip(fact.factors, posets):
            unit = np.isclose(np.linalg.norm(F, axis=1), 1.0, rtol=0, atol=1e-12)
            assert (unit | (fact.lambdas == 0)).all()
            for v in F:
                assert cone.is_monotone(v, [P]).member
    # every rejected trial repeats its objective
    assert flat_trials >= trials["rejected"]
    return trials


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_extrapolated_sweep_invariants(order, rank):
    rng = np.random.default_rng(100 + 10 * order + rank)
    shape = tuple(int(x) for x in rng.integers(3, 5 if order < 4 else 4, size=order))
    # chains, colliders, random DAGs and clamps
    kinds = (random_chain, random_collider, random_dag, lambda p, rng: poset.trivial(p))
    posets = [kinds[(order + rank + j) % len(kinds)](p, rng) for j, p in enumerate(shape)]
    T = rng.random(shape) * 3 if rank == 2 else rng.standard_normal(shape)
    cfg = FitConfig(rank=rank, restarts=3, seed=order + rank, max_sweeps=300)
    assert_extrapolation_invariants(T, posets, cfg)


def test_extrapolated_sweep_invariants_with_revival(monkeypatch):
    T = np.random.default_rng(1).standard_normal((3, 4, 3))
    posets = [poset.chain(3), poset.from_relation([0, 1, 2, 3], [(0, 1), (2, 3)]),
              poset.collider_to_top(3)]
    revivals = []
    rank1_fit = factor._rank1_nd_fit
    monkeypatch.setattr(factor, "_rank1_nd_fit",
                        lambda E, posets: revivals.append(1) or rank1_fit(E, posets))
    trials = assert_extrapolation_invariants(T, posets, FitConfig(rank=3, restarts=3, seed=1,
                                                                  max_sweeps=300))
    assert revivals
    assert trials["accepted"] > 0 and trials["rejected"] > 0


@pytest.mark.parametrize("case", ["cchs-0", "cchs-1", "cchs-2", "dag-0", "dag-1"])
def test_extrapolated_restarts_are_batch_independent(case):
    # each restart of a batch follows the trajectory it follows alone
    kind, seed = case.split("-")
    seed = int(seed)
    if kind == "cchs":
        T, posets = datasets.fixture("cchs")
        T = T / np.linalg.norm(T)
    else:
        rng = np.random.default_rng(40 + seed)
        shape = (4, 3, 3) if seed == 0 else (3, 3, 2, 3)
        posets = [random_dag(p, rng, density=0.5) for p in shape]
        T = rng.random(shape) * 3
    cfg = FitConfig(rank=2, restarts=3, seed=seed, max_sweeps=300)
    for i, (_, trace, stationary, sweeps) in enumerate(factor._hals_restarts(T, posets, cfg)[0]):
        alone = FitConfig(rank=2, restarts=1, seed=seed + i, max_sweeps=300)
        [(_, want, want_stationary, want_sweeps)], _ = factor._hals_restarts(T, posets, alone)
        assert (sweeps, stationary) == (want_sweeps, want_stationary)
        assert np.allclose(trace, want, rtol=1e-12, atol=0)


def _reference_squarem(snaps, step_max, tainted, segments, widths, r, k):
    # the S3 point and the step of every restart as whole-array numpy
    rowdot = factor._rowdot
    x0, x1, x2 = snaps
    q1 = x1 - x0
    q2 = x2 - x1 - q1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = np.minimum(np.maximum(np.sqrt(rowdot(q1, q1) / rowdot(q2, q2)), 1.0), step_max)
        y = x0 + (2.0 * alpha)[:, None] * q1 + (alpha * alpha)[:, None] * q2
        n = np.sqrt(np.add.reduceat(y * y, segments, axis=1))
        y[:, r:] /= n.repeat(widths, axis=1)
        y[:, :r] = np.maximum(y[:, :r], 0.0) * n.reshape(len(y), k, r).prod(axis=1)
    return y, alpha, ~tainted & np.isfinite(y).all(axis=1)


def _reference_verdict(trial, dead, obj, last, alpha, step_max):
    rejected = trial & (dead | ~(obj <= last))
    capped = trial & (alpha == step_max)
    step_max = step_max.copy()
    step_max[capped & ~rejected] *= 4.0
    step_max[capped & rejected] = np.maximum(step_max[capped & rejected] / 4.0, 1.0)
    return rejected, step_max


@pytest.mark.parametrize("R", [1, 3, 7])
def test_squarem_step_matches_whole_array_reference(R):
    # the SQUAREM step runs its per-restart logic on Python floats; it must
    # give the whole-array formulas' point, steps, caps and verdicts bitwise
    rng = np.random.default_rng(310 + R)
    for case in range(40):
        r, widths_j = int(rng.integers(1, 4)), rng.integers(1, 6, size=int(rng.integers(1, 4)))
        k = len(widths_j)
        offs = np.cumsum([0, r] + [r * p for p in widths_j])
        segments = np.concatenate([offs[j + 1] + p * np.arange(r) for j, p in enumerate(widths_j)])
        widths = np.repeat(widths_j, r)
        x0 = rng.random((R, offs[-1]))
        # steps of every size relative to the cycle's curvature, so that the
        # ratio lands below 1, inside [1, cap] and at the cap
        d1 = rng.standard_normal(x0.shape) * 10.0 ** rng.integers(-6, 1, size=(R, 1))
        d2 = d1 + rng.standard_normal(x0.shape) * 10.0 ** rng.integers(-8, 1, size=(R, 1))
        snaps = np.array([x0, x0 + d1, x0 + d1 + d2])
        b = rng.integers(R)
        kind = case % 5
        if kind == 1:
            snaps[:, b] = x0[b]  # q1 = q2 = 0: the ratio is nan, y not finite
        elif kind == 2:
            snaps[2, b, rng.integers(offs[-1])] = np.inf  # a non-finite y
        elif kind == 3:
            snaps[1, b] = x0[b]  # q1 = 0: the step is 1
        elif kind == 4:
            snaps[2, b] = 2.0 * snaps[1, b] - x0[b]  # q2 = 0 up to rounding
        step_max = 4.0 ** rng.integers(0, 4, size=R)
        tainted = rng.random(R) < 0.3
        want_y, want_alpha, want_trial = _reference_squarem(
            snaps.copy(), step_max, tainted, segments, widths, r, k)
        y, alpha, trial = factor._squarem_point(snaps.copy(), step_max.tolist(), tainted.tolist(),
                                                segments, widths, r, k)
        assert np.array_equal(np.array(alpha), want_alpha, equal_nan=True)
        assert trial == want_trial.tolist()
        assert np.array_equal(y, want_y, equal_nan=True)
        fin = np.isfinite(want_y).all(axis=1)
        assert y[fin].tobytes() == want_y[fin].tobytes()
        dead = rng.random(R) < 0.2
        obj = rng.random(R)
        last = np.where(rng.random(R) < 0.5, obj, rng.random(R))  # ties included
        obj[rng.random(R) < 0.1] = np.nan
        want_rej, want_caps = _reference_verdict(want_trial, dead, obj, last, want_alpha, step_max)
        rej, caps = factor._squarem_verdict(trial, dead.tolist(), obj.tolist(), last.tolist(),
                                            alpha, step_max.tolist())
        assert rej == want_rej.tolist()
        assert np.array(caps).tobytes() == want_caps.tobytes()


def test_extrapolation_converges_on_cchs():
    # the plain sweep needs 650-970 sweeps a restart to meet rel_tol here
    T, posets = datasets.fixture("cchs")
    T = T / np.linalg.norm(T)
    plain, _ = factor._hals_restarts(T, posets, FitConfig(rank=2, restarts=15, max_sweeps=3000),
                                     extrapolate=False)
    assert all(stationary for _, _, stationary, _ in plain)
    for seed in range(6):
        runs, _ = factor._hals_restarts(T, posets, FitConfig(rank=2, restarts=10, seed=seed))
        for i, (_, trace, stationary, sweeps) in enumerate(runs):
            assert stationary and sweeps <= 200
            assert np.isclose(trace[-1], plain[seed + i][1][-1], rtol=1e-9, atol=0)


@pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e6])
def test_hals_is_scale_invariant(scale):
    # the fit runs on T / ||T||, so tiny tensors neither die nor move optimum
    T, posets = datasets.fixture("cchs")
    cfg = FitConfig(rank=2, restarts=3, seed=0)
    fact, report = factor.hals(T, posets, cfg)
    got, got_report = factor.hals(scale * T, posets, cfg)
    assert np.allclose(got.lambdas / scale, fact.lambdas, rtol=1e-9, atol=0)
    assert np.allclose(np.array(got_report.restart_objectives) / scale ** 2,
                       report.restart_objectives, rtol=1e-9, atol=0)
    assert np.allclose(np.array(got_report.objective_trace) / scale ** 2,
                       report.objective_trace, rtol=1e-9, atol=0)
    assert ((got_report.sweeps, got_report.stationary, got_report.best_restart)
            == (report.sweeps, report.stationary, report.best_restart))


def test_fit_report_says_why_and_how_the_fit_stopped():
    T, posets = datasets.fixture("cchs")
    cfg = FitConfig(rank=2, restarts=3, seed=0)
    _, report = factor.hals(T, posets, cfg)
    assert report.stop_reason == "tolerance" and report.stationary
    assert report.first_rise is None
    # no term dies on cchs, so every third sweep of every restart is a trial
    runs, _ = factor._hals_restarts(T / np.linalg.norm(T), posets, cfg)
    trials = report.extrapolation
    assert set(trials) == {"accepted", "rejected"}
    assert trials["accepted"] + trials["rejected"] == sum(sweeps // 3 for *_, sweeps in runs)
    assert trials["accepted"] > trials["rejected"] > 0
    _, report = factor.hals(T, posets, FitConfig(rank=2, restarts=3, max_sweeps=5))
    assert report.stop_reason == "max_sweeps" and not report.stationary
    assert sum(report.extrapolation.values()) == 3


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
def test_fit_report_says_where_the_trace_first_rose(monkeypatch, c):
    T, posets = datasets.fixture("cchs")
    T = c * T
    monkeypatch.setattr(factor, "_hals_restarts", rising_hals_restarts(factor._hals_restarts))
    _, report = factor.hals(T, posets, FitConfig(rank=2, restarts=1, max_sweeps=5))
    trace = np.asarray(report.objective_trace) / np.sum(T ** 2)
    assert report.first_rise == 4
    assert trace_nonincreasing(trace[:3]) and not trace_nonincreasing(trace[:4])


def test_fit_report_says_every_term_died():
    posets = [poset.chain(2), COLLIDER]
    for init in ("als-project", "random-cone"):
        fact, report = factor.hals(np.zeros((2, 3)), posets, FitConfig(rank=2, init=init))
        assert report.stop_reason == "dead" and not fact.lambdas.any()
    T, posets = datasets.fixture("cchs")
    _, report = factor.hals(T, posets, FitConfig(rank=2, restarts=2, max_sweeps=5))
    assert report.stop_reason == "max_sweeps"


@pytest.mark.parametrize("init", ["als-project", "random-cone"])
def test_fit_report_says_where_the_time_went(init):
    T, posets = datasets.fixture("cchs")
    start = time.perf_counter()
    _, report = factor.hals(T, posets, FitConfig(rank=2, restarts=3, init=init))
    wall = time.perf_counter() - start
    assert set(report.timings) == {"init_s", "sweeps_s"}
    assert min(report.timings.values()) >= 0.0
    assert sum(report.timings.values()) <= wall


def _noisy_chain_tensor(seed, shape=(30, 25, 20)):
    """A sum of four nonnegative nondecreasing rank-one terms, plus noise at
    about 1e-4 of its norm: the kind of tensor the fit-grid benchmark fits."""
    rng = np.random.default_rng(seed)
    S = sum(rng.uniform(0.5, 2.0) * outer([np.sort(rng.random(p)) for p in shape])
            for _ in range(4))
    return 100.0 * S / np.linalg.norm(S) + 0.01 * rng.standard_normal(shape)


def test_fit_report_counts_stopping_tests():
    T = _noisy_chain_tensor(0)
    posets = [poset.chain(p) for p in T.shape]
    cfg = FitConfig(rank=4, restarts=2, max_sweeps=100, seed=3)
    _, report = factor.hals(T, posets, cfg)
    tests = report.stopping_tests
    assert set(tests) == {"certified", "exact"}
    assert tests["certified"] > 0
    assert tests["exact"] >= cfg.restarts  # a restart's first sweep has no last objective
    # every restart-sweep is certified, tested in full, or a rejected trial
    runs, stats = factor._hals_restarts(T / np.linalg.norm(T), posets, cfg)
    trials = stats["extrapolation"]
    assert stats["stopping_tests"] == tests and trials == report.extrapolation
    assert sum(tests.values()) + trials["rejected"] == sum(sweeps for *_, sweeps in runs)


def _exact_stopping_test(T, R, P, rel_tol):
    """Objectives and stopping verdict as the sweep computes them, on one row."""
    rowdot = factor._rowdot
    obj, last, d, p = (float(rowdot(x, x)[0]) for x in (T - R, T - P, R - P, P))
    return obj, last, math.sqrt(d) <= rel_tol * (math.sqrt(p) + 1e-30)


@settings(max_examples=300)
@given(n=st.integers(1, 15_000), exponent=st.sampled_from([-300, -40, 0, 40, 300]),
       rel_tol=st.sampled_from([1e-14, 1e-9, 1e-6, 1e-2]),
       residual=st.sampled_from(["random", "along", "against", "zero-t", "zero-p"]),
       step=st.sampled_from(["toward", "away", "random"]),
       edge=st.sampled_from(["certificate", "test"]),
       slack=st.sampled_from([1 + 1e-3, 1 - 1e-3, 1 + 1e-9, 1 - 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stopping_certificate_never_shuts_a_passing_test(n, exponent, rel_tol, residual, step,
                                                         edge, slack, seed):
    # (T, R, P) with ||R - P|| / ||P|| at the exact test's edge, rel_tol, or
    # at the certificate's, 2 rel_tol (||T|| + ||T - P||) / ||P||; the tightest
    # case is T = P / c, where ||P|| = ||T|| + ||T - P||, with R - P along T - P
    rng = np.random.default_rng(seed)
    P = rng.standard_normal(n)
    E = {"random": rng.standard_normal(n) * rng.uniform(0.01, 2.0),
         "along": P * rng.uniform(0.01, 0.9), "against": -P * rng.uniform(0.01, 0.9),
         "zero-t": -P, "zero-p": rng.standard_normal(n)}[residual]
    if residual == "zero-p":
        P = np.zeros(n)
    T = P + E
    scale = 2.0 ** exponent
    T, P, E = T * scale, P * scale, E * scale
    D = {"random": rng.standard_normal(n), "toward": E, "away": -E}[step]
    tnorm, pn, en, dn = (math.sqrt(float(x @ x)) for x in (T, P, E, D))
    ratio = rel_tol if edge == "test" else 2.0 * rel_tol * (tnorm + en) / (pn or 1.0)
    R = P + (ratio * slack * pn / dn) * D if dn else P.copy()
    obj, last, passes = _exact_stopping_test(T[None], R[None], P[None], rel_tol)
    shut, = factor._cannot_converge([obj], [last], tnorm, n, rel_tol)
    assert not (shut and passes)
    # no last objective, or a non-finite one, leaves the restart open
    for o, la in ((obj, math.inf), (obj, math.nan), (math.nan, last), (math.inf, last)):
        assert factor._cannot_converge([o], [la], tnorm, n, rel_tol) == [False]


def test_stopping_certificate_stays_open_beyond_its_bounds():
    # objectives 1 and 4 rule the test out, unless the rounding bound
    # exceeds 0.1 (n = 1e15) or rel_tol is below the 1e-30 floor's reach
    assert factor._cannot_converge([1.0], [4.0], 1.0, 10, 1e-9) == [True]
    assert factor._cannot_converge([1.0], [4.0], 1.0, 10 ** 15, 1e-9) == [False]
    assert factor._cannot_converge([1.0], [4.0], 1.0, 10, 1e-101) == [False]


@pytest.mark.parametrize("rel_tol", [1e-2, 1e-14])
@pytest.mark.parametrize("case", ["grid", "cchs", "exact-rank2", "zero"])
def test_stopping_certificate_changes_no_fit(case, rel_tol, monkeypatch):
    # hals with the certificate against hals with every stopping test run in
    # full: the same stops, so bitwise the same fit
    if case == "grid":
        T = _noisy_chain_tensor(1)
        posets = [poset.chain(p) for p in T.shape]
        cfg = FitConfig(rank=4, restarts=2, max_sweeps=100, seed=5, rel_tol=rel_tol)
    elif case == "cchs":
        T, posets = datasets.fixture("cchs")
        cfg = FitConfig(rank=2, restarts=10, max_sweeps=200, rel_tol=rel_tol)
    elif case == "exact-rank2":
        posets = [poset.chain(4), COLLIDER, poset.chain(3)]
        T = (outer([np.array([0.1, 0.5, 0.5, 2.0]), np.array([1.0, 0.0, 1.0]),
                    np.array([1.0, 1.0, 3.0])])
             + outer([np.array([1.0, 1.0, 1.0, 1.0]), np.array([0.0, 2.0, 3.0]),
                      np.array([0.0, 1.0, 1.0])]))
        cfg = FitConfig(rank=2, restarts=3, rel_tol=rel_tol)
    else:
        posets = [poset.chain(3), COLLIDER]
        T = np.zeros((3, 3))
        cfg = FitConfig(rank=2, restarts=2, rel_tol=rel_tol)
    fact, report = factor.hals(T, posets, cfg)
    monkeypatch.setattr(factor, "_cannot_converge", lambda obj, *args: [False] * len(obj))
    want, want_report = factor.hals(T, posets, cfg)
    assert want_report.stopping_tests["certified"] == 0
    assert report.objective_trace == want_report.objective_trace
    assert report.restart_objectives == want_report.restart_objectives
    assert fact.lambdas.tobytes() == want.lambdas.tobytes()
    assert all(F.tobytes() == G.tobytes() for F, G in zip(fact.factors, want.factors))
    assert ((report.sweeps, report.stationary, report.best_restart)
            == (want_report.sweeps, want_report.stationary, want_report.best_restart))
    if case == "exact-rank2" and rel_tol == 1e-2:
        assert report.stationary and report.sweeps <= 5
    if case in ("grid", "cchs") and rel_tol == 1e-14:
        assert report.stopping_tests["certified"] > 0


@pytest.mark.parametrize("P, y", [(poset.chain(4), [0.5, 1.0, 3.0, 2.0]),
                                  (poset.collider_to_top(4), [2.0, -1.0, 0.5, 1.0])],
                         ids=["chain", "collider"])
@pytest.mark.parametrize("rank", [1, 2])
def test_hals_order_one_fits_the_projection(P, y, rank):
    # an order-1 tensor is a vector: the best fit of any rank is its projection
    y = np.array(y)
    best = float(np.sum((y - isotonic.project(y, P)) ** 2))
    finals = []
    for init in ("als-project", "random-cone"):
        fact, report = factor.hals(y, [P], FitConfig(rank=rank, init=init))
        finals.append(report.objective_trace[-1])
        assert np.isclose(np.sum((y - fact.reconstruct()) ** 2), best, rtol=1e-9, atol=1e-12)
    assert np.allclose(finals, best, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_reject_non_finite(bad):
    T = np.ones((3, 3))
    T[0, 0] = bad
    posets = [poset.chain(3), poset.chain(3)]
    with pytest.raises(NonFiniteInput):
        factor.hals(T, posets, FitConfig(rank=1))
    with pytest.raises(NonFiniteInput):
        rank.rank1_gaussian(T, posets)
    with pytest.raises(NonFiniteInput):
        rank.rank1_exponential(T, posets)


def _with_entry(value, shape=(3, 3), at=(1, 2)):
    T = np.ones(shape)
    T[at] = value
    return T


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank2_matrix_exact_rejects_non_finite(bad):
    # unchecked, the SVD fails to converge
    with pytest.raises(NonFiniteInput):
        rank.rank2_matrix_exact(_with_entry(bad), [poset.chain(3), poset.chain(3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", [rank.rank1_multinomial, rank.rank1_poisson])
def test_marginal_solvers_reject_non_finite(solver, bad):
    # unchecked, the marginals and so the factors are NaN
    with pytest.raises(NonFiniteInput):
        solver(_with_entry(bad), [poset.chain(3), poset.chain(3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tri_factorization_verify_rejects_non_finite(bad):
    # unchecked, the check reports ok=False with a NaN residual
    posets = [poset.chain(3), poset.chain(3)]
    with pytest.raises(NonFiniteInput):
        rank.tri_factorization_verify(_with_entry(bad), np.ones((3, 3)), posets)
    with pytest.raises(NonFiniteInput):
        rank.tri_factorization_verify(np.ones((3, 3)), _with_entry(bad), posets)


def test_gauge_invariance_of_reconstruction():
    rng = np.random.default_rng(7)
    T = np.cumsum(np.cumsum(rng.random((3, 4)), axis=0), axis=1)
    fact, _ = factor.hals(T, [poset.chain(3), poset.chain(4)], FitConfig(rank=2, seed=0))
    scaled = factor.NDFactorization(
        fact.lambdas.copy(),
        [fact.factors[0] * 2.0, fact.factors[1] / 2.0])
    assert np.allclose(scaled.reconstruct(), fact.reconstruct())
    resc = fact.rescaled({1: 7.0}, absorb=0)
    assert np.allclose(resc.reconstruct(), fact.reconstruct())


def test_init_als_project_beats_random_on_rank_one():
    rng = np.random.default_rng(8)
    u = np.sort(rng.uniform(0.2, 2.0, 4))
    v = np.sort(rng.uniform(0.2, 2.0, 5))
    T = np.outer(u, v)
    posets = [poset.chain(4), poset.chain(5)]
    wins = 0
    for seed in range(20):
        init = factor.init_als_project(T, 1, posets, seed)
        rand = factor._init_random_cone(T, 1, posets, seed)
        res_i = np.linalg.norm(T - init.reconstruct())
        res_r = np.linalg.norm(T - rand.reconstruct())
        wins += res_i <= res_r + 1e-12
    assert wins >= 15


def test_init_als_project_zero_tensor():
    init = factor.init_als_project(np.zeros((2, 3)), 2, [poset.chain(2), poset.chain(3)], 0)
    assert np.array_equal(init.lambdas, [0.0, 0.0])
    for F in init.factors:
        assert np.allclose(np.linalg.norm(F, axis=1), 1.0)


def test_init_als_project_repairs_signs():
    u = np.array([0.5, 1.0, 2.0])
    v = np.array([1.0, 2.0, 2.0, 3.0])
    T = np.outer(-u, -v)  # equals outer(u, v); raw ALS may pick either orientation
    init = factor.init_als_project(T, 1, [poset.chain(3), poset.chain(4)], 0)
    assert np.linalg.norm(T - init.reconstruct()) < 1e-6 * np.linalg.norm(T)


def assert_init_feasible(init, posets):
    assert (init.lambdas >= 0).all()
    for F, P in zip(init.factors, posets):
        assert np.allclose(np.linalg.norm(F, axis=1), 1.0, atol=1e-12)
        for v in F:
            assert cone.is_monotone(v, [P]).member


def test_init_als_project_vectors_are_feasible():
    # float crumbs left by a projection must not be scaled up to a unit
    # vector: cchs seed 284 gave such a vector outside the age poset's cone
    T, posets = datasets.fixture("cchs")
    assert_init_feasible(factor.init_als_project(T, 2, posets, 284), posets)
    rng = np.random.default_rng(12)
    for trial in range(200):
        shape = tuple(int(x) for x in rng.integers(2, 5, size=1 + trial % 4))
        posets = [random_poset(p, rng) for p in shape]
        T = rng.standard_normal(shape)
        init = factor.init_als_project(T, 1 + trial % 3, posets, trial)
        assert_init_feasible(init, posets)


def test_init_als_project_matches_term_by_term_reference():
    T, posets = datasets.fixture("cchs")
    for seed in range(300):
        init = factor.init_als_project(T, 2, posets, seed)
        lambdas, factors = reference_init_als_project(T, 2, posets, seed)
        assert np.allclose(init.lambdas, lambdas, rtol=1e-10, atol=0.0)
        live = lambdas > 0
        for got, want in zip(init.factors, factors):
            assert np.allclose(got[live], want[live], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_init_sign_choice_matches_a_loop_over_even_patterns(k, monkeypatch):
    # each term keeps the even sign pattern whose projected vectors have the
    # largest product of squared norms, the first such pattern on a tie; on
    # every other tensor the last mode projects both orientations to zero,
    # so all its patterns tie at 0
    rng = np.random.default_rng(30 + k)
    real, stacks = factor._row_projector, []

    def spying(P):
        proj = real(P)

        def spy(Y, w=None, counts=None):
            Y0 = Y.copy()
            V = proj(Y, w, counts)
            if P is zero:
                V[:] = 0.0
            stacks.append((Y0, V.copy()))
            return V

        return spy

    monkeypatch.setattr(factor, "_row_projector", spying)
    patterns = [s for s in itertools.product((0, 1), repeat=k) if sum(s) % 2 == 0]
    for trial in range(12):
        shape = tuple(int(x) for x in rng.integers(2, 5, size=k))
        posets = [random_poset(p, rng) for p in shape]
        zero = posets[-1] if trial % 2 else None
        r, seeds = 1 + trial % 3, [trial, trial + 100]
        stacks.clear()
        T = rng.standard_normal(shape)
        starts = factor.init_als_project(T, r, posets, seeds)
        # the init runs on T / ||T|| and multiplies its scales back
        norm = factor._unit_scale(T)[1]
        raw = [Y0[:len(seeds) * r].reshape(len(seeds), r, -1) for Y0, _ in stacks]
        V = [V.reshape(2, len(seeds), r, -1) for _, V in stacks]
        pp = [factor._rowdot(v, v).tolist() for v in V]
        for b, start in enumerate(starts):
            for s in range(r):
                best, top = None, -1.0
                for pattern in patterns:
                    score = 1.0
                    for j, flip in enumerate(pattern):
                        score *= pp[j][flip][b][s]
                    if score > top:
                        best, top = pattern, score
                lam = 1.0
                for j, flip in enumerate(best):
                    v, n = V[j][flip, b, s], math.sqrt(pp[j][flip][b][s])
                    if n > 1e-13 * (1.0 + math.sqrt(factor._rowdot(raw[j][b, s], raw[j][b, s]))):
                        assert np.array_equal(start.factors[j][s], v / n)
                        lam *= n
                    else:
                        assert np.allclose(start.factors[j][s], 1.0 / math.sqrt(v.size))
                        lam = 0.0
                assert start.lambdas[s] == lam * norm
        assert zero is None or not starts[0].lambdas.any()


def assert_same_start(got, want):
    # bitwise, down to the sign of a zero
    assert np.array_equal(got.lambdas, want.lambdas)
    assert len(got.factors) == len(want.factors)
    for a, b in zip(got.factors, want.factors):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def stacked_init_cases():
    T, posets = datasets.fixture("cchs")
    for base in range(0, 300, 10):
        yield T, 2, posets, list(range(base, base + 10))
    rng = np.random.default_rng(13)
    for trial in range(120):
        order = 1 + trial % 4
        shape = tuple(int(x) for x in rng.integers(2, 6, size=order))
        posets = [random_poset(p, rng) for p in shape]
        T = rng.standard_normal(shape) if trial % 2 else rng.random(shape)
        seeds = [int(s) for s in rng.integers(0, 10 ** 6, size=1 + trial % 7)]
        yield T, 1 + trial % 5, posets, seeds
    yield rng.standard_normal((2,) * 9), 2, [poset.chain(2)] * 9, [4, 5, 6]
    yield np.zeros((2, 3)), 2, [poset.chain(2), COLLIDER], [0, 1, 2]
    T, posets = datasets.fixture("cchs")
    yield T, 2, posets, [284]


@pytest.mark.parametrize("init", [factor.init_als_project, factor._init_random_cone],
                         ids=["als-project", "random-cone"])
def test_stacked_init_matches_one_seed_calls(init):
    # a sequence of seeds gives the list of the starts its seeds give one at
    # a time: the stack's products are formed per restart
    for T, r, posets, seeds in stacked_init_cases():
        starts = init(T, r, posets, seeds)
        assert isinstance(starts, list) and len(starts) == len(seeds)
        for seed, start in zip(seeds, starts):
            assert_same_start(start, init(T, r, posets, seed))
    assert init(np.ones((2, 2)), 1, [poset.chain(2)] * 2, []) == []


def test_random_cone_init_matches_row_by_row_reference(monkeypatch):
    # draws whose first entry is below 0.3 are zeroed, so some projections
    # are zero and their rows take the uniform unit vector
    make_rng = np.random.default_rng
    zeroed = []

    class ZeroingGenerator:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, size):
            x = self.rng.random(size)
            low = x[..., 0] < 0.3
            zeroed.append(int(np.count_nonzero(low)))
            x[low] = 0.0
            return x

    monkeypatch.setattr(np.random, "default_rng", ZeroingGenerator)
    rng = make_rng(14)
    for trial in range(200):
        shape = tuple(int(x) for x in rng.integers(1, 6, size=1 + trial % 4))
        posets = [random_poset(p, rng) for p in shape]
        T = rng.standard_normal(shape)
        r, seeds = 1 + trial % 4, list(range(trial, trial + 1 + trial % 3))
        for seed, start in zip(seeds, factor._init_random_cone(T, r, posets, seeds)):
            lambdas, factors = reference_init_random_cone(T, r, posets, seed)
            assert_same_start(start, factor.NDFactorization(lambdas, factors))
    assert sum(zeroed) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hals_with_stacked_init_matches_one_seed_loop(seed, monkeypatch):
    T, posets = datasets.fixture("cchs")
    cfg = FitConfig(rank=2, restarts=10, seed=seed)
    fact, report = factor.hals(T, posets, cfg)
    init = factor.init_als_project
    monkeypatch.setattr(factor, "init_als_project",
                        lambda T, r, posets, seeds: [init(T, r, posets, s) for s in seeds])
    want, want_report = factor.hals(T, posets, cfg)
    assert report.objective_trace == want_report.objective_trace
    assert report.restart_objectives == want_report.restart_objectives
    assert report.best_restart == want_report.best_restart
    assert_same_start(fact, want)


@pytest.mark.parametrize("init", ["als-project", "random-cone"])
def test_hals_restarts_call_the_init_once(init, monkeypatch):
    # one call per fit keeps the whole init inside one span of a tracer that
    # wraps the module attribute
    name = {"als-project": "init_als_project", "random-cone": "_init_random_cone"}[init]
    calls = []
    wrapped = getattr(factor, name)
    monkeypatch.setattr(factor, name, lambda *args: calls.append(args[3]) or wrapped(*args))
    T, posets = datasets.fixture("cchs")
    factor.hals(T, posets, FitConfig(rank=2, restarts=4, seed=3, init=init))
    assert calls == [[3, 4, 5, 6]]


def monotone_tensor(shape, rng):
    T = rng.random(shape) + 0.1
    for axis in range(T.ndim):
        T = np.cumsum(T, axis=axis)
    return T


@pytest.mark.parametrize("order", [9, 13])
def test_fits_beyond_twelve_modes(order):
    # 9 and 13 modes: where einsum subscripts drawn from 12 letters, one of
    # them also the term index, break
    rng = np.random.default_rng(order)
    posets = [poset.chain(2)] * order
    T = monotone_tensor((2,) * order, rng)
    fact, report = factor.hals(T, posets, FitConfig(rank=1, restarts=2))
    assert trace_nonincreasing(report.objective_trace)
    for F in fact.factors:
        assert cone.is_monotone(F[0], [poset.chain(2)]).member
    g = rank.rank1_gaussian(T, posets)
    assert "fallback" not in g.diagnostics
    # the best rank-one fit: its residual is orthogonal to every mode's update
    R = T - g.reconstruct()
    vecs = [F[0] for F in g.factors]
    for t in range(order):
        others = [j for j in range(order) if j != t]
        grad = np.tensordot(R, outer([vecs[j] for j in others]), axes=(others, range(order - 1)))
        assert np.linalg.norm(grad) < 1e-8 * np.linalg.norm(T)
    assert report.objective_trace[-1] <= np.sum(R ** 2) * (1 + 1e-6)
    e = rank.rank1_exponential(T, posets)
    # the exponential fixed point: T / theta averages to 1 over each slice
    ratio = T / e.reconstruct()
    for t in range(order):
        others = tuple(j for j in range(order) if j != t)
        assert np.allclose(ratio.mean(axis=others), 1.0, atol=1e-8)
    # signed data sends hals through the default init's sign choice
    _, report = factor.hals(rng.standard_normal((2,) * order), posets, FitConfig(rank=1))
    assert trace_nonincreasing(report.objective_trace)


@pytest.mark.parametrize("field, value", [("rank", 0), ("max_sweeps", 0), ("restarts", 0),
                                          ("restarts", -3), ("rel_tol", 0.0),
                                          ("init", "svd"), ("rel_tol", np.nan),
                                          ("rel_tol", np.inf), ("seed", -1), ("rel_tol", True)])
def test_fit_config_rejects_bad_values(field, value):
    # seed=-1 failed inside numpy's default_rng with a message that named no
    # setting, and rel_tol=True ran as 1.0
    with pytest.raises(ValueError, match=field):
        FitConfig(**{"rank": 1, field: value})


@pytest.mark.parametrize("field, value", [("rank", 1.5), ("restarts", 2.0), ("max_sweeps", 10.5),
                                          ("seed", 1.5), ("restarts", True)])
def test_fit_config_rejects_non_integral_counts(field, value):
    # these constructed, and hals failed deep inside on a float count or seed
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        FitConfig(**{"rank": 1, field: value})


def test_fit_config_takes_numpy_integers():
    cfg = FitConfig(rank=np.int64(2), max_sweeps=np.int32(5), restarts=np.int64(2),
                    seed=np.int64(3))
    fact, report = factor.hals(np.ones((2, 3)), [poset.chain(2), poset.chain(3)], cfg)
    assert report.sweeps <= 5
    # the chosen seed was a numpy integer, which to_json could not write
    assert json.loads(fact.to_json())["diagnostics"]["seed"] in (3, 4)


def test_rank1_gaussian_matches_svd():
    rng = np.random.default_rng(9)
    M = np.sort(np.sort(rng.uniform(0.5, 2.0, (4, 5)), axis=0), axis=1)
    f = rank.rank1_gaussian(M, [poset.chain(4), poset.chain(5)])
    U, s, Vt = np.linalg.svd(M)
    assert abs(f.lambdas[0] - s[0]) < 1e-8 * s[0]
    assert np.arccos(min(1.0, abs(f.factors[0][0] @ U[:, 0]))) < 1e-6
    assert np.arccos(min(1.0, abs(f.factors[1][0] @ Vt[0]))) < 1e-6
    # the loop's liveness floor is absolute: a tiny tensor must not die
    tiny = rank.rank1_gaussian(1e-15 * M, [poset.chain(4), poset.chain(5)])
    assert abs(tiny.lambdas[0] - 1e-15 * s[0]) < 1e-8 * 1e-15 * s[0]


def test_rank1_gaussian_zero_and_fallback():
    z = rank.rank1_gaussian(np.zeros((2, 2)), [poset.chain(2), poset.chain(2)])
    assert z.lambdas[0] == 0
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])  # rows/columns not monotone
    f = rank.rank1_gaussian(bad, [poset.chain(2), poset.chain(2)])
    assert "fallback" in f.diagnostics
    for j in range(2):
        assert cone.is_monotone(f.factors[j][0], [poset.chain(2)]).member


def test_rank1_multinomial():
    T = np.full((2, 2), 0.25)
    free = [poset.trivial(2), poset.trivial(2)]
    f = rank.rank1_multinomial(T, free)
    assert np.allclose(f.factors[0][0], [0.5, 0.5])
    assert np.allclose(f.reconstruct(), T)
    with pytest.raises(NonNegativityViolated):
        rank.rank1_multinomial(np.array([[1.0, -0.1], [0.0, 0.0]]), free)
    with pytest.raises(NonNegativityViolated):
        rank.rank1_multinomial(np.zeros((2, 2)), free)


def test_rank1_multinomial_product_pmf_exact():
    q1 = np.array([0.2, 0.3, 0.5])
    q2 = np.array([0.1, 0.9])
    f = rank.rank1_multinomial(np.outer(q1, q2), [poset.trivial(3), poset.trivial(2)])
    assert np.allclose(f.factors[0][0], q1)
    assert np.allclose(f.factors[1][0], q2)


def test_rank1_poisson_scale():
    f = rank.rank1_poisson(np.array([[1.0, 2.0], [3.0, 4.0]]), [poset.trivial(2), poset.trivial(2)])
    assert np.isclose(f.lambdas[0], 10.0)
    assert np.isclose(f.reconstruct().sum(), 10.0)


def test_rank1_poisson_zero_total():
    f = rank.rank1_poisson(np.zeros((2, 3)), [poset.trivial(2), poset.trivial(3)])
    assert f.lambdas.tolist() == [0.0]
    assert f.reconstruct().tolist() == np.zeros((2, 3)).tolist()


@pytest.mark.parametrize("solver", [rank.rank1_multinomial, rank.rank1_poisson])
def test_marginal_fits_meet_the_constrained_kkt_conditions(solver):
    # each mode's vector v maximizes sum m log v over the simplex within
    # C(P): some mu >= 0 has A^T mu = N 1 - m / v and mu . A v = 0, A the
    # H-rep rows; the marginals over chains, a forest and a collider fall
    rng = np.random.default_rng(50)
    for posets in ([poset.chain(3), poset.chain(4)], [random_forest(5, rng), poset.chain(2)],
                   [COLLIDER, poset.chain(3), random_collider(4, rng)]):
        shape = [P.p for P in posets]
        T = rng.integers(1, 20, size=shape) * (np.arange(shape[-1], 0, -1.0) ** 2)
        fit = solver(T, posets)
        N = T.sum()
        for j, P in enumerate(posets):
            m = np.apply_over_axes(np.sum, T, [a for a in range(T.ndim) if a != j]).ravel()
            v = fit.factors[j][0]
            assert cone.is_monotone(v, P).member and math.isclose(v.sum(), 1.0, rel_tol=1e-12)
            A = isotonic._halfspace_rows(P)
            f = N - m / v
            mu, r = isotonic._nnls_certified(A.T, f)
            assert np.abs(r).max() <= 1e-9 * np.abs(f).sum()
            assert abs(mu @ (A @ v)) <= 1e-9
        assert np.isclose(fit.reconstruct().sum(), 1.0 if solver is rank.rank1_multinomial else N)
    # the reversed marginals [0.65, 0.35] and [0.65, 0.25, 0.1] pool to uniform
    fit = solver(np.array([[9.0, 3.0, 1.0], [4.0, 2.0, 1.0]]), [poset.chain(2), poset.chain(3)])
    assert np.allclose(fit.factors[0], 1 / 2) and np.allclose(fit.factors[1], 1 / 3)


@pytest.mark.parametrize("solver", [rank.rank1_multinomial, rank.rank1_poisson])
def test_marginal_fits_check_their_posets(solver):
    with pytest.raises(ShapeMismatch):
        solver(np.ones((2, 3)), [poset.chain(3), poset.chain(2)])
    with pytest.raises(ShapeMismatch):
        solver(np.ones((2, 3)), [poset.chain(2)])
    # antichains constrain nothing: each factor is bitwise its marginal's m / N
    T = np.array([[5.0, 1.0, 2.0], [0.0, 3.0, 1.0]])
    free = [poset.trivial(2), poset.trivial(3)]
    fit = solver(T, free)
    for row, m in zip(fit.factors, [T.sum(axis=1), T.sum(axis=0)]):
        assert row.tobytes() == (m / T.sum()).tobytes()


def test_rank1_exponential():
    e = rank.rank1_exponential(np.ones((2, 2)), [poset.chain(2), poset.chain(2)])
    assert np.allclose(e.reconstruct(), np.ones((2, 2)))
    u = np.array([0.5, 1.0, 1.5])
    v = np.array([1.0, 2.0, 2.0, 3.0])
    T = np.outer(u, v)
    e2 = rank.rank1_exponential(T, [poset.chain(3), poset.chain(4)])
    assert np.linalg.norm(e2.reconstruct() - T) < 1e-8 * np.linalg.norm(T)
    with pytest.raises(NonPositiveEntry):
        rank.rank1_exponential(np.array([[1.0, 0.0], [1.0, 2.0]]),
                                 [poset.chain(2), poset.chain(2)])
    with pytest.raises(HypothesisViolated):
        rank.rank1_exponential(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                 [poset.chain(2), poset.chain(2)])


def test_exponential_beats_gaussian_on_own_objective():
    rng = np.random.default_rng(10)
    T = np.cumsum(np.cumsum(rng.uniform(0.5, 1.0, (3, 4)), axis=0), axis=1)

    def exp_loss(theta):
        return float(np.sum(np.log(theta) + T / theta))

    fe = rank.rank1_exponential(T, [poset.chain(3), poset.chain(4)])
    fg = rank.rank1_gaussian(T, [poset.chain(3), poset.chain(4)])
    assert exp_loss(fe.reconstruct()) <= exp_loss(fg.reconstruct()) + 1e-9


def test_rank2_exact_reconstructs_truncation():
    rng = np.random.default_rng(11)
    B = np.sort(rng.uniform(0.5, 2.0, size=(2, 6)), axis=1)
    A = rng.uniform(0.1, 1.0, size=(7, 2))
    T = A @ B + 0.01 * rng.standard_normal((7, 6))
    posets = [poset.trivial(7), poset.chain(6)]
    res = rank.rank2_matrix_exact(T, posets)
    assert not res.needs_hals
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    T2 = (U[:, :2] * s[:2]) @ Vt[:2]
    assert np.linalg.norm(res.factorization.reconstruct() - T2) < 1e-8 * np.linalg.norm(T2)
    # residual to the data equals the unconstrained truncation error
    assert np.isclose(np.linalg.norm(T - res.factorization.reconstruct()),
                      np.linalg.norm(T - T2), atol=1e-8)


def test_rank2_coefficients_survive_scipy_iteration_cap(monkeypatch):
    # the row-mode coefficients come from the certified NNLS step, so
    # scipy's iteration-cap RuntimeError falls back instead of escaping
    calls = []

    def capped(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(isotonic, "nnls", capped)
    rng = np.random.default_rng(11)
    B = np.sort(rng.uniform(0.5, 2.0, size=(2, 6)), axis=1)
    A = rng.uniform(0.1, 1.0, size=(7, 2))
    T = A @ B
    posets = [poset.trivial(7), poset.chain(6)]
    res = rank.rank2_matrix_exact(T, posets)
    assert not res.needs_hals
    assert np.linalg.norm(res.factorization.reconstruct() - T) < 1e-8 * np.linalg.norm(T)
    assert calls


def test_rank2_extreme_rays_on_any_column_poset():
    # the wedge rowspace(T2) ∩ C(P2) needs no chain: an antichain of columns
    # factorizes as a chain does
    rng = np.random.default_rng(12)
    B = np.sort(rng.uniform(0.5, 2.0, size=(2, 5)), axis=1)
    A = rng.uniform(0.1, 1.0, size=(6, 2))
    T = A @ B
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    T2 = (U[:, :2] * s[:2]) @ Vt[:2]
    for cols in (poset.chain(5), poset.trivial(5)):
        res = rank.rank2_matrix_exact(T, [poset.trivial(6), cols])
        assert not res.needs_hals
        assert np.linalg.norm(res.factorization.reconstruct() - T2) < 1e-8 * np.linalg.norm(T2)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_rank2_exact_whenever_collider_free_truncation_is_member(p, q, seed):
    # sums of two outer products of nondecreasing vectors (cumulative sums of
    # sparse uniforms) over chain, forest and trivial row posets, and each
    # transpose: with no collider a member truncation has ND rank two, and
    # the Moebius-transform oracle builds its factorization independently
    rng = np.random.default_rng(seed)
    a, b = (np.cumsum(rng.uniform(0, 1, (2, n)) * (rng.random((2, n)) < 0.5), axis=1)
            for n in (p, q))
    T = a.T @ b
    for rows in (poset.chain(p), random_forest(p, rng), poset.trivial(p)):
        for M, posets in ((T, [rows, poset.chain(q)]), (T.T, [poset.chain(q), rows])):
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            T2 = (U[:, :2] * s[:2]) @ Vt[:2]
            res = rank.rank2_matrix_exact(M, posets)
            assert res.certificate.member
            assert not res.needs_hals, res.reason
            scale = 1e-8 * np.linalg.norm(T2)
            assert np.linalg.norm(res.factorization.reconstruct() - T2) <= scale
            for F, P in zip(res.factorization.factors, posets):
                assert all(cone.is_monotone(v, [P]).member for v in F)
            if s.size < 2 or s[1] <= 1e-12 * s[0]:
                continue
            A, B = reference_rank2_mobius(T2, posets)
            assert np.linalg.norm(A @ B.T - T2) <= scale
            assert all(cone.is_monotone(v, [P]).member
                       for V, P in zip((A, B), posets) for v in V.T)


def test_rank2_unbounded_wedge_falls_back(monkeypatch):
    # with every halfspace row dropped as noise nothing bounds the wedge:
    # the shortcut directs the caller to HALS instead of returning inf rays
    monkeypatch.setattr(rank, "_halfspace_rows", lambda P: np.zeros((0, P.p)))
    T = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
    res = rank.rank2_matrix_exact(T, [poset.chain(2), poset.chain(3)])
    assert res.needs_hals and res.certificate.member
    assert res.reason == "no halfspace bounds the row space's wedge"


@pytest.mark.parametrize("target, fake, reason", [
    # coefficients that rebuild nothing
    ("_nnls_coefficients", lambda T2, B: np.zeros((T2.shape[0], B.shape[0])),
     "extraction failed to reproduce the rank-two truncation"),
    # rays [1, 2, 3] - [1, 3, 6] and [1, 3, 6]: T's first row is their sum
    ("_wedge_rays", lambda T2, basis, P: np.array([T2[0] - T2[1], T2[1]]),
     "extracted column-mode vector is infeasible"),
    # T's rows as rays: the coefficients [1, 0] and [0, 1] fall along chain(2)
    ("_wedge_rays", lambda T2, basis, P: T2.copy(),
     "extracted row-mode coefficients are infeasible"),
], ids=["reconstruction", "column-vector", "row-coefficients"])
def test_rank2_rejects_an_infeasible_extraction(target, fake, reason, monkeypatch):
    monkeypatch.setattr(rank, target, fake)
    T = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
    res = rank.rank2_matrix_exact(T, [poset.chain(2), poset.chain(3)])
    assert res.needs_hals and res.certificate.member
    assert res.reason == reason


def test_rank2_rank_one_input_degenerates():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, 1.0, 2.0, 4.0])
    res = rank.rank2_matrix_exact(np.outer(u, v), [poset.chain(3), poset.chain(4)])
    assert not res.needs_hals
    lam = np.sort(res.factorization.lambdas)
    assert lam[0] == 0.0 and lam[1] > 0


def test_rank2_fallback_when_truncation_outside():
    # staircase pattern: monotone but without finite ND rank
    T = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]) + 1e-3
    res = rank.rank2_matrix_exact(T, [poset.chain(2), poset.chain(3)])
    assert res.needs_hals
    assert res.factorization is None


def test_rank_bounds_cases():
    rows = poset.from_relation(["I", "II", "III"], [("I", "III"), ("II", "III")])
    b = rank.rank_bounds([rows, poset.chain(4)])
    assert b.upper == 4 and b.exact_max == 4
    b2 = rank.rank_bounds([COLLIDER, COLLIDER])
    assert b2.exact_max == 4 and b2.typical_range == (3, 4)
    b3 = rank.rank_bounds([poset.chain(3), poset.chain(5)])
    assert b3.exact_max == 3 and b3.typical_range == (3, 3)
    b4 = rank.rank_bounds([COLLIDER, COLLIDER, poset.chain(2)])
    assert b4.upper == 8 and b4.exact_max is None
    for P in (COLLIDER, poset.chain(4)):
        b1 = rank.rank_bounds([P])
        assert b1.upper == 1 and b1.exact_max is None and b1.typical_range is None
        assert rank.rank_bounds(P) == b1  # a single Poset is a vector's list


def test_rank_bounds_with_two_maximal_elements():
    # two maxima: no collider to a top, so no exact maximum is known
    P = poset.from_relation([0, 1, 2, 3], [(0, 2), (1, 2), (0, 3)])
    b = rank.rank_bounds([P, P])
    assert (b.upper, b.exact_max, b.typical_min, b.typical_range) == (5, None, 4, None)
    assert b.extremal_ray_counts == [5, 5]


def test_tri_factorization_identity():
    chk = rank.tri_factorization_verify(COLLIDER_MATRIX, np.eye(4), [COLLIDER, COLLIDER])
    assert chk.ok and chk.residual == 0.0
    chk0 = rank.tri_factorization_verify(COLLIDER_MATRIX, np.zeros((4, 4)),
                                           [COLLIDER, COLLIDER])
    assert not chk0.ok
    with pytest.raises(ShapeMismatch):
        rank.tri_factorization_verify(COLLIDER_MATRIX, np.eye(3), [COLLIDER, COLLIDER])
    with pytest.raises(NonNegativityViolated):
        rank.tri_factorization_verify(COLLIDER_MATRIX, -np.eye(4), [COLLIDER, COLLIDER])
    with pytest.raises(ShapeMismatch, match="matrices"):
        rank.tri_factorization_verify(np.ones(3), np.eye(4), [COLLIDER])


def test_tri_factorization_random_cone_coefficients():
    rng = np.random.default_rng(13)
    posets = [poset.chain(3), COLLIDER]
    V = [cone.order_cone_vrep(P).T for P in posets]
    H = rng.uniform(0, 2, size=(V[0].shape[1], V[1].shape[1]))
    T = V[0] @ H @ V[1].T
    chk = rank.tri_factorization_verify(T, H, posets)
    assert chk.ok


def test_bound_consistency_on_members():
    rng = np.random.default_rng(14)
    posets = [poset.chain(3), COLLIDER]
    gens = cone.finite_rank_vrep(posets)
    b = rank.rank_bounds(posets)
    for trial in range(3):
        idx = rng.choice(len(gens), size=3, replace=False)
        T = sum(rng.uniform(0.3, 1.5) * gens[i] for i in idx)
        _, report = factor.hals(T, posets, FitConfig(rank=b.upper, restarts=3, seed=trial))
        assert report.final_residual < 1e-6 * np.linalg.norm(T)


def test_survey_rank2_factor_tables():
    # published factor tables for this survey fit, in the display gauge
    # (gender l1 = 1, year l1 = 7, age absorbs the scale)
    from ndrank import datasets
    ref_age = np.array([[8.93, 16.77, 14.23, 13.18, 8.93],
                        [8.28, 8.28, 5.06, 4.17, 2.53]])
    ref_year = np.array([[0.76, 0.75, 0.82, 0.90, 1.02, 1.25, 1.49],
                         [0.57, 0.70, 0.78, 0.75, 1.07, 1.34, 1.78]])
    ref_gender = np.array([[0.38, 0.62], [1.0, 0.0]])
    T, posets = datasets.fixture("cchs")
    fact, _ = factor.hals(T, posets, FitConfig(rank=2, restarts=10, seed=0))
    shown = fact.rescaled({2: 1.0, 1: 7.0}, absorb=0)
    # match terms by gender signature, then compare all three tables loosely
    order = np.argsort([shown.factors[2][i][1] for i in range(2)])[::-1]
    for slot, i in enumerate(order):
        assert np.allclose(shown.factors[0][i], ref_age[slot], atol=0.2)
        assert np.allclose(shown.factors[1][i], ref_year[slot], atol=0.05)
        assert np.allclose(shown.factors[2][i], ref_gender[slot], atol=0.02)


def assert_same_factorization(a, b):
    assert a.lambdas.tobytes() == b.lambdas.tobytes()
    assert [(F.shape, F.tobytes()) for F in a.factors] == [(G.shape, G.tobytes())
                                                          for G in b.factors]


def test_factorization_json_roundtrip():
    # the file holds what from_json reads and nothing else: no poset
    # references, which live in the manifest of ndrank factorize
    rng = np.random.default_rng(15)
    T = np.cumsum(rng.random((3, 4)), axis=1)
    fact, report = factor.hals(T, [poset.trivial(3), poset.chain(4)], FitConfig(rank=2, seed=0))
    fact.diagnostics["objective_trace"] = report.objective_trace
    chains = [poset.chain(3), poset.chain(4)]
    pair = rank.rank2_matrix_exact(np.outer([1.0, 2, 4], [1.0, 1, 2, 3]) + np.outer(
        [0.5, 0.5, 1], [0.0, 1, 1, 1]), chains).factorization
    exponential = rank.rank1_exponential(np.cumsum(np.cumsum(1 + rng.random((3, 4, 2)), 0), 1),
                                         chains + [poset.chain(2)])
    for fit in (fact, pair, exponential):
        text = fit.to_json()
        back = factor.NDFactorization.from_json(text)
        assert set(json.loads(text)) == {"rank", "shape", "lambdas", "factors", "diagnostics"}
        assert back.rank == fit.rank
        assert_same_factorization(back, fit)
        assert back.diagnostics == fit.diagnostics
        assert back.to_json() == text


@given(r=st.integers(0, 3), shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), exponent=st.sampled_from([-300, 0, 300]),
       zero_lambdas=st.booleans(),
       diagnostics=st.one_of(st.just({}), st.fixed_dictionaries({"seed": st.integers(0, 2 ** 32)}),
                             st.fixed_dictionaries({"fallback": st.text(max_size=20)})))
def test_every_factorization_reads_back_bitwise(r, shape, seed, exponent, zero_lambdas, diagnostics):
    # the file keeps each mode's size, so a rank-0 factorization keeps its
    # modes: the term-major layout read it back with none
    rng = np.random.default_rng(seed)
    lambdas = np.zeros(r) if zero_lambdas else rng.random(r) * 10.0 ** exponent
    fit = factor.NDFactorization(lambdas, [rng.random((r, p)) for p in shape],
                                 diagnostics=diagnostics)
    text = fit.to_json()
    back = factor.NDFactorization.from_json(text)
    assert json.loads(text)["shape"] == shape and back.order == len(shape)
    assert_same_factorization(back, fit)
    assert back.diagnostics == diagnostics
    assert back.to_json() == text
    if r == 0:
        assert back.reconstruct().tobytes() == np.zeros(shape).tobytes()


def test_factorization_takes_no_posets():
    # a caller passing posets third got them stored as its diagnostics
    with pytest.raises(TypeError):
        factor.NDFactorization(np.ones(1), [np.ones((1, 2))], [poset.chain(2)])


def _factor_file(**changes):
    """A valid factor file's object with ``changes`` made; a None drops the key."""
    obj = json.loads(factor.NDFactorization(np.array([2.0, 1.0]), [np.ones((2, 3)), np.ones((2, 2))],
                                            diagnostics={"seed": 1}).to_json())
    obj.update(changes)
    return {k: v for k, v in obj.items() if v is not None}


@pytest.mark.parametrize("obj, key", [
    *[(_factor_file(**{k: None}), f"'{k}'") for k in ("rank", "shape", "lambdas", "factors", "diagnostics")],
    # the term-major layout of older files has no shape
    ({"rank": 1, "lambdas": [1.0], "factors": [[[1.0, 1.0], [1.0]]], "diagnostics": {}}, "'shape'"),
    (_factor_file(lambdas=[2.0]), "'lambdas'"),
    (_factor_file(rank=3), "'lambdas'"),
    (_factor_file(shape=[3, 2, 1]), "'factors'"),
    (_factor_file(factors=[[[1.0] * 3] * 2]), "'factors'"),
    (_factor_file(factors=[[[1.0] * 3], [[1.0] * 2] * 2]), "'factors'[0]"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0] * 2, [1.0] * 3]]), "'factors'[1]"),
    (_factor_file(factors=[[[1.0] * 2] * 3, [[1.0] * 2] * 2]), "'factors'[0]"),  # transposed
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, "1.0"]] * 2]), "'factors'[1]"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, True]] * 2]), "'factors'[1]"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, None]] * 2]), "'factors'[1]"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [1.0, 1.0]]), "'factors'[1]"),
    (_factor_file(factors=[6.0, [[1.0] * 2] * 2]), "'factors'[0]"),
    (_factor_file(factors=5), "'factors'"),
    # text that is not JSON, or JSON that is not an object (a str is the file's text)
    ('{"rank": 1,', "invalid JSON"),
    ("5", "'rank'"),
    (_factor_file(rank=True, lambdas=[2.0], factors=[[[1.0] * 3], [[1.0] * 2]]), "'rank'"),
    (_factor_file(rank=-1), "'rank'"),
    (_factor_file(rank=1.0, lambdas=[2.0], factors=[[[1.0] * 3], [[1.0] * 2]]), "'rank'"),
    # rank 0 has empty tables, which do not check the shape
    ({"rank": 0, "shape": [-1], "lambdas": [], "factors": [[]], "diagnostics": {}}, "'shape'"),
    ({"rank": 0, "shape": [2.5], "lambdas": [], "factors": [[]], "diagnostics": {}}, "'shape'"),
    (_factor_file(shape=[3, True]), "'shape'"),
    (_factor_file(shape="ab"), "'shape'"),
    (_factor_file(lambdas=["a", 1.0]), "'lambdas'"),
    (_factor_file(lambdas={"a": 1, "b": 2}), "'lambdas'"),
    (_factor_file(lambdas=[True, 1.0]), "'lambdas'"),
    (_factor_file(lambdas=[2.0, 10 ** 400]), "'lambdas'"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, 10 ** 400]] * 2]), "'factors'[1]"),
    (_factor_file(diagnostics=[]), "'diagnostics'"),
    # NaN, Infinity and a literal past a float's range loaded as numbers
    (_factor_file(lambdas=[2.0, math.nan]), "'lambdas'"),
    (_factor_file(lambdas=[math.inf, 1.0]), "'lambdas'"),
    (json.dumps(_factor_file(lambdas=[2.0, 0.5])).replace("0.5", "1e400"), "'lambdas'"),
    (_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, -math.inf]] * 2]), "'factors'[1]"),
    (_factor_file(factors=[[[1.0, math.nan, 1.0]] * 2, [[1.0] * 2] * 2]), "'factors'[0]"),
    (json.dumps(_factor_file(factors=[[[1.0] * 3] * 2, [[1.0, 0.5]] * 2])).replace("0.5", "-1e400"),
     "'factors'[1]"),
    # these loaded, and to_json then raised ValueError: what loads must write back
    (_factor_file(diagnostics={"x": math.nan}), "'diagnostics'"),
    (_factor_file(diagnostics={"sweeps": [1, {"rss": -math.inf}]}), "'diagnostics'"),
    (json.dumps(_factor_file(diagnostics={"x": 0.5})).replace("0.5", "1e400"), "'diagnostics'"),
    # a key beside the five loaded unseen, whatever it held
    (_factor_file(note=math.inf), "'note'"),
])
def test_malformed_factor_file_is_refused_by_key(obj, key):
    # a bare KeyError, TypeError or OverflowError, or numpy's "cannot
    # reshape", named nothing in the file
    text = obj if isinstance(obj, str) else json.dumps(obj)
    with pytest.raises(ParseError, match=re.escape(key)):
        factor.NDFactorization.from_json(text)


def test_factor_file_of_bad_json_says_where():
    with pytest.raises(ParseError) as err:
        factor.NDFactorization.from_json('{\n  "rank": 1,\n  "shape": [2]\n  "lambdas": []}')
    assert (err.value.line, err.value.column) == (4, 3)


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), n=st.integers(1, 6),
       exponent=st.sampled_from([-100, 0, 100]), zero_a=st.sampled_from([(), (0,), (1,), (0, 1)]),
       zero_b=st.sampled_from([(), (0,), (1,), (0, 1)]), k=st.integers(1, 4))
def test_unit_terms_matches_the_packers_it_replaced(seed, m, n, exponent, zero_a, zero_b, k):
    rng = np.random.default_rng(seed)
    # rank two: the columns of a_cols and the rows of b_rows, zero ones included
    a_cols = rng.random((m, 2)) * 10.0 ** exponent
    b_rows = rng.random((2, n))
    a_cols[:, list(zero_a)] = 0
    b_rows[list(zero_b)] = 0
    got = rank._unit_terms([a_cols.T, b_rows])
    assert_same_factorization(got, reference_pack_rank2(a_cols, b_rows))
    # the exponential fit: one term over k modes, with its scale multiplied first
    vecs = [rng.uniform(0.1, 10.0, int(rng.integers(1, 6))) for _ in range(k)]
    norm = float(rng.uniform(0.5, 2.0)) * 10.0 ** exponent
    lam, unit = norm, []
    for v in vecs:
        nv = float(np.linalg.norm(v))
        unit.append(v / nv)
        lam *= nv
    got = rank._unit_terms([v[None, :] for v in vecs], scale=norm)
    assert_same_factorization(got, factor.NDFactorization(np.array([lam]),
                                                          [v[None, :] for v in unit]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", [-1.0, 0.0, np.nan, np.inf])
def test_rescaled_refuses_a_target_that_leaves_the_cone(target):
    # -1 gave mode-2 entries down to -0.255, outside their order cone; 0
    # divided by zero, and nan gave nan factors
    T, posets = datasets.fixture("cchs")
    fact, _ = factor.hals(T, posets, FitConfig(rank=2, restarts=1))
    with pytest.raises(ValueError, match="l1 targets must be positive and finite"):
        fact.rescaled({1: target}, absorb=0)
    with pytest.raises(ValueError, match="l1 targets"):
        fact.rescaled({2: 1.0, 1: target}, absorb=0)


@pytest.mark.parametrize("mode_l1, absorb, message", [
    ({0: 1.0}, 0, "also a key of mode_l1"),  # mode 0's l1 norms came out 80.0 and 123.6
    ({1: 1.0}, 3, "absorb must be a mode"),  # an IndexError
    ({1: 1.0}, -1, "absorb must be a mode"),  # absorbed into the last mode
    ({1: 1.0}, True, "absorb must be a mode"),
    ({True: 1.0}, 0, "each key of mode_l1 must be a mode"),  # rescaled mode 1
    ({3: 1.0}, 0, "each key of mode_l1 must be a mode"),
    ({"1": 1.0}, 0, "each key of mode_l1 must be a mode"),
])
def test_rescaled_refuses_modes_it_cannot_honour(mode_l1, absorb, message):
    T, posets = datasets.fixture("cchs")
    fact, _ = factor.hals(T, posets, FitConfig(rank=2, restarts=2))
    with pytest.raises(ValueError, match=message):
        fact.rescaled(mode_l1, absorb=absorb)
    resc = fact.rescaled({np.int64(1): 7.0}, absorb=np.int64(0))  # a numpy int is a mode
    assert np.allclose(np.abs(resc.factors[1]).sum(axis=1), 7.0)


@pytest.mark.parametrize("lambdas, factors, field", [
    ([1.0], [np.ones((2, 3)), np.ones((1, 4))], "'factors'[0]"),  # reconstruct hit a matmul error
    ([1.0], [np.ones(3)], "'factors'[0]"),  # to_json raised an IndexError
    ([1.0, 2.0], [np.ones((2, 3)), np.ones((2, 2, 1))], "'factors'[1]"),
    ([[1.0, 2.0]], [np.ones((2, 3))], "'lambdas'"),
    (2.0, [np.ones((1, 3))], "'lambdas'"),
])
def test_factorization_refuses_shapes_its_file_cannot_hold(lambdas, factors, field):
    with pytest.raises(ShapeMismatch, match=re.escape(field)):
        factor.NDFactorization(lambdas, factors)


@pytest.mark.parametrize("lambdas, factors", [
    ([np.nan], [np.ones((1, 2))]),
    ([1.0], [[[1.0, np.inf]]]),
    ([-np.inf], [np.ones((1, 2))]),
])
def test_factor_file_of_a_non_finite_value_is_not_written(lambdas, factors):
    # to_json wrote NaN and Infinity, which are not JSON
    with pytest.raises(ValueError, match="not JSON compliant"):
        factor.NDFactorization(lambdas, factors).to_json()


EMPTY = poset.from_relation([], [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fit", [
    lambda T: factor.hals(T, [], FitConfig(rank=1)),
    lambda T: factor.init_als_project(T, 1, [], 0),
    lambda T: rank.rank1_gaussian(T, []),
    lambda T: rank.rank1_exponential(T, []),
], ids=["hals", "init_als_project", "rank1_gaussian", "rank1_exponential"])
def test_fits_reject_order_0(fit):
    # these divided by zero or returned a wrong scale (0, or 1 for a fit of 2)
    with pytest.raises(ShapeMismatch, match="at least one mode"):
        fit(np.array(2.0))


FIT_ENTRIES = {
    "hals": lambda T, Ps: factor.hals(T, Ps, FitConfig(rank=1, restarts=1)),
    "init_als_project": lambda T, Ps: factor.init_als_project(T, 1, Ps, 0),
    "rank1_gaussian": rank.rank1_gaussian,
    "rank1_exponential": rank.rank1_exponential,
    "rank2_matrix_exact": rank.rank2_matrix_exact,
}
BAD_FIT_INPUTS = {
    "nan": (_with_entry(np.nan), [poset.chain(3)] * 2, NonFiniteInput, "must be finite"),
    "one-poset-too-few": (np.ones((3, 3)), [poset.chain(3)], ShapeMismatch,
                          "1 posets for an order-2 tensor"),
    "wrong-mode-size": (np.ones((3, 3)), [poset.chain(3), poset.chain(4)], ShapeMismatch,
                        "mode 2 has size 3, poset has 4 elements"),
    "order-0": (np.array(2.0), [], ShapeMismatch, "at least one mode"),
    "empty-mode": (np.ones((3, 0)), [poset.chain(3), EMPTY], ShapeMismatch, "mode 2 is empty"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_FIT_INPUTS))
@pytest.mark.parametrize("entry", sorted(FIT_ENTRIES))
def test_every_fit_runs_the_one_input_check(entry, case):
    # init_als_project checked neither: a NaN tensor gave a start with
    # scale 0, and a poset list that did not match died in a matmul
    T, posets, error, message = BAD_FIT_INPUTS[case]
    if entry == "rank2_matrix_exact" and case == "order-0":
        message = "expects a matrix"
    with pytest.raises(error, match=message):
        FIT_ENTRIES[entry](T, posets)


def _fitted(out):
    """The factorization a fit entry returns."""
    if isinstance(out, rank.Rank2Result):
        return out.factorization
    return out[0] if isinstance(out, tuple) else out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-12, 1e12])
@pytest.mark.parametrize("entry", sorted(FIT_ENTRIES))
def test_fits_scale_with_the_tensor(entry, c):
    # every fit runs on T / ||T||: the init's liveness floor and ridge gave
    # the scales of 1e-12 T a relative error near 1, and rank1_exponential
    # and rank2_matrix_exact ran on T as it came
    T = np.outer([1.0, 2.0, 4.0], [1.0, 1.5, 2.0, 3.0])
    posets = [poset.chain(3), poset.chain(4)]
    want = c * _fitted(FIT_ENTRIES[entry](T, posets)).reconstruct()
    got = _fitted(FIT_ENTRIES[entry](c * T, posets)).reconstruct()
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fit, scale", [
    (lambda T, Ps: factor.hals(T, Ps, FitConfig(rank=1)), 1e154),
    (lambda T, Ps: rank.rank1_gaussian(T, Ps), 1e154),
    (lambda T, Ps: rank.rank1_gaussian(T, Ps), 1e160),
] + [(FIT_ENTRIES[entry], c) for entry in sorted(FIT_ENTRIES) for c in (1e-200, 1e200)],
    ids=["hals", "rank1_gaussian-1e154", "rank1_gaussian-1e160"]
    + [f"{entry}-{c:g}" for entry in sorted(FIT_ENTRIES) for c in (1e-200, 1e200)])
def test_fits_reject_a_squared_norm_that_overflows(fit, scale):
    # hals raised a bare StopIteration and rank1_gaussian gave a nan scale;
    # a nonzero tensor whose squared norm underflows is refused as well:
    # hals gave every term scale 0, rank1_gaussian divided by zero, and
    # rank2_matrix_exact reported a fit of scale 0 (at 1e-200) or inf
    T = np.array([[1.0, 2.0], [3.0, 4.0]]) * scale
    with pytest.raises(NonFiniteInput, match="overflows" if scale > 1 else "underflows"):
        fit(T, [poset.chain(2), poset.chain(2)])


def test_fits_project_only_through_row_projectors(monkeypatch):
    # the rank-one loop of the revival and of rank1_gaussian called the
    # public project once per target: a copy, a finiteness pass and a
    # projector lookup each.  The fit is the batch test's revival case
    real, rank1_fit = isotonic.project, factor._rank1_nd_fit
    calls, revivals = [], []
    for mod in (isotonic, factor, rank):
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(factor, "_rank1_nd_fit",
                        lambda E, posets: revivals.append(1) or rank1_fit(E, posets))
    T = np.random.default_rng(1).standard_normal((3, 4, 3))
    posets = [poset.chain(3), poset.from_relation([0, 1, 2, 3], [(0, 1), (2, 3)]),
              poset.collider_to_top(3)]
    factor.hals(T, posets, FitConfig(rank=3, restarts=3, seed=1, max_sweeps=60))
    rank.rank1_gaussian(np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 3.0, 4.0]),
                        [poset.chain(3), posets[1]])
    assert revivals and not calls


@pytest.mark.parametrize("y", [[0.5, 1.0, 3.0, 2.0], [0.5, 1.0, 2.0, 3.0]],
                         ids=["outside", "inside"])
def test_fits_take_a_single_poset_for_a_vector(y):
    # a lone Poset was iterated over as if it were the list
    y, P = np.array(y), poset.chain(4)
    got, report = factor.hals(y, P, FitConfig(rank=1))
    want, want_report = factor.hals(y, [P], FitConfig(rank=1))
    assert report.objective_trace == want_report.objective_trace
    assert got.reconstruct().tobytes() == want.reconstruct().tobytes()
    got, want = rank.rank1_gaussian(y, P), rank.rank1_gaussian(y, [P])
    assert got.reconstruct().tobytes() == want.reconstruct().tobytes()
    assert np.allclose(got.reconstruct(), isotonic.project(y, P), atol=1e-12)


def test_marginal_solvers_answer_order_0():
    assert rank.rank1_poisson(np.array(2.0), []).lambdas.tolist() == [2.0]
    assert rank.rank1_multinomial(np.array(2.0), []).lambdas.tolist() == [1.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fit", [
    lambda T, Ps: factor.hals(T, Ps, FitConfig(rank=2, restarts=2)),
    lambda T, Ps: factor.init_als_project(T, 2, Ps, 0),
    lambda T, Ps: rank.rank1_gaussian(T, Ps),
    lambda T, Ps: rank.rank1_exponential(T, Ps),
    lambda T, Ps: rank.rank1_poisson(T, Ps),
    lambda T, Ps: rank.rank1_multinomial(T, Ps),
    lambda T, Ps: rank.rank2_matrix_exact(T, Ps),
], ids=["hals", "init_als_project", "rank1_gaussian", "rank1_exponential", "rank1_poisson",
        "rank1_multinomial", "rank2_matrix_exact"])
@pytest.mark.parametrize("empty_mode", [1, 2])
def test_fits_reject_an_empty_mode(fit, empty_mode):
    # these divided by zero, reshaped to nothing or reduced an empty array
    posets = [poset.chain(3), poset.chain(3)]
    posets[empty_mode - 1] = EMPTY
    T = np.zeros([P.p for P in posets])
    with pytest.raises(ShapeMismatch, match=f"mode {empty_mode} is empty"):
        fit(T, posets)
