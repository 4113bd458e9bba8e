import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.optimize import isotonic_regression
from scipy.optimize import nnls as scipy_nnls

from ndrank import datasets, factor, isotonic, poset
from ndrank.cone import order_cone_vrep
from ndrank.errors import NDRankError, NonFiniteInput, UncertifiedSolution
from ndrank.isotonic import pava_chain, project

from helpers import (projection_oracle, random_collider, random_dag, random_poset,
                     reference_pava)

ROOT = Path(__file__).resolve().parents[1]
KERNEL_PATH = [os.path.join(d, "optimize") for d in scipy.__path__]
KERNEL_MODULES = ("scipy.optimize._pava_pybind", "scipy.optimize._slsqplib")
COLLIDER = poset.from_relation([0, 1, 2], [(0, 2), (1, 2)])
# a tied target one ulp off the cone; scipy 1.17.1's nnls maps it to
# [0, 0, 0.265] and reports a residual of 0
TIED_Y = np.array([0.03885705410326065, 0.03885705410326065, 0.03885705410326064])


def test_pava_frozen_examples():
    assert np.allclose(pava_chain([3.0, 1.0, 2.0]), [2, 2, 2])
    y = np.array([0.5, 1.0, 1.0, 4.0])
    assert np.array_equal(pava_chain(y), y)
    assert np.allclose(pava_chain([2.0, 1.0], [3.0, 1.0]), [1.75, 1.75])


def test_pava_idempotent_and_block_means():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.standard_normal(rng.integers(1, 12))
        w = rng.uniform(0.2, 3.0, size=y.size)
        v = pava_chain(y, w)
        assert (np.diff(v) >= -1e-12).all()
        assert np.allclose(pava_chain(v, w), v)
        # total weighted mass is preserved by pooling
        assert np.isclose(w @ v, w @ y)


def test_pava_matches_reference():
    rng = np.random.default_rng(6)
    for i in range(300):
        n = int(rng.integers(1, 40))
        y = rng.standard_normal(n) if i % 3 else rng.integers(-2, 3, size=n).astype(float)
        if i % 5 == 0:  # ulp-nudged
            y = np.nextafter(y, np.where(rng.random(n) < 0.5, -np.inf, np.inf))
        w = rng.uniform(0.05, 20.0, size=n) if i % 2 else None
        v = pava_chain(y, w)
        assert (np.diff(v) >= 0).all()
        assert np.allclose(v, reference_pava(y, w), rtol=1e-14, atol=1e-14 * np.abs(y).max())


def _scipy_pava_rows(Y, idx, w):
    V = np.empty_like(Y)
    for v, y in zip(V, Y):
        v[idx] = isotonic_regression(y[idx], weights=None if w is None else w[idx]).x
    return V


@pytest.mark.parametrize("p", [1, 2, 3, 8, 30])
def test_pava_rows_is_bitwise_scipy(p):
    # the sweep's PAVA helper calls scipy's compiled kernel without its
    # wrapper; a scipy that changed the kernel's contract fails here
    rng = np.random.default_rng(90 + p)
    # a chain listed in order (a slice) and one whose labels are not
    shuffled = rng.permutation(p)
    if np.array_equal(shuffled, np.arange(p)):
        shuffled = shuffled[::-1]
    for order in (np.arange(p), shuffled):
        P = poset.from_relation(list(range(p)), list(zip(order[:-1], order[1:])))
        kind, idx = isotonic._projection_plan(P)[:2]
        if p > 1:
            assert kind == "chain" and np.array_equal(np.arange(p)[idx], order)
            assert isinstance(idx, slice) == np.array_equal(order, np.arange(p))
        else:
            idx = slice(None)
        along = [rng.standard_normal(p),                            # random
                 rng.integers(-2, 3, size=p).astype(float),         # tied
                 np.sort(rng.integers(-2, 3, size=p)).astype(float),  # sorted, with ties
                 np.sort(rng.standard_normal(p)),                   # sorted
                 np.full(p, 0.25)]
        Y = np.empty((len(along), p))
        Y[:, order] = along  # the rows as they run along the chain
        for w in (None, rng.uniform(0.05, 20.0, size=p)):
            Y0 = Y.copy()
            V = isotonic._pava_rows(Y, idx, w)
            assert V.tobytes() == _scipy_pava_rows(Y, idx, w).tobytes()
            assert Y.tobytes() == Y0.tobytes()  # the input is left alone
    for w in (None, rng.uniform(0.05, 20.0, size=p)):
        for y in Y:
            want = _scipy_pava_rows(y[None], slice(None), w)[0]
            assert pava_chain(y, w).tobytes() == want.tobytes()


def test_pool_rows_reads_no_scratch_and_reuses_it():
    # the sweep pools its targets in place with one weight row and one
    # kernel scratch per mode, kept for the whole fit; stale contents of
    # either must not change an answer
    rng = np.random.default_rng(96)
    p = 12
    wrow = rng.standard_normal(p)
    r = rng.integers(-10 ** 6, 10 ** 6, size=p + 1).astype(np.intp)
    for w in (1.0, rng.uniform(0.05, 20.0, size=p)):
        X = np.vstack([rng.standard_normal((4, p)), rng.integers(-2, 3, size=(4, p))])
        want = _scipy_pava_rows(X, slice(None), None if np.ndim(w) == 0 else w)
        isotonic._pool_rows(X, w, wrow, r)
        assert X.tobytes() == want.tobytes()


@pytest.mark.parametrize("P", [
    poset.chain(6), poset.from_relation(list(range(6)), [(i + 1, i) for i in range(5)]),
    poset.trivial(6), poset.collider_to_top(6),
], ids=["chain", "permuted-chain", "clamp", "general"])
def test_project_and_pava_chain_leave_their_input_alone(P):
    rng = np.random.default_rng(95)
    for _ in range(5):
        y = rng.standard_normal(6)
        y0 = y.copy()
        for w in (None, rng.uniform(0.05, 20.0, size=6)):
            project(y, P, w)
            assert y.tobytes() == y0.tobytes()
            pava_chain(y, w)
            assert y.tobytes() == y0.tobytes()


def test_pava_rows_without_the_private_kernel(monkeypatch):
    # should scipy move its private PAVA module, the helper reaches the same
    # kernel through the public isotonic_regression
    monkeypatch.setitem(sys.modules, "scipy.optimize._pava_pybind", None)
    spec = importlib.util.spec_from_file_location("ndrank._isotonic_fallback", isotonic.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._pava is not isotonic._pava
    rng = np.random.default_rng(97)
    Y = np.vstack([rng.standard_normal((3, 9)), rng.integers(-2, 3, size=(3, 9))])
    for idx in (slice(None), rng.permutation(9)):
        for w in (None, rng.uniform(0.05, 20.0, size=9)):
            want = isotonic._pava_rows(Y, idx, w)
            assert fallback._pava_rows(Y, idx, w).tobytes() == want.tobytes()


def test_nnls_is_bitwise_scipy():
    # isotonic.nnls, the wrapper of scipy's compiled NNLS kernel wherever the
    # kernel loads, answers as scipy's nnls
    rng = np.random.default_rng(98)
    A = isotonic._halfspace_rows(COLLIDER)
    w = np.array([0.5, 2.0, 1.5])
    # the collider reproducer, unweighted and weighted as _project_rows poses it
    problems = [(np.ascontiguousarray(A.T), -TIED_Y), ((A / np.sqrt(w)).T, -np.sqrt(w) * TIED_Y)]
    for m, n in ((4, 3), (12, 20), (20, 12), (9, 9)):
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        # C-ordered, F-ordered, and a strided view that is neither
        problems += [(A, b), (np.asfortranarray(A), b), (A[::-1, ::2], -b[::-1])]
    # resolved again, now that this module has imported scipy.optimize
    solvers = [isotonic.nnls, isotonic._resolve_kernels(KERNEL_PATH)[1]]
    if scipy.__version__ == "1.17.1":
        assert solvers[1] is not scipy_nnls
    for solve in solvers:
        for A, b in problems:
            x, rnorm = solve(A, b)
            want, rnorm_want = scipy_nnls(A, b)
            assert x.tobytes() == want.tobytes() and rnorm == rnorm_want


def test_nnls_kernel_is_called_as_scipy_calls_it():
    calls = []

    def kernel(A, b, maxiter):
        calls.append((A.flags.c_contiguous, A.dtype, b.dtype, maxiter))
        return np.zeros(A.shape[1]), 0.0, 3 if maxiter == 15 else 1

    nnls = isotonic._kernel_nnls(kernel)
    nnls(np.asfortranarray(np.ones((4, 3))), np.ones(4, dtype=np.float32))
    assert calls == [(True, np.float64, np.float64, 9)]
    with pytest.raises(RuntimeError, match="Maximum number of iterations"):
        nnls(np.ones((2, 5)), np.ones(2))


def _good_pava(x, w, r):
    x[:] = isotonic_regression(x, weights=w).x


def _good_nnls(A, b, maxiter):
    return (*scipy_nnls(A, b), 1)


@pytest.mark.parametrize("pava, nnls, falls_back", [
    (_good_pava, _good_nnls, False),
    (_good_pava, lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0, 1), True),  # a wrong answer
    (lambda x, w, r: None, _good_nnls, True),                                  # pools nothing
    (_good_pava, lambda A, b: _good_nnls(A, b, 0), True),                      # another signature
    (_good_pava, lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0, 3), True),  # at its cap
    (None, _good_nnls, True),                                                  # blocked
    ("missing", None, True),                                                   # not found
])
def test_kernels_fall_back_when_the_probe_fails(monkeypatch, tmp_path, pava, nnls, falls_back):
    # kernel modules stand in for scipy's, or there are none to find in an
    # empty directory; the public functions stand in for a sentinel
    public = (object(), object())
    monkeypatch.setattr(isotonic, "_public_kernels", lambda: public)
    if pava == "missing":
        for name in KERNEL_MODULES:
            monkeypatch.delitem(sys.modules, name, raising=False)
    else:
        monkeypatch.setitem(sys.modules, KERNEL_MODULES[0],
                            None if pava is None else types.SimpleNamespace(pava=pava))
        monkeypatch.setitem(sys.modules, KERNEL_MODULES[1], types.SimpleNamespace(nnls=nnls))
    kernels = isotonic._resolve_kernels([str(tmp_path)])
    assert (kernels is public) == falls_back
    if not falls_back:
        assert kernels[0] is _good_pava
        A, b = np.random.default_rng(96).standard_normal((2, 5, 4))
        assert kernels[1](A, b[:, 0])[0].tobytes() == scipy_nnls(A, b[:, 0])[0].tobytes()


def test_start_up_leaves_scipy_optimize_out(tmp_path):
    # the whole check, with its assertions, is a script that CI also runs
    # against the installed package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "startup_check.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(f"start-up ok: {ROOT / 'src' / 'ndrank'}")
    if scipy.__version__ == "1.17.1":
        assert proc.stdout.rstrip().endswith("loaded without scipy.optimize")


def test_project_frozen_examples():
    assert np.allclose(project([-1.0, 0.0, 2.0], poset.chain(3)), [0, 0, 2])
    col = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert np.allclose(project([2.0, 0.0, 1.0], col), [1.5, 0.0, 1.5])


def test_projection_is_identity_on_cone():
    rng = np.random.default_rng(1)
    for _ in range(30):
        P = random_poset(int(rng.integers(1, 7)), rng)
        g = order_cone_vrep(P).generators
        coeff = rng.uniform(0, 2, size=g.shape[0])
        y = coeff @ g
        assert np.allclose(project(y, P), y, atol=1e-9)


def test_project_validation():
    with pytest.raises(ValueError):
        project(np.ones(3), poset.chain(2))
    with pytest.raises(ValueError):
        project(np.ones(2), poset.chain(2), np.array([1.0, 0.0]))


def test_kkt_characterization():
    rng = np.random.default_rng(2)
    for _ in range(40):
        P = random_poset(int(rng.integers(1, 7)), rng)
        y = rng.standard_normal(P.p) * rng.uniform(0.5, 4)
        v = project(y, P)
        assert abs((y - v) @ v) < 1e-9 * (1 + y @ y)
        for g in order_cone_vrep(P).generators:
            assert (y - v) @ g <= 1e-9 * (1 + np.linalg.norm(y))


def test_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        P = random_poset(int(rng.integers(1, 7)), rng)
        y1 = rng.standard_normal(P.p)
        y2 = rng.standard_normal(P.p)
        lhs = np.linalg.norm(project(y1, P) - project(y2, P))
        assert lhs <= np.linalg.norm(y1 - y2) + 1e-12


def test_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(40):
        P = random_poset(int(rng.integers(1, 7)), rng)
        v = project(rng.standard_normal(P.p), P)
        assert np.allclose(project(v, P), v, atol=1e-12)


def test_matches_oracle_with_weights():
    rng = np.random.default_rng(5)
    for _ in range(60):
        P = random_poset(int(rng.integers(1, 7)), rng)
        y = rng.standard_normal(P.p) * rng.uniform(0.1, 5)
        w = rng.uniform(0.3, 3.0, size=P.p) if rng.random() < 0.5 else None
        v = project(y, P, w)
        _, obj_oracle = projection_oracle(y, P, w)
        ww = np.ones(P.p) if w is None else w
        obj = float(ww @ (y - v) ** 2)
        assert obj <= obj_oracle + 1e-8 * (1 + obj_oracle)


def test_scrambled_chain_uses_permutation():
    # a chain declared in shuffled label order must still project exactly
    P = poset.from_relation(["mid", "hi", "lo"], [("lo", "mid"), ("mid", "hi")])
    y = np.array([3.0, 1.0, 2.0])  # values for mid, hi, lo
    v = project(y, P)
    _, obj_oracle = projection_oracle(y, P)
    assert np.isclose(((y - v) ** 2).sum(), obj_oracle, atol=1e-9)
    assert v[2] <= v[0] + 1e-12 <= v[1] + 2e-12


def assert_kkt(y, v, P):
    """The conditions of test_kkt_characterization, for one target."""
    assert abs((y - v) @ v) < 1e-9 * (1 + y @ y)
    for g in order_cone_vrep(P).generators:
        assert (y - v) @ g <= 1e-9 * (1 + np.linalg.norm(y))


def test_collider_tied_target_reproducer():
    v = project(TIED_Y, COLLIDER)
    v_oracle, _ = projection_oracle(TIED_Y, COLLIDER)
    assert np.allclose(v, v_oracle, rtol=0, atol=1e-12)
    assert_kkt(TIED_Y, v, COLLIDER)


def test_tied_near_feasible_targets_match_oracle():
    # sums of 1-2 order-cone generators, each entry moved by one ulp
    rng = np.random.default_rng(20)
    n = 0
    for i in range(200):
        p = int(rng.integers(3, 9))
        P = random_collider(p, rng) if i % 2 == 0 else random_dag(p, rng)
        if isotonic._chain_order(P) is not None or not P.covers:
            continue
        gens = order_cone_vrep(P).generators
        for _ in range(3):
            pick = rng.choice(len(gens), size=int(rng.integers(1, 3)))
            y = rng.uniform(0.01, 2.0, size=pick.size) @ gens[pick]
            y = np.nextafter(y, np.where(rng.random(p) < 0.5, -np.inf, np.inf))
            w = rng.uniform(0.3, 3.0, size=p) if rng.random() < 0.5 else None
            v_oracle, _ = projection_oracle(y, P, w)
            assert np.allclose(project(y, P, w), v_oracle, rtol=0,
                               atol=1e-9 * (1 + np.abs(y).sum()))
            n += 1
    assert n > 400


def test_fallback_when_scipy_hits_its_iteration_cap(monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(isotonic, "nnls", capped)
    rng = np.random.default_rng(21)
    for i in range(80):
        p = int(rng.integers(3, 10))
        P = random_collider(p, rng) if i % 2 == 0 else random_dag(p, rng, density=0.5)
        if isotonic._chain_order(P) is not None or not P.covers:
            continue
        if i % 4 < 2:
            y = rng.standard_normal(p) * rng.uniform(0.1, 10)
        else:  # tied values
            y = rng.integers(-2, 4, size=p).astype(float)
        w = rng.uniform(0.3, 3.0, size=p) if i % 3 == 0 else None
        v_oracle, _ = projection_oracle(y, P, w)
        v = project(y, P, w)
        assert np.allclose(v, v_oracle, rtol=0, atol=1e-9 * (1 + np.abs(y).sum()))


def test_uncertified_answer_is_never_returned(monkeypatch):
    y = np.array([2.0, 0.0, 1.0])
    expected = np.array([1.5, 0.0, 1.5])
    # a dual that gives the feasible point [1, 0, 2] but breaks complementarity
    wrong = np.array([0.0, 0.0, 1.0, 0.0])
    monkeypatch.setattr(isotonic, "nnls", lambda E, f: (wrong.copy(), 0.0))
    v = project(y, COLLIDER)  # the Lawson-Hanson fallback repairs it
    assert np.allclose(v, expected, rtol=0, atol=1e-12)
    assert_kkt(y, v, COLLIDER)
    monkeypatch.setattr(isotonic, "_lawson_hanson", lambda G, b, tol: wrong.copy())
    with pytest.raises(UncertifiedSolution):
        project(y, COLLIDER)


def test_non_finite_targets_and_weights_are_rejected():
    for P in (poset.trivial(3), poset.chain(3), COLLIDER):
        for bad in (np.nan, np.inf, -np.inf):
            y = np.array([1.0, bad, 0.5])
            with pytest.raises(NonFiniteInput) as info:
                project(y, P)
            assert isinstance(info.value, NDRankError) and isinstance(info.value, ValueError)
            with pytest.raises(NonFiniteInput):
                project(np.ones(3), P, np.array([1.0, bad, 1.0]))
    with pytest.raises(NonFiniteInput):
        pava_chain([1.0, np.nan])
    with pytest.raises(NonFiniteInput):
        pava_chain([1.0, 2.0], [1.0, np.inf])


def assert_rows_projected(Y, P, V):
    assert V.shape == Y.shape
    for y, v in zip(Y, V):
        v_oracle, _ = projection_oracle(y, P)
        assert np.allclose(v, v_oracle, rtol=0, atol=1e-9 * (1 + np.abs(y).sum()))
        assert_kkt(y, v, P)


def test_row_projector_on_random_tied_and_nudged_stacks():
    rng = np.random.default_rng(22)
    def scrambled_chain(p):  # a chain whose elements are not listed in order
        order = rng.permutation(p)
        return poset.from_relation(list(range(p)), list(zip(order[:-1], order[1:])))

    kinds = [lambda p: poset.trivial(p), lambda p: poset.chain(p), scrambled_chain,
             lambda p: random_collider(p, rng), lambda p: random_dag(p, rng)]
    for i in range(50):
        p = int(rng.integers(3, 8))
        P = kinds[i % len(kinds)](p)
        gens = order_cone_vrep(P).generators
        rows = [rng.standard_normal(p) * rng.uniform(0.1, 5),
                rng.integers(-2, 4, size=p).astype(float)]  # tied values
        for _ in range(3):  # sums of generators, each entry moved by one ulp
            pick = rng.choice(len(gens), size=int(rng.integers(1, 3)))
            y = rng.uniform(0.01, 2.0, size=pick.size) @ gens[pick]
            rows.append(np.nextafter(y, np.where(rng.random(p) < 0.5, -np.inf, np.inf)))
        Y = np.array(rows)
        assert_rows_projected(Y, P, isotonic._project_rows(Y, P))


def test_row_projector_on_cchs_fit_stacks(monkeypatch):
    # the HALS sweep projects through the row projector, not through project,
    # and starts every general-poset row from its support of the last sweep:
    # check the rows that warm-started call returned
    stacks = []

    def spy(Y, P, support=None, counts=None):
        V = isotonic._project_rows(Y, P, support=support, counts=counts)
        stacks.append((Y.copy(), P, V.copy()))
        return V

    monkeypatch.setattr(factor, "_project_rows", spy)
    T, posets = datasets.fixture("cchs")
    _, report = factor.hals(T, posets, factor.FitConfig(rank=2, restarts=4, seed=0,
                                                        max_sweeps=20))
    assert report.projection_rows["warm"] > 0
    assert {P.p for _, P, _ in stacks} == {P.p for P in posets}
    for Y, P, V in stacks:
        assert_rows_projected(Y, P, V)


DIAMOND = poset.from_relation([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])


def _one_row(y, P, support):
    """Project y alone from ``support`` (updated in place); return the point
    and the path the row took."""
    counts = dict.fromkeys(isotonic._ROW_PATHS, 0)
    v = isotonic._project_rows(y[None], P, support=support[None], counts=counts)[0]
    return v, next(path for path, n in counts.items() if n)


def test_warm_support_gives_the_certified_projection():
    # every support the sweep could hold, right, wrong or stale, on posets
    # whose cover rows may be dependent (the diamond): the answer is the cold
    # projection, and the support written back is the positive set of the
    # multiplier that certified it
    rng = np.random.default_rng(23)
    posets = [DIAMOND, COLLIDER, poset.collider_to_top(5)]
    while len(posets) < 12:
        P = random_dag(int(rng.integers(4, 9)), rng, density=0.45)
        if isotonic._projection_plan(P)[0] == "general":
            posets.append(P)
    paths = []
    for P in posets:
        A = isotonic._halfspace_rows(P)
        m = A.shape[0]
        gens = order_cone_vrep(P).generators
        targets = []
        for _ in range(4):
            targets.append(rng.standard_normal(P.p) * rng.uniform(0.1, 5))
            targets.append(rng.integers(-2, 4, size=P.p).astype(float))  # tied
            # sums of generators, each entry moved by one ulp
            pick = rng.choice(len(gens), size=int(rng.integers(1, 3)))
            y = rng.uniform(0.01, 2.0, size=pick.size) @ gens[pick]
            targets.append(np.nextafter(y, np.where(rng.random(P.p) < 0.5, -np.inf, np.inf)))
        for y, neighbour in zip(targets, targets[1:] + targets[:1]):
            scale = 1.0 + np.abs(y).sum()
            cold = isotonic._project_rows(y[None], P)[0]
            v_oracle, _ = projection_oracle(y, P)
            correct = np.zeros(m, dtype=bool)
            _one_row(y, P, correct)
            stale = np.zeros(m, dtype=bool)
            _one_row(neighbour, P, stale)
            for support in (np.zeros(m, dtype=bool), np.ones(m, dtype=bool),
                            rng.random(m) < 0.5, stale, correct):
                guess = support.copy()
                v, path = _one_row(y, P, support)
                paths.append(path)
                assert np.allclose(v, cold, rtol=0, atol=1e-12 * scale)
                assert np.allclose(v, v_oracle, rtol=0, atol=1e-9 * scale)
                assert_kkt(y, v, P)
                if path == "in_cone":
                    assert not support.any()
                    continue
                if path == "warm":
                    S, K = isotonic._face_solver(P, guess.tobytes())
                    mu = np.zeros(m)
                    mu[S] = np.maximum(K @ y, 0.0)
                else:
                    mu, _ = isotonic._nnls_certified(A.T, -y)
                assert np.array_equal(support, mu > 0.0)
                # a certified point is a fixed point of its own support
                if isotonic._face_solver(P, support.tobytes()) is not None:
                    again, again_path = _one_row(y, P, support.copy())
                    assert again_path == "warm"
                    assert np.allclose(again, v, rtol=0, atol=1e-12 * scale)
    # all three paths ran, and supports the diamond cannot use were met
    assert {"in_cone", "warm", "solved"} <= set(paths)
    assert isotonic._face_solver(DIAMOND, np.array([0, 1, 1, 1, 1], dtype=bool).tobytes()) is None
