import importlib.util
import itertools
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression
from scipy.optimize import nnls as scipy_nnls

from ndrank import cone, datasets, factor, isotonic, poset
from ndrank.cone import order_cone_vrep
from ndrank.errors import NDRankError, NonFiniteInput, UncertifiedSolution
from ndrank.isotonic import pava_chain, project

from helpers import (METAMORPHIC_KINDS, cone_halfspaces, metamorphic_poset, projection_oracle,
                     projector_kind, random_collider, random_dag, random_forest, random_poset,
                     reference_pava, relabel)

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


def _layouts(Y):
    """Y as a C-ordered, a Fortran-ordered and a column-sliced stack, each a
    fresh array the caller may overwrite, and the array the slice is cut
    from, whose other columns hold 7."""
    wide = np.full((len(Y), Y.shape[1] + 3), 7.0)
    wide[:, :Y.shape[1]] = Y
    return [Y.copy(), np.asfortranarray(Y), wide[:, :Y.shape[1]]], wide


@pytest.mark.parametrize("p", [1, 2, 3, 8, 30])
def test_pava_rows_is_bitwise_scipy(p):
    # a chain's row projector calls scipy's compiled kernel without its
    # wrapper; a scipy that changed the kernel's contract fails here
    rng = np.random.default_rng(90 + p)
    # a chain listed in order (a slice) and one whose labels are not
    shuffled = rng.permutation(p)
    if np.array_equal(shuffled, np.arange(p)):
        shuffled = shuffled[::-1]
    for order in (np.arange(p), shuffled):
        P = poset.from_relation(list(range(p)), list(zip(order[:-1], order[1:])))
        # one projector for every call, as in a fit
        proj = isotonic._row_projector(P)
        if p > 1:
            assert proj.func is isotonic._project_chain
            idx, = proj.args
            assert np.array_equal(np.arange(p)[idx], order)
            assert isinstance(idx, slice) == np.array_equal(order, np.arange(p))
        along = [rng.standard_normal(p),                            # random
                 rng.integers(-2, 3, size=p).astype(float),         # tied
                 np.sort(rng.integers(-2, 3, size=p)).astype(float),  # sorted, with ties
                 np.sort(rng.standard_normal(p)),                   # sorted
                 np.full(p, 0.25)]
        Y = np.empty((len(along), p))
        Y[:, order] = along  # the rows as they run along the chain
        for w in (None, rng.uniform(0.05, 20.0, size=p)):
            want = np.maximum(_scipy_pava_rows(Y, order, w), 0.0).tobytes()
            w0 = None if w is None else w.copy()
            assert isotonic._row_projector(P)(Y.copy(), w).tobytes() == want
            # pooled in place, or gathered and scattered back when the
            # stack is not C-contiguous or the chain is out of order
            stacks, wide = _layouts(Y)
            for Z in stacks:
                assert proj(Z, w) is Z
                assert np.ascontiguousarray(Z).tobytes() == want
            assert (wide[:, p:] == 7.0).all()  # the columns beside the slice
            assert w is None or w.tobytes() == w0.tobytes()
    for w in (None, rng.uniform(0.05, 20.0, size=p)):
        for y in Y:
            want = _scipy_pava_rows(y[None], slice(None), w)[0]
            assert pava_chain(y, w).tobytes() == want.tobytes()


@pytest.mark.parametrize("P", [
    poset.chain(6), poset.from_relation(list(range(6)), [(i + 1, i) for i in range(5)]),
    poset.trivial(6), poset.collider_to_top(6),
], ids=["chain", "permuted-chain", "clamp", "general"])
def test_project_and_pava_chain_leave_their_input_alone(P, monkeypatch):
    rng = np.random.default_rng(95)
    for _ in range(5):
        y = rng.standard_normal(6)
        y0 = y.copy()
        for w in (None, rng.uniform(0.05, 20.0, size=6)):
            project(y, P, w)
            assert y.tobytes() == y0.tobytes()
            pava_chain(y, w)
            assert y.tobytes() == y0.tobytes()
            # the row projector works in place and returns the very stack
            Y = np.array([y, -y])
            assert isotonic._row_projector(P)(Y, w) is Y
    # the ALS init's sign choice reads its stack after projecting it, so it
    # must hand the projector a copy: its starts are those of a projector
    # that leaves NaN behind in the stack it was given
    T = rng.standard_normal((6, 5, 3))
    posets = [P, poset.chain(5), poset.collider_to_top(3)]
    starts = factor.init_als_project(T, 2, posets, [0, 1, 2])
    real = isotonic._row_projector

    def poisoning(Q):
        proj = real(Q)

        def project_rows(Y, *args, **kwargs):
            V = proj(Y.copy(), *args, **kwargs)
            Y.fill(np.nan)
            return V

        return project_rows

    monkeypatch.setattr(factor, "_row_projector", poisoning)
    for got, want in zip(factor.init_als_project(T, 2, posets, [0, 1, 2]), starts):
        assert got.lambdas.tobytes() == want.lambdas.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.factors, want.factors))


def test_pava_rows_without_the_private_kernel(monkeypatch):
    # should scipy move its private PAVA module, a chain's row projector
    # reaches the same kernel through the public isotonic_regression
    monkeypatch.setitem(sys.modules, "scipy.optimize._pava_pybind", None)
    spec = importlib.util.spec_from_file_location("ndrank._isotonic_fallback", isotonic.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._pava is not isotonic._pava
    rng = np.random.default_rng(97)
    Y = np.vstack([rng.standard_normal((3, 9)), rng.integers(-2, 3, size=(3, 9))])
    for order in (np.arange(9), rng.permutation(9)):
        P = poset.from_relation(list(range(9)), list(zip(order[:-1], order[1:])))
        for w in (None, rng.uniform(0.05, 20.0, size=9)):
            want = isotonic._row_projector(P)(Y.copy(), w)
            for Z in _layouts(Y)[0]:
                fallback._row_projector(P)(Z, w)
                assert np.ascontiguousarray(Z).tobytes() == want.tobytes()
            assert fallback.pava_chain(Y[0], w).tobytes() == pava_chain(Y[0], w).tobytes()


def test_nnls_is_bitwise_scipy():
    # isotonic.nnls, the wrapper of scipy's compiled NNLS kernel wherever the
    # kernel loads, answers as scipy's nnls
    rng = np.random.default_rng(98)
    A = isotonic._halfspace_rows(COLLIDER)
    w = np.array([0.5, 2.0, 1.5])
    # the collider reproducer, unweighted and weighted as the row projector poses it
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


def test_import_leaves_scipy_and_hashlib_out():
    # the kernels are found from scipy's directories without running its
    # __init__.py, and hashlib is imported by the one function that uses it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, ndrank; print(sorted(m for m in ('scipy', 'scipy.optimize', 'hashlib')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if scipy.__version__ == "1.17.1":  # elsewhere the kernels may come through scipy.optimize
        assert proc.stdout == "[]\n"


@given(st.sampled_from(METAMORPHIC_KINDS), st.integers(0, 2 ** 32 - 1))
def test_projection_onto_a_relabelled_poset_is_permuted(kind, seed):
    # declaring the elements in another order permutes the projection: to
    # rounding on the general path, bitwise on a chain, which pools the
    # same values in the same order
    rng = np.random.default_rng(seed)
    P = metamorphic_poset(kind, rng)
    perm = rng.permutation(P.p)
    # tied integer targets half the time, else a scaled draw
    y = (rng.integers(-2, 3, size=P.p) * 1.0 if rng.random() < 0.5
         else rng.standard_normal(P.p) * 10.0 ** int(rng.integers(-3, 4)))
    want = project(y, P)
    got = project(y[np.argsort(perm)], relabel(P, perm))[perm]
    if kind == "chain":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(y).sum()


def test_project_frozen_examples():
    assert np.allclose(project([-1.0, 0.0, 2.0], poset.chain(3)), [0, 0, 2])
    col = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert np.allclose(project([2.0, 0.0, 1.0], col), [1.5, 0.0, 1.5])


def test_projection_is_identity_on_cone():
    rng = np.random.default_rng(1)
    for _ in range(30):
        P = random_poset(int(rng.integers(1, 7)), rng)
        g = order_cone_vrep(P)
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
        for g in order_cone_vrep(P):
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
    for g in order_cone_vrep(P):
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
        if projector_kind(P) != "general":
            continue
        gens = order_cone_vrep(P)
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


GRID = poset.product([poset.chain(3), poset.chain(3)])
# scipy's nnls answers 1e-12 times this target with a point whose facet
# values dip to -0.049 ||f||_1, under an absolute slack of 1e-9
GRID_Y = np.array([-1.7, 0.9, -0.3, -1.1, 0.2, -0.5, -0.3, 0.8, -0.9])


def assert_moreau(y, v, P, slack=1e-9):
    """v is the projection of y onto C(P) (Moreau: v in C(P), y - v in its
    polar cone, the two orthogonal), each test at ``slack`` relative to y."""
    ny = np.linalg.norm(y)
    assert (cone_halfspaces(P) @ v >= -slack * ny).all()
    assert (order_cone_vrep(P) @ (y - v) <= slack * ny).all()
    assert abs((y - v) @ v) <= slack * ny ** 2


@pytest.mark.parametrize("c", [2.0 ** 40, 2.0 ** -40, 1e-12], ids=["2^40", "2^-40", "1e-12"])
def test_projection_commutes_with_scaling(c):
    # every tolerance of the general path is relative to the target, so
    # project(c y) = c project(y) up to rounding, and passes the same checks
    assert np.allclose(project(GRID_Y, GRID), [0, 1 / 30, 1 / 30, 0, 1 / 30, 1 / 30, 0, 1 / 30,
                                               1 / 30], rtol=0, atol=1e-12)
    rng = np.random.default_rng(31)
    kinds = [lambda p: GRID, lambda p: random_collider(p, rng), lambda p: random_forest(p, rng)]
    cases = [(GRID, GRID_Y)]
    for i in range(45):
        P = kinds[i % 3](int(rng.integers(3, 8)))
        gens = order_cone_vrep(P)
        pick = rng.choice(len(gens), size=2)
        # a draw, a tied draw, and a near-cone sum of two generators
        cases += [(P, rng.standard_normal(P.p)), (P, rng.integers(-2, 3, size=P.p) * 1.0),
                  (P, rng.uniform(0.01, 2.0, size=2) @ gens[pick] - 0.5 * rng.random(P.p))]
    for P, y in cases:
        v = project(y, P)
        got = project(c * y, P)
        assert np.abs(got / c - v).max() <= 1e-12 * max(np.abs(v).max(), np.abs(y).max())
        assert_moreau(c * y, got, P)


@pytest.mark.filterwarnings("error")
def test_projection_near_the_top_of_the_float_range():
    # PAVA's pooled sums overflowed to [inf inf inf], the certificate's
    # slack 1e-9 ||y||_1^2 overflowed and passed points outside the cone,
    # and x . g overflowed under -W error::RuntimeWarning
    third = 1.7e308 / 3
    for v in (pava_chain([1.7e308, 1.7e308, -1.7e308]),
              project([1.7e308, 1.7e308, -1.7e308], poset.chain(3))):
        assert np.allclose(v, [third] * 3, rtol=1e-15, atol=0)
    for y, want in (([9e307, 9e307, 0.0], [6e307] * 3), ([1.5e308, -1.5e308, 1.0], [7.5e307, 0, 7.5e307]),
                    (np.array([3.0, -2.0, 1.0]) * 1e300, [2e300, 0, 2e300])):
        v = project(y, COLLIDER)
        assert np.allclose(v, want, rtol=1e-15, atol=0)
        assert cone.is_monotone(v, [COLLIDER]).member
    rng = np.random.default_rng(48)
    posets = [poset.chain(5), poset.collider_to_top(4), COLLIDER] + [random_dag(4, rng) for _ in range(3)]
    for P in posets:
        for _ in range(5):
            # a target whose largest entry lies in [1/2, 1), where a scaled-down
            # copy of it is projected: by a power of two the answer is bitwise
            # the unit-scale one scaled up
            y = rng.standard_normal(P.p)
            y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
            w = rng.uniform(0.5, 2.0, P.p)
            v, vw = project(y, P), project(y, P, w)
            for k in (401, 700, 1023):
                got = project(np.ldexp(y, k), P)
                assert got.tobytes() == np.ldexp(v, k).tobytes()
                # in the cone up to rounding of the target, whose |y_l| < 2^k
                assert np.isfinite(got).all() and cone.is_monotone(got, [P], tol=1e-9 * 2.0 ** k).member
                assert project(np.ldexp(y, k), P, w).tobytes() == np.ldexp(vw, k).tobytes()
            big = project(1e308 * y, P)
            assert np.abs(big - 1e308 * v).max() <= 1e-15 * 1e308 * np.abs(y).max()
            # up to 2^400 the target is projected as it is
            edge = y * 2.0 ** 400 / np.abs(y).max()
            want = isotonic._row_projector(P, table=False)(edge.copy()[None])[0]
            assert project(edge, P).tobytes() == want.tobytes()
    y = np.ldexp(rng.standard_normal(6), -3)
    w = rng.uniform(0.5, 2.0, 6)
    assert pava_chain(np.ldexp(y, 1020), w).tobytes() == np.ldexp(pava_chain(y, w), 1020).tobytes()


def test_fallback_when_scipy_hits_its_iteration_cap(monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(isotonic, "nnls", capped)
    rng = np.random.default_rng(21)
    for i in range(80):
        p = int(rng.integers(3, 10))
        P = random_collider(p, rng) if i % 2 == 0 else random_dag(p, rng, density=0.5)
        if projector_kind(P) != "general":
            continue
        if i % 4 < 2:
            y = rng.standard_normal(p) * rng.uniform(0.1, 10)
        else:  # tied values
            y = rng.integers(-2, 4, size=p).astype(float)
        w = rng.uniform(0.3, 3.0, size=p) if i % 3 == 0 else None
        v_oracle, _ = projection_oracle(y, P, w)
        v = project(y, P, w)
        assert np.allclose(v, v_oracle, rtol=0, atol=1e-9 * (1 + np.abs(y).sum()))


def _nnls_by_supports(E, f):
    """min_{x >= 0} ||E x - f|| by enumerating supports (exact for small n)."""
    best, best_x = np.inf, None
    for k in range(E.shape[1] + 1):
        for S in itertools.combinations(range(E.shape[1]), k):
            x = np.zeros(E.shape[1])
            if S:
                x[list(S)] = np.linalg.lstsq(E[:, S], f, rcond=None)[0]
                if x.min() < 0:
                    continue
            value = float(np.sum((E @ x - f) ** 2))
            if value < best:
                best, best_x = value, x
    return best_x


def test_lawson_hanson_backs_off_on_correlated_columns(monkeypatch):
    # strongly correlated columns make the active set shed variables; at
    # seed 1259 the back-off step left a crumb above zero, the loop ran out
    # of steps, and _nnls_certified raised UncertifiedSolution.  Nearly
    # dependent columns (cond(E) about 1e8 at noise 1e-7) failed the
    # certificate at seeds 214, 286, 380 and 483 while the fallback solved
    # on the Gram matrix E^T E, which squares E's condition number
    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(isotonic, "nnls", capped)
    near = [214, 286, 380, 483, *range(100)]
    cases = [(0.05, s) for s in range(1500)] + [(noise, s) for noise in (1e-7, 1e-6) for s in near]
    for noise, seed in cases:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, n + 5))
        E = rng.standard_normal((m, 1)) + noise * rng.standard_normal((m, n))
        f = rng.standard_normal(m)
        x, r = isotonic._nnls_certified(E, f)
        scale = 1.0 + np.abs(f).sum()
        assert isotonic._kkt_holds(E, x, r, 1e-9 * scale, scale), (noise, seed)
        want = _nnls_by_supports(E, f)
        assert np.abs(x - want).max() <= 1e-7 * (1 + np.abs(want).max()), (noise, seed)


def test_uncertified_answer_is_never_returned(monkeypatch):
    y = np.array([2.0, 0.0, 1.0])
    expected = np.array([1.5, 0.0, 1.5])
    # a dual that gives the feasible point [1, 0, 2] but breaks complementarity
    wrong = np.array([0.0, 0.0, 1.0, 0.0])
    monkeypatch.setattr(isotonic, "nnls", lambda E, f: (wrong.copy(), 0.0))
    v = project(y, COLLIDER)  # the Lawson-Hanson fallback repairs it
    assert np.allclose(v, expected, rtol=0, atol=1e-12)
    assert_kkt(y, v, COLLIDER)
    monkeypatch.setattr(isotonic, "_lawson_hanson", lambda E, f, tol: wrong.copy())
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
        gens = order_cone_vrep(P)
        rows = [rng.standard_normal(p) * rng.uniform(0.1, 5),
                rng.integers(-2, 4, size=p).astype(float)]  # tied values
        for _ in range(3):  # sums of generators, each entry moved by one ulp
            pick = rng.choice(len(gens), size=int(rng.integers(1, 3)))
            y = rng.uniform(0.01, 2.0, size=pick.size) @ gens[pick]
            rows.append(np.nextafter(y, np.where(rng.random(p) < 0.5, -np.inf, np.inf)))
        Y = np.array(rows)
        assert_rows_projected(Y, P, isotonic._row_projector(P)(Y.copy()))


def _fit_stacks(monkeypatch, T, posets, cfg):
    """Fit ``hals`` with every row projector spied on; returns the report
    and each stack the sweep projected, as (targets, poset, projection),
    the targets copied before the call, which projects them in place."""
    stacks = []

    def spying_projector(P, **kwargs):
        proj = isotonic._row_projector(P, **kwargs)

        def spy(Y, w=None, counts=None):
            Y0 = Y.copy()
            V = proj(Y, w, counts)
            stacks.append((Y0, P, V.copy()))
            return V

        return spy

    monkeypatch.setattr(factor, "_row_projector", spying_projector)
    _, report = factor.hals(T, posets, cfg)
    assert {P.p for _, P, _ in stacks} == {P.p for P in posets}
    return report, stacks


def test_row_projector_on_cchs_fit_stacks(monkeypatch):
    # the HALS sweep projects through the row projectors, not through
    # project: check the rows those calls returned against their targets
    T, posets = datasets.fixture("cchs")
    report, stacks = _fit_stacks(monkeypatch, T, posets,
                                 factor.FitConfig(rank=2, restarts=4, seed=0, max_sweeps=20))
    assert report.projection_rows["solved"] > 0
    for Y, P, V in stacks:
        assert_rows_projected(Y, P, V)


def test_row_projector_on_grid_fit_stacks(monkeypatch):
    # a 4x4 grid has dependent halfspace rows (the two paths round each
    # square) and sends many more rows per sweep to the certified solver
    # than the survey's orders, whose largest has 7 elements
    rng = np.random.default_rng(0)
    grid = poset.product([poset.chain(4), poset.chain(4)])
    T = np.add.outer(np.arange(16) % 4 + np.arange(16) // 4, np.arange(6)) / 12.0
    T += 0.3 * rng.uniform(size=T.shape)
    report, stacks = _fit_stacks(monkeypatch, T, [grid, poset.chain(6)],
                                 factor.FitConfig(rank=3, restarts=2, seed=0, max_sweeps=30))
    assert report.projection_rows["solved"] > 0
    for Y, P, V in stacks:
        assert_rows_projected(Y, P, V)


# posets whose row projectors go through a face table
TABLE_POSETS = {
    "cchs-age": datasets.fixture("cchs")[1][0],
    "collider-to-top-3": poset.collider_to_top(3),
    "collider-to-top-4": poset.collider_to_top(4),
    "collider-to-top-5": poset.collider_to_top(5),
    "grid-2x3": poset.product([poset.chain(2), poset.chain(3)]),
}


def _table_stack(P, rng, n):
    """n targets for P: random, integer-tied, and sums of two generators
    moved by up to 256 ulps per entry, so some lie just inside the in-cone
    exit's 16-ulp margin and some just outside."""
    gens = order_cone_vrep(P)
    rows = []
    for i in range(n):
        if i % 3 == 0:
            y = rng.standard_normal(P.p) * rng.uniform(0.1, 5)
        elif i % 3 == 1:
            y = rng.integers(-2, 3, size=P.p).astype(float)
        else:
            y = rng.uniform(0.01, 2.0, size=2) @ gens[rng.choice(len(gens), size=2)]
            y += rng.integers(-256, 257, size=P.p) * np.spacing(y)
        rows.append(y)
    return np.array(rows).reshape(n, P.p)


@given(kind=st.sampled_from([*TABLE_POSETS, "dag"]), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(0, 12))
def test_face_table_rows_match_project(kind, seed, n):
    # the table projector agrees with project's NNLS path to rounding,
    # returns only points that meet the certificate's conditions, keeps
    # the in-cone rows bitwise, and projects a stack as its rows alone
    rng = np.random.default_rng(seed)
    P = TABLE_POSETS.get(kind) or random_dag(int(rng.integers(3, 8)), rng)
    assume(projector_kind(P) == "general" and isotonic._face_table(P) is not None)
    proj = isotonic._row_projector(P)
    assert proj.func is isotonic._project_table
    A, gens = isotonic._halfspace_rows(P), order_cone_vrep(P)
    Y = _table_stack(P, rng, n)
    counts = dict.fromkeys(isotonic._ROW_PATHS, 0)
    V = proj(Y.copy(), counts=counts)
    inside = 0
    for y, v in zip(Y, V):
        s = sum(map(abs, y.tolist()))
        want = project(y, P)
        assert np.abs(v - want).max() <= 1e-12 * s
        # _kkt_holds' three conditions on v, with the same tau: A v >= -tau,
        # y - v = -A^T mu for some mu >= 0 (y - v in the polar cone, which
        # the generators test), and mu . A v = <v - y, v> within tau * s
        tau = 1e-9 * s
        assert (A @ v >= -tau).all()
        assert (gens @ (y - v) <= tau).all()
        assert abs((v - y) @ v) <= tau * s
        if (A @ y).min() >= -isotonic._ROUNDING * s:
            inside += 1
            assert v.tobytes() == want.tobytes() == np.maximum(y, 0.0).tobytes()
        assert proj(y[None].copy())[0].tobytes() == v.tobytes()
    assert counts == {"clamp": 0, "chain": 0, "in_cone": inside, "solved": n - inside}
    # weighted rows take project's path, row by row
    w = rng.uniform(0.3, 3.0, size=P.p)
    want = np.array([project(y, P, w) for y in Y])
    assert proj(Y.copy(), w).tobytes() == want.tobytes()


def test_a_row_that_fails_its_face_certificate_is_solved_by_nnls(monkeypatch):
    # halve the multipliers of the set the table picks for y, so the point
    # it gives leaves the cone: that row, and only that row, is solved
    # again by _nnls_certified
    y = np.array([2.0, 0.5, 1.0])       # pools 0 and 2: [1.5, 0.5, 1.5]
    y_other = np.array([-1.0, 2.0, 3.0])  # clamps 0: [0, 2, 3]
    y_in = np.array([0.5, 0.25, 1.0])     # in the cone
    W, upper = isotonic._face_table(COLLIDER)
    m = upper.shape[1]
    face = int((y @ W).reshape(m, -1)[:, 1:].min(axis=0).argmax()) + 1
    other = int((y_other @ W).reshape(m, -1)[:, 1:].min(axis=0).argmax()) + 1
    assert face != other
    bad = W.reshape(COLLIDER.p, m, -1).copy()
    bad[:, upper[face] > 0, face] *= 0.5
    monkeypatch.setattr(isotonic, "_face_table", lambda P: (bad.reshape(COLLIDER.p, -1), upper))
    solved, real = [], isotonic._nnls_certified

    def spy(E, f):
        solved.append(f.copy())
        return real(E, f)

    monkeypatch.setattr(isotonic, "_nnls_certified", spy)
    Y = np.array([y, y_other, y_in])
    counts = dict.fromkeys(isotonic._ROW_PATHS, 0)
    V = isotonic._row_projector(COLLIDER)(Y.copy(), counts=counts)
    assert len(solved) == 1 and solved[0].tobytes() == (-y).tobytes()
    assert counts["solved"] == 2 and counts["in_cone"] == 1
    for target, v in zip(Y, V):
        assert_moreau(target, v, COLLIDER)
    assert np.allclose(V, [[1.5, 0.5, 1.5], [0.0, 2.0, 3.0], y_in], rtol=0, atol=1e-12)


SHARED_POSETS = {
    "clamp": lambda: poset.trivial(4),
    "chain": lambda: poset.chain(5),
    "permuted-chain": lambda: poset.from_relation([0, 1, 2, 3], [(2, 0), (0, 3), (3, 1)]),
    "table": lambda: poset.collider_to_top(4),
    "cchs-year": lambda: datasets.fixture("cchs")[1][1],  # general, too wide for a table
}


@pytest.mark.parametrize("build", SHARED_POSETS.values(), ids=SHARED_POSETS)
def test_row_projector_is_one_cached_stateless_resolution(build):
    # equal posets built apart get one projector per table choice, and
    # every caller shares it: it binds read-only arrays and holds no state
    P, Q = build(), build()
    assert P is not Q
    kind = projector_kind(P)
    for kwargs in ({}, {"table": False}):
        proj = isotonic._row_projector(P, **kwargs)
        assert isotonic._row_projector(Q, **kwargs) is proj
        if kind == "clamp":
            assert proj is isotonic._clamp
            continue
        assert proj.func.__closure__ is None and not proj.keywords
        assert all(isinstance(a, (np.ndarray, slice, poset.Poset)) for a in proj.args)
        arrays = [a for a in proj.args if isinstance(a, np.ndarray)]
        assert not any(a.flags.writeable for a in arrays)
        if kind == "chain":
            assert proj.func is isotonic._project_chain
        elif kwargs or isotonic._face_table(P) is None:
            assert proj.func is isotonic._project_general and len(arrays) == 2
        else:  # A and E: the table is looked up per call, held by _face_table alone
            assert proj.func is isotonic._project_table and len(arrays) == 2
    assert isotonic._face_table.cache_info().maxsize == 32


def test_fits_on_two_threads_match_their_serial_runs():
    # fits on two threads share each poset's projector: one that held a
    # weight row or scratch would let one fit pool into another's rows
    rng = np.random.default_rng(49)
    grid = np.add.outer(np.add.outer(np.arange(12.0), np.arange(10.0)), np.arange(8.0)) / 30.0
    chains = (grid + 0.2 * rng.random(grid.shape), [poset.chain(12), poset.chain(10), poset.chain(8)])
    cchs = datasets.fixture("cchs")

    def fit(job):
        fact, report = factor.hals(*job, factor.FitConfig(rank=2, restarts=3, seed=0))
        return fact.to_json(), np.array(report.objective_trace).tobytes()

    jobs = [chains, chains, cchs, cchs]  # each pair runs at once on the two workers
    want = [fit(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(fit, jobs)) == want


@pytest.mark.filterwarnings("error")
def test_weighted_projection_near_the_top_of_the_float_range():
    # the PAVA kernel's pooled weight sums overflowed: [1e308, 1e308] pooled
    # [1, 0] to [0, 0]; weights scaled by a power of two project alike
    assert pava_chain([1.0, 0.0], [1e308, 1e308]).tolist() == [0.5, 0.5]
    assert project([1.0, 0.0], poset.chain(2), [1e308, 1e308]).tolist() == [0.5, 0.5]
    assert np.allclose(pava_chain([1.0, 0.0, 2.0], [1.7e308, 1e308, 1.0]), [17 / 27, 17 / 27, 2],
                       rtol=1e-15, atol=0)
    backwards = poset.from_relation([0, 1, 2], [(2, 1), (1, 0)])
    assert np.allclose(project([0.0, 1.0, 2.0], backwards, [1e308, 1e308, 1.0]), 0.5,
                       rtol=1e-15, atol=0)
    rng = np.random.default_rng(50)
    in_order = poset.chain(6)
    for P in (in_order, relabel(in_order, rng.permutation(6)), poset.collider_to_top(6)):
        for _ in range(5):
            y = rng.standard_normal(6)
            # max w in [1/2, 1), and 2^400 at most: used as they are
            w = rng.uniform(0.1, 1.0, 6)
            w = np.ldexp(w, -np.frexp(w.max())[1])
            top = w * 2.0 ** 400 / w.max()
            assert isotonic._check_weights(w, y) is w and isotonic._check_weights(top, y) is top
            want = project(y, P, w)
            for k in (401, 700, 1023):
                assert project(y, P, np.ldexp(w, k)).tobytes() == want.tobytes()
                if P is in_order:
                    assert pava_chain(y, np.ldexp(w, k)).tobytes() == pava_chain(y, w).tobytes()


def test_pava_chain_input_checks():
    with pytest.raises(ValueError, match="match the target length"):
        pava_chain([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        pava_chain([[1.0, 2.0]])
