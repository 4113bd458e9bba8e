import itertools
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndrank import cli, cone, datasets, poset, rank, tensor
from ndrank.errors import (
    DegenerateCone,
    NonFiniteInput,
    ShapeMismatch,
    TooLarge,
)

from helpers import (METAMORPHIC_KINDS, metamorphic_poset, random_dag, random_forest,
                     random_poset, reference_connected_upsets, reference_double_description,
                     reference_finite_rank_normals, reference_grid_members,
                     reference_is_monotone, reference_membership, reference_sample_members,
                     relabel)

COLLIDER = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
COLLIDER_4 = poset.collider_to_top(4)
SELENIUM = np.array([
    [2.0, 27.4, 26.7, 68.0],
    [1.4, 19.6, 41.5, 40.3],
    [2.9, 24.4, 75.0, 96.5],
])
SELENIUM_POSETS = [poset.from_relation(["I", "II", "III"], [("I", "III"), ("II", "III")]),
                   poset.chain(4)]

BOX_MATRICES = [
    [[1, 1, 1], [1, 1, 1]],
    [[0, 1, 1], [0, 1, 1]],
    [[0, 0, 0], [1, 1, 1]],
    [[0, 0, 0], [0, 1, 1]],
    [[0, 0, 1], [0, 0, 1]],
    [[0, 0, 0], [0, 0, 1]],
]
STAIRCASE_ONLY = [
    [[0, 1, 1], [1, 1, 1]],
    [[0, 0, 1], [1, 1, 1]],
    [[0, 0, 1], [0, 1, 1]],
]


def _as_set(mats):
    return {tuple(np.asarray(m, dtype=int).ravel()) for m in mats}


def test_order_cone_vrep_chain():
    assert _as_set(cone.order_cone_vrep(poset.chain(3))) == {(0, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_order_cone_vrep_collider_hypercube_sides():
    assert _as_set(cone.order_cone_vrep(COLLIDER)) == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_order_cone_vrep_grid_staircases():
    P = poset.product([poset.chain(2), poset.chain(3)])
    assert _as_set(cone.order_cone_vrep(P)) == _as_set(BOX_MATRICES) | _as_set(STAIRCASE_ONLY)


def test_order_cone_vrep_unpacks_the_upset_walks_masks(monkeypatch):
    # the generators are the walk's bitmasks, unpacked by the unpacker of
    # Poset.leq in connected_upsets' order: no upset is built as a set
    def refuse(P):
        raise AssertionError("the connected upsets were built as sets")

    monkeypatch.setattr(poset, "connected_upsets", refuse)
    monkeypatch.setattr(cone, "connected_upsets", refuse, raising=False)
    real_unpack, unpacked = poset._unpack, []

    def unpack(masks, p):
        unpacked.append((len(masks), p))
        return real_unpack(masks, p)

    monkeypatch.setattr(poset, "_unpack", unpack)
    rng = np.random.default_rng(62)
    posets = [poset.chain(12), poset.trivial(8), COLLIDER, poset.collider_to_top(9),
              poset.product([poset.chain(3), poset.chain(4)]), poset.product([COLLIDER, COLLIDER]),
              poset.from_relation(range(5), [(3, 1), (4, 2)])]
    for _ in range(30):  # elements declared out of order
        D = random_dag(int(rng.integers(1, 10)), rng, density=0.4)
        perm = rng.permutation(D.p).tolist()
        posets.append(poset.from_relation(range(D.p), [(perm[a], perm[b]) for a, b in D.covers]))
    posets += [random_poset(int(rng.integers(1, 10)), rng) for _ in range(20)]
    for P in posets:
        ups = reference_connected_upsets(P)
        want = np.zeros((len(ups), P.p))
        for i, U in enumerate(ups):
            want[i, sorted(U)] = 1.0
        got = cone.order_cone_vrep(P)  # the matrix itself, no record around it
        assert type(got) is np.ndarray and got.dtype == float
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert unpacked[-1] == (len(ups), P.p)
        # a fresh poset's order matrix, unpacked once, against the closure of its covers
        reach = np.eye(P.p, dtype=int)
        for a, b in P.covers:
            reach[a, b] = 1
        for _ in range(P.p):
            reach = np.minimum(reach @ reach, 1)
        unpacked.clear()
        assert np.array_equal(poset.Poset(P.labels, P.covers).leq, reach.astype(bool))
        assert unpacked == [(P.p, P.p)]


def test_finite_rank_vrep_boxes():
    gens = cone.finite_rank_vrep([poset.chain(2), poset.chain(3)])
    assert _as_set(gens) == _as_set(BOX_MATRICES)


def test_finite_rank_vrep_counts():
    assert len(cone.finite_rank_vrep([poset.trivial(2), poset.trivial(2)])) == 4
    assert len(cone.finite_rank_vrep([COLLIDER, COLLIDER])) == 16


def test_is_monotone_selenium():
    cert = cone.is_monotone(SELENIUM, SELENIUM_POSETS)
    assert not cert.member
    labels = [v.label for v in cert.violated]
    assert "t[1,2] <= t[3,2]" in labels


def test_is_monotone_members():
    u = np.array([0.0, 1.0, 2.0])
    v = np.array([1.0, 1.0, 3.0, 4.0])
    assert cone.is_monotone(np.outer(u, v), [poset.chain(3), poset.chain(4)]).member
    assert cone.is_monotone(np.zeros((2, 2)), [poset.chain(2), poset.chain(2)]).member


def test_is_monotone_accepts_flat_product_poset():
    P = poset.product([poset.chain(2), poset.chain(2)])
    T = np.array([[0.0, 1.0], [1.0, 2.0]])
    assert cone.is_monotone(T, P).member
    with pytest.raises(ShapeMismatch):
        cone.is_monotone(np.zeros((2, 3)), P)


def test_is_monotone_at_tol_0_is_exact():
    # fl(b - a) has the sign of b - a: with gradual underflow a float
    # difference is 0 only when a == b, and rounding keeps its sign.  So at
    # tol=0 every verdict is the exact one, on adjacent floats, subnormal
    # pairs and signed zeros alike.
    sub = np.nextafter(0.0, 1.0)
    normal = np.finfo(float).tiny
    values = [0.0, -0.0, sub, -sub, 2 * sub, 3 * sub, 1e-310, np.nextafter(1e-310, 1.0),
              normal, np.nextafter(normal, 0.0), 1.0, np.nextafter(1.0, 0.0),
              np.nextafter(1.0, 2.0), -1.0, 1e300, np.nextafter(1e300, np.inf)]
    for a in values:
        for b in values:
            cert = cone.is_monotone(np.array([a, b]), [poset.chain(2)], tol=0)
            assert cert.member == (a >= 0 and b >= a), (a, b)


def test_finite_rank_hrep_two_chains():
    h = cone.finite_rank_hrep([poset.chain(2), poset.chain(3)])
    assert len(h) == 6
    rows = {tuple(r) for r in h}
    assert (1, 0, 0, 0, 0, 0) in rows                 # nonnegativity at the minimum
    assert (1, -1, 0, -1, 1, 0) in rows               # second difference
    assert (-1, 1, 0, 0, 0, 0) in rows                # first difference along columns


def test_finite_rank_hrep_selenium_values():
    h = cone.finite_rank_hrep(SELENIUM_POSETS)
    vals = h @ SELENIUM.ravel()
    assert vals.min() < -1e-9
    expected = np.zeros((3, 4))
    expected[0, 0], expected[0, 1], expected[2, 0], expected[2, 1] = 1, -1, -1, 1
    idx = next(i for i, r in enumerate(h) if np.array_equal(r, expected.ravel()))
    assert np.isclose(vals[idx], -3.9)


def test_finite_rank_hrep_nonneg_on_generators():
    posets = [poset.chain(3), poset.from_relation("xyz", [("x", "z"), ("y", "z")])]
    h = cone.finite_rank_hrep(posets)
    for g in cone.finite_rank_vrep(posets):
        assert (h @ g.ravel() >= 0).all()


def test_finite_rank_hrep_collider_pair_is_double_description():
    # two colliders: the plan's one map, the double-description facets, in
    # a fresh array
    posets = [poset.collider_to_top(3), poset.collider_to_top(3)]
    h = cone.finite_rank_hrep(posets)
    dd = cone.double_description(cone.finite_rank_vrep(posets))
    method, (normals,), _ = cone._finite_rank_plan(tuple(posets))
    assert method == "double-description" and np.array_equal(normals, dd)
    assert h.shape == dd.shape == (24, 9)
    assert h.dtype == dd.dtype and np.array_equal(h, dd)
    h[0, 0] = 7
    assert cone._finite_rank_plan(tuple(posets))[1][0][0, 0] != 7


def _outer_product_vrep(posets):
    """The finite-rank generators as one outer product per combination of
    per-mode generators, last mode fastest."""
    gens = [cone.order_cone_vrep(P) for P in posets]
    return [tensor.outer([G[i] for G, i in zip(gens, combo)])
            for combo in itertools.product(*(range(len(G)) for G in gens))]


def test_finite_rank_vrep_is_the_outer_product_list():
    rng = np.random.default_rng(48)
    forest = random_forest(5, rng)
    for posets in ([poset.chain(2), poset.chain(3)], [forest, poset.chain(3)],
                   [COLLIDER, COLLIDER], [COLLIDER, forest, poset.trivial(2)],
                   [poset.chain(4)], [forest]):
        got, want = cone.finite_rank_vrep(posets), _outer_product_vrep(posets)
        # one array, generator i at got[i], stacked from the list it replaced
        assert type(got) is np.ndarray and got.shape == (len(want),) + tuple(P.p for P in posets)
        assert got.dtype == want[0].dtype and got.tobytes() == np.array(want).tobytes()


def test_finite_rank_reps_at_order_0_and_for_one_poset():
    # as membership_finite_rank reads them: no posets is an order-0 tensor,
    # whose one facet is t >= 0, and a single Poset is a vector's list
    h = cone.finite_rank_hrep([])
    assert h.tolist() == [[1]] and h.dtype == int
    vrep = cone.finite_rank_vrep([])
    assert vrep.tolist() == [1.0] and vrep.dtype == float
    for P in (poset.chain(3), COLLIDER, random_forest(5, np.random.default_rng(49))):
        one, listed = cone.finite_rank_hrep(P), cone.finite_rank_hrep([P])
        assert np.array_equal(one, listed) and one.shape[1] == P.p
        got, want = cone.finite_rank_vrep(P), cone.finite_rank_vrep([P])
        assert got.shape == want.shape == (len(want), P.p) and np.array_equal(got, want)


def test_membership_selenium():
    cert = cone.membership_finite_rank(SELENIUM, SELENIUM_POSETS)
    assert not cert.member
    assert len(cert.violated) >= 2
    assert cert.method == "halfspace"


def test_membership_staircase_not_finite_rank():
    stair = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    posets = [poset.chain(2), poset.chain(3)]
    assert cone.is_monotone(stair, posets).member
    cert = cone.membership_finite_rank(stair, posets)
    assert not cert.member and cert.method == "tree-differencing"


def test_membership_cdf_of_product_pmf():
    rng = np.random.default_rng(0)
    posets = [poset.chain(3), poset.chain(4)]
    q1 = rng.dirichlet(np.ones(3))
    q2 = rng.dirichlet(np.ones(4))
    R = np.outer(q1, q2)
    M = [tensor.mobius_matrix(P) for P in posets]
    cdf = tensor.apply_kronecker(M, R)
    assert cone.membership_finite_rank(cdf, posets).member
    assert np.allclose(cdf, np.outer(np.cumsum(q1), np.cumsum(q2)))


def test_membership_double_description_path():
    T = np.array([[2.0, 1.0, 2.0], [1.0, 2.0, 2.0], [2.0, 2.0, 4.0]])
    cert = cone.membership_finite_rank(T, [COLLIDER, COLLIDER])
    assert cert.member and cert.method == "double-description"


def _certificate_key(cert):
    return (cert.member, cert.method, cert.tol, cert.min_value,
            [(v.label, v.normal.dtype, v.normal.tobytes(), v.value) for v in cert.violated])


def test_double_description_facets_are_computed_once_per_poset_tuple(monkeypatch):
    posets = (poset.collider_to_top(3), poset.collider_to_top(4))
    dd = cone.double_description
    fresh = dd(cone.finite_rank_vrep(posets))
    T = np.random.default_rng(47).standard_normal((3, 4))
    # the certificate with every facet computed afresh, as before the cache
    with monkeypatch.context() as m:
        m.setattr(cone, "_finite_rank_plan", cone._finite_rank_plan.__wrapped__)
        want = _certificate_key(cone.membership_finite_rank(T, list(posets)))
    assert want[4], "the check needs violated facets"

    calls = []
    monkeypatch.setattr(cone, "double_description", lambda gens: calls.append(1) or dd(gens))
    cone._finite_rank_plan.cache_clear()
    method, (normals,), _ = cone._finite_rank_plan(posets)
    assert method == "double-description" and np.array_equal(normals, fresh)
    assert not normals.flags.writeable
    with pytest.raises(ValueError):
        normals[0, 0] = 7
    for tup in (list(posets), posets, [poset.collider_to_top(3), poset.collider_to_top(4)]):
        cert = cone.membership_finite_rank(T, tup)
        assert _certificate_key(cert) == want
        cert.violated[0].normal[:] = 99.0  # a caller's copy, not the cached facet
    assert cone._finite_rank_plan(posets)[1][0] is normals
    # the H-rep is a fresh writable copy, as double description returns it
    hrep = cone.finite_rank_hrep(posets)
    assert hrep.dtype == fresh.dtype and np.array_equal(hrep, fresh)
    assert hrep.shape == fresh.shape and hrep.flags.writeable
    hrep[0, 0] = 7
    assert cone._finite_rank_plan(posets)[1][0][0, 0] != 7
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_rejects_non_finite(bad):
    # one poset tuple per dispatch path: differencing, halfspace, double description
    for posets in ([poset.chain(3), poset.chain(3)], [COLLIDER, poset.chain(3)],
                   [COLLIDER, COLLIDER]):
        T = np.ones((3, 3))
        T[0, 0] = bad
        with pytest.raises(NonFiniteInput):
            cone.membership_finite_rank(T, posets)
        with pytest.raises(NonFiniteInput):
            cone.is_monotone(T, posets)
    with pytest.raises(NonFiniteInput):
        cone.is_monotone(np.array([0.0, bad]), poset.chain(2))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, True])
def test_checks_reject_a_bad_tol(tol):
    # True ran as the slack 1.0; a nan or infinite slack certified [[1,-5],[0,2]] as a member, and
    # tol=-1 reported the satisfied t[2,1] >= 0 as violated; a nan or
    # negative tol failed an exact tri-factorization, an infinite one passed any
    T = np.array([[1.0, -5.0], [0.0, 2.0]])
    chains = [poset.chain(2), poset.chain(2)]
    with pytest.raises(ValueError, match="tol"):
        cone.is_monotone(T, chains, tol)
    for posets in (chains, [COLLIDER, COLLIDER]):
        with pytest.raises(ValueError, match="tol"):
            cone.membership_finite_rank(np.ones((len(posets[0]),) * 2), posets, tol)
    with pytest.raises(ValueError, match="tol"):
        rank.tri_factorization_verify(np.zeros((3, 3)), np.zeros((4, 4)), [COLLIDER, COLLIDER],
                                        tol)
    cert = cone.is_monotone(T, chains, 0.0)
    assert [v.label for v in cert.violated] == ["t[1,2] >= 0", "t[1,1] <= t[1,2]",
                                                 "t[1,1] <= t[2,1]"]


# an order-0 tensor (no posets) is a member iff t >= -tol; -1e-9 lies far
# outside the default slack 1e-9 * 1e-9, relative to |t| as it is at t = -1,
# and the bounds of tol=0.5
@pytest.mark.parametrize("x, tol, member", [
    (2.0, None, True), (0.0, None, True), (-1e-9, None, False), (-1.0, None, False),
    (-0.5, 0.5, True), (np.nextafter(-0.5, -1.0), 0.5, False)])
def test_order_0_tensor_checks(x, tol, member):
    # is_monotone raised numpy's ValueError on every order-0 tensor, and
    # membership_finite_rank on every non-member
    for check in (cone.is_monotone, cone.membership_finite_rank):
        cert = check(np.float64(x), [], tol)
        assert cert.member == member and cert.min_value == x
        assert [(v.label, v.value, v.normal.tolist()) for v in cert.violated] == (
            [] if member else [("t[] >= 0", x, [1.0])])


@pytest.mark.parametrize("c", [2.0 ** 40, 2.0 ** -40, 1e-12], ids=["2^40", "2^-40", "1e-12"])
def test_verdicts_do_not_move_with_scale(c):
    # the default slack is relative to max |T|: below |T| = 1 it was
    # absolute, and c * [[0, 1], [1, 1]] passed as a member at c = 1e-9
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    for scale in (1.0, 1e-9, c):
        assert not cone.membership_finite_rank(scale * X, [poset.chain(2)] * 2).member
    assert not cone.is_monotone(c * np.array([-1.0, 0.0]), poset.chain(2)).member
    rng = np.random.default_rng(50)
    forest = random_forest(4, rng)
    tuples = ([poset.chain(3), poset.chain(3)], [COLLIDER, poset.chain(2)],
              [COLLIDER, COLLIDER], [forest, poset.chain(3)])
    verdicts = set()
    for posets in tuples:
        gens = cone.finite_rank_vrep(posets)
        for _ in range(20):
            # integer entries, so ties, and facet values at 0 or at least 1
            # from it: a sum of generators, the same with one entry moved
            # by one, and a draw
            member = sum(k * g for k, g in zip(rng.integers(0, 3, size=len(gens)), gens))
            moved = member.copy()
            moved.flat[rng.integers(moved.size)] += rng.choice([-1.0, 1.0])
            for T in (member, moved, rng.integers(-1, 3, size=member.shape) * 1.0):
                for check in (cone.is_monotone, cone.membership_finite_rank):
                    want, got = check(T, posets), check(c * T, posets)
                    assert got.member == want.member
                    assert [v.label for v in got.violated] == [v.label for v in want.violated]
                    verdicts.add(want.member)
    assert verdicts == {True, False}


def _metamorphic_problem(kind, seed):
    """A poset of ``kind`` and a second one, with at most DD_MAX_DIM entries
    when both have colliders, and an integer tensor over them, so that every
    facet value is exact: a sum of generators, the same with one entry moved
    by one, or a draw.  Returns the generator for further draws too."""
    rng = np.random.default_rng(seed)
    P = metamorphic_poset(kind, rng)
    Q = metamorphic_poset(METAMORPHIC_KINDS[int(rng.integers(len(METAMORPHIC_KINDS)))], rng)
    if poset.has_collider(P) and poset.has_collider(Q) and P.p * Q.p > cone.DD_MAX_DIM:
        Q = poset.chain(Q.p)
    gens = cone.finite_rank_vrep([P, Q])
    T = sum(k * g for k, g in zip(rng.integers(0, 3, size=len(gens)), gens))
    draw = int(rng.integers(3))
    if draw == 1:
        T.flat[rng.integers(T.size)] += rng.choice([-1.0, 1.0])
    elif draw == 2:
        T = rng.integers(-1, 3, size=T.shape) * 1.0
    return rng, [P, Q], T


def _violations(cert, index=lambda f: f):
    """A certificate's violations as a sorted list of values and sparse
    normals, each support mapped through ``index`` and sorted with its
    coefficients."""
    return sorted((v.value, sorted(zip(map(index, v.support), v.coeffs))) for v in cert.violated)


@given(st.sampled_from(METAMORPHIC_KINDS), st.integers(0, 2 ** 32 - 1))
def test_relabelling_a_mode_permutes_the_certificates(kind, seed):
    # declaring one mode's elements in another order, with the tensor's
    # slices moved along, keeps every verdict and moves every violation
    rng, posets, T = _metamorphic_problem(kind, seed)
    j = int(rng.integers(2))
    perm = rng.permutation(posets[j].p)
    moved = list(posets)
    moved[j] = relabel(posets[j], perm)

    def index(flat):
        idx = list(np.unravel_index(flat, T.shape))
        idx[j] = perm[idx[j]]
        return int(np.ravel_multi_index(idx, T.shape))

    for check in (cone.is_monotone, cone.membership_finite_rank):
        want, got = check(T, posets), check(np.take(T, np.argsort(perm), axis=j), moved)
        assert (got.member, got.method, got.min_value) == (want.member, want.method, want.min_value)
        assert _violations(got) == _violations(want, index)


@given(st.sampled_from(METAMORPHIC_KINDS), st.integers(0, 2 ** 32 - 1))
def test_a_trivial_mode_keeps_the_certificates(kind, seed):
    _, posets, T = _metamorphic_problem(kind, seed)
    for check in (cone.is_monotone, cone.membership_finite_rank):
        want, got = check(T, posets), check(T[..., None], posets + [poset.trivial(1)])
        assert (got.member, got.method, got.min_value) == (want.member, want.method, want.min_value)


@given(st.sampled_from(["tree-differencing", "halfspace", "double-description"]),
       st.integers(0, 2 ** 32 - 1))
def test_transposing_two_modes_moves_the_certificates_and_facets(method, seed):
    # swapping two modes of T and of its posets keeps every verdict on an
    # integer tensor, so every facet value is exact, and moves every
    # violation and every facet through the swap
    rng = np.random.default_rng(seed)
    forests = [random_forest(int(rng.integers(1, 4)), rng) for _ in range(3)]
    posets = {"tree-differencing": forests, "halfspace": [COLLIDER] + forests[:2],
              "double-description": [COLLIDER, [COLLIDER, COLLIDER_4][rng.integers(2)],
                                     poset.chain(1)]}[method]
    posets = [posets[j] for j in rng.permutation(3)]
    gens = cone.finite_rank_vrep(posets)
    T = sum(k * g for k, g in zip(rng.integers(0, 3, size=len(gens)), gens))
    T.flat[rng.integers(T.size)] += rng.choice([-1.0, 0.0, 1.0])
    i, k = rng.choice(3, size=2, replace=False)
    swapped = list(posets)
    swapped[i], swapped[k] = posets[k], posets[i]
    order = np.arange(T.size).reshape(T.shape).swapaxes(i, k).ravel()  # swapped flat -> T's
    where = order.argsort()  # T's flat -> swapped

    want, got = (cone.membership_finite_rank(T, posets),
                 cone.membership_finite_rank(T.swapaxes(i, k), swapped))
    assert (got.member, got.method, got.min_value) == (want.member, method, want.min_value)
    assert _violations(got) == _violations(want, lambda f: int(where[f]))
    assert (cone.canonical_inequalities(cone.finite_rank_hrep(swapped))
            == cone.canonical_inequalities(cone.finite_rank_hrep(posets)[:, order]))


def test_membership_differencing_vs_double_description():
    rng = np.random.default_rng(1)
    posets = [poset.chain(2), poset.chain(3)]
    normals = cone.double_description(cone.finite_rank_vrep(posets))
    for _ in range(300):
        T = rng.standard_normal((2, 3))
        if rng.random() < 0.4:  # bias towards members
            T = np.cumsum(np.cumsum(np.abs(T), axis=0), axis=1)
        a = cone.membership_finite_rank(T, posets).member
        tol = cone.default_tol(T)
        b = bool((normals @ T.ravel() >= -tol).all())
        assert a == b


def test_mobius_maps_orthant_onto_cone():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P = random_forest(int(rng.integers(1, 8)), rng)
        M = tensor.mobius_matrix(P)
        x = rng.uniform(0, 2, size=P.p)
        assert cone.is_monotone(M @ x, P).member
        y = cone.order_cone_vrep(P).T @ rng.uniform(0, 1, size=P.p)
        back = np.linalg.solve(M, y)
        assert (back >= -1e-9).all()


def test_pmf_cdf_duality_rank_r():
    rng = np.random.default_rng(3)
    posets = [poset.chain(3), poset.chain(3)]
    M = [tensor.mobius_matrix(P) for P in posets]
    lam = rng.dirichlet(np.ones(2))
    qs = [[rng.dirichlet(np.ones(3)) for _ in posets] for _ in range(2)]
    R = sum(lam[i] * np.outer(*qs[i]) for i in range(2))
    cdf = tensor.apply_kronecker(M, R)
    explicit = sum(lam[i] * np.outer(np.cumsum(qs[i][0]), np.cumsum(qs[i][1]))
                   for i in range(2))
    assert np.allclose(cdf, explicit)
    assert cone.membership_finite_rank(cdf, posets).member


def test_double_description_orthant():
    h = cone.double_description([np.array([1, 0]), np.array([0, 1])])
    assert {tuple(r) for r in h} == {(1, 0), (0, 1)}


def test_double_description_simplicial():
    gens = [np.array([1, 0, 0]), np.array([1, 1, 0]), np.array([1, 1, 1])]
    h = cone.double_description(gens)
    assert len(h) == 3
    for n in h:
        assert sum(1 for g in gens if n @ g == 0) == 2
        assert all(n @ g >= 0 for g in gens)


def test_double_description_degenerate():
    with pytest.raises(DegenerateCone) as err:
        cone.double_description([np.array([1, 1, 0]), np.array([2, 2, 0])])
    eq = err.value.equality_normals
    assert eq is not None and len(eq) >= 1


def test_double_description_guards():
    with pytest.raises(TooLarge):
        cone.double_description([np.ones(13)])


def test_double_description_reads_generators_as_flattened_rows():
    # an (n, ...) array-like of one shape is n generators, each flattened row-major
    gens = cone.finite_rank_vrep([COLLIDER, COLLIDER])  # 16 generators of shape (3, 3)
    rows = gens.reshape(len(gens), -1)
    want = reference_double_description(rows)
    for given in (gens, list(gens), gens.tolist(), rows, list(rows)):
        got = cone.double_description(given)
        assert type(got) is np.ndarray and got.dtype == want.dtype and np.array_equal(got, want)
    # ragged, or 1-D: a bare vector is not a list of generators
    for bad in ([[1, 0], [1, 0, 0]], [np.ones((2, 2)), np.ones(4)], [1, 0, 0], np.ones(3)):
        with pytest.raises(ShapeMismatch, match="one shape"):
            cone.double_description(bad)


def test_a_tuple_past_the_dimension_guard_builds_no_generators(monkeypatch):
    # collider:8 x collider:8 x chain(40) has 655 360 generators of 2 560
    # entries, 13.4 GB: double description refuses its dimension first
    def refuse(posets):
        raise AssertionError("finite_rank_vrep was called")

    monkeypatch.setattr(cone, "finite_rank_vrep", refuse)
    posets = [poset.collider_to_top(8), poset.collider_to_top(8), poset.chain(40)]
    with pytest.raises(TooLarge, match="ambient dimension 2560 exceeds the 12 guard"):
        cone.membership_finite_rank(np.zeros((8, 8, 40)), posets)
    with pytest.raises(TooLarge, match="ambient dimension 16 exceeds the 12 guard"):
        cone.finite_rank_hrep([COLLIDER_4, COLLIDER_4])


def test_vrep_guard_bounds_generators_times_entries(monkeypatch):
    monkeypatch.setattr(cone, "VREP_GUARD", 100)
    assert len(cone.finite_rank_vrep([poset.chain(3), poset.chain(3)])) == 9  # 81 values
    # 12 generators pass a bound on generators alone; their 144 values do not
    with pytest.raises(TooLarge, match="12 generators x 12 entries exceeds the 100 guard"):
        cone.finite_rank_vrep([poset.chain(4), poset.chain(3)])


def test_duality_generators_vs_facets():
    posets = [poset.chain(2), poset.chain(3)]
    gens = [g.ravel() for g in cone.finite_rank_vrep(posets)]
    h = cone.finite_rank_hrep(posets)
    d = len(gens[0])
    for n in h:
        assert all(n @ g >= 0 for g in gens)
        tight = np.array([g for g in gens if n @ g == 0])
        assert np.linalg.matrix_rank(tight) >= d - 1


def test_hrep_export_format(capsys):
    h = cone.finite_rank_hrep([poset.chain(2), poset.chain(2)])
    assert cli.main(["hrep", "chain:2", "chain:2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(h)
    assert all(len(line.split()) == 4 for line in lines)
    parsed = np.array([[int(c) for c in line.split()] for line in lines])
    assert np.array_equal(parsed, h)


def test_sampler_m1_and_seeding():
    est = cone.sample_finite_rank_probability(1, 500, seed=0)
    assert est.estimate == 1.0
    a = cone.sample_finite_rank_probability(2, 5000, seed=9)
    b = cone.sample_finite_rank_probability(2, 5000, seed=9)
    assert a.estimate == b.estimate
    assert abs(a.estimate - 0.5) < 0.05


def test_sampler_guard():
    with pytest.raises(TooLarge):
        cone.sample_finite_rank_probability(5, 10, seed=0)


def test_double_description_matches_brute_force_facets():
    import itertools
    from ndrank.cone import _nullspace_int

    def brute_facets(G):
        m, d = G.shape
        normals = set()
        for size in range(d - 1, m + 1):
            for S in itertools.combinations(range(m), size):
                null = _nullspace_int([tuple(int(x) for x in G[i]) for i in S], d)
                if len(null) != 1:
                    continue
                n = np.array(null[0])
                for sgn in (1, -1):
                    if (sgn * (G @ n) >= 0).all():
                        normals.add(tuple(int(x) for x in sgn * n))
        return normals

    rng = np.random.default_rng(31)
    checked = 0
    while checked < 60:
        d = int(rng.integers(2, 5))
        m = int(rng.integers(d, 8))
        G = rng.integers(0, 3, size=(m, d))
        try:
            h = cone.double_description([g for g in G])
        except (DegenerateCone, ValueError):
            continue
        checked += 1
        assert {tuple(int(x) for x in row) for row in h} == brute_facets(G)


def test_double_description_matches_reference_beyond_brute_force():
    # the reference inverts the simplicial start by its own Gauss-Jordan and
    # takes every tight mask from dot products; normals and equality normals
    # must agree bit for bit, order and dtype included
    grid = poset.product([poset.chain(2), poset.chain(2)])
    diamond = poset.from_relation("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    gen_sets = [cone.finite_rank_vrep(tup) for tup in
                [(COLLIDER, COLLIDER), (COLLIDER, poset.collider_to_top(4)),
                 (grid, COLLIDER), (COLLIDER, diamond)]]
    rng = np.random.default_rng(83)
    for k in range(40):
        d = int(rng.integers(5, 13))
        G = rng.integers(0, 2 + k % 2, size=(int(rng.integers(d, d + 5)), d))
        if k % 4 == 0:  # every generator in the hyperplane x_0 = x_last
            G[:, -1] = G[:, 0]
        gen_sets.append(list(G))
    checked = degenerate = 0
    for gens in gen_sets:
        try:
            want = reference_double_description(gens)
        except DegenerateCone as ref:
            with pytest.raises(DegenerateCone) as got:
                cone.double_description(gens)
            eq, ref_eq = got.value.equality_normals, ref.equality_normals
            assert eq.dtype == ref_eq.dtype and np.array_equal(eq, ref_eq)
            degenerate += 1
            continue
        normals = cone.double_description(gens)
        assert normals.dtype == want.dtype and np.array_equal(normals, want)
        checked += 1
    assert checked >= 25 and degenerate >= 10


def test_canonical_inequalities_sign_and_scale():
    rows = [np.array([0, -2, 2]), np.array([0, 1, -1])]
    canon = cone.canonical_inequalities(rows)
    assert canon == [(0, 1, -1), (0, 1, -1)]


def _random_posets(rng, k):
    """k small posets: chains, forests, colliders, trivial orders."""
    out = []
    for _ in range(k):
        p = int(rng.integers(1, 5))
        kind = int(rng.integers(0, 4))
        out.append(poset.chain(p) if kind == 0 else random_forest(p, rng) if kind == 1
                   else poset.collider_to_top(p) if kind == 2 and p >= 3 else poset.trivial(p))
    return out


def _random_tensor(posets, rng, kind):
    shape = tuple(P.p for P in posets)
    if kind == "signed":
        return rng.standard_normal(shape)
    if kind == "tied":
        return rng.integers(-2, 3, size=shape).astype(float)
    # sorted: a nonnegative combination of outer products of upset indicators
    T = np.zeros(shape)
    for _ in range(int(rng.integers(1, 4))):
        gens = [cone.order_cone_vrep(P) for P in posets]
        T = T + rng.uniform(0.1, 1.0) * tensor.outer([G[rng.integers(len(G))] for G in gens])
    return T


def _same_certificate(a, b, atol=0.0):
    assert (a.member, a.method, a.tol) == (b.member, b.method, b.tol)
    assert [v.label for v in a.violated] == [v.label for v in b.violated]
    for u, v in zip(a.violated, b.violated):
        assert np.array_equal(u.normal, v.normal)
        assert abs(u.value - v.value) <= atol
    assert a.min_value == b.min_value or abs(a.min_value - b.min_value) <= atol


def _cases(seed, n):
    rng = np.random.default_rng(seed)
    for i in range(n):
        posets = _random_posets(rng, int(rng.integers(1, 4)))
        yield posets, _random_tensor(posets, rng, ("signed", "tied", "sorted")[i % 3])


def test_is_monotone_matches_product_poset_reference():
    for i, (posets, T) in enumerate(_cases(40, 600)):
        arg = poset.product(posets) if i % 4 == 3 else posets
        new, ref = cone.is_monotone(T, arg), reference_is_monotone(T, arg)
        _same_certificate(new, ref)
        # bitwise, down to the sign of a zero
        assert np.float64(new.min_value).tobytes() == np.float64(ref.min_value).tobytes()
        assert [v.value for v in new.violated] == [v.value for v in ref.violated]
    # a running min keeps the first of several zeros, whatever the later signs
    for T in (np.array([[-0.0, 0.0], [0.0, 0.0]]), np.array([[0.0, -0.0], [-0.0, -0.0]])):
        for arg in ([poset.chain(2), poset.chain(2)], poset.trivial(4)):
            new, ref = cone.is_monotone(T, arg), reference_is_monotone(T, arg)
            assert np.signbit(new.min_value) == np.signbit(ref.min_value) == np.signbit(T.flat[0])
    empty = poset.from_relation([], [])
    for posets in ([empty], [empty, poset.chain(3)]):
        T = np.zeros(tuple(P.p for P in posets))
        cert = cone.is_monotone(T, posets)
        assert cert.member and cert.min_value == np.inf
        _same_certificate(cert, reference_is_monotone(T, posets))


def test_membership_matches_explicit_normals_reference():
    checked = 0
    for posets, T in _cases(41, 600):
        if sum(poset.has_collider(P) for P in posets) > 1 and T.size > 12:
            continue  # double description is guarded at dimension 12
        new, ref = cone.membership_finite_rank(T, posets), reference_membership(T, posets)
        atol = 1e-12 * (1.0 + float(np.abs(T).max()))
        # the one-contraction paths list violations in H-rep row order
        key = lambda c: sorted(c.violated, key=lambda v: v.label)  # noqa: E731
        new.violated, ref.violated = key(new), key(ref)
        _same_certificate(new, ref, atol)
        checked += 1
    assert checked > 500
    # a flat poset is a one-mode tensor
    T = np.array([3.0, 1.0, 2.0])
    _same_certificate(cone.membership_finite_rank(T, poset.chain(3)),
                      reference_membership(T, poset.chain(3)))


def test_finite_rank_hrep_matches_reference_normals():
    rng = np.random.default_rng(42)
    for _ in range(200):
        posets = _random_posets(rng, int(rng.integers(1, 4)))
        if sum(poset.has_collider(P) for P in posets) > 1:
            continue
        h = cone.finite_rank_hrep(posets)
        ref = reference_finite_rank_normals(posets)
        assert type(h) is np.ndarray and h.dtype == ref.dtype and np.array_equal(h, ref)


def test_is_monotone_builds_no_product_poset(monkeypatch):
    def refuse(factors):
        raise AssertionError("poset.product was called")

    monkeypatch.setattr(poset, "product", refuse)
    rng = np.random.default_rng(43)
    posets = [poset.chain(30), poset.chain(25), poset.chain(20)]
    T = rng.uniform(size=(30, 25, 20)).cumsum(0).cumsum(1).cumsum(2)
    assert cone.is_monotone(T, posets).member
    T[3, 4, 5] = -1.0  # one negative entry and the three covers into it decrease
    cert = cone.is_monotone(T, posets)
    assert [v.label for v in cert.violated] == [
        "t[4,5,6] >= 0", "t[3,5,6] <= t[4,5,6]", "t[4,4,6] <= t[4,5,6]", "t[4,5,5] <= t[4,5,6]"]


def test_violation_renders_label_and_normal_on_access():
    v = cone.Violation(-1.5, (1, 4), (1.0, -1.0), (2, 3), cover=True)
    assert v.label == "t[2,2] <= t[1,2]"
    first, second = v.normal, v.normal
    assert first is not second and first.flags.writeable
    assert first.dtype == float and np.array_equal(first, [0, 1, 0, 0, -1, 0])
    first[:] = 7.0  # a fresh array each time: the violation is unchanged
    assert np.array_equal(v.normal, second)
    facet = cone.Violation(-2.0, (0, 1, 3, 4), (1.0, -1.0, -1.0, 2.0), (2, 3))
    assert facet.label == "t[1,1] - t[1,2] - t[2,1] + 2*t[2,2] >= 0"
    assert facet.label == cone.format_normal(facet.normal, (2, 3))
    assert repr(facet) == "Violation('t[1,1] - t[1,2] - t[2,1] + 2*t[2,2] >= 0', value=-2.0)"
    # equal when label, normal and value are
    assert v == cone.Violation(-1.5, (1, 4), (1.0, -1.0), (2, 3), cover=True)
    assert v != cone.Violation(-1.5, (1, 4), (1.0, -1.0), (2, 3))
    assert v != cone.Violation(-1.0, (1, 4), (1.0, -1.0), (2, 3), cover=True)


def test_signed_grid_certificates_stay_small():
    # each violation used to carry a dense normal of T.size floats: about
    # 36 500 of them here, over 4 GB
    rng = np.random.default_rng(45)
    posets = [poset.chain(30), poset.chain(25), poset.chain(20)]
    T = rng.standard_normal((30, 25, 20))
    tol = cone.default_tol(T)
    tracemalloc.start()
    try:
        mono = cone.is_monotone(T, posets)
        cert = cone.membership_finite_rank(T, posets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    n_mono = (T < -tol).sum() + sum((np.diff(T, axis=j) < -tol).sum() for j in range(3))
    assert len(mono.violated) == n_mono > 20_000
    D = T
    for j in range(3):
        D = np.diff(D, axis=j, prepend=0.0)
    assert len(cert.violated) == (D < -tol).sum()
    # the violations inside a corner block are the block's own, rendered
    # alike (labels are 1-based multi-indices, so they do not see the shape)
    block = (4, 3, 3)
    sub = T[:4, :3, :3]
    corner = np.zeros(T.shape, dtype=bool)
    corner[:4, :3, :3] = True
    inside = set(np.flatnonzero(corner).tolist())
    chains = [poset.chain(b) for b in block]
    for new, ref in ((mono, reference_is_monotone(sub, chains, tol)),
                     (cert, reference_membership(sub, chains, tol))):
        mine = [v for v in new.violated if inside.issuperset(v.support)]
        assert mine
        assert [v.label for v in mine] == [v.label for v in ref.violated]
        assert [v.value for v in mine] == [v.value for v in ref.violated]
        for v, r in zip(mine, ref.violated):
            normal = v.normal.reshape(T.shape)
            assert np.array_equal(normal[:4, :3, :3].ravel(), r.normal)
            assert np.count_nonzero(normal) == np.count_nonzero(r.normal)


def test_is_monotone_names_a_cover_listed_upper_end_first():
    # CCHS's age order has 65+ < 12-17: the cover (4, 0) runs down the index
    P = datasets.fixture("cchs")[1][0]
    cert = cone.is_monotone([0.0, 1.0, 1.0, 1.0, 0.5], P)
    assert not cert.member
    assert [(v.label, v.support, v.coeffs, v.value) for v in cert.violated] == [
        ("t[5] <= t[1]", (0, 4), (1.0, -1.0), -0.5)]


def test_rank1_monotone_checks_build_no_violations(monkeypatch):
    from ndrank import rank
    from ndrank.errors import HypothesisViolated

    def refuse(*args, **kwargs):
        raise AssertionError("a Violation was built")

    monkeypatch.setattr(cone, "Violation", refuse)
    rng = np.random.default_rng(44)
    posets = [poset.chain(30), poset.chain(25), poset.chain(20)]
    T = rng.uniform(1.0, 2.0, size=(30, 25, 20))
    assert not cone.is_monotone(T, posets).member
    with pytest.raises(HypothesisViolated):
        rank.rank1_exponential(T, posets)
    # a small one for the Gaussian fit, which falls back to rank-one HALS
    small = [poset.chain(4), poset.chain(3), poset.chain(3)]
    fact = rank.rank1_gaussian(rng.uniform(1.0, 2.0, size=(4, 3, 3)), small)
    assert "fallback" in fact.diagnostics


# one non-member per dispatch path
NON_MEMBERS = [
    (cone.is_monotone, [poset.chain(3), poset.chain(4)], "monotonicity"),
    (cone.membership_finite_rank, [poset.chain(3), poset.chain(4)], "tree-differencing"),
    (cone.membership_finite_rank, [COLLIDER, poset.chain(4)], "halfspace"),
    (cone.membership_finite_rank, [COLLIDER, COLLIDER], "double-description"),
]


@pytest.mark.parametrize("check, posets, method", NON_MEMBERS, ids=[m for *_, m in NON_MEMBERS])
def test_certificates_render_violations_on_first_read(monkeypatch, check, posets, method):
    built = []
    violation = cone.Violation
    monkeypatch.setattr(cone, "Violation", lambda *a, **k: built.append(1) or violation(*a, **k))
    T = np.random.default_rng(49).standard_normal(tuple(P.p for P in posets))
    cert = check(T, posets)
    assert not cert.member and cert.method == method and not built
    violated = cert.violated
    assert len(violated) == len(built) > 0
    assert cert.violated is violated and len(built) == len(violated)  # rendered once


@pytest.mark.parametrize("check, posets, method", NON_MEMBERS, ids=[m for *_, m in NON_MEMBERS])
def test_certificates_survive_pickling(check, posets, method):
    T = np.random.default_rng(50).standard_normal(tuple(P.p for P in posets))
    alive = weakref.ref(T)
    cert = check(T, posets)
    del T
    assert alive() is None  # the certificate keeps no reference to the tensor
    copy = pickle.loads(pickle.dumps(cert))  # before the list is rendered
    assert copy.method == method and not copy.member and copy == cert
    want = [(v.label, v.value, v.normal.tolist()) for v in cert.violated]
    assert want and [(v.label, v.value, v.normal.tolist()) for v in copy.violated] == want
    again = pickle.loads(pickle.dumps(cert))  # and after
    assert [(v.label, v.value, v.normal.tolist()) for v in again.violated] == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_grid_extension_table_lists_every_extension_once(m):
    P, positions = poset.product([poset.chain(m), poset.chain(m)]), cone._grid_sampling_plan(m)
    count = poset.count_linear_extensions(P)
    assert count == {1: 1, 2: 2, 3: 42, 4: 24_024}[m]
    assert positions.shape == (m * m, count) and not positions.flags.writeable
    # each column is the inverse of a distinct permutation of the grid
    assert (np.sort(positions, axis=0) == np.arange(m * m)[:, None]).all()
    assert len({col.tobytes() for col in positions.T}) == count
    lo, hi = np.array(P.covers, dtype=np.intp).reshape(-1, 2).T
    assert (positions[lo] < positions[hi]).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_grid_members_match_the_diff_reference(m):
    # entries on a 1e-9 lattice put many differences at or next to -tol
    rng = np.random.default_rng(48)
    C = poset.chain(m)
    maps = cone._finite_rank_plan((C, C))[1]
    for X in (rng.integers(-3, 4, size=(500, m, m)) * 1e-9, rng.standard_normal((500, m, m))):
        want = reference_grid_members(X, 2e-9)
        assert cone._grid_members(np.ascontiguousarray(X.transpose(1, 2, 0)), maps, 2e-9) == want
        assert cone._grid_members(X.transpose(1, 2, 0), maps, 2e-9) == want


@pytest.mark.parametrize("m, n_samples, seeds", [
    (1, 7, range(3)), (2, 2048, range(3)), (2, 2049, range(3)), (3, 1, range(5)),
    (3, 20_000, range(6)), (2, 200_001, [49]), (3, 200_001, [50]),
    (4, 1500, [51, 52]), (4, 2049, range(2)), (4, 200_001, [53])])
def test_sampler_members_match_the_scatter_reference(m, n_samples, seeds):
    for seed in seeds:
        est = cone.sample_finite_rank_probability(m, n_samples, seed)
        assert (est.members, est.n_samples) == (reference_sample_members(m, n_samples, seed),
                                                n_samples)


@pytest.mark.parametrize("m, seed", [(1, 0), (2, 1), (3, 2)])
def test_sampler_estimates_one_over_the_grid_extensions(m, seed):
    # the finite-rank part of the grid's order polytope is one simplex of
    # its triangulation by linear extensions, so the chance is 1 / e(grid)
    exact = 1.0 / poset.count_linear_extensions(poset.product([poset.chain(m), poset.chain(m)]))
    est = cone.sample_finite_rank_probability(m, 200_000, seed)
    assert abs(est.estimate - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / est.n_samples)


@pytest.mark.parametrize("m, n_samples", [(2, True), (True, 10), (2.0, 10), (2, 2.5), (2, "10"),
                                          (None, 10)])
def test_sampler_takes_integer_counts(m, n_samples):
    # n_samples=True returned 1.000000 +/- 0.000000 (1/True); a float m or
    # n_samples raised TypeError from poset.chain or range
    with pytest.raises(ValueError, match="positive integers"):
        cone.sample_finite_rank_probability(m, n_samples, 0)


def test_sampler_m4_is_seeded():
    a = cone.sample_finite_rank_probability(4, 2000, seed=46)
    b = cone.sample_finite_rank_probability(4, 2000, seed=46)
    assert (a.estimate, a.members, a.n_samples) == (b.estimate, b.members, b.n_samples)
    assert 0.0 <= a.estimate < 0.05



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape, posets, method", [
    ((0, 3), [poset.from_relation([], []), poset.chain(3)], "tree-differencing"),
    ((3, 0), [COLLIDER, poset.from_relation([], [])], "halfspace"),
    ((0, 3, 3), [poset.from_relation([], []), COLLIDER, COLLIDER], "double-description"),
])
def test_empty_tensor_is_a_member_on_every_path(shape, posets, method):
    # numpy's min of an empty array raised, and double description had no
    # generators to start from; an empty tensor lies in every cone, as
    # is_monotone already answered
    T = np.zeros(shape)
    mono = cone.is_monotone(T, posets)
    cert = cone.membership_finite_rank(T, posets)
    assert mono.member and mono.min_value == np.inf
    assert cert.member and cert.min_value == np.inf and cert.method == method
    assert not cert.violated


@pytest.mark.parametrize("call, error, message", [
    # 24^5 generators, refused before the Kronecker product is formed
    (lambda: cone.finite_rank_vrep([poset.chain(24)] * 5), TooLarge, "1000000 guard"),
    (lambda: cone.double_description([]), ValueError, "at least one generator"),
    (lambda: cone.double_description([[1, 0], [1, 0, 0]]), ShapeMismatch, "one shape"),
    (lambda: cone.double_description([[1, 0], [0, 0.5]]), ValueError, "integer generators"),
    (lambda: cone.double_description(list(itertools.product(range(1, 4), repeat=4))),
     TooLarge, "generators exceeds the 64 guard"),
    (lambda: cone.sample_finite_rank_probability(0, 10, 0), ValueError, "positive"),
    # numpy's default_rng refused -1 with a message that named no setting
    (lambda: cone.sample_finite_rank_probability(2, 10, -1), ValueError, "seed"),
    (lambda: cone.sample_finite_rank_probability(2, 10, True), ValueError, "seed"),
], ids=["vrep-guard", "no-generator", "shapes", "non-integer", "generator-guard",
        "sample-m-0", "sample-seed-negative", "sample-seed-bool"])
def test_cone_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_certificates_compare_and_test_true():
    cert = cone.is_monotone(np.array([[1.0, 0.0]]), [poset.trivial(1), poset.chain(2)])
    assert not cert and cone.is_monotone(np.ones((1, 2)), [poset.trivial(1), poset.chain(2)])
    assert cert.violated[0] != "t[1,1] <= t[1,2]"
