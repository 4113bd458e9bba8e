"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import io
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from ndrank import cli, cone, datasets, factor, poset, rank, tensor
from ndrank.factor import FitConfig
from ndrank.isotonic import project

from helpers import (
    projection_oracle,
    random_collider,
    random_forest,
    random_poset,
    trace_nonincreasing,
)

COLLIDER = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])


@contextmanager
def criterion(num, description, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    elapsed = time.time() - t0
    status = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"[criterion {num:02d}] {status}  {description}  ({elapsed:.2f}s < {budget_s:.0f}s)")
    assert elapsed < budget_s


BOXES = [
    [[1, 1, 1], [1, 1, 1]], [[0, 1, 1], [0, 1, 1]], [[0, 0, 0], [1, 1, 1]],
    [[0, 0, 0], [0, 1, 1]], [[0, 0, 1], [0, 0, 1]], [[0, 0, 0], [0, 0, 1]],
]
STAIRS = [[[0, 1, 1], [1, 1, 1]], [[0, 0, 1], [1, 1, 1]], [[0, 0, 1], [0, 1, 1]]]


def _mat_set(mats):
    return {tuple(np.asarray(m, dtype=int).ravel()) for m in mats}


def test_criterion_01_extremal_ray_sets():
    with criterion(1, "extremal rays of the 2x3 grid cone and its finite-rank subcone", 1.0):
        P = poset.product([poset.chain(2), poset.chain(3)])
        assert _mat_set(cone.order_cone_vrep(P)) == _mat_set(BOXES + STAIRS)
        gens = cone.finite_rank_vrep([poset.chain(2), poset.chain(3)])
        assert _mat_set(gens) == _mat_set(BOXES)


def test_criterion_02_antichain_binomial_formula():
    with criterion(2, "antichain count of [p1]x[p2] equals C(p1+p2,p1)-1 for p1+p2 <= 10", 5.0):
        for p1 in range(1, 10):
            for p2 in range(1, 11 - p1):
                P = poset.product([poset.chain(p1), poset.chain(p2)])
                assert poset.count_antichains(P) == math.comb(p1 + p2, p1) - 1


def _reference_3x3_inequalities():
    """The known 24-facet list for the two-collider 3x3 cone, as '<= 0' rows.

    One published token in this list is garbled ('x2'); canonically it can
    only be the t12 difference row, which is how it is transcribed here.
    """
    def n(**kw):
        v = np.zeros((3, 3), dtype=int)
        for key, val in kw.items():
            v[int(key[1]) - 1, int(key[2]) - 1] = val
        return v.ravel()

    return [
        n(t11=-1), n(t12=-1), n(t21=-1), n(t22=-1),
        n(t21=1, t23=-1), n(t12=1, t32=-1), n(t22=1, t23=-1), n(t11=1, t31=-1),
        n(t12=1, t13=-1), n(t22=1, t32=-1), n(t21=1, t31=-1), n(t11=1, t13=-1),
        n(t11=-1, t13=1, t31=1, t33=-1), n(t22=-1, t23=1, t32=1, t33=-1),
        n(t21=-1, t23=1, t31=1, t33=-1), n(t12=-1, t13=1, t32=1, t33=-1),
        n(t11=1, t12=1, t13=-1, t21=1, t22=-1, t31=-1),
        n(t11=1, t12=1, t13=-1, t21=-1, t22=1, t32=-1),
        n(t11=1, t12=-1, t21=1, t22=1, t23=-1, t31=-1),
        n(t11=-1, t12=1, t21=1, t22=1, t23=-1, t32=-1),
        n(t11=-1, t12=-1, t13=1, t21=-1, t22=1, t31=1, t33=-1),
        n(t11=-1, t12=-1, t13=1, t21=1, t22=-1, t32=1, t33=-1),
        n(t11=-1, t12=1, t21=-1, t22=-1, t23=1, t31=1, t33=-1),
        n(t11=1, t12=-1, t21=-1, t22=-1, t23=1, t32=1, t33=-1),
    ]


def test_criterion_03_twenty_four_facets():
    with criterion(3, "double description reproduces the 24 facet inequalities", 10.0):
        gens = cone.finite_rank_vrep([COLLIDER, COLLIDER])
        assert len(gens) == 16
        normals = cone.double_description(gens)
        assert len(normals) == 24
        ours = cone.canonical_inequalities(normals)
        reference = cone.canonical_inequalities(_reference_3x3_inequalities())
        assert ours == reference
        # flag which reference row each derived facet matches
        ref_index = {row: i for i, row in enumerate(reference)}
        matches = [ref_index[row] for row in ours]
        assert sorted(matches) == list(range(24))


def test_criterion_04_mobius_identity():
    with criterion(4, "upset map times its inverse is the identity on collider-free posets", 5.0):
        rng = np.random.default_rng(123)
        for _ in range(50):
            P = random_forest(int(rng.integers(1, 11)), rng)
            M = tensor.mobius_matrix(P)
            Minv = tensor.mobius_inverse_matrix(P)
            assert np.max(np.abs(M @ Minv - np.eye(P.p))) < 1e-12
        expect = np.eye(6) - np.diag(np.ones(5), -1)
        assert np.array_equal(tensor.mobius_inverse_matrix(poset.chain(6)), expect)


def test_criterion_05_selenium_certificate():
    with criterion(5, "dose-response fixture is certified outside the cone", 1.0):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["check", "fixture:selenium"])
        out = buf.getvalue()
        assert code == 1
        assert "t[1,2] <= t[3,2]" in out
        assert "t[1,1] - t[1,2] - t[3,1] + t[3,2] >= 0" in out
        assert "t[1,3] - t[1,4] - t[3,3] + t[3,4] >= 0" in out
        cert = cone.membership_finite_rank(*datasets.fixture("selenium"))
        target = np.zeros((3, 4))
        target[0, 0], target[0, 1], target[2, 0], target[2, 1] = 1, -1, -1, 1
        value = next(v.value for v in cert.violated
                     if np.array_equal(v.normal, target.ravel()))
        assert abs(value - (-3.9)) < 1e-9


def test_criterion_06_volume_probabilities():
    with criterion(6, "order-polytope membership probabilities for m = 2, 3", 60.0):
        est2 = cone.sample_finite_rank_probability(2, 200_000, seed=20240101)
        assert abs(est2.estimate - 0.50) <= 0.01
        est3 = cone.sample_finite_rank_probability(3, 200_000, seed=20240102)
        assert abs(est3.estimate - 0.0238) <= 0.004


def test_criterion_07_projection_oracle():
    with criterion(7, "cone projection matches a projected-gradient oracle on 500 cases", 60.0):
        rng = np.random.default_rng(777)
        kinds = [lambda p, r: poset.chain(p), random_forest, random_collider, random_poset]
        for case in range(500):
            p = int(rng.integers(1, 7))
            P = kinds[case % len(kinds)](p, rng)
            y = rng.standard_normal(P.p) * rng.uniform(0.1, 10)
            v = project(y, P)
            obj = float(np.sum((y - v) ** 2))
            _, obj_oracle = projection_oracle(y, P)
            scale = max(abs(obj_oracle), abs(obj), 1e-12)
            assert obj <= obj_oracle + 1e-8 * scale


def test_criterion_08_hals_descent_and_recovery():
    with criterion(8, "rank-3 fits recover random finite-rank members with monotone traces", 120.0):
        rng = np.random.default_rng(888)
        for trial in range(100):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            posets = [random_poset(p, rng) for p in shape]
            gens = cone.finite_rank_vrep(posets)
            idx = rng.choice(len(gens), size=int(rng.integers(1, 4)), replace=False)
            T = sum(rng.uniform(0.2, 2.0) * gens[i] for i in idx)
            _, report = factor.hals(T, posets, FitConfig(rank=3, restarts=5, seed=trial))
            assert report.final_residual < 1e-6 * np.linalg.norm(T)
            assert trace_nonincreasing(report.objective_trace)


def test_criterion_09_survey_tensor_reproduction():
    with criterion(9, "survey fixture: rank-1 and rank-2 residuals and total sum of squares", 60.0):
        T, posets = datasets.fixture("cchs")
        tss = float(np.sum(T ** 2))
        assert abs(tss - 6925) <= 1
        _, rep1 = factor.hals(T, posets, FitConfig(rank=1, restarts=5, seed=0))
        rss1 = rep1.objective_trace[-1]
        assert 130 <= rss1 <= 160
        _, rep2 = factor.hals(T, posets, FitConfig(rank=2, restarts=10, seed=0))
        rss2 = rep2.objective_trace[-1]
        assert 50 <= rss2 <= 65


def test_criterion_10_collider_max_rank_evidence():
    with criterion(10, "two-collider matrix: exact at rank 4, stuck above 1e-3 at rank 3", 120.0):
        T, posets = datasets.fixture("collider3")
        chk = rank.tri_factorization_verify(T, np.eye(4), posets)
        assert chk.ok and chk.residual == 0.0
        _, rep4 = factor.hals(T, posets, FitConfig(rank=4, restarts=5, seed=0))
        assert rep4.final_residual < 1e-6
        _, rep3 = factor.hals(T, posets, FitConfig(rank=3, restarts=50, seed=0))
        assert rep3.final_residual > 1e-3


def test_criterion_11_rank_one_and_two_exactness():
    with criterion(11, "likelihood solvers are model-optimal; rank-2 shortcut is exact", 120.0):
        rng = np.random.default_rng(1111)

        # rank-one inputs: each solver reaches the model-optimal objective
        for trial in range(25):
            p1, p2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            posets = [poset.chain(p1), poset.chain(p2)]
            u = np.sort(rng.uniform(0.2, 2.0, p1))
            v = np.sort(rng.uniform(0.2, 2.0, p2))
            T = np.outer(u, v)

            g = rank.rank1_gaussian(T, posets)
            assert np.linalg.norm(g.reconstruct() - T) < 1e-8 * np.linalg.norm(T)

            R = T / T.sum()
            m = rank.rank1_multinomial(R, posets)
            best_m = -np.sum(R * np.log(R))
            got_m = -np.sum(R * np.log(m.reconstruct()))
            assert got_m <= best_m + 1e-8 * abs(best_m)

            pfit = rank.rank1_poisson(T, posets)
            theta = pfit.reconstruct()
            best_p = np.sum(T - T * np.log(T))
            got_p = np.sum(theta - T * np.log(theta))
            assert got_p <= best_p + 1e-8 * abs(best_p)

            e = rank.rank1_exponential(T, posets)
            best_e = np.sum(np.log(T) + 1.0)
            got_e = np.sum(np.log(e.reconstruct()) + T / e.reconstruct())
            assert got_e <= best_e + 1e-8 * abs(best_e)

        # rank-two matrices: exact reconstruction of the truncation when
        # inside.  Every poset here is collider-free, so a truncation in the
        # cone has ND rank two and must factorize.
        row_posets = (poset.trivial, poset.chain, lambda p: random_forest(p, rng))
        done = 0
        attempts = 0
        while done < 200 and attempts < 2000:
            attempts += 1
            p1, p2 = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            posets = [row_posets[attempts % 3](p1), poset.chain(p2)]
            B = np.sort(rng.uniform(0.2, 2.0, size=(2, p2)), axis=1)
            A = rng.uniform(0.0, 1.5, size=(p1, 2))
            if posets[0].covers:  # chain and forest covers run up the index
                A = np.cumsum(A, axis=0)
            T = A @ B + 0.02 * rng.standard_normal((p1, p2))
            res = rank.rank2_matrix_exact(T, posets)
            if res.needs_hals:
                assert not res.certificate.member, res.reason
                continue
            U, s, Vt = np.linalg.svd(T, full_matrices=False)
            T2 = (U[:, :2] * s[:2]) @ Vt[:2]
            assert np.linalg.norm(res.factorization.reconstruct() - T2) \
                <= 1e-8 * (1 + np.linalg.norm(T2))
            done += 1
        assert done == 200
