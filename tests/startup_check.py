"""Start-up check: ndrank's own work never imports ``scipy.optimize``.

Run it in a fresh interpreter, against whichever ndrank that interpreter
imports:

    PYTHONPATH=src python tests/startup_check.py     # the checkout
    python /path/to/tests/startup_check.py           # an installed package

It imports ndrank, runs a chain PAVA, projections onto a chain listed in
order and one listed out of order, a projection onto a collider from
outside its cone (a cold NNLS solve), a short fit of the survey tensor and
one of a tensor over chains (recording every stack the fit's chain modes
project), both membership checks, the sampler and ``ndrank check
fixture:selenium``.  On scipy 1.17.1 none of this may import
``scipy.optimize``; on another scipy, ndrank may instead have fallen back
to the public functions.  Then it imports ``scipy.optimize`` and requires
its public ``nnls`` and ``isotonic_regression`` to answer bitwise as
ndrank's kernels do: the chain projections, the fit's among them, must be
bitwise ``isotonic_regression`` along the chain, clamped at zero.  Prints
one line naming the package and the path taken, or exits with the failure.
"""

import contextlib
import io
import sys

import numpy as np
import scipy

import ndrank
from ndrank import cli, cone, datasets, factor, isotonic, poset

PINNED_SCIPY = "1.17.1"
SCRAMBLED = [3, 0, 4, 1, 2]  # a chain on 0 ... 4 that is not listed in order


def require(ok, what):
    if not ok:
        sys.exit(f"start-up check failed: {what}")


def spy_on_projectors(stacks):
    """Make every fit record each stack it projects, with the stack's poset
    and projection, in ``stacks``; returns a function that undoes it."""
    real = factor._row_projector

    def spying(P, **kwargs):
        proj = real(P, **kwargs)

        def spy(Y, w=None, counts=None):
            Y0 = Y.copy()  # the projector works in place
            stacks.append((P, Y0, proj(Y, w, counts).copy()))
            return Y

        return spy

    factor._row_projector = spying
    return lambda: setattr(factor, "_row_projector", real)


def main():
    rng = np.random.default_rng(5)
    y, w = rng.standard_normal(9), rng.uniform(0.5, 2.0, size=9)
    chain_fits = [ndrank.pava_chain(y), ndrank.pava_chain(y, w)]
    chains = {poset.chain(6): list(range(6)),
              poset.from_relation(list(range(5)), list(zip(SCRAMBLED, SCRAMBLED[1:]))): SCRAMBLED}
    alone = [(P, np.array([z]), ndrank.project(z, P)[None])
             for P in chains for z in (rng.standard_normal(P.p), 3.0 * rng.standard_normal(P.p))]
    fitted = []
    undo = spy_on_projectors(fitted)
    try:
        factor.hals(rng.random((6, 5, 3)), list(chains) + [poset.trivial(3)],
                    factor.FitConfig(rank=2, restarts=2, max_sweeps=6))
    finally:
        undo()
    collider = poset.from_relation([0, 1, 2], [(0, 2), (1, 2)])
    require(np.allclose(ndrank.project([2.0, 0.0, 1.0], collider), [1.5, 0.0, 1.5]),
            "the collider projection")
    T, posets = datasets.fixture("cchs")
    factor.hals(T, posets, factor.FitConfig(rank=2, restarts=1, max_sweeps=6))
    M, M_posets = datasets.fixture("selenium")
    require(not cone.membership_finite_rank(M, M_posets).member, "selenium membership")
    require(not cone.is_monotone(M, M_posets).member, "selenium monotonicity")
    cone.sample_finite_rank_probability(2, 1000, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "fixture:selenium"])
    require(code == 1, f"ndrank check fixture:selenium exited {code}, not 1")

    private = "scipy.optimize" not in sys.modules
    require(private or scipy.__version__ != PINNED_SCIPY,
            f"scipy.optimize was imported on scipy {PINNED_SCIPY}")
    loaded = [sys.modules.get(f"scipy.optimize.{name}") for name in ("_pava_pybind", "_slsqplib")]
    require(not private or all(loaded), "the kernel modules are not in sys.modules")
    import scipy.optimize

    if private:  # the modules ndrank loaded are the ones scipy.optimize uses
        from scipy.optimize import _pava_pybind, _slsqplib

        require(_pava_pybind is loaded[0] and _slsqplib is loaded[1], "a second kernel module")
        require(_pava_pybind.pava is isotonic._pava, "another PAVA kernel")
    else:
        require(isotonic.nnls is scipy.optimize.nnls, "the fallback's nnls is not scipy's")

    for v, weights in zip(chain_fits, (None, w)):
        want = scipy.optimize.isotonic_regression(y, weights=weights).x
        require(v.tobytes() == want.tobytes(), "PAVA differs from isotonic_regression")
    fitted = [(P, Y, V) for P, Y, V in fitted if P in chains]
    require({P for P, _, _ in fitted} == set(chains), "the chain fit projected no chain")
    for P, Y, V in alone + fitted:
        order = chains[P]
        want = np.empty_like(Y)
        for row, target in zip(want, Y):
            row[order] = scipy.optimize.isotonic_regression(target[order]).x
        require(V.tobytes() == np.maximum(want, 0.0).tobytes(),
                "a chain projection differs from isotonic_regression, clamped")
    A, b = rng.standard_normal((12, 20)), rng.standard_normal(12)
    for A in (A, np.asfortranarray(A), A[:, :8]):
        x, rnorm = isotonic.nnls(A, b)
        x_want, rnorm_want = scipy.optimize.nnls(A, b)
        require(x.tobytes() == x_want.tobytes() and rnorm == rnorm_want,
                "nnls differs from scipy.optimize.nnls")
    print(f"start-up ok: {ndrank.__file__} on scipy {scipy.__version__}, kernels "
          + ("loaded without scipy.optimize" if private else "through scipy.optimize"))


if __name__ == "__main__":
    main()
