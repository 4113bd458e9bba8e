"""Start-up check: ndrank's own work never imports ``scipy.optimize``.

Run it in a fresh interpreter, against whichever ndrank that interpreter
imports:

    PYTHONPATH=src python tests/startup_check.py     # the checkout
    python /path/to/tests/startup_check.py           # an installed package

It imports ndrank, runs a chain PAVA, a projection onto a collider from
outside its cone (a cold NNLS solve), a short fit of the survey tensor,
both membership checks, the sampler and ``ndrank check fixture:selenium``.
On scipy 1.17.1 none of this may import ``scipy.optimize``; on another
scipy, ndrank may instead have fallen back to the public functions.  Then
it imports ``scipy.optimize`` and requires its public ``nnls`` and
``isotonic_regression`` to answer bitwise as ndrank's kernels do.  Prints
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


def require(ok, what):
    if not ok:
        sys.exit(f"start-up check failed: {what}")


def main():
    rng = np.random.default_rng(5)
    y, w = rng.standard_normal(9), rng.uniform(0.5, 2.0, size=9)
    chain_fits = [ndrank.pava_chain(y), ndrank.pava_chain(y, w)]
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
