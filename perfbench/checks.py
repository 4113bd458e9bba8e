"""Independent checks of ndrank outputs.

Each check returns None when the output is right and a short reason when it
is not.  None of them calls the function it checks.
"""

from __future__ import annotations

import numpy as np

UPSET_ENUMERATION_MAX = 16


def projection_path(P) -> str:
    """The branch ``project_order_cone`` takes, classified from outside."""
    if not P.covers:
        return "clamp"
    if bool((P.leq | P.leq.T).all()):
        return "chain"
    return "general"


def upset_rays(P) -> np.ndarray:
    """0/1 rows whose cone is the order cone of P: indicators of upsets.

    For a collider-free poset the connected upsets are exactly the principal
    upsets, which are the rows of ``leq``.  Otherwise every non-empty upset
    is listed; each is a sum of connected ones, so the cone is the same.
    """
    if len({b for _, b in P.covers}) == len(P.covers):  # no element has two lower covers
        return P.leq.astype(float)
    if P.p > UPSET_ENUMERATION_MAX:
        raise ValueError(f"upset enumeration is limited to {UPSET_ENUMERATION_MAX} elements")
    masks = np.arange(1, 2 ** P.p)
    bits = ((masks[:, None] >> np.arange(P.p)) & 1).astype(bool)
    closed = np.ones(masks.size, dtype=bool)
    for a, b in P.covers:
        closed &= ~bits[:, a] | bits[:, b]
    return bits[closed].astype(float)


def moreau_ok(y, v, P, rays) -> str | None:
    """Moreau's conditions for v = projection of y onto the order cone of P.

    v is feasible, y - v lies in the polar cone (<y - v, g> <= tol for every
    generator g) and <y - v, v> = 0, all within float slack scaled to y.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != y.shape or not np.isfinite(v).all():
        return "projection has the wrong shape or non-finite entries"
    scale = 1.0 + float(np.abs(y).sum())
    tol = 1e-9 * scale
    if (v < -tol).any():
        return "projection is negative"
    for a, b in P.covers:
        if v[b] - v[a] < -tol:
            return "projection decreases along a cover"
    r = y - v
    if (rays @ r > tol).any():
        return "residual is not in the polar cone"
    if abs(float(r @ v)) > tol * scale:
        return "residual is not orthogonal to the projection"
    return None


def trace_nonincreasing(trace, slack: float = 1e-12) -> bool:
    """Same rule as the test suite: no sweep raises the objective."""
    return all(trace[i + 1] <= trace[i] + slack * max(1.0, trace[i])
               for i in range(len(trace) - 1))


def stopping_ok(report, max_sweeps: int) -> str | None:
    """hals stops when the fit is stationary or after max_sweeps, not before."""
    if len(report.objective_trace) != report.sweeps:
        return f"{len(report.objective_trace)} objective values for {report.sweeps} sweeps"
    if report.sweeps != max_sweeps and not report.stationary:
        return f"stopped after {report.sweeps} of {max_sweeps} sweeps without being stationary"
    return None


def monotone_violations(T, posets, tol: float) -> bool:
    """True when T is negative somewhere or decreases along a cover of a mode."""
    T = np.asarray(T, dtype=float)
    if (T < -tol).any():
        return True
    for j, P in enumerate(posets):
        for a, b in P.covers:
            if (np.take(T, b, axis=j) - np.take(T, a, axis=j) < -tol).any():
                return True
    return False


def certificate_ok(cert, T, expect_member: bool) -> str | None:
    """Verdict matches the construction and every reported normal is violated."""
    if bool(cert.member) != expect_member:
        return f"verdict {cert.member} but the input was built as member={expect_member}"
    flat = np.asarray(T, dtype=float).ravel()
    for viol in cert.violated:
        if not float(np.asarray(viol.normal, dtype=float).ravel() @ flat) < -cert.tol:
            return f"reported normal {viol.label} is not violated"
    return None
