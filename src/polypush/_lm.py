"""Levenberg-Marquardt for the local fits of both recoveries.

Both local fits (the _fit of tensor_ring._recover, for either kind)
minimize 0.5 |f(x)|^2 for a residual f with an analytic Jacobian J, from
starts that are often within rounding of a minimum (the closed forms) and
sometimes far from any (the random starts, and tables no network fits).

Each step z = D h solves the damped problem min |f + Js z|^2 + mu |z|^2 in
Marquardt's column scaling D, the running maximum of J's column norms, with
Js = J D^-1 (Moré 1978).  It comes from one SVD of Js per accepted iterate,
which rejected trials reuse; JᵀJ, whose condition number is the square of
J's, is never formed.  Directions whose singular value is at most RCOND of
the largest, the gauge's in both fits, are left out.  mu is chosen as in
MINPACK's lmder, which this replaces: the Gauss-Newton step (mu = 0) when it
is no longer than the trust radius Delta, else the mu whose step has length
Delta; a trial that gains less than a quarter of its predicted reduction
halves Delta below its own length, and one that gains three quarters, or a
Gauss-Newton step, sets Delta to twice its length.  Nielsen's rule (Madsen,
Nielsen & Tingleff 2004), which scales mu by factors, reaches worse local
minima from random starts: on 60 exact ell = 2 low-rank tables it needed 97
or more fits where this rule needs 61.

A fit stops for one of four reasons:

- "tol": |Jsᵀ f| <= GTOL |f|, a stationary point (an exact fit among them);
- "step": a step at rounding level.  A step that keeps at least half of the
  Gauss-Newton step's predicted reduction stops the fit once the distance
  still to go, estimated as step^2 / (previous accepted step), is below
  eps |D x|: a first step of sqrt(eps) |D x| or less (the polish of a
  closed-form start), or the last steps of a fit that converges only
  linearly.  A more damped step stops the fit only when it is itself below
  eps |D x|;
- "plateau": the cost fell by at most PLATEAU_RTOL of itself over the last
  PLATEAU_WINDOW accepted steps, the crawl of a table no network fits;
- "cap": ``max_nfev`` evaluations of the residual were spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
# singular values of the scaled Jacobian at or below RCOND times the largest
# are left out of every step: the gauge's, in both fits
RCOND = math.sqrt(EPS)
# the first trust radius, relative to |D x0| or, at x0 = 0, absolute
# (MINPACK's ``factor``)
FACTOR = 100.0
# a trial is accepted when it gains at least this share of its predicted
# reduction
ACCEPT = 1e-4
# Newton steps _damping takes at most
DAMPING_ITERS = 30
# "tol": |Jsᵀ f| <= GTOL |f|
GTOL = 1e-14
# "plateau": accepted steps the cost's relative decrease is taken over, and
# that decrease's bound
PLATEAU_WINDOW = 10
PLATEAU_RTOL = 1e-6


@dataclass
class LMResult:
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    stop: str  # "tol", "step", "plateau" or "cap"


def _svd(A: np.ndarray):
    """The thin SVD of A.  LAPACK's gesdd, behind np.linalg.svd, fails to
    converge on some rank-deficient matrices (an ell = 2 low-rank Jacobian
    among them) whose transpose it decomposes."""
    try:
        return np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        V, s, Ut = np.linalg.svd(A.T, full_matrices=False)
        return Ut.T, s, V.T


def _damping(s: np.ndarray, g: np.ndarray, delta: float) -> float:
    """The mu >= 0 whose step, of length |s g / (s^2 + mu)|, is within 10 %
    of ``delta``; 0, the Gauss-Newton step, when that step is no longer than
    1.1 ``delta`` (Moré 1978).  Newton's method on 1 / length, safeguarded
    by bisection."""
    sg2 = (s * g) ** 2

    def length(mu):
        return math.sqrt(float(np.sum(sg2 / (s * s + mu) ** 2)))

    n = length(0.0)
    if n <= 1.1 * delta:
        return 0.0
    # length(mu) <= |s g| / mu, so the step at hi is no longer than delta
    lo, hi = 0.0, math.sqrt(float(np.sum(sg2))) / delta
    mu = hi
    for _ in range(DAMPING_ITERS):
        n = length(mu)
        if abs(n - delta) <= 0.1 * delta:
            break
        if n > delta:
            lo = mu
        else:
            hi = mu
        mu += n * n * (n / delta - 1.0) / float(np.sum(sg2 / (s * s + mu) ** 3))
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    return mu


def least_squares(fun, x0, jac, max_nfev: int) -> LMResult:
    """Minimize 0.5 |fun(x)|^2 from ``x0`` with the Jacobian ``jac``,
    spending at most ``max_nfev`` evaluations of ``fun``."""
    x = np.array(x0, dtype=float)
    f = np.asarray(fun(x), dtype=float)
    cost = 0.5 * float(f @ f)
    nfev = 1
    D = np.zeros(x.size)
    delta = None
    prev_step = None
    costs = [cost]
    new_iterate = True
    while True:
        if nfev >= max_nfev:
            return LMResult(x, f, nfev, "cap")
        if new_iterate:
            J = np.asarray(jac(x), dtype=float)
            D = np.maximum(D, np.linalg.norm(J, axis=0))
            scale = np.where(D > 0, D, 1.0)
            U, s, Vt = _svd(J / scale)
            g = U.T @ f
            # |Jsᵀ f| = |s g|; a start whose residual is not finite stops here
            if not np.linalg.norm(s * g) > GTOL * math.sqrt(2 * cost):
                return LMResult(x, f, nfev, "tol")
            keep = s > RCOND * s[0]
            s, g, Vt = s[keep], g[keep], Vt[keep]
            # the reduction of the Gauss-Newton step
            gauss_newton = 0.5 * float(g @ g)
            Dx = float(np.linalg.norm(scale * x))
            if delta is None:
                delta = FACTOR * (Dx or 1.0)
            Dx = max(Dx, EPS)
            new_iterate = False
        mu = _damping(s, g, delta)
        z = -Vt.T @ (s / (s * s + mu) * g)
        step = float(np.linalg.norm(z))
        x_new = x + z / scale
        # a far trial may overflow: its cost is then not finite, a failed step
        with np.errstate(over="ignore", invalid="ignore"):
            f_new = np.asarray(fun(x_new), dtype=float)
            cost_new = 0.5 * float(f_new @ f_new)
        nfev += 1
        # the reduction of 0.5 |f + Js z|^2, computed without cancellation
        damp = mu / (s * s + mu)
        pred = 0.5 * float(np.sum(g * g * (1.0 - damp * damp)))
        rho = (cost - cost_new) / pred if pred > 0 else -1.0
        if pred >= 0.5 * gauss_newton:
            # the distance still to go, were the steps to keep shrinking by
            # step / prev_step; a first step is taken as the last of a
            # quadratically convergent run
            small = step * step / (prev_step or Dx) <= EPS * Dx
        else:
            small = step <= EPS * Dx
        if not rho >= 0.25:
            # also a trial whose cost is not finite: shorter than itself
            delta = 0.5 * min(delta, step)
        elif mu == 0.0 or rho >= 0.75:
            delta = 2.0 * step
        if rho >= ACCEPT:
            x, f, cost = x_new, f_new, cost_new
            prev_step = step
            costs.append(cost)
            new_iterate = True
        if small:
            return LMResult(x, f, nfev, "step")
        if (new_iterate and len(costs) > PLATEAU_WINDOW
                and costs[-1 - PLATEAU_WINDOW] - cost <= PLATEAU_RTOL * cost):
            return LMResult(x, f, nfev, "plateau")
