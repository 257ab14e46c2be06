"""Gauge alignment: upper bounds on the parameter distance d_G.

d_G(net, net') = min over V in O(r) of max_a ||F_{V^{x omega}}(T_a) - T'_a||_F.
The minimization is nonconvex; for r >= 3 we search candidate rotations from
eigen-alignment of generic unit combinations, enumerate signs, and refine
locally on O(r).  For r = 2 the minimum is found exactly, to rounding, by
enumerating the finitely many angles where it can lie.  For r = 1 the group
is {+1, -1}: both are scored in one batch and the lesser wins, +1 on a tie,
so no search or refinement runs.

One kernel, ``_rotate_units``, applies V^{x omega} to the stacked units with
one matrix product per mode, for one V or a batch of them; every score goes
through it.  For r = 2, on each coset of O(2) the squared distance g_a of
each unit is a trig polynomial of degree omega in the angle, read off by an
FFT of 2 omega + 2 samples.  The least max_a g_a lies where one g_a is
stationary or two cross, so its candidates are the roots of the g_a' and the
g_a - g_b, the eigenvalues of their companion matrices (``_align_r2``); no
r <= 2 alignment imports scipy.  The r >= 3 search starts no further
Nelder-Mead run once its best value is at the rounding level of the units,
``FLOOR_ULPS * eps * max |T_a|``: no start can lower it by more than
rounding, so an exact rotated copy costs no refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._deferred import minimize
from .errors import UsageError
from .networks import PolyNetwork, _philox_rng, gauge_stack
from .tensors import GaugeRotation, _triu

__all__ = ["AlignmentConfig", "gauge_distance"]


@dataclass
class AlignmentConfig:
    """``rng_seed`` keys the combinations and Nelder-Mead starts of the
    r >= 3 search; the r = 1 and r = 2 paths draw nothing and ignore it."""

    rng_seed: int = 0


# Nelder-Mead starts of the r >= 3 refinement
RESTARTS = 8
# generic unit combinations whose eigenframes seed the r >= 3 candidates
COMBOS = 4
# the rounding level of an alignment, in units of eps * max |T_a|: the best
# eigenframe candidate of an exact rotated copy scores within ~30 of them
# (measured up to r = 6 and omega = 5)
FLOOR_ULPS = 64
# the reflection that maps SO(2) onto the other coset of O(2)
REFL = np.diag([1.0, -1.0])


def _rotate_units(V: np.ndarray, units: np.ndarray) -> np.ndarray:
    """V^{x omega} applied to each of the stacked units (d, r, ..., r).

    V is one (r, r) rotation, giving (d, r, ..., r), or a batch (B, r, r),
    giving (B, d, r, ..., r).  The axes (modes..., unit) form a cycle: each
    pass multiplies the leading mode by V, one product per V, and moves it
    behind the others, so after omega passes the unit axis leads again.
    """
    r = units.shape[-1]
    out = units.reshape(len(units), -1).T
    for _ in range(units.ndim - 1):
        out = (V @ out.reshape(out.shape[:-2] + (r, -1))).swapaxes(-1, -2)
    return out.reshape(V.shape[:-2] + units.shape)


def _objective(tensA: np.ndarray, tensB: np.ndarray, V: np.ndarray):
    """max_a ||F_{V^{x omega}}(T_a) - T'_a||_F, for one V or each of a batch."""
    diff = _rotate_units(V, tensA) - tensB
    sq = np.square(diff).reshape(V.shape[:-2] + (len(tensB), -1))
    return np.sqrt(sq.sum(axis=-1).max(axis=-1))


def _candidates(netA: PolyNetwork, netB: PolyNetwork, cfg: AlignmentConfig):
    """Candidate rotations from eigen-alignment of generic combinations of
    the stacks that co-rotate with the gauge (networks.gauge_stack)."""
    r = netA.r
    rng = _philox_rng(cfg.rng_seed, 77)
    stackA, stackB = gauge_stack(netA), gauge_stack(netB)
    cands = [np.eye(r)]
    for _ in range(COMBOS):
        c = rng.standard_normal(netA.d)
        _, Va = np.linalg.eigh(np.einsum("a,aij->ij", c, stackA))
        _, Vb = np.linalg.eigh(np.einsum("a,aij->ij", c, stackB))
        for s in itertools.product((1.0, -1.0), repeat=r):
            cands.append(Vb @ np.diag(s) @ Va.T)
    if netA.omega % 2 == 1:
        cands.extend([-U for U in list(cands)])
    # score identical candidates once
    return np.stack(list({U.tobytes(): U for U in cands}.values()))


def _rot2(theta) -> np.ndarray:
    """Rotations by the angles theta, of shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def _trig_roots(coef: np.ndarray) -> np.ndarray:
    """Angles of the complex roots of trig polynomials, (P, 2 omega).

    Row p holds the coefficients c_0..c_omega of sum_k c_k e^{ik theta}, with
    c_{-k} = conj(c_k); its roots are those of z^omega times it, a polynomial
    of degree 2 omega in z = e^{i theta}, found as the eigenvalues of its
    companion matrix.  Each row is scaled to a largest coefficient of 1 and
    its leading one floored at eps, so a vanishing top harmonic moves roots
    towards 0 and infinity rather than dividing by zero.
    """
    P, n = coef.shape[0], 2 * (coef.shape[1] - 1)
    poly = np.concatenate([coef[:, :0:-1].conj(), coef], axis=1)
    scale = np.abs(poly).max(axis=1, keepdims=True)
    poly = poly / np.where(scale > 0, scale, 1.0)
    eps = np.finfo(float).eps
    lead = np.where(np.abs(poly[:, -1:]) < eps, eps, poly[:, -1:])
    companion = np.zeros((P, n, n), dtype=complex)
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, :, -1] = -poly[:, :-1] / lead
    return np.angle(np.linalg.eigvals(companion)) % (2 * math.pi)


def _align_r2(tensA, tensB):
    """The least ``_objective`` over O(2) and a rotation attaining it.

    On each coset of O(2), g_a(theta) = ||T_a||^2 + ||T'_a||^2 - 2 h_a(theta)
    with h_a(theta) = <R(theta)^{x omega} T_a, T'_a>, a trig polynomial of
    degree omega: its values at N = 2 omega + 2 equispaced angles (one
    ``_rotate_units`` call for both cosets) give its coefficients by one real
    FFT.  max_a g_a is least where some g_a is stationary or two of them
    cross, so the candidates of a coset are theta = 0 and the angles of the
    roots of every g_a' and every g_a - g_b, a < b: 1 + omega d (d + 1) of
    them.  They are scored by ``_objective``, the proper rotations first in
    ascending angle, and the first least value wins, so a tie goes to the
    proper rotation and to theta = 0.  The roots carry the rounding of
    ||T_a||^2, so the winner is resolved by a zoom: 9 scans of 33 angles
    from +-1e-5, each 1/16 as wide, moving only to a strictly lower value.
    """
    omega, d = tensA.ndim - 1, len(tensA)
    flatA, flatB = tensA.reshape(d, -1), tensB.reshape(d, -1)
    n = 2 * omega + 2
    R = _rot2(2 * math.pi * np.arange(n) / n)
    samples = _rotate_units(np.concatenate([R, R @ REFL]), tensA).reshape(2, n, d, -1)
    # (coset, unit, c_0..c_omega) of h_a
    h = np.fft.rfft(np.einsum("cjak,ak->caj", samples, flatB), axis=-1)[..., :omega + 1] / n
    norms = np.square(flatA).sum(axis=1) + np.square(flatB).sum(axis=1)
    slope = h * (1j * np.arange(omega + 1))
    a, b = _triu(d, 1)
    cross = h[:, a] - h[:, b]
    cross[..., 0] -= (norms[a] - norms[b]) / 2
    polys = np.concatenate([slope, cross], axis=1)
    roots = _trig_roots(polys.reshape(-1, omega + 1)).reshape(2, -1)
    thetas = np.sort(np.concatenate([np.zeros((2, 1)), roots], axis=1), axis=1)
    V = _rot2(thetas)
    V[1] = V[1] @ REFL
    obj = _objective(tensA, tensB, V.reshape(-1, 2, 2))
    k = int(np.argmin(obj))
    flip, theta, best = k >= thetas.shape[1], thetas.flat[k], obj[k]

    def rotation(theta):
        return _rot2(theta) @ REFL if flip else _rot2(theta)

    steps = np.linspace(-1.0, 1.0, 33)
    width = 1e-5
    for _ in range(9):
        obj = _objective(tensA, tensB, rotation(theta + width * steps))
        i = int(np.argmin(obj))
        if obj[i] < best:
            theta, best = theta + width * steps[i], obj[i]
        width /= 16
    V = rotation(theta)
    return float(_objective(tensA, tensB, V)), V


def _expm_skew(K: np.ndarray) -> np.ndarray:
    """exp(K) for a real skew-symmetric K, from the eigh of the Hermitian iK."""
    lam, W = np.linalg.eigh(1j * K)
    return ((W * np.exp(-1j * lam)) @ W.conj().T).real


def _refine(tensA, tensB, U0: np.ndarray, rng: np.random.Generator, restarts: int,
            floor: float):
    """Nelder-Mead descent over the exponential chart around U0; no start is
    made once the best value is at most ``floor``.  Returns the best U."""
    r = U0.shape[0]
    npar = r * (r - 1) // 2
    best_val, best_U = float(_objective(tensA, tensB, U0)), U0
    iu = _triu(r, 1)

    def chart(xi):
        K = np.zeros((r, r))
        K[iu] = xi
        return U0 @ _expm_skew(K - K.T)

    starts = [np.zeros(npar)] + [
        0.05 * rng.standard_normal(npar) for _ in range(max(0, restarts - 1))
    ]
    for x0 in starts:
        if best_val <= floor:
            break
        res = minimize(lambda xi: _objective(tensA, tensB, chart(xi)), x0,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
        if res.fun < best_val:
            best_val, best_U = float(res.fun), chart(res.x)
    return best_U


def gauge_distance(
    netA: PolyNetwork, netB: PolyNetwork, cfg: AlignmentConfig | None = None
) -> tuple[float, GaugeRotation]:
    """Best found gauge alignment of netA onto netB.

    Returns (distance upper bound, rotation V achieving it); the bound equals
    min over the searched V of max_a ||F_{V^{x omega}}(T_a) - T'_a||_F.
    Deterministic given cfg.rng_seed.  UsageError unless the networks share
    (r, d, omega) and every unit's norm is a finite float.
    """
    cfg = cfg or AlignmentConfig()
    if (netA.r, netA.d, netA.omega) != (netB.r, netB.d, netB.omega):
        raise UsageError("networks must share (r, d, omega)")
    r = netA.r
    tensA, tensB = netA.unit_tensors(), netB.unit_tensors()
    for name, tens in (("netA", tensA), ("netB", tensB)):
        with np.errstate(over="ignore"):
            norms = np.square(tens).reshape(len(tens), -1).sum(axis=1)
        if not np.isfinite(norms).all():
            raise UsageError(f"{name} has a unit whose norm overflows float64")

    if r == 1:
        # O(1) = {+1, -1}: score both, +1 first on a tie
        signs = np.array([[[1.0]], [[-1.0]]])
        U = signs[int(np.argmin(_objective(tensA, tensB, signs)))]
        return float(_objective(tensA, tensB, U)), GaugeRotation(U)
    if r == 2:
        val, V = _align_r2(tensA, tensB)
        # keep the orthogonality certificate tight
        u, _, vt = np.linalg.svd(V)
        return val, GaugeRotation(u @ vt)

    rng = _philox_rng(cfg.rng_seed, 78)
    u, _, vt = np.linalg.svd(_candidates(netA, netB, cfg))
    cands = u @ vt
    best_U = cands[int(np.argmin(_objective(tensA, tensB, cands)))]
    floor = FLOOR_ULPS * np.finfo(float).eps * max(np.abs(tensA).max(), np.abs(tensB).max())
    best_U = _refine(tensA, tensB, best_U, rng, RESTARTS, floor)
    u, _, vt = np.linalg.svd(best_U)
    best_U = u @ vt
    return float(_objective(tensA, tensB, best_U)), GaugeRotation(best_U)
