"""Gauge alignment: upper bounds on the parameter distance d_G.

d_G(net, net') = min over V in O(r) of max_a ||F_{V^{x omega}}(T_a) - T'_a||_F.
The minimization is nonconvex; for r >= 3 we search candidate rotations from
eigen-alignment of generic unit combinations, enumerate signs, and refine
locally on O(r).  For r = 2 an exhaustive angle grid (plus reflection),
refined around its best point, makes the bound exact to rounding.  For r = 1
the group is {+1, -1}: both are scored in one batch and the lesser wins, +1
on a tie, so no search or refinement runs.

One kernel, ``_rotate_units``, applies V^{x omega} to the stacked units with
one matrix product per mode, for one V or a batch of them; the candidate
scoring, the r = 2 grid scan and both refinements go through it.  The r = 2
grid is scored in closed form: on each coset of O(2) the squared distance of
each unit is a trig polynomial of degree omega in the angle, read off by an
FFT of 2 omega + 2 samples and evaluated on the whole grid by one product
with a cached cos/sin basis.  Only the grid points within a rounding band of
the least such score are scored by ``_objective``; the point a direct scan of
every grid rotation picks is always among them (``_grid_scan_r2``).  The
r >= 3 search starts no further Nelder-Mead run once its best value is at
the rounding level of the units, ``FLOOR_ULPS * eps * max |T_a|``: no start
can lower it by more than rounding, so an exact rotated copy costs no
refinement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._deferred import minimize, minimize_scalar
from .errors import UsageError
from .networks import PolyNetwork, _philox_rng, paired_outers
from .tensors import GaugeRotation, _triu

__all__ = ["AlignmentConfig", "gauge_distance"]


@dataclass
class AlignmentConfig:
    """``rng_seed`` keys the combinations and Nelder-Mead starts of the
    r >= 3 search; the r = 1 and r = 2 paths draw nothing and ignore it."""

    rng_seed: int = 0


# Nelder-Mead starts of the r >= 3 refinement
RESTARTS = 8
# angle step of the r = 2 grid scan
GRID_STEP = 1e-3
# generic unit combinations whose eigenframes seed the r >= 3 candidates
COMBOS = 4
# the rounding level of an alignment, in units of eps * max |T_a|: the best
# eigenframe candidate of an exact rotated copy scores within ~30 of them
# (measured up to r = 6 and omega = 5)
FLOOR_ULPS = 64
# the rounding band of the r = 2 Fourier grid scores, in units of
# 2^omega * eps * max_a (||T_a||^2 + ||T'_a||^2): a score and the square of
# the exact objective at the same grid point differ by at most 2.3 of them at
# omega = 2 and 0.4 from omega = 5 on (measured on 150 pairs at each omega in
# 2, 3, 5, 7, 9, 11: rotated, reflected, noisy and unrelated copies with unit
# scales 1e-3 to 30)
FOURIER_ULPS = 16
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
    """Candidate rotations from eigen-alignment of generic combinations.

    The stacks co-rotate with the gauge: the units of a quadratic network,
    the rank-one F_a = f_a f_a^T of an odd-order one.
    """
    r = netA.r
    rng = _philox_rng(cfg.rng_seed, 77)
    stackA, stackB = (
        net.Q if net.kind == "quadratic" else paired_outers(net) for net in (netA, netB)
    )
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
    """Rotations by the angles theta, (2, 2) or (B, 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


@functools.lru_cache(maxsize=8)
def _grid(omega: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The r = 2 angle grid and its trig basis [1, cos k theta, sin k theta],
    k = 1..omega, one column per grid angle; built on first use, then kept (a
    few hundred KB per omega), read-only since every caller shares them."""
    thetas = np.arange(0.0, 2 * math.pi, step)
    ktheta = np.multiply.outer(np.arange(1, omega + 1), thetas)
    basis = np.vstack([np.ones((1, thetas.size)), np.cos(ktheta), np.sin(ktheta)])
    for a in (thetas, basis):
        a.setflags(write=False)
    return thetas, basis


def _grid_scan_r2(tensA, tensB, step):
    """Best point of the SO(2) + reflected-coset angle grid, as a direct scan
    of every grid rotation finds it: (index, angle, ``_objective`` value) of
    the first least value, the proper rotations indexed before the reflected.

    On each coset, h_a(theta) = <R(theta)^{x omega} T_a, T'_a> is a trig
    polynomial of degree omega, so its values at N = 2 omega + 2 equispaced
    angles (one ``_rotate_units`` call for both cosets) give its
    coefficients by one real FFT.  The grid then scores
    g_a = ||T_a||^2 + ||T'_a||^2 - 2 h_a by one product with the cached basis.
    The score and the square of ``_objective`` at one grid point differ by
    less than the band ``FOURIER_ULPS * 2^omega * eps * max_a (||T_a||^2 +
    ||T'_a||^2)``, by a factor of about 7 or more as measured.  So the point
    the direct scan picks, having the least exact value, scores within two
    bands of the least score, and every point of equal exact value does too.
    Only the points within two bands are scored by ``_objective``, in grid
    order, which gives the direct scan's index, value and tie-break.
    """
    omega = tensA.ndim - 1
    thetas, basis = _grid(omega, step)
    d = len(tensA)
    flatA, flatB = tensA.reshape(d, -1), tensB.reshape(d, -1)
    n = 2 * omega + 2
    R = _rot2(2 * math.pi * np.arange(n) / n)
    samples = _rotate_units(np.concatenate([R, R @ REFL]), tensA).reshape(2, n, d, -1)
    c = np.fft.rfft(np.einsum("cjak,ak->caj", samples, flatB), axis=-1)[..., :omega + 1] * (2 / n)
    c[..., 0] /= 2
    # (coset, unit, [a_0, a_1..a_omega, b_1..b_omega])
    coef = np.concatenate([c.real, -c.imag[..., 1:]], axis=-1)
    norms = np.square(flatA).sum(axis=1) + np.square(flatB).sum(axis=1)
    g = -2 * (coef @ basis)
    # in place: the same sum into a new array took 1.2 ms against 0.1 ms (d = 10)
    g += norms[:, None]
    score = g.max(axis=1).ravel()
    band = FOURIER_ULPS * tensA[0].size * np.finfo(float).eps * norms.max()
    cand = np.flatnonzero(score <= score.min() + 2 * band)
    ang = thetas[cand % thetas.size]
    V = _rot2(ang)
    flip = cand >= thetas.size
    V[flip] = V[flip] @ REFL
    obj = _objective(tensA, tensB, V)
    i = int(np.argmin(obj))
    return int(cand[i]), float(ang[i]), obj[i]


def _refine_r2(tensA, tensB, theta0, flip, best, step):
    """Two bounded scalar passes around the grid point theta0 of the proper
    (or, with ``flip``, reflected) coset; returns (distance, V)."""
    def rotation(theta):
        return _rot2(theta) @ REFL if flip else _rot2(theta)

    # refine the offset from the grid point, not the angle itself: the
    # bounded method stops within ~sqrt(eps) |x| of the minimum, and |theta|
    # reaches 2 pi.  Over +-2 step that is still ~1e-10, so a second pass
    # over +-1e-9 around the first answer resolves the angle to its rounding,
    # and the distance to rounding whatever the size of the units.
    theta = theta0
    for width in (2 * step, 1e-9):
        center = theta
        res = minimize_scalar(
            lambda delta: _objective(tensA, tensB, rotation(center + delta)),
            bounds=(-width, width), method="bounded",
            options={"xatol": 2 * math.pi * np.finfo(float).eps},
        )
        if res.fun <= best:
            theta, best = center + float(res.x), res.fun
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
    Deterministic given cfg.rng_seed.
    """
    cfg = cfg or AlignmentConfig()
    if (netA.r, netA.d, netA.omega) != (netB.r, netB.d, netB.omega):
        raise UsageError("networks must share (r, d, omega)")
    r = netA.r
    tensA, tensB = netA.unit_tensors(), netB.unit_tensors()

    if r == 1:
        # O(1) = {+1, -1}: score both, +1 first on a tie
        signs = np.array([[[1.0]], [[-1.0]]])
        U = signs[int(np.argmin(_objective(tensA, tensB, signs)))]
        return float(_objective(tensA, tensB, U)), GaugeRotation(U)
    if r == 2:
        k, theta, best = _grid_scan_r2(tensA, tensB, GRID_STEP)
        flip = k >= _grid(netA.omega, GRID_STEP)[0].size
        val, V = _refine_r2(tensA, tensB, theta, flip, best, GRID_STEP)
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
