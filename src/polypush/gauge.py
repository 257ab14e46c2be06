"""Gauge alignment: upper bounds on the parameter distance d_G.

d_G(net, net') = min over V in O(r) of max_a ||F_{V^{x omega}}(T_a) - T'_a||_F.
The minimization is nonconvex; we search candidate rotations from
eigen-alignment of generic unit combinations, enumerate signs, and refine
locally on O(r).  For r = 2 an exhaustive angle grid (plus reflection),
refined around its best point, makes the bound exact to ~1e-12; for r = 1
the candidates are exactly +-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar

from .errors import UsageError
from .networks import PolyNetwork, _philox_rng, paired_outers
from .tensors import GaugeRotation, rotate_tensor

__all__ = ["AlignmentConfig", "gauge_distance"]


@dataclass
class AlignmentConfig:
    rng_seed: int = 0


# Nelder-Mead starts of the r >= 3 refinement
RESTARTS = 8
# angle step of the r = 2 grid scan
GRID_STEP = 1e-3
# generic unit combinations whose eigenframes seed the r >= 3 candidates
COMBOS = 4


def _objective(tensA: np.ndarray, tensB: np.ndarray, V: np.ndarray) -> float:
    """max_a ||F_{V^{x omega}}(T_a) - T'_a||_F."""
    worst = 0.0
    for Ta, Tb in zip(tensA, tensB):
        worst = max(worst, float(np.linalg.norm(rotate_tensor(V, Ta) - Tb)))
    return worst


def _alignment_matrices(net: PolyNetwork, stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """A symmetric r x r matrix whose eigenframe tracks the gauge.

    ``stack`` holds matrices that co-rotate with the gauge: the units of a
    quadratic network, the rank-one F_a = f_a f_a^T of an odd-order one.
    Returns their coefficient combination.
    """
    if net.kind == "quadratic":
        return np.einsum("a,aij->ij", coeffs, stack)
    M = np.zeros((net.r, net.r))
    for a in range(net.d):
        M += coeffs[a] * stack[a]
    return M


def _candidates(netA: PolyNetwork, netB: PolyNetwork, cfg: AlignmentConfig):
    """Candidate rotations from eigen-alignment of generic combinations."""
    r = netA.r
    rng = _philox_rng(cfg.rng_seed, 77)
    stackA, stackB = (
        net.Q if net.kind == "quadratic" else paired_outers(net) for net in (netA, netB)
    )
    cands = [np.eye(r)]
    for _ in range(COMBOS):
        c = rng.standard_normal(netA.d)
        A = _alignment_matrices(netA, stackA, c)
        B = _alignment_matrices(netB, stackB, c)
        _, Va = np.linalg.eigh(A)
        _, Vb = np.linalg.eigh(B)
        for s in itertools.product((1.0, -1.0), repeat=r):
            cands.append(Vb @ np.diag(s) @ Va.T)
    if netA.omega % 2 == 1:
        cands.extend([-U for U in list(cands)])
    # score identical candidates once: at r = 1 all of them are +-1
    return list({U.tobytes(): U for U in cands}.values())


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _grid_scan_r2(tensA, tensB, step):
    """Exhaustive SO(2) + reflected-coset scan, vectorized over the angle grid."""
    thetas = np.arange(0.0, 2 * math.pi, step)
    c, s = np.cos(thetas), np.sin(thetas)
    R = np.empty((thetas.size, 2, 2))
    R[:, 0, 0], R[:, 0, 1] = c, -s
    R[:, 1, 0], R[:, 1, 1] = s, c
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    best = (np.inf, None)
    for flip in (False, True):
        Vb = R @ refl if flip else R
        # batch-apply V to every unit tensor on all modes
        rotated = np.stack(
            [_batch_rotate(Vb, Ta) for Ta in tensA]
        )  # (d, B, 2, 2, ...)
        diffs = rotated - np.stack(tensB)[:, None]
        sq = diffs.reshape(len(tensA), thetas.size, -1)
        obj = np.sqrt(np.max(np.sum(sq * sq, axis=2), axis=0))
        k = int(np.argmin(obj))
        if obj[k] < best[0]:
            best = (float(obj[k]), (thetas[k], flip))
    theta0, flip = best[1]

    def f(delta):
        V = _rot2(theta0 + delta) @ refl if flip else _rot2(theta0 + delta)
        return _objective(tensA, tensB, V)

    # refine the offset from the grid point, not the angle itself: the
    # bounded method's tolerance grows with |x|, and |theta| reaches 2 pi
    res = minimize_scalar(
        f, bounds=(-2 * step, 2 * step), method="bounded",
        options={"xatol": 1e-12},
    )
    theta = theta0 + float(res.x) if res.fun <= best[0] else theta0
    V = _rot2(theta) @ refl if flip else _rot2(theta)
    return _objective(tensA, tensB, V), V


def _batch_rotate(Vb: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Apply a batch of rotations (B, r, r) to one tensor on every mode."""
    out = np.broadcast_to(T, (Vb.shape[0],) + T.shape).copy()
    for axis in range(T.ndim):
        out = np.moveaxis(out, axis + 1, 1)
        # contract V over the current mode: (B, r, rest) -> (B, r, rest)
        shape = out.shape
        flat = out.reshape(shape[0], shape[1], -1)
        flat = np.einsum("bij,bjk->bik", Vb, flat)
        out = np.moveaxis(flat.reshape(shape), 1, axis + 1)
    return out


def _skew(xi: np.ndarray, r: int) -> np.ndarray:
    S = np.zeros((r, r))
    iu = np.triu_indices(r, 1)
    S[iu] = xi
    return S - S.T


def _refine(tensA, tensB, U0: np.ndarray, rng: np.random.Generator, restarts: int):
    """Nelder-Mead descent over the exponential chart around U0."""
    r = U0.shape[0]
    npar = r * (r - 1) // 2
    if npar == 0:
        return _objective(tensA, tensB, U0), U0
    best_val, best_U = _objective(tensA, tensB, U0), U0

    def f(xi):
        return _objective(tensA, tensB, U0 @ expm(_skew(xi, r)))

    starts = [np.zeros(npar)] + [
        0.05 * rng.standard_normal(npar) for _ in range(max(0, restarts - 1))
    ]
    for x0 in starts:
        res = minimize(f, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_U = U0 @ expm(_skew(res.x, r))
    return best_val, best_U


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
    tensA = [netA.unit_tensor(a) for a in range(netA.d)]
    tensB = [netB.unit_tensor(a) for a in range(netB.d)]

    if r == 2:
        val, V = _grid_scan_r2(tensA, tensB, GRID_STEP)
        # keep the orthogonality certificate tight
        u, _, vt = np.linalg.svd(V)
        return val, GaugeRotation(u @ vt)

    rng = _philox_rng(cfg.rng_seed, 78)
    best_val, best_U = np.inf, np.eye(r)
    for U in _candidates(netA, netB, cfg):
        u, _, vt = np.linalg.svd(U)
        U = u @ vt
        val = _objective(tensA, tensB, U)
        if val < best_val:
            best_val, best_U = val, U
    best_val, best_U = _refine(tensA, tensB, best_U, rng, RESTARTS)
    u, _, vt = np.linalg.svd(best_U)
    best_U = u @ vt
    return float(_objective(tensA, tensB, best_U)), GaugeRotation(best_U)
