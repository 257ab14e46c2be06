"""Gauge alignment: upper bounds on the parameter distance d_G.

d_G(net, net') = min over V in O(r) of max_a ||F_{V^{x omega}}(T_a) - T'_a||_F.
The minimization is nonconvex; we search candidate rotations from
eigen-alignment of generic unit combinations, enumerate signs, and refine
locally on O(r).  For r <= 2 an exhaustive angle grid (plus reflection) makes
the bound exact to ~1e-8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar

from .errors import UsageError
from .networks import PolyNetwork, rotate_network
from .tensors import GaugeRotation, paired_contraction, rotate_tensor

__all__ = ["AlignmentConfig", "gauge_distance"]


@dataclass
class AlignmentConfig:
    rng_seed: int = 0
    restarts: int = 8
    grid_step: float = 1e-3
    combos: int = 4
    refine: bool = True


def _objective(tensA: np.ndarray, tensB: np.ndarray, V: np.ndarray) -> float:
    """max_a ||F_{V^{x omega}}(T_a) - T'_a||_F."""
    worst = 0.0
    for Ta, Tb in zip(tensA, tensB):
        worst = max(worst, float(np.linalg.norm(rotate_tensor(V, Ta) - Tb)))
    return worst


def _alignment_matrices(net: PolyNetwork, coeffs: np.ndarray) -> np.ndarray:
    """A symmetric r x r matrix whose eigenframe tracks the gauge.

    Quadratic networks use the coefficient combination of the units directly;
    odd-order networks use the same combination of the rank-one matrices built
    from paired-contraction vectors (which co-rotate with the gauge).
    """
    if net.kind == "quadratic":
        return np.einsum("a,aij->ij", coeffs, net.Q)
    M = np.zeros((net.r, net.r))
    for a in range(net.d):
        f = paired_contraction(net.unit_tensor(a))
        M += coeffs[a] * np.outer(f, f)
    return M


def _sign_candidates(r: int):
    for signs in itertools.product((1.0, -1.0), repeat=r):
        yield np.array(signs)


def _candidates(netA: PolyNetwork, netB: PolyNetwork, cfg: AlignmentConfig):
    """Candidate rotations from eigen-alignment of generic combinations."""
    r = netA.r
    rng = np.random.Generator(np.random.Philox(key=(cfg.rng_seed, 77)))
    cands = [np.eye(r)]
    for _ in range(cfg.combos):
        c = rng.standard_normal(netA.d)
        A = _alignment_matrices(netA, c)
        B = _alignment_matrices(netB, c)
        _, Va = np.linalg.eigh(A)
        _, Vb = np.linalg.eigh(B)
        for s in _sign_candidates(r):
            cands.append(Vb @ np.diag(s) @ Va.T)
    if netA.omega % 2 == 1:
        cands.extend([-U for U in list(cands)])
    return cands


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _grid_scan_r2(tensA, tensB, omega, step):
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

    def f(theta):
        V = _rot2(theta) @ refl if flip else _rot2(theta)
        return _objective(tensA, tensB, V)

    res = minimize_scalar(
        f, bounds=(theta0 - 2 * step, theta0 + 2 * step), method="bounded",
        options={"xatol": 1e-12},
    )
    theta = float(res.x) if res.fun <= best[0] else theta0
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
    r, omega = netA.r, netA.omega
    tensA = [netA.unit_tensor(a) for a in range(netA.d)]
    tensB = [netB.unit_tensor(a) for a in range(netB.d)]

    if r == 1:
        vals = {1.0: _objective(tensA, tensB, np.array([[1.0]]))}
        vals[-1.0] = _objective(tensA, tensB, np.array([[-1.0]]))
        s = min(vals, key=vals.get)
        return vals[s], GaugeRotation(np.array([[s]]))

    if r == 2:
        val, V = _grid_scan_r2(tensA, tensB, omega, cfg.grid_step)
        # keep the orthogonality certificate tight
        u, _, vt = np.linalg.svd(V)
        return val, GaugeRotation(u @ vt)

    rng = np.random.Generator(np.random.Philox(key=(cfg.rng_seed, 78)))
    best_val, best_U = np.inf, np.eye(r)
    for U in _candidates(netA, netB, cfg):
        u, _, vt = np.linalg.svd(U)
        U = u @ vt
        val = _objective(tensA, tensB, U)
        if val < best_val:
            best_val, best_U = val, U
    if cfg.refine:
        best_val, best_U = _refine(tensA, tensB, best_U, rng, cfg.restarts)
    u, _, vt = np.linalg.svd(best_U)
    best_U = u @ vt
    return float(_objective(tensA, tensB, best_U)), GaugeRotation(best_U)
