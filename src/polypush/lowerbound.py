"""Diagonal hard instances: parameter-distant networks with tiny output gaps.

Builds pairs of diagonal quadratic networks whose pushforward distributions
are exponentially close in characteristic function while the parameters stay
order-1 apart.  The construction matches power sums of the diagonal entries;
the characteristic-function gap then carries a (2t)^{2r} prefactor that
crushes it near the origin.

A caveat recorded in the project ledger: matching ALL power sums
p_1..p_{2r-1} of two distinct positive multisets is impossible (Newton's
identities recover the multiset from p_1..p_r), so the search matches the
even power sums p_2, ..., p_{2r-2} — which drive the gap structure — plus as
many low odd power sums as the identities allow (p_1 and p_3 for r >= 5, p_1
only for r = 4, none for r = 3), softly minimizes the rest, and reports the
literal residual over all of p_1..p_{2r-1} honestly (it is provably
positive for distinct multisets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._deferred import least_squares
from .errors import ConvergenceError, UsageError, check_settings
from .networks import PolyNetwork, _philox_rng

__all__ = [
    "MatchedPair",
    "LBInstance",
    "search_matched_pair",
    "build_networks",
    "char_gap",
    "param_distance_lb",
    "pair_to_json",
    "hard_targets",
]


@dataclass
class MatchedPair:
    r: int
    a: np.ndarray
    b: np.ndarray
    a_hp: list[str]  # high-precision decimal strings
    b_hp: list[str]
    residual: float  # literal sum_{l=1}^{2r-1} (p_l(a)-p_l(b))^2
    residual_matched: float  # residual over the hard-constrained power sums
    moment_diffs: list[float] = field(default_factory=list)
    separation: float = 0.0  # sum (a_i - b_i)^2, normalized to 1/4
    success: bool = False  # literal residual <= requested tol


@dataclass
class LBInstance:
    pair: MatchedPair
    net_a: PolyNetwork
    net_b: PolyNetwork
    sup_gap: float = 0.0
    analytic_bound: float = 0.0
    param_distance: float = 0.0


def hard_targets(r: int, odds: tuple[int, ...] = ()) -> list[int]:
    """Power-sum indices forced to match exactly: the evens 2..2(r-1) (these
    drive the characteristic-function gap structure) plus the requested low
    odd sums.  Not every odd set is feasible — whenever the combined set
    contains the full prefix p_1..p_{r-1}, Newton's identities make any
    further matched sum linear in the one remaining free elementary
    symmetric function and force a = b — so the search tries odd sets in
    decreasing ambition and keeps the first that converges."""
    targets = {2 * l for l in range(1, r)} | set(odds)
    return sorted(l for l in targets if l <= 2 * r - 1)


def search_matched_pair(
    r: int, restarts: int = 8, tol: float = 1e-10, rng_seed: int = 0
) -> MatchedPair:
    """Distinct multisets a, b in the boxes [i-1/4, i+1/4] matching the hard
    power-sum targets, with the separation sum (a-b)^2 pinned to 1/4.

    float64 least squares (hard targets exact, remaining low power sums
    softly weighted) finds the basin; a 60-digit Gauss-Newton polish drives
    the hard equations to ~1e-50.  The literal residual over p_1..p_{2r-1}
    is evaluated in high precision and reported as-is; success records
    whether it met tol (for distinct multisets it cannot reach zero).
    """
    if r < 3:
        raise UsageError("need r >= 3 for a matched pair")
    check_settings({"restarts": restarts}, {"tol": tol})
    base = np.arange(1, r + 1, dtype=float)
    best_pair: Optional[MatchedPair] = None
    for odds in ((1, 3), (1,), ()):
        pair = _attempt_pair(r, hard_targets(r, odds), base, restarts, rng_seed)
        if pair is None:
            continue
        if pair.residual_matched < 1e-60:
            pair.success = pair.residual <= tol
            return pair
        if best_pair is None or pair.residual < best_pair.residual:
            best_pair = pair
    if best_pair is None:
        raise ConvergenceError("no matched-pair candidate stayed in the boxes")
    best_pair.success = best_pair.residual <= tol
    return best_pair


def _attempt_pair(
    r: int, targets: list[int], base: np.ndarray, restarts: int, rng_seed: int
) -> Optional[MatchedPair]:
    import mpmath as mp

    rng = _philox_rng(rng_seed, 7)
    soft = [l for l in range(1, 2 * r) if l not in targets]
    nteq = len(targets)

    def split(x):
        c = x[:r]
        w = x[r:]
        delta = w / (4.0 * np.linalg.norm(w))  # ||a-b||_2 = 1/2
        return c + delta, c - delta

    scales = np.array([max(1.0, r * float(r) ** l) for l in targets])
    soft_scales = np.array([max(1.0, r * float(r) ** l) for l in soft])

    def fun(x):
        a, b = split(x)
        res = np.empty(nteq + len(soft))
        for k, l in enumerate(targets):
            res[k] = (np.sum(a**l) - np.sum(b**l)) / scales[k]
        for k, l in enumerate(soft):
            res[nteq + k] = 1e-3 * (np.sum(a**l) - np.sum(b**l)) / soft_scales[k]
        return res

    best, best_res = None, np.inf
    for _ in range(restarts):
        c0 = base + 0.02 * rng.standard_normal(r)
        w0 = rng.standard_normal(r)
        x0 = np.concatenate([c0, w0])
        lb = np.concatenate([base - 1.0 / 16, -np.inf * np.ones(r)])
        ub = np.concatenate([base + 1.0 / 16, np.inf * np.ones(r)])
        sol = least_squares(fun, x0, bounds=(lb, ub), xtol=1e-15, ftol=1e-15)
        a1, b1 = split(sol.x)
        if np.any(np.abs(a1 - base) > 0.25) or np.any(np.abs(b1 - base) > 0.25):
            continue
        res = float(np.sum(sol.fun[:nteq] ** 2))
        if res < best_res:
            best_res, best = res, sol.x
    if best is None:
        return None
    a0, b0 = split(best)

    # high-precision polish: Gauss-Newton on the hard equations plus the
    # separation constraint sum (a_i - b_i)^2 = 1/4.
    with mp.workdps(60):
        x = [mp.mpf(float(v)) for v in a0] + [mp.mpf(float(v)) for v in b0]
        quarter = mp.mpf(1) / 4
        mscales = [mp.mpf(float(s)) for s in scales]

        def eqs(av, bv):
            out = []
            for k, l in enumerate(targets):
                out.append(
                    (mp.fsum(v**l for v in av) - mp.fsum(v**l for v in bv))
                    / mscales[k]
                )
            out.append(
                mp.fsum((av[i] - bv[i]) ** 2 for i in range(r)) - quarter
            )
            return out

        for _ in range(150):
            av, bv = x[:r], x[r:]
            F = eqs(av, bv)
            if max(abs(f) for f in F) < mp.mpf("1e-53"):
                break
            n_eq = len(F)
            J = mp.matrix(n_eq, 2 * r)
            for k, l in enumerate(targets):
                for i in range(r):
                    J[k, i] = l * av[i] ** (l - 1) / mscales[k]
                    J[k, r + i] = -l * bv[i] ** (l - 1) / mscales[k]
            for i in range(r):
                J[n_eq - 1, i] = 2 * (av[i] - bv[i])
                J[n_eq - 1, r + i] = -2 * (av[i] - bv[i])
            JT = J.T
            try:
                step = mp.lu_solve(
                    JT * J + mp.eye(2 * r) * mp.mpf("1e-45"), JT * mp.matrix(F)
                )
            except ZeroDivisionError:
                break
            x = [x[i] - step[i] for i in range(2 * r)]
        av = sorted(x[:r])
        bv = sorted(x[r:])
        pa, pb = ([mp.fsum(v**l for v in vals) for l in range(1, 2 * r)] for vals in (av, bv))
        diffs = [pa[l] - pb[l] for l in range(2 * r - 1)]
        residual = float(mp.fsum(dd**2 for dd in diffs))
        residual_matched = float(
            mp.fsum(diffs[l - 1] ** 2 for l in targets)
        )
        separation = float(mp.fsum((av[i] - bv[i]) ** 2 for i in range(r)))
        a_hp = [mp.nstr(v, 45) for v in av]
        b_hp = [mp.nstr(v, 45) for v in bv]
        moment_diffs = [float(dd) for dd in diffs]

    a = np.array([float(v) for v in a_hp])
    b = np.array([float(v) for v in b_hp])
    if np.min(a) <= 0 or np.min(b) <= 0:
        return None
    if abs(separation - 0.25) > 1e-8:
        return None
    if np.any(np.abs(a - base) > 0.25 + 1e-9) or np.any(
        np.abs(b - base) > 0.25 + 1e-9
    ):
        return None
    return MatchedPair(
        r=r, a=a, b=b, a_hp=a_hp, b_hp=b_hp,
        residual=residual, residual_matched=residual_matched,
        moment_diffs=moment_diffs, separation=separation,
    )


def build_networks(pair: MatchedPair) -> LBInstance:
    """Single-unit diagonal networks of seed dimension 2r+6.

    Diagonals (a_1, a_1, ..., a_r, a_r, 1, 1, 1, -1, -1, -1) and the
    b-analogue: each entry doubled, trailing block fixed."""
    r = pair.r
    tail = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    diag_a = np.concatenate([np.repeat(pair.a, 2), tail])
    diag_b = np.concatenate([np.repeat(pair.b, 2), tail])
    side = 2 * r + 6
    net_a = PolyNetwork(kind="quadratic", r=side, d=1, Q=np.diag(diag_a)[None])
    net_b = PolyNetwork(kind="quadratic", r=side, d=1, Q=np.diag(diag_b)[None])
    inst = LBInstance(pair=pair, net_a=net_a, net_b=net_b)
    inst.param_distance = param_distance_lb(pair)
    inst.sup_gap, inst.analytic_bound = char_gap(pair)
    return inst


def char_gap(
    pair: MatchedPair, t_grid: Optional[np.ndarray] = None
) -> tuple[float, float]:
    """Sup over the grid of |qhat_a[t] - qhat_b[t]| with
    qhat[t] = (1+4t^2)^{-3} prod_j (1+4a_j^2 t^2)^{-1}, plus the analytic
    bound |prod a_j^2 - prod b_j^2| / prod_j (a_j + b_{r+1-j})^2.

    The numerator difference is expanded through the elementary-symmetric
    differences of {a_j^2} vs {b_j^2} in 60-digit arithmetic — the float64
    cancellation of two products agreeing to ~1e-50 would otherwise swamp
    the gap — then the grid scan runs in float64.
    """
    import mpmath as mp

    r = pair.r
    if t_grid is None:
        t_grid = np.arange(0.0, 10.0 + 1e-12, 1e-3)
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise UsageError("char_gap needs a nonempty grid")
    with mp.workdps(60):
        av = [mp.mpf(s) for s in pair.a_hp]
        bv = [mp.mpf(s) for s in pair.b_hp]

        def esym(vals):
            e = [mp.mpf(1)] + [mp.mpf(0)] * len(vals)
            for v in vals:
                for k in range(len(vals), 0, -1):
                    e[k] = e[k] + v * e[k - 1]
            return e

        ea = esym([v**2 for v in av])
        eb = esym([v**2 for v in bv])
        delta_e = [float(ea[k] - eb[k]) for k in range(r + 1)]
        prod_den = mp.mpf(1)
        bv_rev = list(reversed(bv))
        for j in range(r):
            prod_den *= (av[j] + bv_rev[j]) ** 2
        analytic = float(abs(ea[r] - eb[r]) / prod_den)
    s = 4.0 * t**2
    num = np.zeros_like(t)
    for k in range(1, r + 1):
        num = num + (s**k) * delta_e[k]
    den = (1.0 + 4.0 * t**2) ** 3
    for j in range(r):
        den = den * (1.0 + s * pair.a[j] ** 2) * (1.0 + s * pair.b[j] ** 2)
    gap = np.abs(num) / den
    return float(np.max(gap)), analytic


def param_distance_lb(pair: MatchedPair) -> float:
    """Minimum matching distance 2 min_pi sum_j |a_j - b_pi(j)|.

    The factor 2 accounts for the doubled diagonal entries.  With the
    separation sum (a-b)^2 = 1/4 and the l1 >= l2 norm inequality, the
    identity matching already gives 2 ||a-b||_1 >= 2 ||a-b||_2 = 1.  In one
    dimension the sorted matching is optimal, so the minimum is exact."""
    return 2.0 * float(np.abs(np.sort(pair.a) - np.sort(pair.b)).sum())


def pair_to_json(inst: LBInstance) -> dict:
    """The JSON form of the instance's pair and bounds."""
    pair = inst.pair
    return {
        "r": pair.r,
        "a": [float(v) for v in pair.a],
        "b": [float(v) for v in pair.b],
        "a_hp": pair.a_hp,
        "b_hp": pair.b_hp,
        "residual": pair.residual,
        "residual_matched": pair.residual_matched,
        "moment_diffs": pair.moment_diffs,
        "separation": pair.separation,
        "success": pair.success,
        "sup_gap": inst.sup_gap,
        "analytic_bound": inst.analytic_bound,
        "param_distance": inst.param_distance,
    }
