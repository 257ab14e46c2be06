"""Low-rank symmetric tensor factorization from pairwise Sigma-inner products.

Recovers rank-ell order-omega networks from S_ab ~ <T_a, T_b>_Sigma through
tensor_ring._recover, the one recovery path both kinds share; this module
gives it the pair-moment fit, its closed-form start and its certificate
(_pair_kind).  The gauge is broken through the paired-contraction vectors
f_a: the rank-one matrices F_a = f_a f_a^T transform like quadratic units, so
the pair find_combo draws from the Gram of the fit's F_a gauge-fixes it
through gauge_fix on the F_a, and the leftover +-Id of odd orders is fixed
by an argmax anchor.  At ell = 1 the fit's first start is a closed form
(_rank1_components): the diagonal of S gives the component norms and each
off-diagonal entry, through the increasing pair moment, the cosine of a
pair, so the Gram of the components and its top-r eigenpairs follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._lm import least_squares
from .errors import ConvergenceError, DegeneracyError, UsageError, check_settings
from .moments import (
    PairMomentTable,
    _mode_sigma,
    pair_moment_closed_form,
    pair_moment_partials,
)
from .networks import PolyNetwork, _philox_rng, paired_outers
from .relaxation import KAPPA, gate_certificate, lowrank_certificate
# tensor_ring._recover computes the gauge distance, and no recovery path
# encodes or solves a program: perfbench/tracing.py wraps the names
# lowrank.gauge_distance, lowrank.encode_lowrank and lowrank.solve, and
# tests/test_trace_points.py checks that they resolve
from .gauge import gauge_distance  # noqa: F401
from .relaxation import encode_lowrank, solve  # noqa: F401
from . import tensor_ring
from .tensor_ring import RecoveryReport
from .tensors import (
    _sorted_indices,
    _sorted_multiplicity,
    _triu,
    _triu_mask,
    sorted_entries,
)

__all__ = [
    "LRConfig",
    "factorize",
    "exact_lowrank_pair_moments",
    "verify_assumption_lr",
]


@dataclass
class LRConfig:
    r: int
    omega: int = 3
    ell: int = 1
    backend: str = "local"  # local | sos
    restarts: int = 20
    rng_seed: int = 0
    eta: float = 0.0

    def __post_init__(self):
        check_settings({"r": self.r, "omega": self.omega, "ell": self.ell,
                        "restarts": self.restarts}, {}, {"eta": self.eta})
        if self.omega % 2 == 0:
            raise UsageError("the factorization path needs odd omega")
        if self.backend not in ("local", "sos"):
            raise UsageError(f"unknown low-rank backend {self.backend!r}")


def _pair_table(comps: np.ndarray, omega: int) -> np.ndarray:
    """The pair-moment model: S_ab sums the Gaussian pair moments
    E<v,g>^omega <w,g>^omega (pair_moment_closed_form) of (v_{a,t}, v_{b,t'})
    over the components t of unit a and t' of unit b, from the Gram of all
    components; the upper triangle is mirrored (adding 0.0 turns a -0.0
    entry into +0.0, as np.triu(S) + np.triu(S, 1).T does)."""
    d, ell, r = comps.shape
    V = comps.reshape(d * ell, r)
    G = V @ V.T
    n2 = np.diag(G)
    vals = pair_moment_closed_form(G, n2[:, None], n2[None, :], omega)
    S = vals.reshape(d, ell, d, ell).sum(axis=(1, 3))
    return np.where(_triu_mask(d), S, S.T) + 0.0


def _pair_table_jacobian(comps: np.ndarray, omega: int, rows) -> np.ndarray:
    """Jacobian of the _pair_table entries S_ab at (a, b) = ``rows`` in the
    components, one row per entry and one column per component entry.

    With V the (d*ell, r) stack of all components, G = V Vᵀ and n = diag G,
    pair(v_i, v_j) has gradient p_dot v_j + 2 p_nv2 v_i in v_i and
    p_dot v_i + 2 p_nw2 v_j in v_j; S_ab sums them over the components of
    units a and b."""
    d, ell, r = comps.shape
    V = comps.reshape(d * ell, r)
    G = V @ V.T
    n2 = np.diag(G)
    p_dot, p_nv2, p_nw2 = pair_moment_partials(G, n2[:, None], n2[None, :], omega)
    g_i = p_dot[..., None] * V[None, :, :] + 2 * p_nv2[..., None] * V[:, None, :]
    g_j = p_dot[..., None] * V[:, None, :] + 2 * p_nw2[..., None] * V[None, :, :]
    g_i = g_i.reshape(d, ell, d, ell, r).sum(axis=3)  # [a, t, b]: summed over b's components
    g_j = g_j.reshape(d, ell, d, ell, r).sum(axis=1)  # [a, b, t']: summed over a's components
    a, b = rows
    k = np.arange(a.size)
    J = np.zeros((a.size, d, ell, r))
    J[k, a] += g_i[a, :, b]
    J[k, b] += g_j[a, b]
    return J.reshape(a.size, -1)


def exact_lowrank_pair_moments(net: PolyNetwork) -> PairMomentTable:
    """Exact pair moments S_ab = <T_a, T_b>_Sigma = E[y_a y_b] of a low-rank
    network's pushforward of the Gaussian seed."""
    if net.kind != "lowrank":
        raise UsageError("pair-moment tables need a low-rank network")
    return PairMomentTable(S=_pair_table(net.components, net.omega))


# ---------------------------------------------------------------------------
# the pair-moment fit and its starts
# ---------------------------------------------------------------------------

# a component fit's residual at or below this ends its starts
FIT_TOL = 1e-10
# safeguarded Newton steps _pair_cosines takes at most
NEWTON_STEPS = 60


def _pair_cosines(y, omega: int):
    """The t in [-1, 1] with p(t) = y p(1), elementwise, where
    p(t) = pair_moment_closed_form(t, 1, 1, omega) is odd and increasing for
    odd omega; |y| >= 1 maps to +-1.

    Newton's method from t = y^(1/omega), the root of t^omega = y, falls
    back to bisection whenever a step leaves the bracket of the root.
    """
    c = pair_moment_closed_form(1.0, 1.0, 1.0, omega)
    y = np.clip(y, -1.0, 1.0)
    t = np.sign(y) * np.abs(y) ** (1.0 / omega)
    lo, hi = -np.ones_like(t), np.ones_like(t)
    for _ in range(NEWTON_STEPS):
        f = pair_moment_closed_form(t, 1.0, 1.0, omega) - c * y
        lo = np.where(f < 0, t, lo)
        hi = np.where(f > 0, t, hi)
        slope = pair_moment_partials(t, 1.0, 1.0, omega)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - f / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        step = np.where(f == 0, t, step)
        moved = np.max(np.abs(step - t), initial=0.0)
        t = step
        if moved <= 2 * np.finfo(float).eps:
            break
    return t


def _rank1_components(S: np.ndarray, cfg: LRConfig) -> tuple[np.ndarray, float]:
    """The packed components of an ell = 1 network in closed form.

    pair(v_a, v_b) = |v_a|^omega |v_b|^omega p(cos), so S_aa = c |v_a|^(2 omega)
    with c = p(1) gives the norms, p(t_ab) = c S_ab / sqrt(S_aa S_bb) the
    cosines (_pair_cosines), and the top-r eigenpairs of the Gram
    |v_a| |v_b| t_ab the components up to O(r).
    Returns (the components, the gap between the Gram's r-th eigenvalue and
    the next, 0 past the last).  Raises DegeneracyError at ell >= 2 or when
    a diagonal entry of S is not positive.
    """
    if cfg.ell != 1:
        raise DegeneracyError("the closed form needs ell = 1")
    omega, r = cfg.omega, cfg.r
    diag = np.diag(S)
    s = diag / pair_moment_closed_form(1.0, 1.0, 1.0, omega)
    if np.min(s) <= 0:
        raise DegeneracyError("the closed form needs a positive diagonal of S")
    norms = s ** (1.0 / (2 * omega))
    cos = _pair_cosines(S / np.sqrt(np.outer(diag, diag)), omega)
    w, U = np.linalg.eigh(np.outer(norms, norms) * cos)
    order = np.argsort(w)[::-1]
    gap = float(w[order[r - 1]] - (w[order[r]] if w.size > r else 0.0))
    top = order[:r]
    return (U[:, top] * np.sqrt(np.maximum(w[top], 0.0))).reshape(-1), gap


def _random_components(S: np.ndarray, cfg: LRConfig):
    """``cfg.restarts`` packed Gaussian starts scaled to the diagonal of S,
    drawn from the Philox stream (cfg.rng_seed, 42)."""
    rng = _philox_rng(cfg.rng_seed, 42)
    n = S.shape[0] * cfg.ell * cfg.r
    scale = (float(np.max(np.abs(np.diag(S)))) + 1e-12) ** (1.0 / (2 * cfg.omega))
    for _ in range(cfg.restarts):
        yield scale * rng.standard_normal(n) / math.sqrt(cfg.r)


# ---------------------------------------------------------------------------
# the sos certificate: the gauge-fixed fit, checked against the moment
# program's constraints in closed form
# ---------------------------------------------------------------------------

def _certify(S: np.ndarray, net: PolyNetwork, lam, mu, cfg: LRConfig):
    """The certificate of the gauge-fixed fit ``net``: relaxation's closed
    form of the degree-2 omega program encode_lowrank states with the gauge
    families of (lam, mu), at the point the fit completes.  Returns (its
    worst violation, the worst violation of each constraint family); raises
    ConvergenceError when the fit breaks the program's constraints."""
    r, omega = cfg.r, cfg.omega
    floor = _mode_sigma(r, omega)[2]
    # the program is stated in the scale where tensor entries are O(1), so
    # the certificate's absolute floor of 1e-7 is relative to the table
    sc = 1.0 / math.sqrt(float(np.max(np.diag(S))) + 1e-300)
    S = S * sc**2
    eta_sc = cfg.eta * sc**2
    R = (float(np.max(np.diag(S))) + 1e-9) ** 0.5 / min(1.0, np.sqrt(floor))
    # pair moments have degree 2 omega in the components
    scaled = PolyNetwork(
        kind="lowrank", r=r, d=S.shape[0], omega=omega, ell=cfg.ell,
        components=net.components * sc ** (1.0 / omega),
    )
    families = lowrank_certificate(
        sorted_entries(scaled.unit_tensors(), omega), scaled.components, r, omega, S,
        R=R, kappa=KAPPA, eta=eta_sc, lam=lam, mu=mu,
    )
    return gate_certificate(families, eta_sc), families


def _pair_kind(S: np.ndarray, T: None, cfg: LRConfig) -> dict:
    """The low-rank fields of tensor_ring._recover's _Kind.  The fit matches
    the upper triangle of S in the components, from the closed form at
    ell = 1 (_rank1_components), then Philox stream 42; both backends refuse
    a fit residual above max(1e3 eta, 1e-6), and the pair comes from the
    Gram of the fit's F_a.  UsageError up front when the pair moments are
    fewer than the component entries, or, for ``sos``, when d < m: its
    certificate never builds, lifts or solves the program, so r, d and omega
    are not capped."""
    d = S.shape[0]
    r, ell, omega = cfg.r, cfg.ell, cfg.omega
    m = math.comb(r + omega - 1, omega)
    if cfg.backend == "sos" and d < m:
        raise UsageError(f"relaxation path needs d >= C(r+omega-1,omega) = {m}")
    iu = _triu(d)
    if iu[0].size < d * ell * r:
        raise UsageError(
            f"{iu[0].size} pair moments cannot determine {d * ell * r} component "
            f"entries (d = {d}, ell = {ell}, r = {r})"
        )
    target = S[iu]

    def fun(x):
        return _pair_table(x.reshape(d, ell, r), omega)[iu] - target

    def fit(x0):
        sol = least_squares(
            fun, x0, jac=lambda x: _pair_table_jacobian(x.reshape(d, ell, r), omega, iu),
            max_nfev=tensor_ring.FIT_MAX_NFEV,
        )
        return sol.x.reshape(d, ell, r), float(np.max(np.abs(sol.fun))), sol

    def fit_gate(res, sos, cause):
        threshold = max(1e3 * cfg.eta, 1e-6)
        if res > threshold:
            raise ConvergenceError(f"component fit residual {res:.3e} above {threshold:.3e}")

    def residuals(net, sos):
        return float(np.max(np.abs(_pair_table(net.components, omega) - S))), 0.0

    return dict(
        network=lambda comps: PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell,
                                          components=comps),
        omega=omega, fit_tol=FIT_TOL, fit=fit, closed_form=lambda: _rank1_components(S, cfg),
        random_starts=_random_components(S, cfg), fit_gate=fit_gate, stack=paired_outers,
        certificate=lambda net, lam, mu: _certify(S, net, lam, mu, cfg),
        residuals=residuals,
        unfixable="the Gram of its F_a or the lambda-combination is degenerate",
    )


def factorize(
    S: np.ndarray,
    config: LRConfig,
    truth: Optional[PolyNetwork] = None,
) -> RecoveryReport:
    """Recover a rank-ell network from pairwise Sigma-moments:
    tensor_ring._recover's path with the low-rank fields of _pair_kind.
    ``sos``'s certificate families are "bands", "caps", "structure",
    "left_inverse" and "gauge".

    A rotation-invariant seed D only rescales the pair moments: its table
    is S = C S_G, with S_G the Gaussian table of the same network and
    C = moments.rotation_invariant_scale(D, 2 * omega, r).  So
    ``factorize(S / C, LRConfig(..., eta=eta / C))`` recovers the network
    from it.
    """
    return tensor_ring._recover(_pair_kind, S, None, config, truth)


@dataclass
class AssumptionReportLR:
    radius: float
    sigma_min_M: float
    sigma_min_H: float
    sigma_min_K: Optional[float] = None
    k_skipped: Optional[str] = None
    predicted_psi: Optional[float] = None
    predicted_kappa: Optional[float] = None
    flag_psi: Optional[bool] = None
    flag_kappa: Optional[bool] = None


# verify_assumption_lr skips K^(e) above this many columns
K_MAX_COLS = 20000


def verify_assumption_lr(net: PolyNetwork) -> AssumptionReportLR:
    """Condition-number diagnostics for low-rank networks.

    M*: rows are sorted-index flattenings of T_a (multiplicity-weighted so the
    Gram matches the Frobenius product); H: rows (f_a)_i (f_a)_j over i <= j;
    K^{(e)}: rows are sorted-index flattenings of w_a^{x e} for the
    concatenated component vector w_a, e = omega*(ell+1), computed only when
    the column count stays under K_MAX_COLS.
    """
    if net.kind != "lowrank":
        raise UsageError("verify_assumption_lr needs a lowrank network")
    r, d, omega, ell = net.r, net.d, net.omega, net.ell
    M = np.sqrt(_sorted_multiplicity(r, omega)) * sorted_entries(
        net.unit_tensors(), omega
    )
    svals = np.linalg.svd(M, compute_uv=False)
    sigma_min_M = float(svals[min(M.shape) - 1])

    mh = r * (r + 1) // 2
    iu, ju = _triu(r)
    H = paired_outers(net)[:, iu, ju]
    hs = np.linalg.svd(H, compute_uv=False)
    sigma_min_H = float(hs[min(d, mh) - 1])

    rep = AssumptionReportLR(
        radius=net.radius, sigma_min_M=sigma_min_M, sigma_min_H=sigma_min_H
    )
    e = omega * (ell + 1)
    ncols = math.comb(r * ell + e - 1, e)
    if ncols > K_MAX_COLS:
        rep.k_skipped = f"K^({e}) needs {ncols} columns (> {K_MAX_COLS}); skipped"
    else:
        kidx = _sorted_indices(r * ell, e)
        w = net.components.reshape(d, -1)
        # prod_k w[kidx[u, k]], one factor at a time: (d, ncols) temporaries
        K = w[:, kidx[:, 0]]
        for k in range(1, e):
            K = K * w[:, kidx[:, k]]
        K = np.sqrt(_sorted_multiplicity(r * ell, e)) * K
        ks = np.linalg.svd(K, compute_uv=False)
        rep.sigma_min_K = float(ks[min(K.shape) - 1])
    if net.smoothing_rho is not None:
        rho = net.smoothing_rho
        rep.predicted_psi = (rho / (r * omega)) ** omega
        rep.predicted_kappa = math.sqrt(d * ell) * (rho**2 * omega / r) ** (omega / 2)
        rep.flag_psi = sigma_min_H >= 0.01 * rep.predicted_psi
        rep.flag_kappa = sigma_min_M >= 0.01 * rep.predicted_kappa
    return rep
