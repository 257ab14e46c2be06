"""Low-rank symmetric tensor factorization from pairwise Sigma-inner products.

Recovers rank-ell order-omega networks from S_ab ~ <T_a, T_b>_Sigma.  The
gauge is broken through the paired-contraction vectors f_a: the rank-one
matrices F_a = f_a f_a^T transform like quadratic units, so the quadratic
symmetry-breaking machinery (find_combo / gauge_fix) applies; the leftover
+-Id ambiguity of odd orders is resolved by an argmax anchor and pairwise
signs.  Both backends start from one local fit of the components; sos
rounds the units off one gauge-fixed relaxation warm-started from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .errors import ConvergenceError, DegeneracyError, ResourceError, UsageError
from .gauge import AlignmentConfig, gauge_distance
from .moments import (
    PairMomentTable,
    pair_moment_closed_form,
    pair_moment_partials,
    sigma_matrix,
)
from .networks import PolyNetwork, _philox_rng, paired_outers, rotate_network
from .relaxation import (
    KAPPA,
    Poly,
    SolverConfig,
    Infeasible,
    encode_lowrank,
    finish_warm_point,
    pseudo_expect,
    solve,
)
from .tensor_ring import RecoveryReport, corner_signed_mu, find_combo, gauge_fix
from .tensors import (
    SymTensor,
    multiplicity,
    paired_contraction,
    sorted_multi_indices,
)

__all__ = [
    "LRConfig",
    "f_vector",
    "factorize",
    "exact_lowrank_pair_moments",
    "extend_tail_lr",
    "verify_assumption_lr",
    "hermite_network_pair_moments",
    "pair_inner",
]


@dataclass
class LRConfig:
    r: int
    omega: int = 3
    ell: int = 1
    backend: str = "local"  # local | sos
    degree: Optional[int] = None
    restarts: int = 20
    tol: float = 1e-10
    rng_seed: int = 0
    sigma_mode: str = "gaussian"  # gaussian | identity | rotation_invariant
    sigma_scale: float = 1.0  # rotation-invariant degree-2*omega factor
    eta: float = 0.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.omega % 2 == 0:
            raise UsageError("the factorization path needs odd omega")
        if self.backend not in ("local", "sos"):
            raise UsageError(f"unknown low-rank backend {self.backend!r}")


def f_vector(T) -> np.ndarray:
    """Paired-index contraction of an odd-order symmetric tensor to R^r."""
    if isinstance(T, SymTensor):
        T = T.to_dense()
    T = np.asarray(T, dtype=float)
    if T.ndim % 2 == 0:
        raise UsageError("f_vector needs an odd-order tensor")
    return paired_contraction(T)


def pair_inner(va, vb, omega: int, mode: str = "gaussian", scale: float = 1.0):
    """<v^{x omega}, w^{x omega}>_Sigma for the supported Sigma modes.

    gaussian: the Gaussian pair moment E<v,g>^omega <w,g>^omega;
    identity: plain Frobenius product <v,w>^omega;
    rotation_invariant: the Gaussian value times the degree-2*omega radial scale.
    """
    va = np.asarray(va, dtype=float)
    vb = np.asarray(vb, dtype=float)
    return float(
        _pair_values(float(va @ vb), float(va @ va), float(vb @ vb), omega, mode, scale)
    )


def _pair_values(dot, nv2, nw2, omega: int, mode: str, scale: float):
    """pair_inner from inner products and squared norms, elementwise."""
    if mode == "identity":
        return dot**omega
    val = pair_moment_closed_form(dot, nv2, nw2, omega)
    if mode == "rotation_invariant":
        val = val * scale
    return val


def _pair_table(comps: np.ndarray, omega: int, mode: str, scale: float) -> np.ndarray:
    """The pair-moment model S_ab = sum_{t,t'} pair_inner(v_{a,t}, v_{b,t'})
    over the Gram of all components; the upper triangle is mirrored."""
    d, ell, r = comps.shape
    V = comps.reshape(d * ell, r)
    G = V @ V.T
    n2 = np.diag(G)
    vals = _pair_values(G, n2[:, None], n2[None, :], omega, mode, scale)
    S = vals.reshape(d, ell, d, ell).sum(axis=(1, 3))
    return np.triu(S) + np.triu(S, 1).T


def _pair_partials(dot, nv2, nw2, omega: int, mode: str, scale: float):
    """The partials of _pair_values in dot, nv2 and nw2, elementwise."""
    if mode == "identity":
        zero = np.zeros_like(dot)
        return omega * dot ** (omega - 1), zero, zero
    parts = pair_moment_partials(dot, nv2, nw2, omega)
    if mode == "rotation_invariant":
        parts = tuple(p * scale for p in parts)
    return parts


def _pair_table_jacobian(
    comps: np.ndarray, omega: int, mode: str, scale: float, rows
) -> np.ndarray:
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
    p_dot, p_nv2, p_nw2 = _pair_partials(G, n2[:, None], n2[None, :], omega, mode, scale)
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


def exact_lowrank_pair_moments(
    net: PolyNetwork, mode: str = "gaussian", scale: float = 1.0
) -> PairMomentTable:
    """Exact pair moments E[y_a y_b] of a low-rank network's pushforward."""
    if net.kind != "lowrank":
        raise UsageError("pair-moment tables need a low-rank network")
    return PairMomentTable(
        S=_pair_table(net.components, net.omega, mode, scale), eta=0.0
    )


def hermite_network_pair_moments(
    coeffs: np.ndarray, units: np.ndarray, omega: int
) -> PairMomentTable:
    """Pair moments of a Hermite-activation network with unit directions.

    S_ab = sum_{t,t'} lambda_{a,t} lambda_{b,t'} <v_{a,t}, v_{b,t'}>^omega,
    which equals the plain Frobenius product <T_a, T_b> for
    T_a = sum_t lambda_{a,t} v_{a,t}^{x omega}; usable directly as
    identity-Sigma factorization input.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    units = np.asarray(units, dtype=float)
    d, ell, r = units.shape
    if coeffs.shape != (d, ell):
        raise UsageError("coefficient array must be (d, ell)")
    norms = np.linalg.norm(units, axis=2)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise UsageError("Hermite directions must be unit vectors")
    dots = np.einsum("ati,bsi->atbs", units, units)
    S = np.einsum("at,bs,atbs->ab", coeffs, coeffs, dots**omega)
    return PairMomentTable(S=0.5 * (S + S.T), eta=0.0)


# ---------------------------------------------------------------------------
# local backend
# ---------------------------------------------------------------------------

def _fit_components(
    S: np.ndarray, cfg: LRConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    d = S.shape[0]
    r, ell, omega = cfg.r, cfg.ell, cfg.omega
    n = d * ell * r
    iu = np.triu_indices(d)
    if iu[0].size < n:
        raise UsageError(
            f"{iu[0].size} pair moments cannot determine {n} component "
            f"entries (d = {d}, ell = {ell}, r = {r})"
        )
    target = S[iu]

    def fun(x):
        model = _pair_table(x.reshape(d, ell, r), omega, cfg.sigma_mode, cfg.sigma_scale)
        return model[iu] - target

    def jac(x):
        return _pair_table_jacobian(
            x.reshape(d, ell, r), omega, cfg.sigma_mode, cfg.sigma_scale, iu
        )

    scale = (float(np.max(np.abs(np.diag(S)))) + 1e-12) ** (1.0 / (2 * omega))
    best_x, best_res = None, np.inf
    for _ in range(cfg.restarts):
        x0 = scale * rng.standard_normal(n) / math.sqrt(r)
        sol = least_squares(fun, x0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15)
        res = float(np.max(np.abs(sol.fun)))
        if res < best_res:
            best_res, best_x = res, sol.x
        if best_res <= cfg.tol:
            break
    threshold = max(1e3 * cfg.eta, 1e-6)
    if best_res > threshold:
        raise ConvergenceError(
            f"component fit residual {best_res:.3e} above {threshold:.3e}"
        )
    return best_x.reshape(d, ell, r), best_res


def _outers_gram(net: PolyNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The matrices F_a = f_a f_a^T of a lowrank network and their Gram
    <F_a, F_b>, which find_combo takes as the quadratic moment S."""
    F = paired_outers(net)
    return F, np.einsum("aij,bij->ab", F, F)


def _canonicalize(net: PolyNetwork, rng_seed: int) -> PolyNetwork:
    """Gauge-fix a lowrank network through its F_a = f_a f_a^T matrices and
    resolve the global +-Id ambiguity by the argmax anchor sign rule."""
    d, r = net.d, net.r
    F, Ghat = _outers_gram(net)
    qnet = PolyNetwork(kind="quadratic", r=r, d=d, Q=F)
    m = r * (r + 1) // 2
    if d < m:
        return net  # cannot break the gauge; report as-is
    last = None
    for attempt in range(5):
        try:
            combo = find_combo(Ghat, r, rng_seed=rng_seed * 100 + attempt)
            _, rot = gauge_fix(qnet, combo.lam, combo.mu)
            last = rot
            break
        except DegeneracyError:
            continue
    if last is None:
        return net
    out = rotate_network(net, last.V)
    # +-Id: make the anchor entry (largest magnitude) positive
    tens = out.unit_tensors()
    flat = np.abs(tens).reshape(d, -1)
    a_star = int(np.argmax(np.max(flat, axis=1)))
    i_star = int(np.argmax(flat[a_star]))
    if tens.reshape(d, -1)[a_star, i_star] < 0:
        out = rotate_network(out, -np.eye(r))
    return out


# ---------------------------------------------------------------------------
# sos backend (one gauge-fixed pseudoexpectation)
# ---------------------------------------------------------------------------

def _check_sos_size(d: int, cfg: LRConfig) -> None:
    """The instance sizes the relaxation path handles."""
    if cfg.r > 2 or d > 4 or cfg.omega != 3:
        raise ResourceError(
            "the relaxation path is capped at r <= 2, d <= 4, omega = 3"
        )
    m = len(sorted_multi_indices(cfg.r, cfg.omega))
    if d < m:
        raise UsageError(f"relaxation path needs d >= C(r+omega-1,omega) = {m}")


def _sos_factorize(S: np.ndarray, comps: np.ndarray, cfg: LRConfig):
    """Unit tensors rounded off the one gauge-fixed relaxation, warm-started
    from the local fit ``comps`` gauge-fixed through the Gram of its F_a.
    Returns (tensors, the gauge-fixed fit, diagnostics); raises
    ConvergenceError instead of solving cold."""
    r, omega, ell = cfg.r, cfg.omega, cfg.ell
    d = S.shape[0]
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    sig = sigma_matrix(r, omega)
    Sigma_sym = sig.Sigma_sym if cfg.sigma_mode != "identity" else _identity_sigma_sym(r, omega)
    # scale so the tensor entries are O(1) (conic solver conditioning)
    sc = 1.0 / math.sqrt(float(np.max(np.diag(S))) + 1e-300)
    S = S * sc**2
    eta_sc = cfg.eta * sc**2
    R = (float(np.max(np.diag(S))) + 1e-9) ** 0.5 / min(
        1.0, np.sqrt(float(np.min(np.linalg.eigvalsh(Sigma_sym))))
    )
    # pair moments have degree 2 omega in the components
    csc = sc ** (1.0 / omega)
    fitnet = PolyNetwork(
        kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps * csc,
    )
    F, Ghat = _outers_gram(fitnet)
    combo = find_combo(Ghat, r, rng_seed=cfg.rng_seed)
    lam = combo.lam
    # the fit pins the sign of mu that keeps the gauge families on
    # F_a = f_a f_a^T feasible, and the rotation of the warm point
    mu = corner_signed_mu(F, lam, combo.mu)
    try:
        _, grot = gauge_fix(PolyNetwork(kind="quadratic", r=r, d=d, Q=F), lam, mu)
    except DegeneracyError as exc:
        raise ConvergenceError(f"the local fit cannot be gauge-fixed: {exc}") from exc
    fixed = rotate_network(fitnet, grot)
    prog = encode_lowrank(
        r, omega, ell, S, Sigma_sym, sig.D, R=R, kappa=KAPPA,
        eta=eta_sc, degree=cfg.degree, lam_mu=(lam, mu),
    )
    warm = _warm_point_lr(prog, fixed, eta_sc)
    if warm is None:
        # a tight moment fit violating the encoded caps certifies that the
        # instance is too degenerate for this program
        raise ConvergenceError(
            "instance violates non-degeneracy caps of the relaxation"
        )
    pe = solve(prog, cfg.solver, warm)
    if isinstance(pe, Infeasible):
        raise ConvergenceError(
            f"relaxation reported infeasible (residual {pe.residual:.3e})"
        )
    tvar = prog.meta["tvar"]
    mags = np.zeros((d, m))
    for a in range(d):
        for u in range(m):
            v = Poly.var(tvar[(a, u)])
            mags[a, u] = math.sqrt(max(0.0, pseudo_expect(pe, v * v)))
    a_star, u_star = np.unravel_index(int(np.argmax(mags)), mags.shape)
    anchor = Poly.var(tvar[(a_star, u_star)])
    signs = np.ones((d, m))
    for a in range(d):
        for u in range(m):
            corr = pseudo_expect(pe, Poly.var(tvar[(a, u)]) * anchor)
            signs[a, u] = 1.0 if corr >= 0 else -1.0
    entries = signs * mags / sc
    tensors = np.stack(
        [SymTensor(omega, r, dict(zip(sidx, row))).to_dense() for row in entries]
    )
    diag = {
        "solver_iterations": pe.iterations,
        "solver_residual": pe.residual,
        "magnitudes": mags,
    }
    return tensors, fixed.components / csc, diag


def _warm_point_lr(prog, net: PolyNetwork, eta: float):
    """Feasible assignment seeding the conic solver from a component fit.

    Packs the sorted tensor entries and the components, completed by
    finish_warm_point; returns None when the assignment fails the program's
    own constraints.
    """
    meta = prog.meta
    d, m, r, ell = meta["d"], meta["m"], meta["r"], meta["ell"]
    sidx, tvar, vvar = meta["sidx"], meta["tvar"], meta["vvar"]
    point = np.zeros(prog.nvars)
    M = np.zeros((d, m))
    for a in range(d):
        tens = net.unit_tensor(a)
        for u, tup in enumerate(sidx):
            val = float(tens[tup])
            point[tvar[(a, u)]] = val
            M[a, u] = val
        for t in range(ell):
            for i in range(r):
                point[vvar[(a, t, i)]] = net.components[a, t, i]
    return finish_warm_point(prog, point, M, eta)


def _identity_sigma_sym(r: int, omega: int) -> np.ndarray:
    """Sigma_sym for the identity-Sigma mode: diag(1/|i|) on sorted indices,
    making vec^T Sigma vec the plain Frobenius product of symmetric tensors."""
    sidx = sorted_multi_indices(r, omega)
    return np.diag([1.0 / multiplicity(t) for t in sidx])


def _power_sum(cs: np.ndarray, omega: int) -> np.ndarray:
    """sum_t v_t^{x omega} over the rows v_t of ``cs``, flattened."""
    recon = 0.0
    for v in cs:
        out = v
        for _ in range(omega - 1):
            out = np.multiply.outer(out, v)
        recon = recon + out.reshape(-1)
    return recon


def _power_sum_jacobian(cs: np.ndarray, omega: int) -> np.ndarray:
    """Jacobian of _power_sum in the entries of ``cs``: the derivative of
    v^{x omega} in v_k is the sum over positions p of v^{x (omega-1)} with
    e_k put in at position p."""
    r = cs.shape[1]
    blocks = []
    for v in cs:
        head = np.ones(())
        for _ in range(omega - 1):
            head = np.multiply.outer(head, v)
        # axes: omega - 1 factors of v, then the slot of e_k, then k
        base = np.multiply.outer(head, np.eye(r))
        grad = sum(np.moveaxis(base, omega - 1, p) for p in range(omega))
        blocks.append(grad.reshape(r**omega, r))
    return np.concatenate(blocks, axis=1)


def components_from_tensors(tensors: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-unit rank-ell fit v_{a,t} minimizing ||sum_t v_t^{x omega} - T_a||_F,
    one damped least-squares polish of each unit from ``start`` (d, ell, r)."""
    tensors = np.asarray(tensors, dtype=float)
    start = np.asarray(start, dtype=float)
    d, ell, r = start.shape
    omega = tensors.ndim - 1
    comps = np.zeros((d, ell, r))

    def jac(x):
        return _power_sum_jacobian(x.reshape(ell, r), omega)

    for a in range(d):
        target = tensors[a].reshape(-1)

        def fun(x):
            return _power_sum(x.reshape(ell, r), omega) - target

        sol = least_squares(
            fun, start[a].reshape(-1), jac=jac, method="lm", xtol=1e-15, ftol=1e-15
        )
        comps[a] = sol.x.reshape(ell, r)
    return comps


def factorize(
    S: np.ndarray,
    config: LRConfig,
    truth: Optional[PolyNetwork] = None,
) -> RecoveryReport:
    """Recover a rank-ell network from pairwise Sigma-moments.

    Every backend starts from one local fit: damped least squares on the
    components from ``config.restarts`` random starts.  local gauge-fixes it
    via the F_a machinery and the anchor sign rule.  sos gauge-fixes it the
    same way (find_combo on the Gram of the fit's F_a), warm-starts the one
    relaxation with the gauge families from it, rounds the entries off the
    pseudoexpectation (square-root magnitudes and signs against an anchor),
    then polishes each unit's components once from the gauge-fixed fit.  sos
    never solves cold: a fit that gives no feasible warm point raises
    ConvergenceError.
    """
    S = np.asarray(S, dtype=float)
    d = S.shape[0]
    cfg = config
    diag: dict = {"backend": cfg.backend}
    if cfg.backend == "sos":
        _check_sos_size(d, cfg)
    comps, _ = _fit_components(S, cfg, _philox_rng(cfg.rng_seed, 42))
    if cfg.backend == "sos":
        tensors, start, sos_diag = _sos_factorize(S, comps, cfg)
        diag.update(sos_diag)
        comps = components_from_tensors(tensors, start)
    net = PolyNetwork(
        kind="lowrank", r=cfg.r, d=d, omega=cfg.omega, ell=cfg.ell,
        components=comps,
    )
    if cfg.backend == "local":
        net = _canonicalize(net, cfg.rng_seed)
    model = _pair_table(net.components, cfg.omega, cfg.sigma_mode, cfg.sigma_scale)
    res_S = float(np.max(np.abs(model - S)))
    gd = None
    if truth is not None:
        gd, _ = gauge_distance(net, truth, AlignmentConfig(rng_seed=cfg.rng_seed))
    return RecoveryReport(
        network=net, residual_S=res_S, residual_T=0.0, gauge_dist=gd,
        diagnostics=diag,
    )


def extend_tail_lr(
    S: np.ndarray,
    Sigma_sym: np.ndarray,
    head_tensors: np.ndarray,
    d: int,
) -> np.ndarray:
    """Tail tensors by per-unit least squares in the Sigma inner product.

    head_tensors: (d', r, ..., r) recovered units; returns the (d - d') tail
    as dense symmetric tensors solving argmin sum_a (S_ab - <T_a, T>_Sigma)^2.
    """
    S = np.asarray(S, dtype=float)
    head_tensors = np.asarray(head_tensors, dtype=float)
    dp = head_tensors.shape[0]
    r = head_tensors.shape[1]
    omega = head_tensors.ndim - 1
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    mult = np.array([multiplicity(t) for t in sidx])
    if dp < m:
        raise UsageError(f"head must have at least C(r+omega-1,omega) = {m} units")
    # design row a: <T_a, T>_Sigma = sum_v [sum_u mult_u Ta_u Sig_uv mult_v] T_v
    H = np.zeros((dp, m))
    for a in range(dp):
        ta = np.array([head_tensors[a][tup] for tup in sidx])
        H[a] = (mult * ta) @ Sigma_sym * mult
    svals = np.linalg.svd(H, compute_uv=False)
    if svals[-1] < 1e-10 * max(1.0, svals[0]):
        raise DegeneracyError("head design matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(H, S[:dp, dp:d], rcond=None)  # (m, d-d')
    out = np.zeros((d - dp,) + (r,) * omega)
    for b in range(d - dp):
        out[b] = SymTensor(omega, r, dict(zip(sidx, coef[:, b]))).to_dense()
    return out


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


@dataclass
class VerifyLimits:
    max_cols: int = 20000


def verify_assumption_lr(
    net: PolyNetwork, limits: Optional[VerifyLimits] = None
) -> AssumptionReportLR:
    """Condition-number diagnostics for low-rank networks.

    M*: rows are sorted-index flattenings of T_a (multiplicity-weighted so the
    Gram matches the Frobenius product); H: rows (f_a)_i (f_a)_j over i <= j;
    K^{(e)}: rows are sorted-index flattenings of w_a^{x e} for the
    concatenated component vector w_a, e = omega*(ell+1), computed only when
    the column count stays under limits.max_cols.
    """
    if net.kind != "lowrank":
        raise UsageError("verify_assumption_lr needs a lowrank network")
    limits = limits or VerifyLimits()
    r, d, omega, ell = net.r, net.d, net.omega, net.ell
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    mult = np.sqrt(np.array([multiplicity(t) for t in sidx], dtype=float))
    M = np.zeros((d, m))
    tensors = net.unit_tensors()
    for a in range(d):
        M[a] = mult * np.array([tensors[a][tup] for tup in sidx])
    svals = np.linalg.svd(M, compute_uv=False)
    sigma_min_M = float(svals[min(d, m) - 1])

    mh = r * (r + 1) // 2
    iu, ju = np.triu_indices(r)
    H = paired_outers(net)[:, iu, ju]
    hs = np.linalg.svd(H, compute_uv=False)
    sigma_min_H = float(hs[min(d, mh) - 1])

    rep = AssumptionReportLR(
        radius=net.radius, sigma_min_M=sigma_min_M, sigma_min_H=sigma_min_H
    )
    e = omega * (ell + 1)
    ncols = math.comb(r * ell + e - 1, e)
    if ncols > limits.max_cols:
        rep.k_skipped = f"K^({e}) needs {ncols} columns (> {limits.max_cols}); skipped"
    else:
        kidx = sorted_multi_indices(r * ell, e)
        kmult = np.sqrt(np.array([multiplicity(t) for t in kidx], dtype=float))
        K = np.zeros((d, len(kidx)))
        for a in range(d):
            w = net.components[a].reshape(-1)
            for u, tup in enumerate(kidx):
                K[a, u] = kmult[u] * np.prod(w[list(tup)])
        ks = np.linalg.svd(K, compute_uv=False)
        rep.sigma_min_K = float(ks[min(d, len(kidx)) - 1]) if d >= 1 else 0.0
        if d < len(kidx):
            rep.sigma_min_K = float(ks[d - 1])
    if net.smoothing_rho is not None:
        rho = net.smoothing_rho
        rep.predicted_psi = (rho / (r * omega)) ** omega
        rep.predicted_kappa = math.sqrt(d * ell) * (rho**2 * omega / r) ** (omega / 2)
        rep.flag_psi = sigma_min_H >= 0.01 * rep.predicted_psi
        rep.flag_kappa = sigma_min_M >= 0.01 * rep.predicted_kappa
    return rep
