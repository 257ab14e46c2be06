"""Tensor ring decomposition: recover quadratic units {Q_a} from the trace
moments S_ab = Tr(Q_a Q_b) and T_abc = Tr(Q_a Q_b Q_c).

The gauge O(r) is broken by two random unit combinations lambda, mu chosen so
that Q_lambda has a spectral gap and Q_mu has no vanishing entries in
Q_lambda's eigenbasis; the canonical representative has Q_lambda diagonal
ascending and the first row of Q_mu nonnegative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .errors import ConvergenceError, DegeneracyError, UsageError
from .gauge import AlignmentConfig, gauge_distance
from .moments import trace_moment_gradients, trace_moments
from .networks import PolyNetwork, _philox_rng, rotate_network
from .relaxation import (
    KAPPA,
    Poly,
    SolverConfig,
    Infeasible,
    encode_tensor_ring,
    finish_warm_point,
    pseudo_expect,
    solve,
)
from .tensors import GaugeRotation

__all__ = [
    "NonDegenCombo",
    "TRConfig",
    "RecoveryReport",
    "find_combo",
    "validate_nondegeneracy",
    "gauge_fix",
    "decompose",
    "jennrich_diagonal",
    "extend_tail",
    "verify_assumption_tr",
]


@dataclass
class NonDegenCombo:
    lam: np.ndarray
    mu: np.ndarray
    upsilon: Optional[tuple[float, float]] = None

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        for v in (self.lam, self.mu):
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise UsageError("combination vectors must be unit norm")


@dataclass
class TRConfig:
    r: int
    backend: str = "local"  # local | sos
    degree: Optional[int] = None  # relaxation degree; None means 4
    restarts: int = 20
    tol: float = 1e-9
    rng_seed: int = 0
    eta: float = 0.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.backend not in ("local", "sos"):
            raise UsageError(f"unknown tensor-ring backend {self.backend!r}")


# symmetry-breaking combinations decompose tries before giving up
COMBO_RETRIES = 5
# eigengaps of the lambda combination at or below this make gauge_fix fail
GAP_TOL = 1e-12
# random contraction pairs jennrich_diagonal tries before giving up
JENNRICH_RETRIES = 10


@dataclass
class RecoveryReport:
    network: Optional[PolyNetwork]
    residual_S: float
    residual_T: float
    gauge_dist: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return max(self.residual_S, self.residual_T)


def find_combo(Ghat: np.ndarray, r: int, rng_seed: int = 0) -> NonDegenCombo:
    """Randomized symmetry-breaking combinations from the Gram matrix Ghat.

    Takes the best rank-m approximation of Ghat (m = C(r+1,2)), forms
    H~ = U sqrt(diag of top eigenvalues), pulls back the standard basis via
    w^{(ij)} = H~ (H~^T H~)^{-1} e_{ij}, and mixes with Gaussian weights.
    """
    Ghat = np.asarray(Ghat, dtype=float)
    d = Ghat.shape[0]
    m = r * (r + 1) // 2
    if d < m:
        raise UsageError(f"need d >= C(r+1,2) = {m}, got d = {d}")
    if np.max(np.abs(Ghat - Ghat.T)) > 1e-8:
        raise UsageError("Ghat must be symmetric")
    w, U = np.linalg.eigh(0.5 * (Ghat + Ghat.T))
    top = np.argsort(w)[::-1][:m]
    vals = w[top]
    if np.min(vals) <= 0:
        raise DegeneracyError(
            "rank-m eigenvalue block of Ghat is not positive; instance too "
            "noisy or degenerate"
        )
    Ht = U[:, top] * np.sqrt(vals)
    W = Ht @ np.linalg.inv(Ht.T @ Ht)  # columns w^{(ij)}
    rng = _philox_rng(rng_seed, 11)
    g = rng.standard_normal(m)
    gp = rng.standard_normal(m)
    h = W @ g
    hp = W @ gp
    return NonDegenCombo(lam=h / np.linalg.norm(h), mu=hp / np.linalg.norm(hp))


def validate_nondegeneracy(
    net: PolyNetwork, lam: np.ndarray, mu: np.ndarray
) -> tuple[float, float]:
    """(min eigengap of Q_lambda, min |entry| of Q_mu in Q_lambda's eigenbasis)."""
    if net.kind != "quadratic":
        raise UsageError("non-degeneracy validation needs a quadratic network")
    Qlam = np.einsum("a,aij->ij", np.asarray(lam, dtype=float), net.Q)
    Qmu = np.einsum("a,aij->ij", np.asarray(mu, dtype=float), net.Q)
    w, V = np.linalg.eigh(Qlam)
    gap = float(np.min(np.diff(np.sort(w)))) if len(w) > 1 else float("inf")
    X = V.T @ Qmu @ V
    return gap, float(np.min(np.abs(X)))


def gauge_fix(
    net: PolyNetwork, lam: np.ndarray, mu: np.ndarray
) -> tuple[PolyNetwork, GaugeRotation]:
    """Canonical gauge representative given symmetry-breaking combinations.

    Rotates so the lambda-combination is diagonal with ascending diagonal and
    flips signs so the first row of the mu-combination is nonnegative (its
    (1,1) entry is sign-invariant and left as-is).
    """
    if net.kind == "quadratic":
        combo = np.einsum("a,aij->ij", np.asarray(lam, dtype=float), net.Q)
        combo_mu = np.einsum("a,aij->ij", np.asarray(mu, dtype=float), net.Q)
    else:
        raise UsageError("gauge_fix operates on quadratic networks")
    w, V = np.linalg.eigh(combo)
    if len(w) > 1 and float(np.min(np.diff(w))) <= GAP_TOL:
        raise DegeneracyError("zero eigengap in the lambda combination")
    Wrot = V.T
    X = Wrot @ combo_mu @ Wrot.T
    signs = np.where(X[0] >= 0, 1.0, -1.0)
    signs[0] = 1.0
    R = signs[:, None] * Wrot
    return rotate_network(net, R), GaugeRotation(R)


def corner_signed_mu(stack: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``mu``, negated when the (1,1) entry of the mu-combination of the
    (d, r, r) ``stack`` is negative in the lam-combination's eigenbasis:
    gauge_fix cannot change that entry's sign, so the relaxations' "first
    row of the mu-combination nonnegative" family needs this mu."""
    _, V = np.linalg.eigh(np.einsum("a,aij->ij", lam, stack))
    if (V.T @ np.einsum("a,aij->ij", mu, stack) @ V)[0, 0] < 0:
        return -mu
    return mu


# ---------------------------------------------------------------------------
# local (nonconvex) backend
# ---------------------------------------------------------------------------

def _unpack(x: np.ndarray, d: int, r: int) -> np.ndarray:
    i, j = np.triu_indices(r)
    X = np.asarray(x).reshape(d, i.size)
    Q = np.zeros((d, r, r), dtype=np.result_type(X, float))
    Q[:, i, j] = X
    Q[:, j, i] = X
    return Q


def _packed_moment_jacobian(x: np.ndarray, d: int, r: int, pairs, triples) -> np.ndarray:
    """Jacobian of the trace moments at the index arrays ``pairs`` and
    ``triples`` in the packed parameters ``x`` of _unpack."""
    g = np.concatenate(trace_moment_gradients(_unpack(x, d, r), pairs, triples))
    i, j = np.triu_indices(r)
    # an off-diagonal parameter sets both Q_e[i, j] and Q_e[j, i]; a
    # diagonal one sets Q_e[i, i] once, so its doubled sum is halved
    J = (g + np.swapaxes(g, -1, -2))[..., i, j] * np.where(i == j, 0.5, 1.0)
    return J.reshape(len(g), -1)


def _random_starts(S: np.ndarray, r: int, rng_seed: int, stream: int, count: int):
    """``count`` packed Gaussian starts scaled to the diagonal of S, drawn from
    the Philox stream (rng_seed, stream)."""
    d = S.shape[0]
    rng = _philox_rng(rng_seed, stream)
    scale = math.sqrt(float(np.max(np.diag(S))) / max(r, 1)) + 1e-12
    for _ in range(count):
        yield scale * rng.standard_normal(d * r * (r + 1) // 2)


def _fit_restarts(S: np.ndarray, T: np.ndarray, r: int, starts, stop: float):
    """Damped least-squares fit of the trace moments from each start in turn.

    The fit matches only the upper-triangle entries of S and the sorted-triple
    entries of T; the gauge is restored exactly by gauge_fix afterwards.
    Stops once the best table residual is <= ``stop``.  Returns (Q, table
    residual, starts tried) of the best fit.
    """
    d = S.shape[0]
    iu = np.triu_indices(d)
    it = tuple(np.array(list(itertools.combinations_with_replacement(range(d), 3))).T)
    target = np.concatenate([S[iu], T[it]])

    def fun(x):
        P, C = trace_moments(_unpack(x, d, r))
        return np.concatenate([P[iu], C[it]]) - target

    def jac(x):
        return _packed_moment_jacobian(x, d, r, iu, it)

    best_Q, best_res, tried = None, np.inf, 0
    for x0 in starts:
        # max_nfev caps residual evaluations, at least one per LM iteration.
        # scipy 1.17's lm counts no Jacobian evaluation against it, analytic
        # or by differences, so the analytic Jacobian leaves each start the
        # same iteration cap
        sol = least_squares(
            fun, x0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
            max_nfev=2000,
        )
        Q = _unpack(sol.x, d, r)
        res = max(_table_residual_pair(Q, S, T))
        tried += 1
        if res < best_res:
            best_Q, best_res = Q, res
        if best_res <= stop:
            break
    return best_Q, best_res, tried


def _local_fit(S, T, config: TRConfig):
    """The moment fit every backend starts from: ``config.restarts`` starts
    from Philox stream 21, stopping at ``config.tol``.  Returns (Q, table
    residual, starts tried)."""
    starts = _random_starts(S, config.r, config.rng_seed, 21, config.restarts)
    return _fit_restarts(S, T, config.r, starts, config.tol)


def decompose(
    S: np.ndarray,
    T: np.ndarray,
    config: TRConfig,
    truth: Optional[PolyNetwork] = None,
) -> RecoveryReport:
    """Recover {Q_a} from trace moments.

    Every backend starts from one local fit: damped least squares on the
    trace moments from ``config.restarts`` random starts, keeping the best.
    ``local`` gauge-fixes that fit; ``sos`` solves the moment relaxation
    warm-started from the gauge-fixed fit and reads the units off the
    pseudoexpectation.  ``sos`` never solves the relaxation cold: a fit that
    misses the warm-start threshold max(10 eta, 1e-6) raises ConvergenceError
    at once, and a combination that cannot gauge-fix the fit fails without
    encoding a program.  The symmetry-breaking combinations come from
    find_combo on S, retried with fresh weights up to COMBO_RETRIES times.
    The fit does not depend on the combination, so it runs once per call and
    each retry only gauge-fixes it again (sos also re-solves the
    combination-dependent relaxation); the best-scoring retry wins.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    d = S.shape[0]
    r = config.r
    eta = config.eta
    fit = None  # (Q, residual, starts tried), made at the first usable combo
    best: Optional[tuple[float, PolyNetwork, NonDegenCombo, dict]] = None
    last_error = None
    for attempt in range(COMBO_RETRIES):
        try:
            combo = find_combo(S, r, rng_seed=config.rng_seed * 1000 + attempt)
        except DegeneracyError as exc:
            last_error = exc
            continue
        if fit is None:
            fit = _local_fit(S, T, config)
            warm_thr = max(10 * eta, 1e-6)
            if config.backend == "sos" and fit[1] > warm_thr:
                raise ConvergenceError(
                    f"local fit residual {fit[1]:.3e} above the relaxation's "
                    f"warm-start threshold {warm_thr:.3e}"
                )
        try:
            net, diag = _decompose_once(S, T, combo, fit, config)
        except (DegeneracyError, ConvergenceError) as exc:
            last_error = exc
            continue
        ups = validate_nondegeneracy(net, combo.lam, combo.mu)
        combo.upsilon = ups
        score = max(_table_residual_pair(net.Q, S, T))
        diag["upsilon"] = ups
        diag["attempt"] = attempt
        if best is None or score < best[0]:
            best = (score, net, combo, diag)
        break_thr = max(1e3 * eta, config.tol)
        if config.backend == "sos":
            # the conic solver's rounding only resolves entries to ~solver tol
            break_thr = max(break_thr, 100 * config.solver.tol)
        if score <= break_thr:
            break
    if best is None and config.backend == "local":
        # degenerate Gram (e.g. commuting units): no symmetry-breaking combo
        # exists.  Commuting instances are simultaneously diagonalizable, and
        # that is also the accurate recovery route -- the moment map loses
        # first-order identifiability there, so a least-squares fit would be
        # limited to ~sqrt(residual) accuracy.
        net = None
        try:
            comps = jennrich_diagonal(T, rng_seed=config.rng_seed)
            if len(comps) == r:
                Qdiag = np.stack(
                    [np.diag([float(c[a]) for c in comps]) for a in range(d)]
                )
                net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Qdiag)
        except DegeneracyError:
            net = None
        if net is not None and max(_table_residual_pair(net.Q, S, T)) > max(
            1e3 * eta, 1e-8
        ):
            net = None
        if net is None:
            if fit is None:
                fit = _local_fit(S, T, config)
            Q, res, _ = fit
            if res <= max(10 * eta, 1e-6):
                net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        if net is not None:
            score = max(_table_residual_pair(net.Q, S, T))
            best = (score, net, None, {"backend": config.backend,
                                       "gauge_fixed": False})
    if best is None:
        raise ConvergenceError(
            f"every symmetry-breaking attempt failed; the last: {last_error}"
        )
    score, net, combo, diag = best
    threshold = max(1e3 * eta, 1e-6) if config.backend == "local" else 1e-3
    if score > threshold:
        raise ConvergenceError(
            f"best residual {score:.3e} above threshold {threshold:.3e}"
        )
    res_S, res_T = _table_residual_pair(net.Q, S, T)
    gd = None
    if truth is not None:
        gd, _ = gauge_distance(net, truth, AlignmentConfig(rng_seed=config.rng_seed))
    return RecoveryReport(
        network=net, residual_S=res_S, residual_T=res_T, gauge_dist=gd,
        diagnostics=diag,
    )


def _decompose_once(S, T, combo: NonDegenCombo, fit, config: TRConfig):
    """One combination's recovery from the shared local ``fit``."""
    d = S.shape[0]
    r = config.r
    Q_fit, _, tried = fit
    diag: dict = {"backend": config.backend, "restarts_used": tried}
    net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q_fit)
    if config.backend == "local":
        try:
            net, _ = gauge_fix(net, combo.lam, combo.mu)
        except DegeneracyError:
            pass
        return net, diag
    lam = combo.lam
    mu = corner_signed_mu(Q_fit, lam, combo.mu)
    # a DegeneracyError here fails the combination before a program is built
    fixed, _ = gauge_fix(net, lam, mu)
    R = math.sqrt(float(np.max(np.diag(S)))) * 1.05 + 1e-9
    # scale the instance so Q entries are O(1): first-order conic solvers
    # are very sensitive to variable magnitude
    sc = 1.0 / math.sqrt(float(np.max(np.diag(S))) + 1e-300)
    prog = encode_tensor_ring(
        r, S * sc**2, T * sc**3, lam, mu, R=R * sc, kappa=KAPPA,
        eta=config.eta * sc**2, degree=config.degree,
    )
    warm = _warm_point(prog, fixed, config.eta * sc**2, sc)
    if warm is None:
        # A tight moment fit exists but violates the encoded norm caps: the
        # instance is too degenerate for this program.
        raise ConvergenceError(
            "instance violates non-degeneracy caps of the relaxation"
        )
    out = solve(prog, config.solver, warm)
    if isinstance(out, Infeasible):
        raise ConvergenceError(
            f"relaxation reported infeasible (residual {out.residual:.3e})"
        )
    Q = np.zeros((d, r, r))
    for (a, i, j), v in prog.meta["qvar"].items():
        val = pseudo_expect(out, Poly.var(v)) / sc
        Q[a, i, j] = val
        Q[a, j, i] = val
    diag["solver_iterations"] = out.iterations
    diag["solver_residual"] = out.residual
    return PolyNetwork(kind="quadratic", r=r, d=d, Q=Q), diag


def _warm_point(prog, net: PolyNetwork, eta: float, sc: float):
    """Feasible assignment seeding the conic solver: the network ``net``,
    already gauge-fixed against the program's (lam, mu), scaled by ``sc`` and
    completed by finish_warm_point.  Returns None when it fails the program's
    own constraints (beyond ``eta``, in the program's scale)."""
    pairs = prog.meta["pairs"]
    qvar = prog.meta["qvar"]
    point = np.zeros(prog.nvars)
    M = np.zeros((net.d, len(pairs)))
    for a in range(net.d):
        for u, (i, j) in enumerate(pairs):
            val = net.Q[a, i, j] * sc
            point[qvar[(a, i, j)]] = val
            M[a, u] = val
    return finish_warm_point(prog, point, M, eta)


def _table_residual_pair(Q: np.ndarray, S, T) -> tuple[float, float]:
    P, C = trace_moments(Q)
    return float(np.max(np.abs(P - S))), float(np.max(np.abs(C - T)))


def jennrich_diagonal(T: np.ndarray, rng_seed: int = 0):
    """Components of a symmetric third-order tensor T ~ sum_i v_i^{x3} by
    simultaneous diagonalization of two random contractions."""
    T = np.asarray(T, dtype=float)
    d = T.shape[0]
    rng = _philox_rng(rng_seed, 31)
    # numerical rank of the flattening determines the component count
    flat = T.reshape(d, d * d)
    svals = np.linalg.svd(flat, compute_uv=False)
    tol = max(T.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > max(tol, 1e-10)))
    if rank == 0:
        return []
    last_exc = None
    for _ in range(JENNRICH_RETRIES):
        g1 = rng.standard_normal(d)
        g2 = rng.standard_normal(d)
        M1 = np.einsum("ijk,k->ij", T, g1)
        M2 = np.einsum("ijk,k->ij", T, g2)
        try:
            # eigenvectors of M1 M2^+ span the component directions
            vals, vecs = np.linalg.eig(M1 @ np.linalg.pinv(M2))
            order = np.argsort(-np.abs(vals))
            U = np.real(vecs[:, order[:rank]])
            if np.max(np.abs(np.imag(vecs[:, order[:rank]]))) > 1e-8:
                raise np.linalg.LinAlgError("complex eigenvectors")
            sep = np.min(
                [np.abs(vals[order[i]] - vals[order[j]])
                 for i in range(rank) for j in range(i + 1, rank)]
                or [np.inf]
            )
            if sep < 1e-8:
                raise np.linalg.LinAlgError("degenerate contraction spectrum")
        except np.linalg.LinAlgError as exc:
            last_exc = exc
            continue
        U = U / np.linalg.norm(U, axis=0, keepdims=True)
        # weights: T = sum_i w_i u_i^{x3}
        design = np.stack([np.multiply.outer(np.outer(u, u), u).reshape(-1)
                           for u in U.T], axis=1)
        w, *_ = np.linalg.lstsq(design, T.reshape(-1), rcond=None)
        recon = design @ w
        if np.max(np.abs(recon - T.reshape(-1))) > 1e-6 * max(1.0, np.max(np.abs(T))):
            last_exc = ValueError("poor reconstruction")
            continue
        comps = [float(np.cbrt(w[i])) * U[:, i] for i in range(rank)]
        return comps
    raise DegeneracyError(f"simultaneous diagonalization failed: {last_exc}")


def extend_tail(
    S: np.ndarray, head: np.ndarray, d: int
) -> np.ndarray:
    """Tail units by per-unit least squares against the recovered head.

    head: (d', r, r) recovered units; S: full (d, d) pair moments.  Returns
    (d - d', r, r) units solving argmin sum_a (S_ab - <Q_a, Q>)^2.
    """
    S = np.asarray(S, dtype=float)
    head = np.asarray(head, dtype=float)
    dp, r, _ = head.shape
    m = r * (r + 1) // 2
    if dp < m:
        raise UsageError(f"head must have at least C(r+1,2) = {m} units")
    i, j = np.triu_indices(r)
    X = head[:, i, j] * np.where(i == j, 1.0, 2.0)
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] < 1e-10 * max(1.0, svals[0]):
        raise DegeneracyError("head flattening is rank deficient")
    rhs = X.T @ S[:dp, dp:d]  # (m, d - d')
    coef = np.linalg.solve(X.T @ X, rhs)  # (m, d - d')
    return _unpack(coef.T, d - dp, r)


@dataclass
class AssumptionReportTR:
    radius: float
    sigma_m: float
    m: int
    d: int
    predicted_kappa: Optional[float] = None
    flag: Optional[bool] = None
    warning: Optional[str] = None


def verify_assumption_tr(net: PolyNetwork) -> AssumptionReportTR:
    """Condition-number diagnostics of the flattening matrix M*.

    Reports sigma_m (m = C(r+1,2)) of the d x m upper-triangular flattening
    (off-diagonal entries weighted by sqrt(2) so the row Gram equals the
    Frobenius products, making sigma_m gauge-invariant) and, when the network
    carries smoothing metadata rho, whether sigma_m >= 0.1 * rho * sqrt(d/r).
    """
    if net.kind != "quadratic":
        raise UsageError("verify_assumption_tr needs a quadratic network")
    r, d = net.r, net.d
    m = r * (r + 1) // 2
    i, j = np.triu_indices(r)
    M = net.Q[:, i, j] * np.where(i == j, 1.0, math.sqrt(2.0))
    svals = np.linalg.svd(M, compute_uv=False)
    sigma_m = float(svals[m - 1]) if d >= m else 0.0
    warning = None if d >= m else f"d = {d} < C(r+1,2) = {m}; sigma_m is 0"
    rep = AssumptionReportTR(
        radius=net.radius, sigma_m=sigma_m, m=m, d=d, warning=warning
    )
    if net.smoothing_rho is not None:
        rho = net.smoothing_rho
        rep.predicted_kappa = rho * math.sqrt(d / r)
        rep.flag = sigma_m >= 0.1 * rep.predicted_kappa
    return rep
