"""Tensor ring decomposition: recover quadratic units {Q_a} from the trace
moments S_ab = Tr(Q_a Q_b) and T_abc = Tr(Q_a Q_b Q_c).

Every backend starts from one local fit, a Levenberg-Marquardt fit (_lm) of
the moments whose first start is spectral_units' closed form: S and T fix the
Jordan algebra the units span, and its Peirce decomposition reads the units
off up to the gauge.  Random starts run only when that start's fit misses the
tolerance, or when the closed form cannot be formed (a rank-deficient S); on a
table with noise they stop once one repeats the best residual so far.
Commuting units, whose S has rank r (exact or sampled), are read off the
same closed form whitened with r eigenpairs of S instead of C(r+1,2),
without a fit.

The gauge O(r) is broken by one pair of random unit combinations lambda, mu
per recovery, drawn by find_combo: Q_lambda has a spectral gap and Q_mu no
vanishing entries in Q_lambda's eigenbasis with high probability in the
smoothed setting, and find_combo's only failure does not depend on the draw,
so it is never retried.  The canonical representative has Q_lambda diagonal
ascending and the first row of Q_mu nonnegative, with mu corner-signed so
that its (1,1) entry is nonnegative too (gauge_fix, on the Q_a here and on
a low-rank network's F_a = f_a f_a^T); gauge_fix also reports the pair's
non-degeneracy upsilon, on which the smoothed analysis rests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lm import least_squares
from .errors import ConvergenceError, DegeneracyError, UsageError, check_settings
from .gauge import AlignmentConfig, gauge_distance
from .moments import trace_moment_gradients, trace_moments
from .networks import PolyNetwork, _philox_rng, rotate_network
from .relaxation import KAPPA, gate_certificate, tensor_ring_certificate
# no recovery path encodes or solves a program: perfbench/tracing.py wraps
# the names tensor_ring.encode_tensor_ring and tensor_ring.solve, and
# tests/test_trace_points.py checks that they resolve
from .relaxation import encode_tensor_ring, solve  # noqa: F401
from .tensors import GaugeRotation, _sorted_indices, _triu

__all__ = [
    "TRConfig",
    "RecoveryReport",
    "find_combo",
    "spectral_units",
    "gauge_fix",
    "decompose",
    "extend_tail",
    "verify_assumption_tr",
]


@dataclass
class TRConfig:
    r: int
    backend: str = "local"  # local | sos
    restarts: int = 20
    tol: float = 1e-9
    rng_seed: int = 0
    eta: float = 0.0

    def __post_init__(self):
        check_settings(
            {"r": self.r, "restarts": self.restarts}, {"tol": self.tol}, {"eta": self.eta}
        )
        if self.backend not in ("local", "sos"):
            raise UsageError(f"unknown tensor-ring backend {self.backend!r}")


# eigengaps of the lambda combination at or below this make gauge_fix fail
GAP_TOL = 1e-12


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


def _whiten(Ghat: np.ndarray, m: int, eta: float = 0.0):
    """(H, W) of the Gram matrix Ghat: H = U sqrt(diag of the top m
    eigenvalues) is its best rank-m factor, and W = H (H^T H)^{-1} the
    pull-back with W^T H = I.

    A Gram of rank below m, exact or sampled, has its m-th eigenvalue at
    rounding level, of either sign: one in [-floor, floor], floor = d eps
    lambda_max, counts as zero at any ``eta``.  Noise at level ``eta`` can
    push a top-m eigenvalue slightly below 0 when d = m; one in [-d eta,
    -floor) is raised to d eta.  Any top-m eigenvalue then <= floor raises
    DegeneracyError.
    """
    Ghat = np.asarray(Ghat, dtype=float)
    d = Ghat.shape[0]
    if d < m:
        raise UsageError(f"need d >= C(r+1,2) = {m}, got d = {d}")
    if np.max(np.abs(Ghat - Ghat.T)) > 1e-8:
        raise UsageError("Ghat must be symmetric")
    w, U = np.linalg.eigh(0.5 * (Ghat + Ghat.T))
    top = np.argsort(w)[::-1][:m]
    vals = w[top]
    floor = d * np.finfo(float).eps * vals[0]
    if eta > 0:
        vals = np.where((vals < -floor) & (vals >= -d * eta), d * eta, vals)
    if np.min(vals) <= floor:
        raise DegeneracyError(
            "rank-m eigenvalue block of Ghat is not positive; instance too "
            "noisy or degenerate"
        )
    H = U[:, top] * np.sqrt(vals)
    return H, H @ np.linalg.inv(H.T @ H)


def find_combo(
    Ghat: np.ndarray, r: int, rng_seed: int = 0, eta: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (lambda, mu) of random unit combinations that breaks the
    gauge, from the Gram matrix Ghat.

    Pulls the standard basis back through _whiten's W,
    w^{(ij)} = H (H^T H)^{-1} e_{ij}, and mixes with the Gaussian weights
    U^T x: x ~ N(0, Id_d) from Philox stream (rng_seed, 11), U = H with unit
    columns.  Their law is N(0, Id_m), and they flip with any column eigh
    returns flipped, so the pair does not depend on eigenvector signs.
    Raises DegeneracyError where _whiten does.
    """
    H, W = _whiten(Ghat, r * (r + 1) // 2, eta)  # columns w^{(ij)}
    U = H / np.linalg.norm(H, axis=0)
    rng = _philox_rng(rng_seed, 11)
    lam, mu = (W @ (U.T @ rng.standard_normal(H.shape[0])) for _ in range(2))
    return lam / np.linalg.norm(lam), mu / np.linalg.norm(mu)


# random unit combinations spectral_units tries for its Peirce decomposition
PEIRCE_DRAWS = 8


def spectral_units(
    S: np.ndarray, T: np.ndarray, r: int, rng_seed: int = 0, eta: float = 0.0,
    m: Optional[int] = None,
) -> tuple[np.ndarray, float]:
    """Units {Q_a} read off the trace moments in closed form.

    Whitening S with its top m eigenpairs (_whiten; m = C(r+1,2) unless
    given) gives H = M O with M the units' coordinates in an orthonormal
    basis of the Jordan algebra the units span and O orthogonal, so
    tau = T(W, W, W) holds the structure constants Tr(E_k E_l E_n) of an
    orthonormal basis E_k of that algebra, and Q_a = sum_k H_ak E_k.  Jordan
    multiplication by G = sum_k g_k E_k, the matrix L = sum_k g_k tau_k, has
    the Peirce decomposition of Sym(r) (Faraut & Koranyi 1994) as its
    eigenbasis: the idempotents P_i = v_i v_i^T (eigenvalue gamma_i, where
    tau(P, P, P) = +-1) and c_ij = (v_i v_j^T + v_j v_i^T)/sqrt 2
    (eigenvalue (gamma_i + gamma_j)/2, where tau(c, c, c) = 0).  Of
    PEIRCE_DRAWS unit draws g, the normalized H^T h for h Gaussian from
    Philox stream (rng_seed, 13), the one with the largest smallest eigengap
    is kept.  Each P_i is signed to
    tau = +1; c is paired with (i, j) by tau(P_i, c, c) = tau(P_j, c, c)
    = 1/2 and signed so that tau(c_0j, c_jk, c_0k) > 0.  Then
    Q_a[i, i] = H_a . P_i and Q_a[i, j] = H_a . c_ij / sqrt 2, up to the
    gauge O(r).

    With m = r the algebra is the diagonal subalgebra that commuting units
    span (S of rank r): tau is orthogonally decomposable (Anandkumar et al.,
    JMLR 2014), every eigenvector of L is an idempotent, there are no c_ij,
    and the units come out diagonal.

    Returns (Q, the chosen smallest eigengap of L).  Raises DegeneracyError
    where _whiten does (an S of rank below m, e.g. commuting units at
    m = C(r+1,2)) or when the pairing is not one-to-one.
    """
    if m is None:
        m = r * (r + 1) // 2
    H, W = _whiten(S, m, eta)
    tau = np.einsum("abc,ak,bl,cn->kln", np.asarray(T, dtype=float), W, W, W,
                    optimize=True)
    rng = _philox_rng(rng_seed, 13)
    gap, C = -np.inf, None
    for _ in range(PEIRCE_DRAWS):
        # g = H^T h, the combination sum_a h_a Q_a, puts little weight on
        # the weak directions of S, where W amplifies the rounding of T
        g = H.T @ rng.standard_normal(H.shape[0])
        vals, vecs = np.linalg.eigh(np.tensordot(g / np.linalg.norm(g), tau, 1))
        draw_gap = float(np.diff(vals).min(initial=np.inf))
        if C is None or draw_gap > gap:
            gap, C = draw_gap, vecs
    cube = np.einsum("klp,kp,lp->p", np.tensordot(tau, C, axes=(2, 0)), C, C)
    idem = np.argsort(-np.abs(cube), kind="stable")[:r]
    P = C[:, idem] * np.sign(cube[idem])
    off = C[:, np.setdiff1d(np.arange(m), idem)]
    # weight[i, p] = tau(P_i, c_p, c_p): 1/2 for the two i of c_p's pair
    weight = np.einsum("kln,ki,lp,np->ip", tau, P, off, off, optimize=True)
    pairs = np.sort(np.argsort(-weight, axis=0, kind="stable")[:2], axis=0)
    c = {(int(i), int(j)): off[:, p] for p, (i, j) in enumerate(pairs.T)}
    if len(c) != m - r:
        raise DegeneracyError("Peirce pairing of the off-diagonal elements is not one-to-one")
    if c:  # m = r leaves no off-diagonal pairs to sign
        for j, k in itertools.combinations(range(1, r), 2):
            if np.einsum("kln,k,l,n->", tau, c[0, j], c[j, k], c[0, k]) < 0:
                c[j, k] = -c[j, k]
    Q = np.zeros((H.shape[0], r, r))
    for i in range(r):
        Q[:, i, i] = H @ P[:, i]
    for (i, j), cij in c.items():
        Q[:, i, j] = Q[:, j, i] = H @ cij / math.sqrt(2.0)
    return Q, gap


def gauge_fix(
    units: np.ndarray, lam: np.ndarray, mu: np.ndarray
) -> tuple[GaugeRotation, np.ndarray, tuple[float, float]]:
    """The one gauge-fixing step of every recovery, on the (d, r, r) stack
    ``units`` that co-rotates with the gauge (a quadratic network's Q_a, a
    low-rank network's F_a).

    The rotation makes the lambda-combination diagonal ascending and the
    first row of the mu-combination nonnegative.  Its (1,1) entry is
    sign-invariant, so mu is negated first when that entry is negative, and
    the relaxations' first-row family holds with the returned mu.  Returns
    (rotation, mu, upsilon = (min eigengap of Q_lambda, min |entry| of Q_mu
    in Q_lambda's eigenbasis)); the caller applies the rotation.  Raises
    DegeneracyError on an eigengap <= GAP_TOL.
    """
    mu = np.asarray(mu, dtype=float)
    w, V = np.linalg.eigh(np.einsum("a,aij->ij", lam, units))
    gap = float(np.min(np.diff(w))) if len(w) > 1 else float("inf")
    if gap <= GAP_TOL:
        raise DegeneracyError("zero eigengap in the lambda combination")
    X = V.T @ np.einsum("a,aij->ij", mu, units) @ V
    if X[0, 0] < 0:
        mu, X = -mu, -X
    signs = np.where(X[0] >= 0, 1.0, -1.0)
    signs[0] = 1.0
    return GaugeRotation(signs[:, None] * V.T), mu, (gap, float(np.min(np.abs(X))))


# ---------------------------------------------------------------------------
# local (nonconvex) backend
# ---------------------------------------------------------------------------

def _unpack(x: np.ndarray, d: int, r: int) -> np.ndarray:
    i, j = _triu(r)
    X = np.asarray(x).reshape(d, i.size)
    Q = np.zeros((d, r, r), dtype=np.result_type(X, float))
    Q[:, i, j] = X
    Q[:, j, i] = X
    return Q


def _packed_moment_jacobian(x: np.ndarray, d: int, r: int, pairs, triples) -> np.ndarray:
    """Jacobian of the trace moments at the index arrays ``pairs`` and
    ``triples`` in the packed parameters ``x`` of _unpack."""
    g = np.concatenate(trace_moment_gradients(_unpack(x, d, r), pairs, triples))
    i, j = _triu(r)
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


# relative gap within which a start's residual repeats the best one so far:
# the same local minimum found twice, where a fit of a noisy table stops
REPEAT_RTOL = 1e-6
# residual evaluations one start of either kind's local fit may spend
FIT_MAX_NFEV = 2000


def _best_fit(fits, tol: float, eta: float):
    """The best of ``fits``, (fit, residual, least_squares result) triples
    that run one start each as they are drawn.

    Stops once the best residual is <= ``tol`` (fit_stop "tol").  With
    ``eta`` > 0, a table with noise that no fit may bring within ``tol``, it
    also stops once a start's residual is within relative REPEAT_RTOL of the
    best one before it (fit_stop "repeat"), which the first start, with no
    best before it, never is.  Otherwise every start runs (fit_stop
    "exhausted").  Returns (fit, residual, index of its start, diagnostics:
    ``restarts_used``, the starts tried; ``fit_stop``; ``lm_stop``, the stop
    reason of the best start's least_squares; ``lm_nfev``, the residual
    evaluations of all starts).
    """
    best_fit, best_res, best, tried, stop = None, np.inf, 0, 0, "exhausted"
    lm_stop, nfev = None, 0
    for fit, res, sol in fits:
        tried += 1
        nfev += sol.nfev
        # best_res is inf until a start has a finite residual, and
        # inf <= REPEAT_RTOL * inf holds
        repeat = (eta > 0 and math.isfinite(best_res)
                  and abs(res - best_res) <= REPEAT_RTOL * best_res)
        if res < best_res:
            best_fit, best_res, best, lm_stop = fit, res, tried - 1, sol.stop
        if best_res <= tol:
            stop = "tol"
            break
        if repeat:
            stop = "repeat"
            break
    return best_fit, best_res, best, {
        "restarts_used": tried, "fit_stop": stop, "lm_stop": lm_stop, "lm_nfev": nfev,
    }


def _fit_restarts(S: np.ndarray, T: np.ndarray, r: int, starts, tol: float, eta: float):
    """Levenberg-Marquardt fit (_lm.least_squares) of the trace moments from
    each start in turn.

    The fit matches only the upper-triangle entries of S and the sorted-triple
    entries of T; the gauge is restored exactly by gauge_fix afterwards.
    Stops as _best_fit does: once the best table residual is <= ``tol``, or,
    on a table with noise (``eta`` > 0), once a start repeats the best
    residual so far.  Returns (Q, table residual, index of its start,
    _best_fit's diagnostics) of the best fit.
    """
    d = S.shape[0]
    iu = _triu(d)
    it = tuple(_sorted_indices(d, 3).T)
    target = np.concatenate([S[iu], T[it]])

    def fun(x):
        P, C = trace_moments(_unpack(x, d, r))
        return np.concatenate([P[iu], C[it]]) - target

    def jac(x):
        return _packed_moment_jacobian(x, d, r, iu, it)

    def fits():
        for x0 in starts:
            sol = least_squares(fun, x0, jac=jac, max_nfev=FIT_MAX_NFEV)
            Q = _unpack(sol.x, d, r)
            yield Q, max(_table_residual_pair(Q, S, T)), sol

    return _best_fit(fits(), tol, eta)


def _local_fit(S, T, config: TRConfig):
    """The moment fit every backend starts from.

    The first start is spectral_units' closed form; the ``config.restarts``
    random starts from Philox stream 21 run only while the best fit misses
    ``config.tol`` (all of them when the closed form cannot be formed) and,
    on a table with noise (``config.eta`` > 0), until a start repeats the
    best residual so far (_best_fit).  Returns (Q, table residual,
    diagnostics: ``restarts_used``, the starts tried; ``fit_stop``, "tol",
    "repeat" or "exhausted", why the starts stopped; ``lm_stop`` and
    ``lm_nfev`` (_best_fit); ``start``, "spectral" or "random" for the start
    of the returned fit; ``spectral_gap``, the closed form's eigengap, or
    None).
    """
    r = config.r
    starts = _random_starts(S, r, config.rng_seed, 21, config.restarts)
    gap = None
    try:
        Q0, gap = spectral_units(S, T, r, config.rng_seed, config.eta)
    except (DegeneracyError, np.linalg.LinAlgError):
        pass
    else:
        i, j = _triu(r)
        starts = itertools.chain([Q0[:, i, j].reshape(-1)], starts)
    Q, res, best, diag = _fit_restarts(S, T, r, starts, config.tol, config.eta)
    diag["start"] = "spectral" if gap is not None and best == 0 else "random"
    diag["spectral_gap"] = gap
    return Q, res, diag


def decompose(
    S: np.ndarray,
    T: np.ndarray,
    config: TRConfig,
    truth: Optional[PolyNetwork] = None,
) -> RecoveryReport:
    """Recover {Q_a} from trace moments.

    Both backends run one path, and ``sos`` adds one certificate step at
    its end.  One combination, no retries: find_combo on S with
    ``config.rng_seed`` draws the recovery's lambda, mu once.  The path
    starts from one local fit (_local_fit): the Levenberg-Marquardt of
    _lm.least_squares on the trace moments, from spectral_units' closed
    form, then from up to ``config.restarts`` random starts while the best
    fit misses ``config.tol``; each start spends at most FIT_MAX_NFEV
    residual evaluations.  On a table with noise (``config.eta`` > 0), which
    no fit may bring within ``config.tol``, the starts also stop once one
    repeats the best residual so far to relative REPEAT_RTOL: the same
    minimum found twice.  ``diagnostics`` names the start of the fit (``start``:
    "spectral" or "random"), the starts tried (``restarts_used``), why they
    stopped (``fit_stop``: "tol", "repeat" or "exhausted"), why the best
    start's LM stopped (``lm_stop``: "tol", a stationary point; "step", a
    step at rounding level; "plateau", a cost that stalled; or "cap", its
    evaluations spent), the residual evaluations of all starts (``lm_nfev``)
    and the closed form's eigengap (``spectral_gap``, None when it could not
    be formed).
    ``sos`` first gates the fit's residual at max(10 eta, 1e-6).  Both
    backends then gauge-fix the fit once, with lambda and the corner-signed
    mu (gauge_fix; ``gauge_fixed`` says whether it could, and ``upsilon``,
    set only then, is the pair's non-degeneracy).  ``local`` returns a fit
    whose lambda-combination has no eigengap unfixed.  ``sos`` returns the
    same network as ``local`` after one certificate step (_certify): the fit
    must be feasible, at that one point, for the degree-4 moment program
    stated with lambda and the corner-signed mu, whose constraints are
    evaluated there in closed form (relaxation.tensor_ring_certificate)
    rather than encoded.  ``diagnostics["certificate_violation"]`` is the
    worst constraint violation and ``certificate_families`` the worst of
    each family ("bands", "caps", "left_inverse", "gauge").  That is weaker
    than the paper's guarantee, which rests on the pseudo-expectation being
    unique; the relaxation is not solved.
    ``sos`` raises ConvergenceError when the fit misses its gate, cannot be
    gauge-fixed or breaks the program's caps.  Either backend raises
    ConvergenceError when the returned network's worst table residual
    exceeds max(1e3 eta, 1e-6) for ``local``, 1e-3 for ``sos``.  A
    degenerate S (e.g. commuting units, exact or sampled) has no
    combination: ``local`` then reads the units off spectral_units whitened
    with the top r eigenpairs of S (the diagonal subalgebra) and falls back
    to the unfixed fit, and ``sos`` raises ConvergenceError before fitting.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    try:
        lam, mu = find_combo(S, config.r, rng_seed=config.rng_seed, eta=config.eta)
    except DegeneracyError as exc:
        if config.backend == "sos":
            raise ConvergenceError(f"no symmetry-breaking combination: {exc}") from exc
        net, diag = _commuting_recovery(S, T, config, exc)
    else:
        net, diag = _recover(S, T, lam, mu, config)
    res_S, res_T = _table_residual_pair(net.Q, S, T)
    threshold = max(1e3 * config.eta, 1e-6) if config.backend == "local" else 1e-3
    if max(res_S, res_T) > threshold:
        raise ConvergenceError(
            f"residual {max(res_S, res_T):.3e} above threshold {threshold:.3e}"
        )
    gd = None
    if truth is not None:
        gd, _ = gauge_distance(net, truth, AlignmentConfig(rng_seed=config.rng_seed))
    return RecoveryReport(
        network=net, residual_S=res_S, residual_T=res_T, gauge_dist=gd,
        diagnostics=diag,
    )


def _commuting_recovery(S, T, config: TRConfig, cause: DegeneracyError):
    """``local``'s recovery when S has no symmetry-breaking combination.

    Commuting units span the diagonal subalgebra, where S has rank r, and
    spectral_units whitened with the top r eigenpairs of S reads them off in
    closed form.  That is also the accurate route: the moment map loses
    first-order identifiability there, so a least-squares fit is limited to
    ~sqrt(residual) accuracy.  The closed form is kept when its table
    residual is <= max(1e3 eta, 1e-8); the unfixed local fit is the
    fallback.  Returns (network, diagnostics).
    """
    d = S.shape[0]
    r = config.r
    eta = config.eta
    net = None
    try:
        Q, _ = spectral_units(S, T, r, config.rng_seed, eta, m=r)
    except (DegeneracyError, np.linalg.LinAlgError):
        pass
    else:
        if max(_table_residual_pair(Q, S, T)) <= max(1e3 * eta, 1e-8):
            net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
    diag = {"backend": config.backend, "gauge_fixed": False}
    if net is None:
        Q, res, fit_diag = _local_fit(S, T, config)
        diag.update(fit_diag)
        if res > max(10 * eta, 1e-6):
            raise ConvergenceError(
                f"no symmetry-breaking combination ({cause}), and neither "
                f"the diagonal closed form nor the local fit (residual "
                f"{res:.3e}) recovers the table"
            )
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
    return net, diag


def _recover(S, T, lam, mu, config: TRConfig):
    """The one local fit, gauge-fixed with ``lam``, ``mu``, and for ``sos``
    its certificate.  Returns (network, diagnostics)."""
    d = S.shape[0]
    r = config.r
    sos = config.backend == "sos"
    Q_fit, res, fit_diag = _local_fit(S, T, config)
    diag: dict = {"backend": config.backend, **fit_diag}
    net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q_fit)
    fit_thr = max(10 * config.eta, 1e-6)
    if sos and res > fit_thr:
        raise ConvergenceError(
            f"local fit residual {res:.3e} above the certificate's "
            f"threshold {fit_thr:.3e}"
        )
    try:
        rot, mu, diag["upsilon"] = gauge_fix(net.Q, lam, mu)
    except DegeneracyError as exc:
        if sos:
            raise ConvergenceError(f"the local fit cannot be gauge-fixed: {exc}") from exc
        diag["gauge_fixed"] = False
        return net, diag
    net = rotate_network(net, rot)
    diag["gauge_fixed"] = True
    if not sos:
        return net, diag
    diag["certificate_violation"], diag["certificate_families"] = _certify(
        S, T, net.Q, lam, mu, config.eta
    )
    return net, diag


def _certify(S, T, Q, lam, mu, eta: float) -> tuple[float, dict[str, float]]:
    """The certificate of the gauge-fixed fit Q: relaxation's closed form of
    the degree-4 program encode_tensor_ring states with lam and the
    corner-signed mu, at the point Q completes.  Returns (its worst
    violation, the worst violation of each constraint family); raises
    ConvergenceError when the fit breaks the program's constraints."""
    r = Q.shape[1]
    R = math.sqrt(float(np.max(np.diag(S)))) * 1.05 + 1e-9
    # the program is stated in the scale where Q entries are O(1), so the
    # certificate's absolute floor of 1e-7 is relative to the table
    sc = 1.0 / math.sqrt(float(np.max(np.diag(S))) + 1e-300)
    i, j = _triu(r)
    families = tensor_ring_certificate(
        Q[:, i, j] * sc, r, S * sc**2, T * sc**3, lam=lam, mu=mu, R=R * sc, kappa=KAPPA,
        eta=eta * sc**2,
    )
    return gate_certificate(families, eta * sc**2), families


def _table_residual_pair(Q: np.ndarray, S, T) -> tuple[float, float]:
    P, C = trace_moments(Q)
    return float(np.max(np.abs(P - S))), float(np.max(np.abs(C - T)))


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
    i, j = _triu(r)
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
    i, j = _triu(r)
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
