"""Tensor ring decomposition: recover quadratic units {Q_a} from the trace
moments S_ab = Tr(Q_a Q_b) and T_abc = Tr(Q_a Q_b Q_c); and the one
recovery path (_recover) that this and the low-rank factorization share.

That path checks the table, fits the moments by Levenberg-Marquardt (_lm)
from the kind's closed form and then random starts, breaks the gauge O(r)
once and, for ``sos``, certifies the fixed fit against the moment program.
Here the closed form is spectral_units': S and T fix the Jordan algebra the
units span, and its Peirce decomposition reads the units off up to the
gauge.  Commuting units, whose S has rank r (exact or sampled), are read off
the same closed form whitened with r eigenpairs of S instead of C(r+1,2),
without a fit.

The gauge is broken by one pair of random unit combinations lambda, mu per
recovery, drawn by find_combo: Q_lambda has a spectral gap and Q_mu no
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
from typing import Callable, Iterator, Optional

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
    rng_seed: int = 0
    eta: float = 0.0

    def __post_init__(self):
        check_settings({"r": self.r, "restarts": self.restarts}, {}, {"eta": self.eta})
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
    Raises UsageError unless Ghat passes _check_tables as S, and
    DegeneracyError where _whiten does.
    """
    Ghat, _ = _check_tables(Ghat, None)
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

    Returns (Q, the chosen smallest eigengap of L).  Raises UsageError
    unless S and T pass _check_tables, and DegeneracyError where _whiten does
    (an S of rank below m, e.g. commuting units at m = C(r+1,2)) or when the
    pairing is not one-to-one.
    """
    S, T = _check_tables(S, T)
    if m is None:
        m = r * (r + 1) // 2
    H, W = _whiten(S, m, eta)
    tau = np.einsum("abc,ak,bl,cn->kln", T, W, W, W, optimize=True)
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
    UsageError unless lam and mu are finite vectors of one weight per unit,
    and DegeneracyError on an eigengap <= GAP_TOL.
    """
    d = len(units)
    lam, mu = (np.asarray(v, dtype=float) for v in (lam, mu))
    for name, v in (("lam", lam), ("mu", mu)):
        if v.shape != (d,):
            raise UsageError(f"{name} has shape {v.shape}, expected ({d},), one weight per unit")
        if not np.isfinite(v).all():
            raise UsageError(f"{name} has NaN or inf entries")
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
# the one recovery path of both network kinds
# ---------------------------------------------------------------------------

# exact tables are symmetric to 1.6 eps of their largest entry, estimated
# ones exactly; asymmetry beyond this share of the largest entry is refused
SYM_RTOL = 1e-12


def _check_tables(S, T):
    """(S, T) as float arrays, T None for a pair table; UsageError naming the
    field unless each is finite, S is (d, d) with d >= 1, T is (d, d, d),
    each is symmetric to relative SYM_RTOL and no diagonal entry of S is
    negative (S_aa is Var(z_a) / 2 or E[z_a^2])."""
    tables = {"S": np.asarray(S, dtype=float)}
    if T is not None:
        tables["T"] = np.asarray(T, dtype=float)
    d = len(tables["S"]) if tables["S"].ndim else 0
    for name, X in tables.items():
        want = (d,) * (2 if name == "S" else 3)
        if d == 0 or X.shape != want:
            raise UsageError(f"table field {name!r} has shape {X.shape}, expected {want}")
        if not np.isfinite(X).all():
            raise UsageError(f"table field {name!r} has NaN or inf entries")
        band = SYM_RTOL * np.abs(X).max()
        for k in range(X.ndim - 1):
            asym = np.abs(X - X.swapaxes(k, k + 1)).max()
            if asym > band:
                raise UsageError(f"table field {name!r} is not symmetric (off by {asym:.3e})")
    if np.diag(tables["S"]).min() < 0:
        raise UsageError("table field 'S' has a negative diagonal entry")
    return tables["S"], tables.get("T")


@dataclass
class _Kind:
    """One network kind's part in _recover, built once per recovery.

    ``fit(x0)`` runs one LM fit through the kind module's least_squares,
    looked up at call time: (unit array, table residual, LMResult), and
    ``network`` makes the unit array a network of order ``omega``; a fit
    whose residual is at most ``fit_tol`` ends the starts.  ``closed_form()``
    is (packed first start, its eigengap), or raises DegeneracyError or
    LinAlgError.  ``fit_gate`` and ``residuals``, which returns (residual_S,
    residual_T), raise the kind's ConvergenceErrors.
    ``stack`` co-rotates with the gauge (Q_a or F_a), and ``unfixable`` is
    why sos refuses a fit it cannot gauge-fix ("{exc}": the cause).  A
    ``gram`` (S) has the pair drawn before the fit; ``commuting()`` is
    local's network when it has none, or None.
    """

    network: Callable[[np.ndarray], PolyNetwork]
    omega: int
    fit_tol: float
    fit: Callable[[np.ndarray], tuple]
    closed_form: Callable[[], tuple]
    random_starts: Iterator[np.ndarray]
    fit_gate: Callable[[float, bool, Optional[DegeneracyError]], None]
    stack: Callable[[PolyNetwork], np.ndarray]
    certificate: Callable[[PolyNetwork, np.ndarray, np.ndarray], tuple]
    residuals: Callable[[PolyNetwork, bool], tuple[float, float]]
    unfixable: str
    gram: Optional[np.ndarray] = None
    commuting: Optional[Callable[[], Optional[PolyNetwork]]] = None


# relative gap within which a start's residual repeats the best one so far:
# the same local minimum found twice, where a fit of a noisy table stops
REPEAT_RTOL = 1e-6
# residual evaluations one start of either kind's local fit may spend
FIT_MAX_NFEV = 2000
# a quadratic fit's residual at or below this ends its starts
FIT_TOL = 1e-9


def _best_fit(fits, tol: float, eta: float):
    """The best of ``fits``, (fit, residual, least_squares result) triples
    that run one start each as they are drawn.  Stops once the best residual
    is <= ``tol`` (fit_stop "tol"), or, with ``eta`` > 0, once a start's
    residual is within relative REPEAT_RTOL of the best one before it
    ("repeat"); else every start runs ("exhausted").  Returns (fit,
    residual, index of its start, the fit diagnostics of _recover)."""
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


def _fit(kind: _Kind, config):
    """_best_fit from the kind's closed-form start, then its random starts.
    Returns (unit array, residual, diagnostics)."""
    starts, gap = kind.random_starts, None
    try:
        x0, gap = kind.closed_form()
    except (DegeneracyError, np.linalg.LinAlgError):
        pass
    else:
        starts = itertools.chain([x0], starts)
    units, res, best, diag = _best_fit(map(kind.fit, starts), kind.fit_tol, config.eta)
    diag["start"] = "closed_form" if gap is not None and best == 0 else "random"
    diag["spectral_gap"] = gap
    return units, res, diag


def _recover(fields_of, S, T, config, truth: Optional[PolyNetwork] = None) -> RecoveryReport:
    """Recover a network of either kind from its table: S and T for a
    quadratic network, S alone (T None) for a low-rank one.

    Checks the table (_check_tables) and builds the kind's _Kind from
    ``fields_of(S, T, config)``, once each, and refuses a ``truth`` of
    another (r, d, omega) than the recovery's before the fit.  A kind with a
    ``gram`` draws its one combination (lambda, mu) from it (find_combo,
    ``config.rng_seed``) before the fit; without one, ``sos`` raises
    ConvergenceError and ``local`` takes the kind's ``commuting`` network or
    the unfixed fit.
    The fit (_fit) runs Levenberg-Marquardt from the closed form, then from
    up to ``config.restarts`` random starts while the best misses the
    kind's ``fit_tol``, each within FIT_MAX_NFEV residual evaluations; with
    noise (``config.eta`` > 0) the starts also stop once one repeats the
    best residual.  After the kind's fit gate, both backends gauge-fix the
    fit once (_gauge_fixed): ``local`` returns a fit that cannot be fixed
    unfixed, and ``sos`` refuses it and certifies the fixed one.  The
    kind's residuals, and the gauge distance to ``truth``, end the report.

    ``diagnostics`` holds the same keys for both kinds: ``backend``;
    ``start``, "closed_form" or "random", the start of the returned fit;
    ``spectral_gap``, the closed form's eigengap, None without one;
    ``restarts_used``, the starts tried; ``fit_stop``, "tol", "repeat" or
    "exhausted"; ``lm_stop``, the best start's LM stop ("tol", a stationary
    point; "step", a step at rounding level; "plateau", a stalled cost;
    "cap", its evaluations spent); ``lm_nfev``, the residual evaluations of
    all starts; ``gauge_fixed``, and when True ``upsilon``; and for ``sos``
    ``certificate_violation`` and ``certificate_families``, the worst
    violation overall and per family.  A commuting network, which no fit
    made, reports ``backend`` and ``gauge_fixed`` alone.
    """
    S, T = _check_tables(S, T)
    kind = _Kind(**fields_of(S, T, config))
    want = (config.r, len(S), kind.omega)
    if truth is not None and (truth.r, truth.d, truth.omega) != want:
        raise UsageError(f"the truth network has (r, d, omega) = {truth.r, truth.d, truth.omega}"
                         f", but the recovery from this table has {want}")
    sos = config.backend == "sos"
    diag: dict = {"backend": config.backend, "gauge_fixed": False}
    combo = cause = net = None
    if kind.gram is not None:
        try:
            combo = find_combo(kind.gram, config.r, rng_seed=config.rng_seed, eta=config.eta)
        except DegeneracyError as exc:
            if sos:
                raise ConvergenceError(f"no symmetry-breaking combination: {exc}") from exc
            cause, net = exc, kind.commuting()
    if net is None:
        units, res, fit_diag = _fit(kind, config)
        diag.update(fit_diag)
        kind.fit_gate(res, sos, cause)
        net = kind.network(units)
        if cause is None:
            net = _gauge_fixed(kind, net, combo, config, diag)
    res_S, res_T = kind.residuals(net, sos)
    gd = None
    if truth is not None:
        gd, _ = gauge_distance(net, truth, AlignmentConfig(rng_seed=config.rng_seed))
    return RecoveryReport(
        network=net, residual_S=res_S, residual_T=res_T, gauge_dist=gd, diagnostics=diag,
    )


def _gauge_fixed(kind: _Kind, net: PolyNetwork, combo, config, diag: dict) -> PolyNetwork:
    """``net`` gauge-fixed by gauge_fix on its stack with ``combo``, or with
    one drawn from the stack's Gram (d >= C(r+1,2)) when None, the +-Id of
    odd orders fixed by an anchor entry, and for ``sos`` certified: the fit
    must be feasible, at that one point, for the kind's moment program
    stated with lambda and the corner-signed mu, whose constraints are
    evaluated there in closed form.  That is weaker than the paper's
    guarantee, which rests on the pseudo-expectation being unique; no
    program is solved.  Sets ``diag``'s keys of the step."""
    r = net.r
    units = kind.stack(net)
    try:
        if combo is None:
            if net.d < r * (r + 1) // 2:
                raise DegeneracyError("find_combo needs d >= C(r+1,2)")
            combo = find_combo(np.einsum("aij,bij->ab", units, units), r,
                               rng_seed=config.rng_seed)
        rot, mu, diag["upsilon"] = gauge_fix(units, *combo)
    except DegeneracyError as exc:
        if config.backend == "sos":
            raise ConvergenceError("the local fit cannot be gauge-fixed: "
                                   + kind.unfixable.format(exc=exc)) from exc
        return net
    net = rotate_network(net, rot)
    if net.omega % 2:
        # +-Id: make the anchor entry (largest magnitude) positive; it leaves
        # every F_a, and so the gauge families of (lam, mu), as they are
        tens = net.unit_tensors()
        flat = np.abs(tens).reshape(net.d, -1)
        a_star = int(np.argmax(np.max(flat, axis=1)))
        i_star = int(np.argmax(flat[a_star]))
        if tens.reshape(net.d, -1)[a_star, i_star] < 0:
            net = rotate_network(net, -np.eye(r))
    diag["gauge_fixed"] = True
    if config.backend == "sos":
        diag["certificate_violation"], diag["certificate_families"] = kind.certificate(
            net, combo[0], mu)
    return net


# ---------------------------------------------------------------------------
# quadratic networks: trace moments
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


def _quadratic_kind(S: np.ndarray, T: np.ndarray, config: TRConfig) -> dict:
    """The quadratic fields of _recover's _Kind.  The fit matches the upper
    triangle of S and the sorted triples of T in the packed Q_a (_unpack),
    from spectral_units' closed form, then Philox stream 21.  The pair comes
    from S; commuting units, whose S has rank r and so no pair, are read off
    spectral_units whitened with r eigenpairs of S, kept within residual
    max(1e3 eta, 1e-8): a fit is limited to ~sqrt(residual) accuracy there,
    where the moment map loses first-order identifiability.  The fit gate is
    max(10 eta, 1e-6) for ``sos`` and for a fit without a pair; the network
    returned must be within max(1e3 eta, 1e-6) of the table, 1e-3 for
    ``sos``."""
    d, r, eta = S.shape[0], config.r, config.eta
    iu = _triu(d)
    it = tuple(_sorted_indices(d, 3).T)
    target = np.concatenate([S[iu], T[it]])

    def network(Q):
        return PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)

    def fun(x):
        P, C = trace_moments(_unpack(x, d, r))
        return np.concatenate([P[iu], C[it]]) - target

    def fit(x0):
        sol = least_squares(fun, x0, jac=lambda x: _packed_moment_jacobian(x, d, r, iu, it),
                            max_nfev=FIT_MAX_NFEV)
        Q = _unpack(sol.x, d, r)
        return Q, max(_table_residual_pair(Q, S, T)), sol

    def closed_form():
        Q, gap = spectral_units(S, T, r, config.rng_seed, eta)
        i, j = _triu(r)
        return Q[:, i, j].reshape(-1), gap

    def commuting():
        try:
            Q, _ = spectral_units(S, T, r, config.rng_seed, eta, m=r)
        except (DegeneracyError, np.linalg.LinAlgError):
            return None
        return network(Q) if max(_table_residual_pair(Q, S, T)) <= max(1e3 * eta, 1e-8) else None

    def fit_gate(res, sos, cause):
        threshold = max(10 * eta, 1e-6)
        if res > threshold and cause is not None:
            raise ConvergenceError(f"no symmetry-breaking combination ({cause}), and neither "
                                   f"the diagonal closed form nor the local fit (residual "
                                   f"{res:.3e}) recovers the table")
        if res > threshold and sos:
            raise ConvergenceError(f"local fit residual {res:.3e} above the certificate's "
                                   f"threshold {threshold:.3e}")

    def residuals(net, sos):
        res = _table_residual_pair(net.Q, S, T)
        threshold = 1e-3 if sos else max(1e3 * eta, 1e-6)
        if max(res) > threshold:
            raise ConvergenceError(f"residual {max(res):.3e} above threshold {threshold:.3e}")
        return res

    return dict(
        network=network, omega=2, fit_tol=FIT_TOL, fit=fit, closed_form=closed_form,
        random_starts=_random_starts(S, r, config.rng_seed, 21, config.restarts),
        fit_gate=fit_gate, stack=lambda net: net.Q,
        certificate=lambda net, lam, mu: _certify(S, T, net.Q, lam, mu, eta),
        residuals=residuals, unfixable="{exc}", gram=S, commuting=commuting,
    )


def decompose(
    S: np.ndarray,
    T: np.ndarray,
    config: TRConfig,
    truth: Optional[PolyNetwork] = None,
) -> RecoveryReport:
    """Recover {Q_a} from the trace moments S and T: _recover's path with
    the quadratic fields of _quadratic_kind.  ``sos`` certificate families
    are "bands", "caps", "left_inverse" and "gauge"."""
    return _recover(_quadratic_kind, S, T, config, truth)


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
    UsageError unless S passes ``_check_tables``, head is a finite
    (d', r, r) array and d' <= d <= len(S).
    """
    S, _ = _check_tables(S, None)
    head = np.asarray(head, dtype=float)
    if head.ndim != 3 or head.shape[1] != head.shape[2]:
        raise UsageError(f"head has shape {head.shape}, expected (d', r, r)")
    if not np.isfinite(head).all():
        raise UsageError("head has NaN or inf entries")
    if not len(head) <= d <= len(S):
        raise UsageError(f"d = {d} must lie between the {len(head)} head units "
                         f"and the {len(S)} rows of S")
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
