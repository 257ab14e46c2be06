"""Exact and empirical moments of polynomial pushforwards.

Quadratic transformations z_a = x^T Q_a x of a standard Gaussian satisfy

    E[z_a]                   = Tr(Q_a)
    E[(z_a - E z_a)(z_b - E z_b)]            = 2 Tr(Q_a Q_b)
    E[(z_a - E z_a)(z_b - E z_b)(z_c - E z_c)] = 8 Tr(Q_a Q_b Q_c)

so the estimators below divide centered products by 2 and 8.  Degree-omega
transformations expose only the pairwise data E[z_a z_b] = <T_a, T_b>_Sigma
with Sigma the Gaussian moment matrix E[g^{x omega} (g^{x omega})^T].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ResourceError, UsageError
from .networks import PolyNetwork, SeedDistribution, gaussian_norm_moment
from .tensors import (
    multiplicity,
    num_sorted_indices,
    sorted_multi_indices,
    vec,
)

__all__ = [
    "QuadraticMomentTable",
    "PairMomentTable",
    "SigmaMatrix",
    "trace_moments",
    "exact_quadratic_moments",
    "estimate_quadratic_moments",
    "sigma_matrix",
    "sigma_inner",
    "hermite_pair_moment",
    "pair_moment_closed_form",
    "estimate_pair_moments",
    "rotation_invariant_scale",
    "cumulant_diagonal",
    "table_to_json",
    "table_from_json",
    "chunked_mean",
]

CHUNK = 4096
SIGMA_BYTES_CAP = 1 << 30


@dataclass
class QuadraticMomentTable:
    """Observed first/second/third moment data of a quadratic transformation."""

    mu: np.ndarray
    S: np.ndarray
    T: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        self.T = np.asarray(self.T, dtype=float)
        if self.eta < 0:
            raise UsageError("eta must be nonnegative")

    @property
    def d(self) -> int:
        return self.mu.shape[0]


@dataclass
class PairMomentTable:
    """Pairwise data S_ab ~ <T_a, T_b>_Sigma for a degree-omega transformation."""

    S: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        if self.eta < 0:
            raise UsageError("eta must be nonnegative")

    @property
    def d(self) -> int:
        return self.S.shape[0]


@dataclass
class SigmaMatrix:
    """Sigma, its sorted-index symmetrization, and the multiplicity diagonal."""

    r: int
    omega: int
    Sigma: np.ndarray
    Sigma_sym: np.ndarray
    D: np.ndarray


def chunked_mean(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Deterministic mean via fixed-size chunk sums combined in order."""
    x = np.asarray(x, dtype=float)
    n = x.shape[axis]
    if n == 0:
        raise UsageError("empty sample")
    total = None
    for start in range(0, n, CHUNK):
        part = np.take(x, range(start, min(start + CHUNK, n)), axis=axis).sum(axis=axis)
        total = part if total is None else total + part
    return total / n


def trace_moments(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic moment model: P_ab = Tr(Q_a Q_b), C_abc = Tr(Q_a Q_b Q_c)."""
    P = np.einsum("aij,bji->ab", Q, Q)
    C = np.einsum("aij,bjk,cki->abc", Q, Q, Q)
    return P, C


def _symmetrize3(T: np.ndarray) -> np.ndarray:
    """Average a third-order array over all 6 index permutations."""
    return (T + np.transpose(T, (0, 2, 1)) + np.transpose(T, (1, 0, 2))
            + np.transpose(T, (1, 2, 0)) + np.transpose(T, (2, 0, 1))
            + np.transpose(T, (2, 1, 0))) / 6.0


def exact_quadratic_moments(net: PolyNetwork) -> QuadraticMomentTable:
    """Population moment table of a quadratic network (eta = 0)."""
    if net.kind != "quadratic":
        raise UsageError("exact_quadratic_moments needs a quadratic network")
    Q = net.Q
    mu = np.einsum("aii->a", Q)
    S, T = trace_moments(Q)
    # cyclic traces give 3 of the 6 permutations; average over all of them
    return QuadraticMomentTable(mu=mu, S=S, T=_symmetrize3(T), eta=0.0)


def estimate_quadratic_moments(
    samples: np.ndarray, eta: float = 0.0
) -> QuadraticMomentTable:
    """Two-pass centered estimators from an (n, d) sample matrix.

    S_ab = mean((z_a - mean z_a)(z_b - mean z_b)) / 2 and the triple analogue
    divided by 8.  ``eta`` records the caller's entrywise accuracy target.
    """
    z = np.asarray(samples, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise UsageError("samples must be a nonempty (n, d) matrix")
    if not np.isfinite(z).all():
        raise UsageError("samples must be finite (no NaN or inf entries)")
    mu = chunked_mean(z)
    zc = z - mu
    n, d = z.shape
    S = np.zeros((d, d))
    T = np.zeros((d, d, d))
    for start in range(0, n, CHUNK):
        c = zc[start:start + CHUNK]
        S += c.T @ c
        T += np.einsum("na,nb,nc->abc", c, c, c, optimize=True)
    S /= 2.0 * n
    T /= 8.0 * n
    S = 0.5 * (S + S.T)
    return QuadraticMomentTable(mu=mu, S=S, T=_symmetrize3(T), eta=eta)


def _double_factorial_table(maxc: int) -> np.ndarray:
    """t[c] = (c-1)!! for even c, else 0 (Gaussian univariate moments)."""
    t = np.zeros(maxc + 1)
    t[0] = 1.0
    for c in range(2, maxc + 1, 2):
        t[c] = t[c - 2] * (c - 1)
    return t


def sigma_matrix(
    r: int, omega: int, seed: Optional[SeedDistribution] = None
) -> SigmaMatrix:
    """The moment matrix Sigma = E[g^{x omega} (g^{x omega})^T] and friends.

    Entries are E[g_{i_1}..g_{i_omega} g_{j_1}..g_{j_omega}]; independence of
    coordinates reduces each to a product of univariate even moments
    (the Wick pairing count per coordinate).  Rotation-invariant seeds rescale
    every entry by the degree-2*omega radial factor.
    """
    n = r**omega
    m = num_sorted_indices(r, omega)
    # every dense 8-byte array built below: Sigma (n x n) and the int64 index
    # sum and float64 lookup temporaries of its product loop; the same three
    # for Sigma_sym (m x m), and D (m x m)
    need = 8 * (3 * n * n + 4 * m * m)
    if need > SIGMA_BYTES_CAP:
        raise ResourceError(
            f"Sigma for r={r}, omega={omega} needs {need / 2**30:.3g} GiB, "
            f"over the {SIGMA_BYTES_CAP / 2**30:g} GiB cap"
        )
    idx = np.stack(np.meshgrid(*([np.arange(r)] * omega), indexing="ij"), axis=-1)
    idx = idx.reshape(n, omega)
    counts = np.zeros((n, r), dtype=np.int64)
    for k in range(r):
        counts[:, k] = np.sum(idx == k, axis=1)
    table = _double_factorial_table(2 * omega)
    Sigma = np.ones((n, n))
    for k in range(r):
        Sigma *= table[counts[:, k][:, None] + counts[None, :, k]]
    if seed is not None and seed.kind == "rotation_invariant":
        Sigma = Sigma * rotation_invariant_scale(seed, 2 * omega, r)

    sorted_idx = sorted_multi_indices(r, omega)
    scounts = np.zeros((m, r), dtype=np.int64)
    for p, tup in enumerate(sorted_idx):
        for k in tup:
            scounts[p, k] += 1
    Sigma_sym = np.ones((m, m))
    for k in range(r):
        Sigma_sym *= table[scounts[:, k][:, None] + scounts[None, :, k]]
    if seed is not None and seed.kind == "rotation_invariant":
        Sigma_sym = Sigma_sym * rotation_invariant_scale(seed, 2 * omega, r)
    D = np.diag([float(multiplicity(tup)) for tup in sorted_idx])
    return SigmaMatrix(r=r, omega=omega, Sigma=Sigma, Sigma_sym=Sigma_sym, D=D)


def sigma_inner(Ta: np.ndarray, Tb: np.ndarray, Sigma: np.ndarray) -> float:
    """vec(T_a)^T Sigma vec(T_b); with Sigma = Id this is the Frobenius product."""
    va, vb = vec(Ta), vec(Tb)
    if Sigma.shape != (va.size, vb.size):
        raise UsageError("Sigma dimension mismatch")
    return float(va @ Sigma @ vb)


def hermite_pair_moment(v: np.ndarray, w: np.ndarray, omega: int) -> float:
    """E[<v, g>^omega <w, g>^omega] in closed form (see pair_moment_closed_form)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(
        pair_moment_closed_form(float(v @ w), float(v @ v), float(w @ w), omega)
    )


def pair_moment_closed_form(dot, nv2, nw2, omega: int):
    """omega! * sum_m multinomial(omega; m, m, omega-2m) 4^{-m}
    dot^{omega-2m} nv2^m nw2^m, the Gaussian pair moment of two vectors with
    inner product ``dot`` and squared norms ``nv2``, ``nw2``; elementwise on
    arrays."""
    total = 0.0
    for m in range(omega // 2 + 1):
        coeff = (
            math.factorial(omega)
            // (math.factorial(m) ** 2 * math.factorial(omega - 2 * m))
        )
        total += coeff * 0.25**m * dot ** (omega - 2 * m) * nv2**m * nw2**m
    return math.factorial(omega) * total


def estimate_pair_moments(samples: np.ndarray, eta: float = 0.0) -> PairMomentTable:
    """Uncentered pairwise estimator S_ab = mean(z_a z_b)."""
    z = np.asarray(samples, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise UsageError("samples must be a nonempty (n, d) matrix")
    if not np.isfinite(z).all():
        raise UsageError("samples must be finite (no NaN or inf entries)")
    n, d = z.shape
    S = np.zeros((d, d))
    for start in range(0, n, CHUNK):
        c = z[start:start + CHUNK]
        S += c.T @ c
    S /= n
    S = 0.5 * (S + S.T)
    return PairMomentTable(S=S, eta=eta)


def rotation_invariant_scale(
    seed: SeedDistribution, e: int, r: Optional[int] = None
) -> float:
    """C_{D,e} = E_D ||x||^e / E ||g||^e; equals 1 for the Gaussian seed.

    Odd-degree moments vanish for both laws, reported as 0.
    """
    if e % 2 == 1:
        return 0.0
    if seed.kind == "gaussian":
        return 1.0
    if seed.radial_moment is None:
        raise UsageError("rotation-invariant seed lacks a radial moment oracle")
    if r is None:
        raise UsageError("dimension r required for the Gaussian normalizer")
    return float(seed.radial_moment(e)) / gaussian_norm_moment(r, e)


def cumulant_diagonal(vs: np.ndarray, beta: np.ndarray) -> float:
    """Joint cumulant kappa_beta of z_a = sum_i (v_i)_a g_i^2.

    ``vs`` has shape (r, d): row i is the vector of diagonal entries that
    coordinate g_i contributes across units.  For a multi-index beta over
    units with |beta| = m, coordinate independence gives

        kappa_beta = 2^{m-1} (m-1)! * sum_i prod_a (v_i)_a^{beta_a},

    since the order-m cumulant of a single chi-squared coordinate is
    2^{m-1} (m-1)! and cumulants are multilinear in independent summands.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    beta = np.asarray(beta, dtype=int)
    if beta.shape[0] != vs.shape[1]:
        raise UsageError("beta length must match the unit count d")
    m = int(beta.sum())
    if m < 1:
        raise UsageError("need |beta| >= 1")
    power_sum = float(np.sum(np.prod(vs ** beta[None, :], axis=1)))
    return 2.0 ** (m - 1) * math.factorial(m - 1) * power_sum


# ---------------------------------------------------------------------------
# JSON schemas shared with the CLI
# ---------------------------------------------------------------------------

def table_to_json(table) -> dict:
    if isinstance(table, QuadraticMomentTable):
        return {
            "kind": "quadratic",
            "mu": table.mu.tolist(),
            "S": table.S.tolist(),
            "T": table.T.tolist(),
            "eta": table.eta,
        }
    if isinstance(table, PairMomentTable):
        return {"kind": "pair", "S": table.S.tolist(), "eta": table.eta}
    raise UsageError(f"unknown table type {type(table).__name__}")


def _finite_array(value, key: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"moment-table field {key!r} is not numeric") from exc
    if not np.isfinite(arr).all():
        raise UsageError(f"moment-table field {key!r} has NaN or inf entries")
    return arr


def table_from_json(obj: dict | str):
    """A moment table from its JSON form.  Raises UsageError unless every
    entry is finite, S is d x d, T is d x d x d, mu has length d and eta is
    a number."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid moment-table JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError("a moment table must be a JSON object")
    try:
        kind = obj["kind"]
        if kind not in ("quadratic", "pair"):
            raise UsageError(f"unknown moment-table kind {kind!r}")
        keys = ("mu", "S", "T") if kind == "quadratic" else ("S",)
        arrays = {key: _finite_array(obj[key], key) for key in keys}
        arrays["eta"] = _finite_array(obj.get("eta", 0.0), "eta")
    except KeyError as exc:
        raise UsageError(f"moment-table JSON missing field {exc}") from exc
    S = arrays["S"]
    d = S.shape[0] if S.ndim else 0
    shapes = {"eta": (), "mu": (d,), "S": (d, d), "T": (d, d, d)}
    for key, arr in arrays.items():
        if arr.shape != shapes[key]:
            raise UsageError(
                f"moment-table field {key!r} has shape {arr.shape}, "
                f"expected {shapes[key]}"
            )
    eta = float(arrays["eta"])
    if kind == "pair":
        return PairMomentTable(S=S, eta=eta)
    return QuadraticMomentTable(mu=arrays["mu"], S=S, T=arrays["T"], eta=eta)
