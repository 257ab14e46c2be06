"""Exact and empirical moments of polynomial pushforwards.

Quadratic transformations z_a = x^T Q_a x of a standard Gaussian satisfy

    E[z_a]                   = Tr(Q_a)
    E[(z_a - E z_a)(z_b - E z_b)]            = 2 Tr(Q_a Q_b)
    E[(z_a - E z_a)(z_b - E z_b)(z_c - E z_c)] = 8 Tr(Q_a Q_b Q_c)

so the estimators below divide centered products by 2 and 8.  Degree-omega
transformations expose only the pairwise data E[z_a z_b] = <T_a, T_b>_Sigma
with Sigma the Gaussian moment matrix E[g^{x omega} (g^{x omega})^T].

Caches
------
The Sigma arrays of ``_mode_sigma``, which depend only on (r, omega),
come from one ``functools.lru_cache`` helper: built on first use, then
kept, bounded by its ``maxsize`` and read-only, since every caller shares
them.  The dense cap is checked on every call all the same.  Importing the
package builds none of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DENSE_BYTES_CAP, ResourceError, UsageError
from .networks import PolyNetwork, SeedDistribution, blas_product, gaussian_norm_moment
from .tensors import (
    _sorted_indices,
    _sorted_multiplicity,
    num_sorted_indices,
    symmetrize,
)

__all__ = [
    "QuadraticMomentTable",
    "PairMomentTable",
    "trace_moments",
    "trace_moment_gradients",
    "exact_quadratic_moments",
    "estimate_quadratic_moments",
    "pair_moment_closed_form",
    "pair_moment_partials",
    "estimate_pair_moments",
    "rotation_invariant_scale",
    "table_to_json",
    "table_from_json",
    "chunked_mean",
]

CHUNK = 4096


@dataclass
class QuadraticMomentTable:
    """Observed first/second/third moment data of a quadratic transformation."""

    mu: np.ndarray
    S: np.ndarray
    T: np.ndarray


@dataclass
class PairMomentTable:
    """Pairwise data S_ab ~ <T_a, T_b>_Sigma for a degree-omega transformation."""

    S: np.ndarray


def chunked_mean(x: np.ndarray) -> np.ndarray:
    """Deterministic mean over axis 0 via fixed-size chunk sums combined in order."""
    x = np.ascontiguousarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise UsageError("empty sample")
    total = x[:CHUNK].sum(axis=0)
    for start in range(CHUNK, n, CHUNK):
        total = total + x[start:start + CHUNK].sum(axis=0)
    return total / n


def trace_moments(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic moment model: P_ab = Tr(Q_a Q_b), C_abc = Tr(Q_a Q_b Q_c)."""
    P = np.einsum("aij,bji->ab", Q, Q)
    C = np.einsum("aij,bjk,cki->abc", Q, Q, Q)
    return P, C


def trace_moment_gradients(
    Q: np.ndarray, pairs: tuple[np.ndarray, ...], triples: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the trace moments at the index arrays ``pairs`` = (a, b)
    and ``triples`` = (a, b, c), in the entries of every unit taken as
    independent: entry [k, e] of the two returned arrays is

        dTr(Q_a Q_b)/dQ_e      = δ_ae Q_bᵀ + δ_be Q_aᵀ,
        dTr(Q_a Q_b Q_c)/dQ_e  = δ_ae (Q_b Q_c)ᵀ + δ_be (Q_c Q_a)ᵀ + δ_ce (Q_a Q_b)ᵀ

    for the k-th pair and the k-th triple, each an (r, r) matrix.
    """
    d = Q.shape[0]
    Qt = np.swapaxes(Q, 1, 2)
    a, b = pairs
    k = np.arange(a.size)
    gP = np.zeros((a.size,) + Q.shape, dtype=Q.dtype)
    gP[k, a] += Qt[b]
    gP[k, b] += Qt[a]
    QQt = np.einsum("aij,bjk->abki", Q, Q)  # (Q_a Q_b)ᵀ
    a, b, c = triples
    k = np.arange(a.size)
    gC = np.zeros((a.size, d) + Q.shape[1:], dtype=Q.dtype)
    gC[k, a] += QQt[b, c]
    gC[k, b] += QQt[c, a]
    gC[k, c] += QQt[a, b]
    return gP, gC


def exact_quadratic_moments(net: PolyNetwork) -> QuadraticMomentTable:
    """Population moment table of a quadratic network."""
    if net.kind != "quadratic":
        raise UsageError("exact_quadratic_moments needs a quadratic network")
    Q = net.Q
    mu = np.einsum("aii->a", Q)
    S, T = trace_moments(Q)
    # cyclic traces give 3 of the 6 permutations; average over all of them
    return QuadraticMomentTable(mu=mu, S=S, T=symmetrize(T))


def _checked_samples(samples) -> np.ndarray:
    """``samples`` as a float array; UsageError unless it is a nonempty,
    finite (n, d) matrix."""
    z = np.asarray(samples, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise UsageError("samples must be a nonempty (n, d) matrix")
    if not np.isfinite(z).all():
        raise UsageError("samples must be finite (no NaN or inf entries)")
    return z


def estimate_quadratic_moments(samples: np.ndarray) -> QuadraticMomentTable:
    """Two-pass centered estimators from an (n, d) sample matrix.

    S_ab = mean((z_a - mean z_a)(z_b - mean z_b)) / 2 and the triple analogue
    divided by 8, summed over chunks of ``CHUNK`` rows with one matrix product
    each.
    """
    z = _checked_samples(samples)
    mu = chunked_mean(z)
    zc = z - mu
    n, d = z.shape
    S = np.zeros((d, d))
    T = np.zeros((d, d, d))
    for start in range(0, n, CHUNK):
        c = zc[start:start + CHUNK]
        S += c.T @ c
        # T_abc += sum_n (c_a c_b) c_c, one matrix product per chunk
        cc = (c[:, :, None] * c[:, None, :]).reshape(len(c), d * d)
        T += blas_product(cc.T, c).reshape(d, d, d)
    S /= 2.0 * n
    T /= 8.0 * n
    S = 0.5 * (S + S.T)
    # the six orderings of a product round differently; reading each entry at
    # its sorted index makes T, and so its symmetrization, exactly symmetric
    T = T[tuple(np.sort(np.indices((d, d, d)).reshape(3, -1), axis=0))].reshape(d, d, d)
    return QuadraticMomentTable(mu=mu, S=S, T=symmetrize(T))


def _double_factorial_table(maxc: int) -> np.ndarray:
    """t[c] = (c-1)!! for even c, else 0 (Gaussian univariate moments)."""
    t = np.zeros(maxc + 1)
    t[0] = 1.0
    for c in range(2, maxc + 1, 2):
        t[c] = t[c - 2] * (c - 1)
    return t


def _mode_sigma(r: int, omega: int):
    """(Sigma_sym, B, its least eigenvalue) of the Gaussian seed, without
    the r^omega x r^omega Sigma: Sigma_sym is the Gaussian moment matrix on
    the sorted multi-indices, and B = D Sigma_sym^{1/2} takes the
    multiplicity diagonal D and the PSD square root.  ResourceError when the
    m x m arrays would exceed ``DENSE_BYTES_CAP``, whether or not they are
    cached."""
    m = num_sorted_indices(r, omega)
    # Sigma_sym, the int64 index sum and float64 lookup temporaries of its
    # product loop, and D, each m x m
    need = 8 * 4 * m * m
    if need > DENSE_BYTES_CAP:
        raise ResourceError(
            f"Sigma_sym for r={r}, omega={omega} needs {need / 2**30:.3g} GiB, "
            f"over the {DENSE_BYTES_CAP / 2**30:g} GiB cap"
        )
    return _build_mode_sigma(r, omega)


@functools.lru_cache(maxsize=16)
def _build_mode_sigma(r: int, omega: int):
    """_mode_sigma's arrays.  Each entry of Sigma_sym is the product over
    coordinates of the univariate even moment (2c-1)!! of its count c (Wick
    pairing)."""
    m = num_sorted_indices(r, omega)
    table = _double_factorial_table(2 * omega)
    scounts = np.sum(_sorted_indices(r, omega)[:, :, None] == np.arange(r), axis=1)
    Sigma_sym = np.ones((m, m))
    for k in range(r):
        Sigma_sym *= table[scounts[:, k][:, None] + scounts[None, :, k]]
    D = np.diag(_sorted_multiplicity(r, omega))
    w, U = np.linalg.eigh(Sigma_sym)
    w = np.clip(w, 0.0, None)
    B = D @ ((U * np.sqrt(w)) @ U.T)
    floor = float(np.min(np.linalg.eigvalsh(Sigma_sym)))
    for a in (Sigma_sym, B):
        a.setflags(write=False)
    return Sigma_sym, B, floor


def pair_moment_closed_form(dot, nv2, nw2, omega: int):
    """omega! * sum_m multinomial(omega; m, m, omega-2m) 4^{-m}
    dot^{omega-2m} nv2^m nw2^m, the Gaussian pair moment of two vectors with
    inner product ``dot`` and squared norms ``nv2``, ``nw2``; elementwise on
    arrays."""
    total = 0.0
    for m, coeff in _pair_coefficients(omega):
        total += coeff * 0.25**m * dot ** (omega - 2 * m) * nv2**m * nw2**m
    return math.factorial(omega) * total


def pair_moment_partials(dot, nv2, nw2, omega: int):
    """The partial derivatives of pair_moment_closed_form in ``dot``, ``nv2``
    and ``nw2``, elementwise on arrays (zero terms are left out, so no
    negative power of a zero argument is taken)."""
    g_dot = g_nv2 = g_nw2 = np.zeros(np.broadcast(dot, nv2, nw2).shape)
    for m, coeff in _pair_coefficients(omega):
        c = coeff * 0.25**m
        k = omega - 2 * m
        if k:
            g_dot = g_dot + c * k * dot ** (k - 1) * nv2**m * nw2**m
        if m:
            g_nv2 = g_nv2 + c * m * dot**k * nv2 ** (m - 1) * nw2**m
            g_nw2 = g_nw2 + c * m * dot**k * nv2**m * nw2 ** (m - 1)
    f = math.factorial(omega)
    return f * g_dot, f * g_nv2, f * g_nw2


def _pair_coefficients(omega: int):
    """(m, multinomial(omega; m, m, omega-2m)) for m = 0 .. omega // 2."""
    for m in range(omega // 2 + 1):
        yield m, math.factorial(omega) // (
            math.factorial(m) ** 2 * math.factorial(omega - 2 * m)
        )


def estimate_pair_moments(samples: np.ndarray) -> PairMomentTable:
    """Uncentered pairwise estimator S_ab = mean(z_a z_b)."""
    z = _checked_samples(samples)
    n, d = z.shape
    S = np.zeros((d, d))
    for start in range(0, n, CHUNK):
        c = z[start:start + CHUNK]
        S += c.T @ c
    S /= n
    S = 0.5 * (S + S.T)
    return PairMomentTable(S=S)


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
        }
    if isinstance(table, PairMomentTable):
        return {"kind": "pair", "S": table.S.tolist()}
    raise UsageError(f"unknown table type {type(table).__name__}")


# exact tables are symmetric to 1.6 eps of their largest entry, estimated
# ones exactly; asymmetry beyond this share of the largest entry is refused
SYM_RTOL = 1e-12


def _check_tables(S, T):
    """(S, T) as float arrays, T None for a pair table; UsageError naming the
    field unless each is finite, S is (d, d) with d >= 1, T is (d, d, d),
    each is symmetric to relative SYM_RTOL and no diagonal entry of S is
    negative (S_aa is Var(z_a) / 2 or E[z_a^2])."""
    tables = {name: np.asarray(X, dtype=float) for name, X in (("S", S), ("T", T))
              if X is not None}
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


def table_from_json(obj: dict):
    """A moment table from its parsed JSON form.  Raises UsageError unless
    S, and T for a quadratic table, pass _check_tables, and mu is a finite
    vector of length d.  Other keys, such as the "eta" that older tables
    carry, are ignored."""
    if not isinstance(obj, dict):
        raise UsageError("a moment table must be a JSON object")
    arrays = {}
    try:
        kind = obj["kind"]
        if kind not in ("quadratic", "pair"):
            raise UsageError(f"unknown moment-table kind {kind!r}")
        for key in ("mu", "S", "T") if kind == "quadratic" else ("S",):
            arrays[key] = np.asarray(obj[key], dtype=float)
    except KeyError as exc:
        raise UsageError(f"moment-table JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"moment-table field {key!r} is not numeric: {exc}") from exc
    S, T = _check_tables(arrays["S"], arrays.get("T"))
    if kind == "pair":
        return PairMomentTable(S=S)
    mu = arrays["mu"]
    if mu.shape != (len(S),):
        raise UsageError(f"table field 'mu' has shape {mu.shape}, expected {(len(S),)}")
    if not np.isfinite(mu).all():
        raise UsageError("table field 'mu' has NaN or inf entries")
    return QuadraticMomentTable(mu=mu, S=S, T=T)
