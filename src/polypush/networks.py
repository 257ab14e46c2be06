"""Polynomial networks, seed distributions, smoothing, and pushforward sampling.

A network is a family of symmetric order-``omega`` tensors ``T_1..T_d`` over
R^r; the transformation it defines pushes a seed ``x`` forward to
``(<T_1, x^{(x omega)}>, ..., <T_d, x^{(x omega)}>)``.  Quadratic networks
(omega = 2) are stored as symmetric matrices ``Q_a`` so that
``z_a = x^T Q_a x``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DENSE_BYTES_CAP, ResourceError, UsageError, check_settings
from .tensors import GaugeRotation, _triu

__all__ = [
    "PolyNetwork",
    "SeedDistribution",
    "SmoothingParams",
    "rotate_network",
    "gauge_stack",
    "sample",
    "smooth_quadratic",
    "smooth_componentwise",
    "w1_upper_bound",
    "gaussian_norm_moment",
    "network_to_json",
    "network_from_json",
]


@dataclass
class PolyNetwork:
    """Either a quadratic network {Q_a} or a rank-ell network {v_{a,t}}.

    Parameters
    ----------
    kind : "quadratic" or "lowrank"
    Q : (d, r, r) array of symmetric matrices, quadratic kind only.
    components : (d, ell, r) array of rank-one directions, lowrank kind only;
        unit ``a`` realizes T_a = sum_t v_{a,t}^{x omega}.
    """

    kind: str
    r: int
    d: int
    omega: int = 2
    ell: int = 0
    Q: Optional[np.ndarray] = None
    components: Optional[np.ndarray] = None
    smoothing_rho: Optional[float] = None

    def __post_init__(self):
        if self.r < 1 or self.d < 1:
            raise UsageError(f"networks need r >= 1 and d >= 1, got r={self.r}, d={self.d}")
        if self.kind == "quadratic":
            if self.omega != 2:
                raise UsageError("quadratic networks have omega = 2")
            Q = np.asarray(self.Q, dtype=float)
            if Q.shape != (self.d, self.r, self.r):
                raise UsageError(f"Q must have shape {(self.d, self.r, self.r)}")
            _check_finite(Q, "Q")
            # entries beyond half the float range overflow here; the
            # symmetrized Q is checked below
            with np.errstate(over="ignore"):
                if np.max(np.abs(Q - np.transpose(Q, (0, 2, 1)))) > 1e-12:
                    raise UsageError("quadratic units must be symmetric to 1e-12")
                self.Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
            _check_finite(self.Q, "Q")
        elif self.kind == "lowrank":
            if self.omega % 2 == 0 or self.omega < 3:
                raise UsageError("lowrank networks need odd omega >= 3")
            if self.ell < 1:
                raise UsageError(f"lowrank networks need ell >= 1, got {self.ell}")
            comps = np.asarray(self.components, dtype=float)
            if comps.shape != (self.d, self.ell, self.r):
                raise UsageError(
                    f"components must have shape {(self.d, self.ell, self.r)}"
                )
            _check_finite(comps, "components")
            self.components = comps
        else:
            raise UsageError(f"unknown network kind {self.kind!r}")

    def unit_tensors(self) -> np.ndarray:
        """The (d, r, ..., r) stack of every unit's dense tensor.

        A low-rank unit is sum_t v_{a,t}^{x omega}: each power is the
        running outer product with v_{a,t}, formed for every (a, t) at once,
        and the powers are added to zeros in the order of t."""
        if self.kind == "quadratic":
            return self.Q.copy()
        comps = self.components
        power = comps
        for k in range(1, self.omega):
            power = power[..., None] * comps.reshape(comps.shape[:2] + (1,) * k + (self.r,))
        T = np.zeros((self.d,) + (self.r,) * self.omega)
        for t in range(self.ell):
            T += power[:, t]
        return T

    @property
    def radius(self) -> float:
        """max_a Frobenius norm of T_a."""
        return max(float(np.linalg.norm(T)) for T in self.unit_tensors())


def gauge_stack(net: PolyNetwork) -> np.ndarray:
    """The (d, r, r) stack that co-rotates with the gauge: a quadratic
    network's Q_a, an odd-order one's F_a = f_a f_a^T, with f_a = sum over
    j_1..j_k of T_a[j_1, j_1, ..., j_k, j_k, :] (omega = 2k+1), the leading
    pair traced first."""
    if net.kind == "quadratic":
        return net.Q
    f = net.unit_tensors()
    for _ in range(net.omega // 2):
        f = np.trace(f, axis1=1, axis2=2)
    return f[:, :, None] * f[:, None, :]


def rotate_network(net: PolyNetwork, V: GaugeRotation | np.ndarray) -> PolyNetwork:
    """Apply the gauge action of V to every unit (distribution-preserving)."""
    Vm = V.V if isinstance(V, GaugeRotation) else np.asarray(V, dtype=float)
    if Vm.shape != (net.r, net.r):
        raise UsageError("rotation dimension mismatch")
    if net.kind == "quadratic":
        Q = np.einsum("ij,ajk,lk->ail", Vm, net.Q, Vm)
        return replace(net, Q=0.5 * (Q + np.transpose(Q, (0, 2, 1))))
    return replace(net, components=np.einsum("ij,atj->ati", Vm, net.components))


@dataclass
class SeedDistribution:
    """Seed law of the transformation input.

    ``gaussian`` is the r-dimensional standard normal.  ``rotation_invariant``
    draws a uniform direction scaled by a user-supplied radial sampler and
    exposes a radial moment oracle e -> E||x||^e.
    """

    kind: str = "gaussian"
    radial_moment: Optional[Callable[[int], float]] = None
    radial_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "rotation_invariant"):
            raise UsageError(f"unknown seed kind {self.kind!r}")
        if self.kind == "rotation_invariant":
            if self.radial_moment is None or self.radial_sampler is None:
                raise UsageError(
                    "rotation-invariant seeds need a radial sampler and moment oracle"
                )


@dataclass
class SmoothingParams:
    """Gaussian perturbation of magnitude rho/sqrt(r) applied to a base network."""

    rho: float
    base: PolyNetwork
    rng_seed: int = 0

    def __post_init__(self):
        check_settings({}, {}, {"rho": self.rho})


def _seed_rng(rng_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by (seed, stream indices).

    Philox keys are exactly two 64-bit words, so the (seed, stream...) tuple
    is hashed down to 128 bits deterministically."""
    raw = ",".join(str(int(v)) for v in (rng_seed,) + stream).encode()
    dig = hashlib.sha256(raw).digest()
    key = np.frombuffer(dig[:16], dtype=np.uint64)
    return _philox_rng(int(key[0]), int(key[1]))


def _philox_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by the two 64-bit words (seed mod 2^64, stream).

    Every Philox stream of the package is made here.  The key is one 128-bit
    integer, so a negative seed wraps to its two's complement: a key tuple
    holding a negative or masked seed would be cast through float64 and
    collide with its neighbours."""
    return np.random.Generator(
        np.random.Philox(key=(int(seed) % 2**64) | (int(stream) << 64))
    )


def draw_seeds(
    seed: SeedDistribution, r: int, n: int, rng_seed: int
) -> np.ndarray:
    """n i.i.d. seed vectors as an (n, r) array, deterministic in rng_seed."""
    rng = _seed_rng(rng_seed, 0)
    x = rng.standard_normal((n, r))
    if seed.kind == "rotation_invariant":
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = np.asarray(seed.radial_sampler(rng, n), dtype=float).reshape(n, 1)
        x = x / norms * radii
    return x


# OpenBLAS 0.3.31 blocks a long inner dimension by its thread count: a
# (400 x 848) @ (848 x 20) product gave other bits at 1 and 2 threads.  None
# of the products tried with an inner dimension up to this one did
BLAS_INNER = 128


def blas_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays by BLAS gemm, the same bits at any BLAS
    thread count: the inner dimension goes in blocks of ``BLAS_INNER``,
    summed in order, and a one-column ``b`` gets a zero column, since numpy
    hands such a product to gemv, whose sums depend on the thread count."""
    if b.shape[1] == 1:
        return blas_product(a, np.hstack([b, np.zeros_like(b)]))[:, :1]
    out = a[:, :BLAS_INNER] @ b[:BLAS_INNER]
    for start in range(BLAS_INNER, a.shape[1], BLAS_INNER):
        out += a[:, start:start + BLAS_INNER] @ b[start:start + BLAS_INNER]
    return out


def sample(
    net: PolyNetwork,
    seed: SeedDistribution,
    n: int,
    rng_seed: int = 0,
) -> np.ndarray:
    """Push n seed draws through the network; returns an (n, d) sample matrix.

    The seeds come from ``draw_seeds`` and go through ``evaluate``, one
    matrix product per network.  ResourceError before drawing when the arrays
    this call holds at once (``_sample_bytes``) would exceed
    ``DENSE_BYTES_CAP``."""
    if n < 1:
        raise UsageError("need at least one sample")
    need = _sample_bytes(net, seed, n)
    if need > DENSE_BYTES_CAP:
        raise ResourceError(
            f"{n} samples of a (r={net.r}, d={net.d}) network need {need / 2**30:.3g} GiB, "
            f"over the {DENSE_BYTES_CAP / 2**30:g} GiB cap"
        )
    x = draw_seeds(seed, net.r, n, rng_seed)
    return evaluate(net, x)


def _sample_bytes(net: PolyNetwork, seed: SeedDistribution, n: int) -> int:
    """Bytes of the float64 arrays ``sample`` holds at once.

    Drawing holds the (n, r) seeds; rotation-invariant seeds add their norms,
    radii and two (n, r) temporaries (the radial sampler's own scratch is not
    counted).  Evaluating holds the seeds and the arrays of ``evaluate``:
    for a quadratic network the r(r+1)/2 products x_i x_j of each row and z;
    for a low-rank one the d * ell projections, their powers and z.  A
    product of ``blas_product`` is at least two columns wide, and takes one
    more of its size when its inner dimension exceeds ``BLAS_INNER``.
    """
    r, d = net.r, net.d
    if net.kind == "quadratic":
        m = r * (r + 1) // 2
        hold = m + max(d, 2) * (1 + (m > BLAS_INNER))
    else:
        k = d * net.ell
        hold = max(k, 2) + k + d
    draw = 3 * r + 2 if seed.kind == "rotation_invariant" else r
    return 8 * n * max(draw, r + hold)


def evaluate(net: PolyNetwork, x: np.ndarray) -> np.ndarray:
    """Evaluate the transformation on given seed rows x (shape (n, r)).

    Each kind is one matrix product on the rows (``blas_product``).
    Quadratic: the products x_i x_j, i <= j, times the matching entries of
    Q_a, off-diagonal ones doubled.  Low-rank: the projections
    <v_{a,t}, x>, raised to the power omega by repeated multiplication and
    summed over t.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != net.r:
        raise UsageError(f"seed rows must have shape (n, {net.r}), got {x.shape}")
    if net.kind == "quadratic":
        i, j = _triu(net.r)
        F = np.empty((len(i), len(x)))
        for k in range(len(i)):
            np.multiply(x[:, i[k]], x[:, j[k]], out=F[k])
        # Q_a is exactly symmetric (__post_init__), so x^T Q_a x holds each
        # off-diagonal entry twice; doubling is exact
        W = net.Q[:, i, j] * np.where(i == j, 1.0, 2.0)
        return blas_product(F.T, W.T)
    proj = blas_product(x, net.components.reshape(net.d * net.ell, net.r).T)
    power = proj * proj
    for _ in range(net.omega - 2):
        power *= proj
    return power.reshape(len(x), net.d, net.ell).sum(axis=2)


def smooth_quadratic(params: SmoothingParams) -> PolyNetwork:
    """Perturb each Q_a by (rho/sqrt(r)) G_a with G_a symmetric Gaussian.

    Diagonal and upper-triangular entries of G_a are i.i.d. standard normal;
    the strict lower triangle mirrors the upper.
    """
    base = params.base
    if base.kind != "quadratic":
        raise UsageError("smooth_quadratic needs a quadratic base network")
    r, d = base.r, base.d
    scale = params.rho / math.sqrt(r)
    Q = np.array(base.Q, dtype=float, copy=True)
    iu = _triu(r)
    G = np.empty((r, r))
    # a huge rho overflows to inf here, which PolyNetwork refuses
    with np.errstate(over="ignore"):
        for a in range(d):
            g = _seed_rng(params.rng_seed, 1, a).standard_normal(len(iu[0]))
            G[iu] = g
            G[iu[1], iu[0]] = g
            Q[a] += scale * G
    return PolyNetwork(kind="quadratic", r=r, d=d, Q=Q, smoothing_rho=params.rho)


def smooth_componentwise(params: SmoothingParams) -> PolyNetwork:
    """Perturb each component vector by (rho/sqrt(r)) g with g standard normal."""
    base = params.base
    if base.kind != "lowrank":
        raise UsageError("smooth_componentwise needs a lowrank base network")
    r = base.r
    scale = params.rho / math.sqrt(r)
    comps = np.array(base.components, dtype=float, copy=True)
    # a huge rho overflows to inf here, which PolyNetwork refuses
    with np.errstate(over="ignore"):
        for a in range(base.d):
            for t in range(base.ell):
                rng = _seed_rng(params.rng_seed, 2, a, t)
                comps[a, t] += scale * rng.standard_normal(r)
    return PolyNetwork(
        kind="lowrank",
        r=r,
        d=base.d,
        omega=base.omega,
        ell=base.ell,
        components=comps,
        smoothing_rho=params.rho,
    )


def gaussian_norm_moment(r: int, e: int) -> float:
    """E||g||^e for g ~ N(0, Id_r): 2^{e/2} Gamma((r+e)/2) / Gamma(r/2).

    For even e that is the integer r (r+2) ... (r+e-2); for odd e it is
    sqrt(2) Gamma((r+1)/2) / Gamma(r/2) times (r+1) (r+3) ... (r+e-2), the
    Gamma ratio through log-Gamma once Gamma((r+1)/2) overflows (r > 342)."""
    m = float(math.prod(range(r + e % 2, r + e - 1, 2)))
    if e % 2 == 0:
        return m
    try:
        ratio = math.gamma((r + 1) / 2) / math.gamma(r / 2)
    except OverflowError:
        ratio = math.exp(math.lgamma((r + 1) / 2) - math.lgamma(r / 2))
    return math.sqrt(2.0) * ratio * m


def w1_upper_bound(
    dist: float, r: int, d: int, omega: int, seed: SeedDistribution
) -> float:
    """Wasserstein-1 bound dist * sqrt(d) * E||x||^omega between two pushforwards
    whose networks are within gauge distance ``dist``; UsageError unless
    ``dist`` is finite and >= 0."""
    check_settings({}, {}, {"distance": dist})
    if seed.kind == "gaussian":
        m = gaussian_norm_moment(r, omega)
    else:
        m = float(seed.radial_moment(omega))
    return dist * math.sqrt(d) * m


# ---------------------------------------------------------------------------
# JSON schema shared with the CLI
# ---------------------------------------------------------------------------

def network_to_json(net: PolyNetwork) -> dict:
    """The network's JSON form; ``smoothing_rho`` is written when it is set."""
    obj = {"kind": net.kind, "r": net.r, "d": net.d}
    if net.kind == "quadratic":
        obj["Q"] = [q.tolist() for q in net.Q]
    else:
        obj.update(omega=net.omega, ell=net.ell,
                   components=[[v.tolist() for v in unit] for unit in net.components])
    if net.smoothing_rho is not None:
        obj["smoothing_rho"] = net.smoothing_rho
    return obj


def network_from_json(obj: dict) -> PolyNetwork:
    """A network from its parsed JSON form.  The optional ``smoothing_rho``
    must be finite and >= 0; UsageError otherwise, and on a missing or
    malformed field."""
    if not isinstance(obj, dict):
        raise UsageError("a network must be a JSON object")
    try:
        kind = obj["kind"]
        rho = obj.get("smoothing_rho")
        if rho is not None:
            rho = float(rho)
            check_settings({}, {}, {"smoothing_rho": rho})
        if kind == "quadratic":
            Q = np.asarray(obj["Q"], dtype=float)
            return PolyNetwork(
                kind="quadratic", r=int(obj["r"]), d=int(obj["d"]), Q=Q, smoothing_rho=rho
            )
        if kind == "lowrank":
            comps = np.asarray(obj["components"], dtype=float)
            return PolyNetwork(
                kind="lowrank",
                r=int(obj["r"]),
                d=int(obj["d"]),
                omega=int(obj["omega"]),
                ell=int(obj["ell"]),
                components=comps,
                smoothing_rho=rho,
            )
        raise UsageError(f"unknown network kind {kind!r}")
    except KeyError as exc:
        raise UsageError(f"network JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed network JSON: {exc}") from exc


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise UsageError(f"network {name} has entries that are not finite floats")
