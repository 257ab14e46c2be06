"""Polynomial networks, seed distributions, smoothing, and pushforward sampling.

A network is a family of symmetric order-``omega`` tensors ``T_1..T_d`` over
R^r; the transformation it defines pushes a seed ``x`` forward to
``(<T_1, x^{(x omega)}>, ..., <T_d, x^{(x omega)}>)``.  Quadratic networks
(omega = 2) are stored as symmetric matrices ``Q_a`` so that
``z_a = x^T Q_a x``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import UsageError
from .tensors import GaugeRotation, paired_contraction

__all__ = [
    "PolyNetwork",
    "SeedDistribution",
    "SmoothingParams",
    "rotate_network",
    "paired_outers",
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
        if self.kind == "quadratic":
            if self.omega != 2:
                raise UsageError("quadratic networks have omega = 2")
            Q = np.asarray(self.Q, dtype=float)
            if Q.shape != (self.d, self.r, self.r):
                raise UsageError(f"Q must have shape {(self.d, self.r, self.r)}")
            if np.max(np.abs(Q - np.transpose(Q, (0, 2, 1))), initial=0.0) > 1e-12:
                raise UsageError("quadratic units must be symmetric to 1e-12")
            self.Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        elif self.kind == "lowrank":
            if self.omega % 2 == 0 or self.omega < 3:
                raise UsageError("lowrank networks need odd omega >= 3")
            comps = np.asarray(self.components, dtype=float)
            if comps.shape != (self.d, self.ell, self.r):
                raise UsageError(
                    f"components must have shape {(self.d, self.ell, self.r)}"
                )
            self.components = comps
        else:
            raise UsageError(f"unknown network kind {self.kind!r}")

    def unit_tensor(self, a: int) -> np.ndarray:
        """Dense order-omega tensor of unit a."""
        if self.kind == "quadratic":
            return np.asarray(self.Q[a])
        T = np.zeros((self.r,) * self.omega)
        for t in range(self.ell):
            v = self.components[a, t]
            out = v
            for _ in range(self.omega - 1):
                out = np.multiply.outer(out, v)
            T += out
        return T

    def unit_tensors(self) -> np.ndarray:
        return np.stack([self.unit_tensor(a) for a in range(self.d)])

    @property
    def radius(self) -> float:
        """max_a Frobenius norm of T_a."""
        return max(
            float(np.linalg.norm(self.unit_tensor(a))) for a in range(self.d)
        )


def paired_outers(net: PolyNetwork) -> np.ndarray:
    """The (d, r, r) stack F_a = f_a f_a^T of an odd-order network, f_a the
    paired contraction of unit a.  The F_a co-rotate with the gauge like
    quadratic units."""
    F = np.zeros((net.d, net.r, net.r))
    for a in range(net.d):
        f = paired_contraction(net.unit_tensor(a))
        F[a] = np.outer(f, f)
    return F


def rotate_network(net: PolyNetwork, V: GaugeRotation | np.ndarray) -> PolyNetwork:
    """Apply the gauge action of V to every unit (distribution-preserving)."""
    Vm = V.V if isinstance(V, GaugeRotation) else np.asarray(V, dtype=float)
    if Vm.shape != (net.r, net.r):
        raise UsageError("rotation dimension mismatch")
    if net.kind == "quadratic":
        Q = np.einsum("ij,ajk,lk->ail", Vm, net.Q, Vm)
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        return PolyNetwork(
            kind="quadratic", r=net.r, d=net.d, Q=Q, smoothing_rho=net.smoothing_rho
        )
    comps = np.einsum("ij,atj->ati", Vm, net.components)
    return PolyNetwork(
        kind="lowrank",
        r=net.r,
        d=net.d,
        omega=net.omega,
        ell=net.ell,
        components=comps,
        smoothing_rho=net.smoothing_rho,
    )


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
        if self.rho < 0:
            raise UsageError("rho must be nonnegative")


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


def sample(
    net: PolyNetwork,
    seed: SeedDistribution,
    n: int,
    rng_seed: int = 0,
) -> np.ndarray:
    """Push n seed draws through the network; returns an (n, d) sample matrix."""
    if n < 1:
        raise UsageError("need at least one sample")
    x = draw_seeds(seed, net.r, n, rng_seed)
    return evaluate(net, x)


def evaluate(net: PolyNetwork, x: np.ndarray) -> np.ndarray:
    """Evaluate the transformation on given seed rows x (shape (n, r))."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if net.kind == "quadratic":
        # z_a = x^T Q_a x, vectorized over samples and units
        return np.einsum("ni,aij,nj->na", x, net.Q, x, optimize=True)
    proj = np.einsum("atr,nr->nat", net.components, x)
    return np.sum(proj**net.omega, axis=2)


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
    for a in range(d):
        rng = _seed_rng(params.rng_seed, 1, a)
        G = np.zeros((r, r))
        iu = np.triu_indices(r)
        G[iu] = rng.standard_normal(len(iu[0]))
        G = G + np.triu(G, 1).T
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
    """E||g||^e for g ~ N(0, Id_r): 2^{e/2} Gamma((r+e)/2) / Gamma(r/2)."""
    return math.exp(
        0.5 * e * math.log(2.0) + gammaln((r + e) / 2.0) - gammaln(r / 2.0)
    )


def w1_upper_bound(
    dist: float, r: int, d: int, omega: int, seed: SeedDistribution
) -> float:
    """Wasserstein-1 bound dist * sqrt(d) * E||x||^omega between two pushforwards
    whose networks are within gauge distance ``dist``."""
    if dist < 0:
        raise UsageError("distance must be nonnegative")
    if seed.kind == "gaussian":
        m = gaussian_norm_moment(r, omega)
    else:
        m = float(seed.radial_moment(omega))
    return dist * math.sqrt(d) * m


# ---------------------------------------------------------------------------
# JSON schema shared with the CLI
# ---------------------------------------------------------------------------

def network_to_json(net: PolyNetwork) -> dict:
    if net.kind == "quadratic":
        return {
            "kind": "quadratic",
            "r": net.r,
            "d": net.d,
            "Q": [q.tolist() for q in net.Q],
        }
    return {
        "kind": "lowrank",
        "r": net.r,
        "d": net.d,
        "omega": net.omega,
        "ell": net.ell,
        "components": [[v.tolist() for v in unit] for unit in net.components],
    }


def network_from_json(obj: dict | str) -> PolyNetwork:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid network JSON: {exc}") from exc
    try:
        kind = obj["kind"]
        if kind == "quadratic":
            Q = np.asarray(obj["Q"], dtype=float)
            _check_finite(Q, "Q")
            return PolyNetwork(kind="quadratic", r=int(obj["r"]), d=int(obj["d"]), Q=Q)
        if kind == "lowrank":
            comps = np.asarray(obj["components"], dtype=float)
            _check_finite(comps, "components")
            return PolyNetwork(
                kind="lowrank",
                r=int(obj["r"]),
                d=int(obj["d"]),
                omega=int(obj["omega"]),
                ell=int(obj["ell"]),
                components=comps,
            )
        raise UsageError(f"unknown network kind {kind!r}")
    except KeyError as exc:
        raise UsageError(f"network JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed network JSON: {exc}") from exc


def _check_finite(a: np.ndarray, name: str) -> None:
    # NaN passes the symmetry check (NaN > tol is False), so test here
    if not np.isfinite(a).all():
        raise UsageError(f"network JSON: {name} has non-finite entries")
