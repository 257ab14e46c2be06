"""Sorted-index flattening of symmetric tensors, their paired contraction and
symmetrization, and the gauge rotation type.

Conventions
-----------
Multi-indices are 0-based tuples ``(i_1, ..., i_omega)`` with entries in
``range(r)``.  Dense tensors are numpy arrays of shape ``(r,) * omega``.  A
symmetric tensor is flattened to its m = C(r+omega-1, omega) entries at the
sorted multi-indices in lexicographic order (``sorted_entries``), each of
which stands for ``multiplicity`` dense entries.

Caches
------
The index arrays that depend only on integer shape arguments, the sorted
multi-indices of (r, omega) with their multiplicities and the upper-triangle
indices and mask of an n x n matrix, come from ``functools.lru_cache`` helpers: built
on first use, then kept, bounded by their ``maxsize`` and read-only, since
every caller shares them.  Importing the package builds none of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = [
    "GaugeRotation",
    "sorted_multi_indices",
    "multiplicity",
    "sorted_entries",
    "symmetrize",
    "num_sorted_indices",
]


def num_sorted_indices(r: int, omega: int) -> int:
    """Number of nondecreasing multi-indices in [r]^omega, C(r+omega-1, omega)."""
    return math.comb(r + omega - 1, omega)


@functools.lru_cache(maxsize=32)
def sorted_multi_indices(r: int, omega: int) -> tuple[tuple[int, ...], ...]:
    """All nondecreasing multi-indices over range(r), lexicographically ordered."""
    return tuple(itertools.combinations_with_replacement(range(r), omega))


def multiplicity(index):
    """Count the distinct permutations of a multi-index, or of each row of
    an (..., omega) array of them.

    Equals ``omega! / prod(c_v!)`` where ``c_v`` counts repetitions of each
    value, as a float: exact while omega! is, for omega <= 22.
    """
    index = np.asarray(index, dtype=np.int64)
    omega = index.shape[-1]
    fact = np.array([float(math.factorial(k)) for k in range(omega + 1)])
    values = np.arange(index.max(initial=0) + 1)
    counts = np.sum(index[..., None] == values, axis=-2)
    return fact[omega] / np.prod(fact[counts], axis=-1)


@functools.lru_cache(maxsize=32)
def _sorted_indices(r: int, omega: int) -> np.ndarray:
    """sorted_multi_indices(r, omega) as an (m, omega) int64 array."""
    idx = np.array(sorted_multi_indices(r, omega), dtype=np.int64)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=32)
def _sorted_multiplicity(r: int, omega: int) -> np.ndarray:
    """The multiplicity of each of the sorted multi-indices of (r, omega)."""
    mult = multiplicity(_sorted_indices(r, omega))
    mult.setflags(write=False)
    return mult


@functools.lru_cache(maxsize=32)
def _triu(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k)."""
    iu = np.triu_indices(n, k)
    for a in iu:
        a.setflags(write=False)
    return iu


@functools.lru_cache(maxsize=32)
def _triu_mask(n: int) -> np.ndarray:
    """The (n, n) boolean mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


def sorted_entries(T: np.ndarray, omega: int) -> np.ndarray:
    """The (..., m) entries of the stacked order-omega tensors T, of shape
    (..., r, ..., r), at the sorted multi-indices (sorted_multi_indices)."""
    return T[(Ellipsis, *_sorted_indices(T.shape[-1], omega).T)]


def paired_contraction(T: np.ndarray, omega: int) -> np.ndarray:
    """Contract the order-omega tensors stacked along T's leading axes, of
    shape (..., r, ..., r), over (omega-1)/2 paired axes to r-vectors.

    Returns sum_{j_1..j_k} T[..., j_1, j_1, ..., j_k, j_k, :] for omega =
    2k+1, tracing the leading pair first, so each tensor of a stack gets the
    bits it gets alone.
    """
    T = np.asarray(T, dtype=float)
    if omega % 2 == 0 or T.ndim < omega:
        raise UsageError(f"paired contraction needs an odd order of at most the "
                         f"array's {T.ndim} axes, got {omega}")
    lead = T.ndim - omega
    out = T
    for _ in range(omega // 2):
        out = np.trace(out, axis1=lead, axis2=lead + 1)
    return out


def symmetrize(T: np.ndarray) -> np.ndarray:
    """Average a dense tensor over all axis permutations.

    The sum starts from T itself, in itertools.permutations order, so
    entries that are all -0.0 stay -0.0."""
    T = np.asarray(T, dtype=float)
    acc = T.copy()
    perms = list(itertools.permutations(range(T.ndim)))
    for p in perms[1:]:
        acc += np.transpose(T, p)
    return acc / len(perms)


@dataclass(frozen=True)
class GaugeRotation:
    """An element of O(r), validated to orthogonality 1e-10."""

    V: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        r = V.shape[0]
        if V.shape != (r, r):
            raise UsageError("rotation must be square")
        if not np.isfinite(V).all():
            raise UsageError("rotation has NaN or inf entries")
        err = np.max(np.abs(V.T @ V - np.eye(r)))
        if err > 1e-10:
            raise UsageError(f"matrix is not orthogonal (deviation {err:.2e})")
        object.__setattr__(self, "V", V)
