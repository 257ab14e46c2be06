"""Sorted-index flattening and symmetrization of symmetric tensors, the
packing of symmetric matrices, and the gauge rotation type.

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
indices of an n x n matrix, come from ``functools.lru_cache`` helpers: built
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


def sorted_entries(T: np.ndarray, omega: int) -> np.ndarray:
    """The (..., m) entries of the stacked order-omega tensors T, of shape
    (..., r, ..., r), at the sorted multi-indices (sorted_multi_indices)."""
    return T[(Ellipsis, *_sorted_indices(T.shape[-1], omega).T)]


def _unpack(x: np.ndarray, d: int, r: int) -> np.ndarray:
    """The (d, r, r) symmetric matrices whose upper triangles, row by row
    (_triu), are the d rows of the packed ``x``."""
    i, j = _triu(r)
    X = np.asarray(x).reshape(d, i.size)
    Q = np.zeros((d, r, r), dtype=np.result_type(X, float))
    Q[:, i, j] = X
    Q[:, j, i] = X
    return Q


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
