"""Symmetric tensor storage, reshapings, and Kronecker-power transforms.

Conventions
-----------
Multi-indices are 0-based tuples ``(i_1, ..., i_omega)`` with entries in
``range(r)``.  Dense tensors are numpy arrays of shape ``(r,) * omega`` and
their vectorization is C-order (lexicographic on the index tuple), so for a
matrix ``vec([[a, b], [c, d]]) == (a, b, c, d)`` and
``kron(V, V) @ vec(Q) == vec(V @ Q @ V.T)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

__all__ = [
    "SymTensor",
    "DenseTensor",
    "GaugeRotation",
    "sorted_multi_indices",
    "multiplicity",
    "vec",
    "mat",
    "ten",
    "kron_power",
    "apply_transform",
    "symmetrize",
    "num_sorted_indices",
]


def num_sorted_indices(r: int, omega: int) -> int:
    """Number of nondecreasing multi-indices in [r]^omega, C(r+omega-1, omega)."""
    return math.comb(r + omega - 1, omega)


def sorted_multi_indices(r: int, omega: int) -> list[tuple[int, ...]]:
    """All nondecreasing multi-indices over range(r), lexicographically ordered."""
    return list(itertools.combinations_with_replacement(range(r), omega))


def multiplicity(index: tuple[int, ...], r: int | None = None) -> int:
    """Count the distinct permutations of a multi-index.

    Equals ``omega! / prod(c_v!)`` where ``c_v`` counts repetitions of each
    value.  ``r``, when given, is used for range validation.
    """
    index = tuple(int(i) for i in index)
    if r is not None:
        for i in index:
            if i < 0 or i >= r:
                raise UsageError(f"multi-index entry {i} out of range for dimension {r}")
    out = math.factorial(len(index))
    for v in set(index):
        out //= math.factorial(index.count(v))
    return out


def vec(T: np.ndarray) -> np.ndarray:
    """Flatten a tensor in lexicographic (C) order."""
    return np.asarray(T).reshape(-1)


def mat(v: np.ndarray) -> np.ndarray:
    """Reshape a length-r^2 vector back to an r x r matrix."""
    v = np.asarray(v)
    r = math.isqrt(v.size)
    if r * r != v.size:
        raise UsageError(f"length {v.size} is not a perfect square")
    return v.reshape(r, r)


def ten(v: np.ndarray, r: int, omega: int) -> np.ndarray:
    """Reshape a length-r^omega vector to an order-omega dense tensor."""
    v = np.asarray(v)
    if v.size != r**omega:
        raise UsageError(f"length {v.size} incompatible with shape {(r,) * omega}")
    return v.reshape((r,) * omega)


def kron_power(V: np.ndarray, omega: int) -> np.ndarray:
    """The omega-fold Kronecker power V x V x ... x V."""
    out = np.asarray(V, dtype=float)
    for _ in range(omega - 1):
        out = np.kron(out, V)
    return out


def apply_transform(U: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Apply a linear map on vectorized tensors: returns ten(U @ vec(T)).

    For ``U = kron_power(V, 2)`` this reduces to ``V @ Q @ V.T``.
    """
    T = np.asarray(T, dtype=float)
    U = np.asarray(U, dtype=float)
    n = T.size
    if U.shape != (n, n):
        raise UsageError(f"transform shape {U.shape} does not match tensor size {n}")
    return (U @ vec(T)).reshape(T.shape)


def rotate_tensor(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Apply the gauge action of V on an order-omega tensor without forming V^{x omega}.

    Contracts V onto every mode; equivalent to apply_transform(kron_power(V, omega), T).
    """
    T = np.asarray(T, dtype=float)
    out = T
    for axis in range(T.ndim):
        out = np.tensordot(V, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


def paired_contraction(T: np.ndarray) -> np.ndarray:
    """Contract an odd-order tensor over (order-1)/2 paired axes to an r-vector.

    Returns sum_{j_1..j_k} T[j_1, j_1, ..., j_k, j_k, :] for order 2k+1.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim % 2 == 0:
        raise UsageError("paired contraction needs an odd-order tensor")
    out = T
    while out.ndim > 1:
        out = np.trace(out, axis1=0, axis2=1)
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
class SymTensor:
    """Order-omega symmetric tensor over R^r stored on sorted multi-indices."""

    order: int
    dim: int
    values: dict[tuple[int, ...], float] = field(default_factory=dict)

    @classmethod
    def from_dense(cls, T: np.ndarray) -> "SymTensor":
        T = np.asarray(T, dtype=float)
        r = T.shape[0]
        omega = T.ndim
        vals = {idx: float(T[idx]) for idx in sorted_multi_indices(r, omega)}
        return cls(order=omega, dim=r, values=vals)

    def __post_init__(self):
        expected = num_sorted_indices(self.dim, self.order)
        if len(self.values) != expected:
            raise UsageError(
                f"symmetric tensor needs {expected} sorted-index values, got {len(self.values)}"
            )

    def __getitem__(self, index: tuple[int, ...]) -> float:
        return self.values[tuple(sorted(index))]

    def to_dense(self) -> np.ndarray:
        T = np.empty((self.dim,) * self.order)
        for idx in itertools.product(range(self.dim), repeat=self.order):
            T[idx] = self.values[tuple(sorted(idx))]
        return T

    def frobenius(self) -> float:
        total = 0.0
        for idx, val in self.values.items():
            total += multiplicity(idx) * val * val
        return math.sqrt(total)


@dataclass(frozen=True)
class DenseTensor:
    """Thin wrapper recording order/dim next to a dense value array."""

    order: int
    dim: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.size != self.dim**self.order:
            raise UsageError("dense tensor size mismatch")

    def tensor(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float).reshape((self.dim,) * self.order)


@dataclass(frozen=True)
class GaugeRotation:
    """An element of O(r), validated to orthogonality 1e-10."""

    V: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        r = V.shape[0]
        if V.shape != (r, r):
            raise UsageError("rotation must be square")
        err = np.max(np.abs(V.T @ V - np.eye(r)))
        if err > 1e-10:
            raise UsageError(f"matrix is not orthogonal (deviation {err:.2e})")
        object.__setattr__(self, "V", V)

    @property
    def dim(self) -> int:
        return self.V.shape[0]
