"""Shared independent oracles for the test suite.

Everything here is computed from first principles (pairing enumeration,
partition sums, dense linear algebra) so library outputs are checked against
code that shares no implementation with the package.
"""
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from polypush.errors import DENSE_BYTES_CAP, ResourceError, UsageError

# the same examples on every run, and no per-example deadline: timings on
# small shared hosts vary too much for one
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pairings(items):
    """All perfect matchings of a list (empty list yields one empty matching)."""
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in pairings(rest):
            yield [(first, items[k])] + sub


def gaussian_product_moment(index):
    """E[g_{i_1} ... g_{i_k}] for independent standard normals, by pairing count."""
    idx = list(index)
    if len(idx) % 2 == 1:
        return 0.0
    total = 0.0
    for match in pairings(idx):
        total += float(all(a == b for a, b in match))
    return total


def wick_linear_pair_moment(v, w, omega):
    """E[<v,g>^omega <w,g>^omega] by brute-force pairing enumeration.

    Factor positions 0..omega-1 carry v, positions omega..2omega-1 carry w;
    each matching contributes the product of pairwise covariances.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    vecs = [v] * omega + [w] * omega
    total = 0.0
    for match in pairings(list(range(2 * omega))):
        term = 1.0
        for a, b in match:
            term *= float(vecs[a] @ vecs[b])
        total += term
    return total


def set_partitions(items):
    """All set partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def joint_cumulant(moment_fn, indices):
    """Joint cumulant from raw moments via the partition-sum formula.

    kappa(X_{i_1},...,X_{i_m}) =
        sum over partitions pi of (-1)^{|pi|-1} (|pi|-1)! prod_B E[prod X].
    """
    total = 0.0
    for part in set_partitions(list(indices)):
        k = len(part)
        term = (-1.0) ** (k - 1) * math.factorial(k - 1)
        for block in part:
            term *= moment_fn(tuple(block))
        total += term
    return total


def diagonal_pushforward_moment(vs, units):
    """E[prod_k z_{units[k]}] for z_a = sum_i vs[i, a] g_i^2, exactly.

    Expands the product over coordinate assignments; each coordinate i
    appearing c times contributes E[g^{2c}] = (2c-1)!!.
    """
    vs = np.asarray(vs, dtype=float)
    r = vs.shape[0]
    k = len(units)
    total = 0.0
    for assign in itertools.product(range(r), repeat=k):
        coeff = 1.0
        counts = [0] * r
        for pos, i in enumerate(assign):
            coeff *= vs[i, units[pos]]
            counts[i] += 1
        mom = 1.0
        for c in counts:
            mom *= math.prod(range(2 * c - 1, 0, -2)) if c else 1.0
        total += coeff * mom
    return total


def random_orthogonal(rng, r):
    """Haar-ish orthogonal matrix via QR with a deterministic sign convention."""
    A = rng.standard_normal((r, r))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def symmetric_gaussian(rng, r):
    G = rng.standard_normal((r, r))
    return 0.5 * (G + G.T)


def complex_step_jacobian(f, x, h=1e-30):
    """Jacobian of a real-analytic f at the real point x by the complex step
    df/dx_k = Im f(x + i h e_k) / h: no difference is taken, so for the
    polynomial models of the package it is exact to rounding."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros(x.size, dtype=complex)
        step[k] = 1j * h
        cols.append(np.imag(f(x + step)) / h)
    return np.stack(cols, axis=1)


@pytest.fixture
def forbid_solve(monkeypatch):
    """Make the relaxation solver raise under every name a recovery module
    can reach it by: the recovery paths certify a point and never solve."""
    from polypush import lowrank, relaxation, tensor_ring

    def refuse(*args, **kw):
        raise AssertionError("a recovery path called relaxation.solve")

    for mod in (relaxation, tensor_ring, lowrank):
        monkeypatch.setattr(mod, "solve", refuse)


def check_point(prog, point):
    """Worst constraint violation of the encoded program ``prog`` at a
    concrete assignment, polynomial by polynomial; an inequality counts only
    beyond relaxation.INEQUALITY_SLACK."""
    from polypush.relaxation import INEQUALITY_SLACK

    worst = 0.0
    for p, _ in prog.equalities:
        worst = max(worst, abs(p.evaluate(point)))
    for p, _ in prog.inequalities:
        worst = max(worst, max(0.0, -p.evaluate(point) - INEQUALITY_SLACK))
    return worst


def oracle_violation(prog, M, components=None):
    """The worst violation of an encoded program at the point its units fix:
    the point fills the encoder's variable blocks in ``prog.meta``, "units"
    with the (d, m) flattening M, "components" with ``components`` (the
    low-rank program only), and "L" and, in the low-rank program, "P" with
    the least-norm left inverses pinv(M) and pinv(M B) (check_point)."""
    values = {"units": M, "components": components, "L": np.linalg.pinv(M)}
    if "P" in prog.meta:
        values["P"] = np.linalg.pinv(M @ prog.meta["B"])
    point = np.empty(prog.nvars)
    for key, value in values.items():
        if value is not None:
            point[prog.meta[key]] = value
    return check_point(prog, point)


def certify_oracle(prog, M, components=None):
    """The certificate through the encoded program: oracle_violation,
    gated at max(eta, 1e-7) with ConvergenceError."""
    from polypush.errors import ConvergenceError

    violation = oracle_violation(prog, M, components)
    if violation > max(prog.meta["eta"], 1e-7):
        raise ConvergenceError("instance violates non-degeneracy caps of the relaxation")
    return violation


def grid_scan_direct(objective, tensA, tensB, step):
    """The r = 2 gauge grid scored point by point: every rotation by the
    angles 0, step, 2 step, ... below 2 pi, then each of them times
    diag(1, -1), all scored by ``objective`` in one batch.  Returns
    (index, angle, value) of the first least value."""
    thetas = np.arange(0.0, 2 * math.pi, step)
    c, s = np.cos(thetas), np.sin(thetas)
    R = np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))
    obj = objective(tensA, tensB, np.concatenate([R, R @ np.diag([1.0, -1.0])]))
    k = int(np.argmin(obj))
    return k, float(thetas[k % thetas.size]), obj[k]


def unit_tensors_per_unit(net):
    """The (d, r, ..., r) unit tensors of a network one unit at a time: a
    quadratic unit is Q_a, a low-rank one adds each running outer product
    v x v x ... x v (np.multiply.outer) to zeros, in the order of t."""
    if net.kind == "quadratic":
        return np.stack([np.array(Qa) for Qa in net.Q])
    units = []
    for unit in net.components:
        T = np.zeros((net.r,) * net.omega)
        for v in unit:
            power = v
            for _ in range(net.omega - 1):
                power = np.multiply.outer(power, v)
            T += power
        units.append(T)
    return np.stack(units)


def paired_contraction(T, omega):
    """The r-vector sum_{j_1..j_k} T[j_1, j_1, ..., j_k, j_k, :] of one
    order-omega tensor, omega = 2k+1, tracing the leading pair first."""
    for _ in range(omega // 2):
        T = np.trace(T, axis1=0, axis2=1)
    return T


def paired_outers_per_unit(net):
    """F_a = f_a f_a^T of an odd-order network one unit at a time, f_a the
    paired contraction of unit_tensors_per_unit's T_a."""
    F = np.zeros((net.d, net.r, net.r))
    for a, T in enumerate(unit_tensors_per_unit(net)):
        f = paired_contraction(T, net.omega)
        F[a] = np.outer(f, f)
    return F


def vec(T):
    """Flatten a tensor in lexicographic (C) order, so for a matrix
    ``vec([[a, b], [c, d]]) == (a, b, c, d)`` and
    ``kron(V, V) @ vec(Q) == vec(V @ Q @ V.T)``."""
    return np.asarray(T).reshape(-1)


def kron_power(V, omega):
    """The omega-fold Kronecker power V x V x ... x V."""
    out = np.asarray(V, dtype=float)
    for _ in range(omega - 1):
        out = np.kron(out, V)
    return out


def apply_transform(U, T):
    """Apply a linear map on vectorized tensors: returns U @ vec(T) reshaped as T.

    For ``U = kron_power(V, 2)`` this reduces to ``V @ Q @ V.T``.
    """
    T = np.asarray(T, dtype=float)
    U = np.asarray(U, dtype=float)
    n = T.size
    if U.shape != (n, n):
        raise UsageError(f"transform shape {U.shape} does not match tensor size {n}")
    return (U @ vec(T)).reshape(T.shape)


def rotate_tensor(V, T):
    """The gauge action of V on one order-omega tensor, without forming
    V^{x omega}: V contracted onto every mode, as
    apply_transform(kron_power(V, omega), T)."""
    T = np.asarray(T, dtype=float)
    out = T
    for axis in range(T.ndim):
        out = np.tensordot(V, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


@dataclass
class SigmaMatrix:
    """Sigma, its restriction to the sorted multi-indices, and the
    multiplicity diagonal."""

    r: int
    omega: int
    Sigma: np.ndarray
    Sigma_sym: np.ndarray
    D: np.ndarray


def sigma_matrix(r, omega, seed=None):
    """The dense moment matrix Sigma = E[g^{x omega} (g^{x omega})^T] and friends.

    Entries are E[g_{i_1}..g_{i_omega} g_{j_1}..g_{j_omega}]; independence of
    coordinates reduces each to a product of univariate even moments
    (2c-1)!!, c the count of a coordinate (the Wick pairing count).
    Sigma_sym is Sigma at the flat positions of the sorted multi-indices, and
    D the diagonal of their multiplicities omega! / prod c!.  A
    rotation-invariant seed rescales every entry by the degree-2 omega radial
    factor E_D||x||^(2 omega) / E||g||^(2 omega), where
    E||g||^(2 omega) = r (r + 2) ... (r + 2 omega - 2).  ResourceError when
    the dense arrays would exceed the package's DENSE_BYTES_CAP.
    """
    n = r**omega
    sidx = list(itertools.combinations_with_replacement(range(r), omega))
    m = len(sidx)
    # Sigma and the int64 index sum and float64 lookup temporaries of its
    # product loop, each n x n, and Sigma_sym and D, each m x m
    need = 8 * (3 * n * n + 2 * m * m)
    if need > DENSE_BYTES_CAP:
        raise ResourceError(
            f"Sigma for r={r}, omega={omega} needs {need / 2**30:.3g} GiB, "
            f"over the {DENSE_BYTES_CAP / 2**30:g} GiB cap"
        )
    idx = np.array(list(itertools.product(range(r), repeat=omega))).reshape(n, omega)
    counts = np.stack([np.sum(idx == k, axis=1) for k in range(r)], axis=1)
    table = np.zeros(2 * omega + 1)
    table[::2] = [math.prod(range(2 * c - 1, 0, -2)) for c in range(omega + 1)]
    Sigma = np.ones((n, n))
    for k in range(r):
        Sigma *= table[counts[:, k][:, None] + counts[None, :, k]]
    flat = np.ravel_multi_index(np.array(sidx).T, (r,) * omega)
    Sigma_sym = Sigma[np.ix_(flat, flat)]
    D = np.diag([math.factorial(omega) / math.prod(math.factorial(t.count(k)) for k in range(r))
                 for t in sidx])
    if seed is not None and seed.kind == "rotation_invariant":
        scale = seed.radial_moment(2 * omega) / math.prod(range(r, r + 2 * omega, 2))
        Sigma, Sigma_sym = Sigma * scale, Sigma_sym * scale
    return SigmaMatrix(r=r, omega=omega, Sigma=Sigma, Sigma_sym=Sigma_sym, D=D)


def sigma_inner(Ta, Tb, Sigma):
    """vec(T_a)^T Sigma vec(T_b); with Sigma = Id this is the Frobenius product."""
    va, vb = vec(Ta), vec(Tb)
    if Sigma.shape != (va.size, vb.size):
        raise UsageError("Sigma dimension mismatch")
    return float(va @ Sigma @ vb)
